"""Public classical announcement channel.

Two interchangeable implementations: an in-process channel for single
process sessions and a TCP line protocol for two-process sessions. Both
feed an always-available tap that records every announcement in delivery
order; the tap is the eavesdropper's entire view.

An endpoint's `window` is the number of schedule lines a session plays
through it at a time (protocol._play): a window's A lines, then its B
lines. In-process endpoints deliver at once and play one line at a time.
A TcpEndpoint plays TCP_WINDOW_LINES at a time and buffers what it sends
until it next reads, so a window costs one sendall. One side writes while
the other reads, so the exchange cannot deadlock at any socket buffer
size, and a party buffers at most one window of its own lines.

Wire format, one announcement per line, UTF-8, newline-terminated:

    {"v":1,"sid":"<token>","blk":3,"side":"A","kind":"Measurement","label":"PsiPlus"}

The label field is present exactly for Measurement announcements. The
channel is unauthenticated; see README for the known classical-layer gap.
"""
from __future__ import annotations

import enum
import json
import re
import socket
from collections import deque
from dataclasses import dataclass

from .quantum import BellLabel

WIRE_VERSION = 1
WIRE_FIELDS = ("v", "sid", "blk", "side", "kind", "label")
SIDES = ("A", "B")
# Longest accepted wire frame, newline included; real frames are ~100 bytes.
MAX_FRAME_BYTES = 1024
# Schedule lines a TCP session plays per window: about 256 blocks, a few
# tens of KiB of one side's lines.
TCP_WINDOW_LINES = 512


class ChannelError(Exception):
    """Base for channel failures."""


class TransportError(ChannelError):
    """Underlying transport failed (connect, timeout, closed socket)."""


class FrameError(ChannelError):
    """Malformed wire frame; byte_offset locates it in the stream."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte {byte_offset})")
        self.byte_offset = byte_offset


class OrderingError(ChannelError):
    """Announcements from one side arrived out of block order."""


class AnnouncementKind(enum.Enum):
    MEASUREMENT = "Measurement"
    NO_MESSAGE = "NoMessageDeclaration"
    SESSION_START = "SessionStart"
    SESSION_END = "SessionEnd"


@dataclass(frozen=True)
class Announcement:
    """One public statement: a measurement result or a control message."""

    session_id: str
    block: int
    side: str
    kind: AnnouncementKind
    label: BellLabel | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if (self.kind is AnnouncementKind.MEASUREMENT) != (self.label is not None):
            raise ValueError("exactly Measurement announcements carry a label")
        if type(self.block) is not int:  # bool is an int subclass
            raise ValueError(f"block must be an int, got {self.block!r}")
        if self.block < 0:
            raise ValueError("block must be non-negative")

    def to_wire(self) -> str:
        # The same text as json.dumps of the fields with separators (",", ":"):
        # only the sid needs escaping; side, kind and label are fixed names.
        label = "" if self.label is None else f',"label":"{self.label.value}"'
        return (
            f'{{"v":{WIRE_VERSION},"sid":{json.dumps(self.session_id)},"blk":{self.block},'
            f'"side":"{self.side}","kind":"{self.kind.value}"{label}}}'
        )

    @classmethod
    def from_wire(cls, line: str, byte_offset: int = 0) -> "Announcement":
        canonical = _CANONICAL_LINE.fullmatch(line)
        if canonical is None:
            return cls._from_json(line, byte_offset)
        sid, block, side, kind, label = canonical.groups()
        try:
            return cls(
                sid, int(block), side, _KINDS[kind],
                _LABELS[label] if label is not None else None,
            )
        except ValueError as exc:  # e.g. a label on a control announcement
            raise FrameError(f"invalid frame: {exc}", byte_offset) from exc

    @classmethod
    def _from_json(cls, line: str, byte_offset: int) -> "Announcement":
        """The strict parse of any line: every error, typed and located."""
        try:
            fields = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FrameError(f"invalid frame: {exc.msg}", byte_offset + exc.pos) from exc
        except RecursionError as exc:  # about a thousand nested brackets fit in a frame
            raise FrameError("invalid frame: nested too deeply", byte_offset) from exc
        if not isinstance(fields, dict):
            raise FrameError("frame is not an object", byte_offset)
        unknown = set(fields) - set(WIRE_FIELDS)
        if unknown:
            raise FrameError(f"unexpected fields {sorted(unknown)}", byte_offset)
        if fields.get("v") != WIRE_VERSION:
            raise FrameError(f"unsupported version {fields.get('v')!r}", byte_offset)
        try:
            kind = AnnouncementKind(fields["kind"])
            label = BellLabel(fields["label"]) if "label" in fields else None
            if not isinstance(fields["sid"], str):
                raise FrameError(f"sid must be a string, got {fields['sid']!r}", byte_offset)
            if type(fields["blk"]) is not int:  # bool is an int subclass
                raise FrameError(f"blk must be an integer, got {fields['blk']!r}", byte_offset)
            return cls(
                session_id=fields["sid"],
                block=fields["blk"],
                side=fields["side"],
                kind=kind,
                label=label,
            )
        except (KeyError, ValueError) as exc:
            raise FrameError(f"invalid frame: {exc}", byte_offset) from exc


_KINDS = {kind.value: kind for kind in AnnouncementKind}
_LABELS = {label.value: label for label in BellLabel}
# The line to_wire writes, read without json.loads: the fields in order, a
# sid of printable ASCII that needs no escaping, a block of at most 18
# digits with no leading zero, and known names. Any other line takes the
# strict path, so errors keep their types, messages and byte offsets.
_CANONICAL_LINE = re.compile(
    rf'\{{"v":{WIRE_VERSION},"sid":"([ !#-\[\]-~]*)","blk":(0|[1-9][0-9]{{0,17}}),'
    rf'"side":"({"|".join(map(re.escape, SIDES))})",'
    rf'"kind":"({"|".join(map(re.escape, _KINDS))})"'
    rf'(?:,"label":"({"|".join(map(re.escape, _LABELS))})")?\}}'
)


class _OrderGate:
    """Enforces strictly increasing Measurement blocks per side."""

    def __init__(self):
        self._last: dict[str, int] = {}

    def check(self, ann: Announcement) -> None:
        if ann.kind is not AnnouncementKind.MEASUREMENT:
            return
        last = self._last.get(ann.side, 0)
        if ann.block <= last:
            raise OrderingError(
                f"side {ann.side} announced block {ann.block} after block {last}"
            )
        self._last[ann.side] = ann.block


class InProcessEndpoint:
    window = 1  # delivery is immediate: the schedule plays line by line

    def __init__(self, channel: "InProcessChannel", side: str):
        self._channel = channel
        self.side = side

    def send(self, ann: Announcement) -> None:
        self._channel._deliver(self.side, ann)

    def flush(self) -> None:
        pass

    def receive(self) -> Announcement:
        queue = self._channel._queues[self.side]
        if not queue:
            raise TransportError(f"endpoint {self.side}: nothing to receive")
        return queue.popleft()

    def tap(self) -> tuple[Announcement, ...]:
        return self._channel.tap()

    def close(self) -> None:
        pass


class InProcessChannel:
    """Duplex in-memory channel; delivery order defines the tap order."""

    def __init__(self):
        self._queues: dict[str, deque[Announcement]] = {s: deque() for s in SIDES}
        self._tap: list[Announcement] = []
        self._gate = _OrderGate()

    def endpoint(self, side: str) -> InProcessEndpoint:
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        return InProcessEndpoint(self, side)

    def _deliver(self, sender: str, ann: Announcement) -> None:
        if ann.side != sender:
            raise ChannelError(f"endpoint {sender} cannot send for side {ann.side}")
        self._gate.check(ann)
        other = "B" if sender == "A" else "A"
        self._queues[other].append(ann)
        self._tap.append(ann)

    def tap(self) -> tuple[Announcement, ...]:
        """Every announcement so far, in delivery order."""
        return tuple(self._tap)


class TcpEndpoint:
    """One end of the public TCP channel, speaking the line protocol.

    Sent lines are buffered and written in one sendall on the next
    receive, once a window of them is buffered, or on flush. Tracks byte
    offsets of incoming frames so malformed ones can be located, and taps
    every line sent (when buffered) or received, in wire order.
    """

    window = TCP_WINDOW_LINES

    def __init__(self, sock: socket.socket, side: str, timeout: float = 10.0):
        self.side = side
        self._sock = sock
        self._sock.settimeout(timeout)
        self._reader = sock.makefile("rb")
        self._read_offset = 0
        self._gate = _OrderGate()
        self._tap: list[Announcement] = []
        self._out: list[str] = []

    def send(self, ann: Announcement) -> None:
        if ann.side != self.side:
            raise ChannelError(f"endpoint {self.side} cannot send for side {ann.side}")
        self._out.append(ann.to_wire())
        self._tap.append(ann)
        if len(self._out) >= self.window:
            self.flush()

    def flush(self) -> None:
        """Write every buffered line in one sendall."""
        if not self._out:
            return
        data = ("\n".join(self._out) + "\n").encode("utf-8")
        self._out.clear()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def receive(self) -> Announcement:
        if self._out:  # the peer reads them before it writes
            self.flush()
        offset = self._read_offset
        try:
            raw = self._reader.readline(MAX_FRAME_BYTES)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not raw:
            raise TransportError("peer closed the connection")
        self._read_offset += len(raw)
        if not raw.endswith(b"\n"):
            raise FrameError(
                f"frame is not newline-terminated within {MAX_FRAME_BYTES} bytes", offset
            )
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"invalid frame: {exc.reason}", offset + exc.start) from exc
        ann = Announcement.from_wire(line.rstrip("\n"), offset)
        self._gate.check(ann)
        self._tap.append(ann)
        return ann

    def tap(self) -> tuple[Announcement, ...]:
        return tuple(self._tap)

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Two-process plumbing. The client opens two connections to the same port:
# first the substrate link, then the public channel. The substrate link
# stands in for the pre-shared entangled pairs; it carries one private
# hello per party (config cross-check plus that party's encoded operations)
# and is invisible to the tap. Only the public channel is the transcript.
# --------------------------------------------------------------------------

SUBSTRATE_PREAMBLE = b"swapcomm-substrate v1\n"
PUBLIC_PREAMBLE = b"swapcomm-public v1\n"


class SubstrateLink:
    """Private side channel representing the shared entangled pairs."""

    def __init__(self, sock: socket.socket, timeout: float = 10.0):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._reader = sock.makefile("rb")

    def send_hello(self, hello: dict) -> None:
        payload = dict(hello)
        payload["v"] = WIRE_VERSION
        try:
            self._sock.sendall(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        except OSError as exc:
            raise TransportError(f"substrate send failed: {exc}") from exc

    def receive_hello(self, limit: int) -> dict:
        """The peer's hello: one JSON line of at most `limit` bytes."""
        try:
            raw = self._reader.readline(limit)
        except OSError as exc:
            raise TransportError(f"substrate receive failed: {exc}") from exc
        if not raw:
            raise TransportError("peer closed while reading substrate hello")
        if not raw.endswith(b"\n"):
            raise TransportError(
                f"substrate hello is not newline-terminated within {limit} bytes"
            )
        try:
            hello = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"invalid substrate hello: {exc}") from exc
        except RecursionError as exc:
            raise TransportError("invalid substrate hello: nested too deeply") from exc
        if not isinstance(hello, dict) or hello.get("v") != WIRE_VERSION:
            raise TransportError("invalid substrate hello")
        return hello

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


class SessionListener:
    """Accepts the two connections of a remote party (substrate, then public)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._timeout = timeout
        self._server = socket.create_server((host, port))
        self._server.settimeout(timeout)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.getsockname()[:2]

    def accept(self) -> tuple[SubstrateLink, TcpEndpoint]:
        substrate = self._accept_kind(SUBSTRATE_PREAMBLE)
        public = self._accept_kind(PUBLIC_PREAMBLE)
        return SubstrateLink(substrate, self._timeout), TcpEndpoint(
            public, side="A", timeout=self._timeout
        )

    def _accept_kind(self, expected: bytes) -> socket.socket:
        try:
            conn, _ = self._server.accept()
            conn.settimeout(self._timeout)
            # Byte-at-a-time so no buffered reader can swallow later frames.
            preamble = b""
            while not preamble.endswith(b"\n") and len(preamble) < 128:
                chunk = conn.recv(1)
                if not chunk:
                    break
                preamble += chunk
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        if preamble != expected:
            conn.close()
            raise TransportError(
                f"unexpected preamble {preamble!r}, wanted {expected!r}"
            )
        return conn

    def close(self) -> None:
        try:
            self._server.close()
        except OSError:
            pass


def dial_session(host: str, port: int, timeout: float = 10.0) -> tuple[SubstrateLink, TcpEndpoint]:
    """Connect to a listening party; returns (substrate, public endpoint)."""

    def connect(preamble: bytes) -> socket.socket:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.sendall(preamble)
        except OSError as exc:
            raise TransportError(f"cannot reach {host}:{port}: {exc}") from exc
        return sock

    substrate = connect(SUBSTRATE_PREAMBLE)
    public = connect(PUBLIC_PREAMBLE)
    return SubstrateLink(substrate, timeout), TcpEndpoint(public, side="B", timeout=timeout)
