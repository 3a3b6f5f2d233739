"""Public classical announcement channel.

The channel is a TCP line protocol for two-process sessions, with an
always-available tap that records every announcement in delivery order;
the tap is the eavesdropper's entire view. A session in one process uses
no channel: both parties derive the same schedule from the public config,
so protocol.run_session plays it as it is.

A session's announcements travel as CodedLines: a block column and a line
code column, the code naming one of the 14 (side, kind, label) a line can
have. Announcement objects are built from them only when read, and wire
text is cut from a per-session template. A tap holds CodedLines only,
admitted through an order gate that finds the first line out of its
session's block order as whole arrays. The per-line calls of
InProcessEndpoint, the rest of an in-process channel, wrap one-line
CodedLines. A TcpEndpoint plays `window` (TCP_WINDOW_LINES) schedule lines
at a time, a window's A lines, then its B lines (protocol._play), one
send or receive call each, and buffers what it sends until it
next reads, so a window costs one sendall. One side writes while the
other reads, so the exchange cannot deadlock at any socket buffer size,
and a party buffers at most one window of its own lines. Both parties
know every line of the schedule, so a receiving endpoint accepts a peer
window that is exactly its expected wire text with one byte comparison;
from the first byte that differs, it reads, parses and checks the
window's lines one by one, with the same errors and byte offsets. A peer
line of another session, or with a block past the int64 column, is a
FrameError at its offset. After its last window each side half-closes
and reads its peer to the end of the stream, so a byte past the peer's
last line is a FrameError at its offset too.

Wire format, one announcement per line, UTF-8, newline-terminated:

    {"v":1,"sid":"<token>","blk":3,"side":"A","kind":"Measurement","label":"PsiPlus"}

The label field is present exactly for Measurement announcements.
Announcement.to_wire defines the line and Announcement.from_wire is its
one strict parse; CodedLines.from_wire_lines reads stored lines back
through the session's template. The channel is unauthenticated; see
README for the known classical-layer gap.
"""
from __future__ import annotations

import enum
import json
import socket
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import jsontext
from .quantum import BellLabel

WIRE_VERSION = 1
WIRE_FIELDS = ("v", "sid", "blk", "side", "kind", "label")
SIDES = ("A", "B")
# Longest accepted wire frame, newline included; real frames are ~110 bytes.
MAX_FRAME_BYTES = 1024
# Most bytes one receive asks the socket for: about a quarter of one side's
# lines of a window.
RECV_BYTES = 1 << 16
# Schedule lines a TCP session plays per window: about 2 048 blocks, some
# 220 KiB of one side's lines. The same size as jsontext._CHUNK, so the
# wire text of a window is one write_rows slice.
TCP_WINDOW_LINES = 4096


class ChannelError(Exception):
    """Base for channel failures."""


class TransportError(ChannelError):
    """Underlying transport failed (connect, timeout, closed socket)."""


class FrameError(ChannelError):
    """Malformed wire frame; byte_offset locates it in the stream."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte {byte_offset})")
        self.message = message
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


# Every (side, kind, label) a line can have; a coded line's code is its
# index here. Per side: a Measurement for each label, then the controls.
LINE_KINDS = tuple(
    (side, kind, label)
    for side in SIDES
    for kind in AnnouncementKind
    for label in (BellLabel if kind is AnnouncementKind.MEASUREMENT else (None,))
)
LINE_CODES = {line_kind: code for code, line_kind in enumerate(LINE_KINDS)}
# By line code: the index in SIDES of the side that announces it, and the
# same for a Measurement but -1 for a control line.
_LINE_SIDE = np.array([SIDES.index(side) for side, _, _ in LINE_KINDS])
_MEASURED_SIDE = np.where([label is not None for _, _, label in LINE_KINDS], _LINE_SIDE, -1)


@lru_cache(maxsize=16)
def _wire_template(session_id: str) -> tuple[str, np.ndarray]:
    """(prefix, suffixes): the wire text of the line with block k and code
    c is prefix + str(k) + suffixes[c]. Both are cut out of to_wire()
    output, so to_wire stays the one definition of the format: the block
    is where the lines of blocks 0 and 1 differ, and every field before it
    is the same for every code. The suffixes are an object array, for
    gathering by a code column."""
    zero = [Announcement(session_id, 0, *line_kind).to_wire() for line_kind in LINE_KINDS]
    one = Announcement(session_id, 1, *LINE_KINDS[0]).to_wire()
    cut = next(i for i, (x, y) in enumerate(zip(zero[0], one)) if x != y)
    suffixes = np.array([line[cut + 1:] for line in zero], dtype=object)
    suffixes.flags.writeable = False  # every caller of the cache shares it
    return zero[0][:cut], suffixes


# The largest block a CodedLines column holds, and its digits.
_MAX_BLOCK = int(np.iinfo(np.int64).max)
_BLOCK_DIGITS = len(str(_MAX_BLOCK))


def _fits_frames(session_id: str) -> bool:
    """Whether every wire line of the session, newline included, fits in
    MAX_FRAME_BYTES, whatever its block (an int64). Then a line with its
    expected text is one the per-line read accepts. A real session's lines
    are about 110 bytes."""
    prefix, suffixes = _wire_template(session_id)
    return len(prefix) + _BLOCK_DIGITS + max(map(len, suffixes)) + 1 <= MAX_FRAME_BYTES


class CodedLines:
    """Announcements of one session as columns: each line's block and its
    code in LINE_KINDS. The Announcement objects are built the first time
    they are read, then kept; wire text comes from the session's template.
    Two are equal when their session and columns are.
    """

    __slots__ = ("session_id", "blocks", "codes", "_announcements")

    def __init__(self, session_id: str, blocks: np.ndarray, codes: np.ndarray):
        self.session_id = session_id
        self.blocks = blocks
        self.codes = codes
        self._announcements = None

    @classmethod
    def of(cls, session_id: str, announcements) -> "CodedLines":
        """Announcements of session `session_id` as coded lines, which read
        back as their tuple. An announcement of another session, or with a
        block above _MAX_BLOCK, is a ValueError."""
        announcements = tuple(announcements)
        for ann in announcements:
            if ann.session_id != session_id:
                raise ValueError(
                    f"announcement names session {ann.session_id!r}, not {session_id!r}"
                )
            if ann.block > _MAX_BLOCK:
                raise ValueError(f"announcement block {ann.block} is above {_MAX_BLOCK}")
        blocks = [ann.block for ann in announcements]
        codes = [LINE_CODES[ann.side, ann.kind, ann.label] for ann in announcements]
        lines = cls(session_id, np.array(blocks, dtype=np.int64), np.array(codes, dtype=np.intp))
        lines._announcements = announcements
        return lines

    @classmethod
    def from_wire_lines(cls, session_id: str, lines: list[str]) -> "CodedLines":
        """The coded lines of a session's wire lines; the inverse of
        wire_lines().

        A line that to_wire writes for the session is read through its wire
        template: it is the prefix, a block of at most 18 digits as str()
        writes it, and a known suffix. Any other line takes the strict parse
        of Announcement.from_wire, so its errors keep their types and
        messages, prefixed with the line's number. A line that names another
        session, or a block above _MAX_BLOCK, is a ValueError.
        """
        prefix, suffixes = _wire_template(session_id)
        code_of = {suffix: code for code, suffix in enumerate(suffixes.tolist())}
        start = len(prefix)
        blocks, codes = [], []
        for number, line in enumerate(lines):
            if line.startswith(prefix):
                end = line.find(",", start)
                code = code_of.get(line[end:])
                text = line[start:end]
                if code is not None and len(text) <= 18:
                    try:
                        block = int(text)
                    except ValueError:
                        block = -1
                    if block >= 0 and str(block) == text:
                        blocks.append(block)
                        codes.append(code)
                        continue
            try:
                ann = Announcement.from_wire(line)
            except FrameError as exc:
                raise FrameError(f"transcript line {number}: {exc.message}", exc.byte_offset)
            if ann.session_id != session_id:
                raise ValueError(
                    f"transcript line {number} names session {ann.session_id!r}, "
                    f"not the document's {session_id!r}"
                )
            if ann.block > _MAX_BLOCK:
                raise ValueError(
                    f"transcript line {number}: block {ann.block} is above {_MAX_BLOCK}"
                )
            blocks.append(ann.block)
            codes.append(LINE_CODES[ann.side, ann.kind, ann.label])
        return cls(session_id, np.array(blocks, dtype=np.int64), np.array(codes, dtype=np.intp))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodedLines):
            return NotImplemented
        return (self.session_id == other.session_id and np.array_equal(self.blocks, other.blocks)
                and np.array_equal(self.codes, other.codes))

    __hash__ = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index) -> "CodedLines":
        """The lines selected by a slice or a boolean mask."""
        return CodedLines(self.session_id, self.blocks[index], self.codes[index])

    def of_side(self, side: str) -> "CodedLines":
        return self[_LINE_SIDE[self.codes] == SIDES.index(side)]

    def count(self, kind: AnnouncementKind) -> int:
        kinds = np.array([k is kind for _, k, _ in LINE_KINDS])
        return int(np.count_nonzero(kinds[self.codes]))

    def announcement(self, i: int) -> Announcement:
        return Announcement(self.session_id, int(self.blocks[i]), *LINE_KINDS[self.codes[i]])

    def announcements(self) -> tuple[Announcement, ...]:
        if self._announcements is None:
            self._announcements = tuple(
                Announcement(self.session_id, block, *line_kind)
                for block, line_kind in zip(
                    self.blocks.tolist(), map(LINE_KINDS.__getitem__, self.codes.tolist())
                )
            )
        return self._announcements

    def wire_lines(self) -> list[str]:
        """[ann.to_wire() for ann in self.announcements()], without the objects."""
        prefix, suffixes = _wire_template(self.session_id)
        return [
            f"{prefix}{block}{suffix}"
            for block, suffix in zip(self.blocks.tolist(), suffixes[self.codes].tolist())
        ]

    def wire_bytes(self) -> bytes:
        """The wire lines, each newline-terminated, as one UTF-8 bytes.
        jsontext.write_rows writes each line's block and, as its tail, its
        code's suffix, the newline and the next line's prefix, so the
        session id travels only as text spliced in, whatever it holds."""
        if not len(self):
            return b""
        prefix, suffixes = _wire_template(self.session_id)
        ends = [f"{suffix}\n" for suffix in suffixes.tolist()]
        which = self.codes.tolist()
        which[-1] += len(ends)  # the last line ends at its newline
        out = [prefix]
        jsontext.write_rows(out.append, "%d%s", len(which), [end + prefix for end in ends] + ends,
                            which, self.blocks.tolist())
        return "".join(out).encode("utf-8")


def _announcements(tap: list[CodedLines]) -> tuple[Announcement, ...]:
    """A tap's announcements, in order."""
    return tuple(chain.from_iterable(lines.announcements() for lines in tap))


class _OrderGate:
    """Admits lines to a tap while each side's Measurement blocks strictly
    increase within each session."""

    def __init__(self):
        self._last = {}  # session id -> per side of SIDES, its last Measurement block admitted

    def admit(self, lines: CodedLines, tap: list[CodedLines]) -> None:
        """Append `lines` to `tap` up to the first Measurement whose block is
        not above every earlier block of its side, and raise OrderingError
        for that line."""
        measured = _MEASURED_SIDE[lines.codes]
        last = self._last.setdefault(lines.session_id, [0, 0])
        stop, error, sides = len(lines), None, []
        for index, side in enumerate(SIDES):
            at = np.flatnonzero(measured == index)
            blocks = lines.blocks[at]
            # Entry j: the largest block of this side before its line j.
            before = np.maximum.accumulate(np.concatenate(([last[index]], blocks)))
            bad = np.flatnonzero(blocks <= before[:-1])
            if bad.size and at[bad[0]] < stop:
                stop, error = int(at[bad[0]]), OrderingError(
                    f"side {side} announced block {blocks[bad[0]]} after block {before[bad[0]]}"
                )
            sides.append((at, before))
        last[:] = [int(before[np.searchsorted(at, stop)]) for at, before in sides]
        if stop:
            tap.append(lines if stop == len(lines) else lines[:stop])
        if error is not None:
            raise error


class InProcessEndpoint:
    """One side of an in-process channel, a line at a time."""

    def __init__(self, channel: "InProcessChannel", side: str):
        self._channel = channel
        self.side = side

    def send(self, ann: Announcement) -> None:
        if ann.side != self.side:
            raise ChannelError(f"endpoint {self.side} cannot send for side {ann.side}")
        self._channel._gate.admit(CodedLines.of(ann.session_id, (ann,)), self._channel._tap)
        other = "B" if self.side == "A" else "A"
        self._channel._queues[other].append(ann)

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
    """Duplex in-memory channel, a line at a time. No session uses it; it
    stays while InProcessEndpoint's send and receive are benchmark metrics."""

    def __init__(self):
        self._queues: dict[str, deque[Announcement]] = {s: deque() for s in SIDES}
        self._tap: list[CodedLines] = []
        self._gate = _OrderGate()

    def endpoint(self, side: str) -> InProcessEndpoint:
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        return InProcessEndpoint(self, side)

    def tap(self) -> tuple[Announcement, ...]:
        """Every announcement so far, in delivery order."""
        return _announcements(self._tap)


class TcpEndpoint:
    """One end of the public TCP channel, speaking the line protocol.

    Sent lines are buffered and written in one sendall before the endpoint
    next reads, or on flush or finish. Received bytes go into a read buffer
    that every read shares. A window of peer lines that is exactly its
    expected wire text is accepted with one comparison; any other is read
    line by line, each line parsed and checked, with the byte offset of a
    malformed one in the stream. Every line sent (when buffered) or
    received is tapped, in wire order.
    """

    window = TCP_WINDOW_LINES

    def __init__(self, sock: socket.socket, side: str, timeout: float = 10.0):
        self.side = side
        self._sock = sock
        self._sock.settimeout(timeout)
        self._in = bytearray()  # received, not yet read
        self._eof = False
        self._recv_error: OSError | None = None  # kept until a line needs more bytes
        self._read_offset = 0
        self._gate = _OrderGate()
        self._tap: list[CodedLines] = []
        self._out: list[bytes] = []  # wire text of the lines sent since the last write

    def send(self, lines: CodedLines) -> None:
        """Buffer and tap every line of `lines`, written from the wire template."""
        other = np.flatnonzero(_LINE_SIDE[lines.codes] != SIDES.index(self.side))
        if other.size:
            side = LINE_KINDS[lines.codes[other[0]]][0]
            raise ChannelError(f"endpoint {self.side} cannot send for side {side}")
        self._tap.append(lines)
        self._out.append(lines.wire_bytes())

    def flush(self) -> None:
        """Write every buffered line in one sendall."""
        if not self._out:
            return
        # A window's text is one part, which join hands back uncopied.
        data, self._out = b"".join(self._out), []
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def finish(self) -> None:
        """End the exchange: write what is buffered, end this side's
        stream, and read the peer's to its end within the timeout. A byte
        past the peer's last line is a FrameError at its offset."""
        self.flush()
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        if self._in or self._fill():
            raise FrameError("bytes past the peer's last line", self._read_offset)
        if self._recv_error is not None:
            raise TransportError(f"receive failed: {self._recv_error}") from self._recv_error

    def receive(self, expected: CodedLines) -> tuple[Announcement, Announcement] | None:
        """Read one line per line of `expected` and check each against it:
        None if every line is the expected announcement, else (received,
        expected) for the first that is not, which is the last line read.

        If the stream's next bytes are the wire text of `expected`, they
        are read at once. Otherwise each line is read in turn: one with the
        expected text, or another spelling of the expected announcement, is
        read on. Any other line takes Announcement.from_wire's strict
        parse, with its errors and byte offsets; a line of another session,
        or with a block above _MAX_BLOCK, is a FrameError at its offset.
        The lines read before it are tapped as `expected`.
        """
        self.flush()  # the peer reads them before it writes
        wire = expected.wire_bytes()
        if _fits_frames(expected.session_id) and self._next_bytes_are(wire):
            del self._in[:len(wire)]
            self._read_offset += len(wire)
            self._gate.admit(expected, self._tap)
            return None
        for i, text in enumerate(expected.wire_lines()):
            try:
                line, offset = self._read_frame()
                if line == text:
                    continue
                ann = Announcement.from_wire(line, offset)
                try:
                    received = CodedLines.of(expected.session_id, (ann,))
                except ValueError as exc:  # a line that no column of the session holds
                    raise FrameError(f"invalid frame: {exc}", offset) from exc
                want = expected.announcement(i)
                if ann == want:
                    continue
            except ChannelError:
                self._gate.admit(expected[:i], self._tap)
                raise
            self._gate.admit(expected[:i], self._tap)
            self._gate.admit(received, self._tap)
            return ann, want
        self._gate.admit(expected, self._tap)
        return None

    def _next_bytes_are(self, text: bytes) -> bool:
        """Whether the stream goes on with `text`. Receives while the
        buffered bytes are a prefix of it; stops at the first byte that
        differs, at the end of the stream or when a receive fails. Reads
        nothing out of the buffer."""
        buf, checked = self._in, 0
        while True:
            have = min(len(buf), len(text))
            if buf[checked:have] != text[checked:have]:
                return False
            if have == len(text):
                return True
            checked = have
            if not self._fill():
                return False

    def _fill(self) -> bool:
        """Append the socket's next bytes to the read buffer. False, with
        nothing added, at the end of the stream or once a receive failed:
        the failure is kept for the read that needs the bytes."""
        if self._eof or self._recv_error is not None:
            return False
        try:
            chunk = self._sock.recv(RECV_BYTES)
        except OSError as exc:
            self._recv_error = exc
            return False
        if not chunk:
            self._eof = True
            return False
        self._in += chunk
        return True

    def _read_frame(self) -> tuple[str, int]:
        """The next line, without its newline, and its offset in the stream.
        The bytes read are those of readline(MAX_FRAME_BYTES): up to the
        first newline within MAX_FRAME_BYTES, else that many bytes, else
        what is left before the end of the stream."""
        offset = self._read_offset
        buf = self._in
        end = buf.find(b"\n", 0, MAX_FRAME_BYTES)
        while end < 0 and len(buf) < MAX_FRAME_BYTES:
            searched = len(buf)
            if not self._fill():
                break
            end = buf.find(b"\n", searched, MAX_FRAME_BYTES)
        if end < 0 and len(buf) < MAX_FRAME_BYTES:
            if self._recv_error is not None:
                raise TransportError(f"receive failed: {self._recv_error}") from self._recv_error
            if not buf:
                raise TransportError("peer closed the connection")
        size = end + 1 if end >= 0 else min(len(buf), MAX_FRAME_BYTES)
        raw = buf[:size]
        del buf[:size]
        self._read_offset += size
        if end < 0:
            raise FrameError(
                f"frame is not newline-terminated within {MAX_FRAME_BYTES} bytes", offset
            )
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"invalid frame: {exc.reason}", offset + exc.start) from exc
        return line.rstrip("\n"), offset

    def tap(self) -> tuple[Announcement, ...]:
        return _announcements(self._tap)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Two-process plumbing. The client opens two connections to the same port:
# first the substrate link, then the public channel. The substrate link
# stands in for the pre-shared entangled pairs; it carries one private
# hello per party (config cross-check plus that party's encoded operations)
# and is invisible to the tap. Only the public channel is the transcript.
# Substrate hellos carry the operations as one string of codes 0-3 (v2 on).
# A v3 peer samples the splitmix64 stream (protocol.STREAM); a v2 peer
# sampled numpy's PCG64 and would derive other outcomes from the same
# seed, so it is refused at its preamble, as is a v1 peer, whose hello
# held a list.
# --------------------------------------------------------------------------

SUBSTRATE_PREAMBLE = b"swapcomm-substrate v3\n"
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

    def finish(self) -> None:
        """End the link: end this side's stream and read the peer's to its
        end within the timeout. A byte past the peer's hello is a
        TransportError."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
            extra = self._reader.read(1)
        except OSError as exc:
            raise TransportError(f"substrate receive failed: {exc}") from exc
        if extra:
            raise TransportError("bytes past the peer's substrate hello")

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
        try:
            self._server = socket.create_server((host, port))
        except OSError as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
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
