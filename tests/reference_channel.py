"""The per-line TCP reader and the two-path wire parse, kept as test
references.

ReferenceEndpoint: copies of TcpEndpoint.receive_lines and
TcpEndpoint._read_frame as they were before a window of peer lines was
checked with one byte comparison: every line read with one
BufferedReader.readline over sock.makefile("rb"), decoded, and compared
with its expected text. The methods are verbatim; only the class around
them is new, a TcpEndpoint that reads through that reader. The window path
must give the same return value, the same error with the same message and
byte offset, and the same tap.

from_wire: Announcement.from_wire as it was while the line to_wire writes
was read by a regular expression (_CANONICAL_LINE) and any other line by
json.loads (_from_json). The two classmethods, _KINDS, _LABELS and
_CANONICAL_LINE are verbatim; only the class around the methods is new, and
from_wire returns its result as an Announcement. The one strict parse must
give the same announcement, or the same FrameError message and byte offset.
"""
from __future__ import annotations

import json
import re
import socket

from swapcomm.channel import (
    MAX_FRAME_BYTES,
    SIDES,
    WIRE_FIELDS,
    WIRE_VERSION,
    Announcement,
    AnnouncementKind,
    ChannelError,
    CodedLines,
    FrameError,
    TcpEndpoint,
    TransportError,
)
from swapcomm.quantum import BellLabel


class _TwoPathAnnouncement(Announcement):
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


def from_wire(line: str, byte_offset: int = 0) -> Announcement:
    """The old Announcement.from_wire, regular-expression path and all."""
    ann = _TwoPathAnnouncement.from_wire(line, byte_offset)
    return Announcement(ann.session_id, ann.block, ann.side, ann.kind, ann.label)


def takes_the_regex(line: str) -> bool:
    """Whether the old from_wire read `line` through _CANONICAL_LINE."""
    return _CANONICAL_LINE.fullmatch(line) is not None


class ReferenceEndpoint(TcpEndpoint):
    def __init__(self, sock: socket.socket, side: str, timeout: float = 10.0):
        super().__init__(sock, side, timeout)
        self._reader = sock.makefile("rb")

    def receive_lines(self, expected: CodedLines) -> tuple[Announcement, Announcement] | None:
        """Read one line per line of `expected` and check each against it:
        None if every line is the expected announcement, else (received,
        expected) for the first that is not, which is the last line read.

        A line with the expected text is tapped as the expected line. Any
        other line is parsed, checked and tapped as receive() does, so its
        errors and byte offsets are the same; if it parses to the expected
        announcement, reading goes on.
        """
        if self._out:  # the peer reads them before it writes
            self.flush()
        done = 0  # lines of `expected` read and tapped
        for i, text in enumerate(expected.wire_lines()):
            try:
                line, offset = self._read_frame()
            except ChannelError:
                self._gate.admit(expected[done:i], self._tap)
                raise
            if line == text:
                continue
            self._gate.admit(expected[done:i], self._tap)
            done = i + 1
            ann = Announcement.from_wire(line, offset)
            self._gate.check(ann)
            self._tap.append(ann)
            want = expected.announcement(i)
            if ann != want:
                return ann, want
        self._gate.admit(expected[done:], self._tap)
        return None

    def _read_frame(self) -> tuple[str, int]:
        """The next line, without its newline, and its offset in the stream."""
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
        return line.rstrip("\n"), offset

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        super().close()
