"""The per-line TCP reader, kept as a test reference.

Copies of TcpEndpoint.receive_lines and TcpEndpoint._read_frame as they
were before a window of peer lines was checked with one byte comparison:
every line read with one BufferedReader.readline over sock.makefile("rb"),
decoded, and compared with its expected text. The methods are verbatim;
only the class around them is new, a TcpEndpoint that reads through that
reader. The window path must give the same return value, the same error
with the same message and byte offset, and the same tap.
"""
from __future__ import annotations

import socket

from swapcomm.channel import (
    MAX_FRAME_BYTES,
    Announcement,
    ChannelError,
    CodedLines,
    FrameError,
    TcpEndpoint,
    TransportError,
)


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
