import dataclasses
import json
import random
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swapcomm.channel import (
    LINE_CODES,
    LINE_KINDS,
    MAX_FRAME_BYTES,
    TCP_WINDOW_LINES,
    Announcement,
    AnnouncementKind,
    ChannelError,
    CodedLines,
    FrameError,
    InProcessChannel,
    OrderingError,
    SUBSTRATE_PREAMBLE,
    SessionListener,
    SubstrateLink,
    TcpEndpoint,
    TransportError,
    WIRE_FIELDS,
    _OrderGate,
    _fits_frames,
    _wire_template,
    dial_session,
)
from swapcomm.cli import main
from swapcomm.protocol import (
    MessageBits,
    SessionConfig,
    SessionError,
    _hello_limit,
    run_remote_party,
    run_session,
    session_id,
    substrate_hello,
)
from swapcomm.quantum import BellLabel

import reference_channel
from reference_channel import ReferenceEndpoint
from test_protocol import _ScriptedSubstrate


@st.composite
def _announcements(draw):
    kind = draw(st.sampled_from(list(AnnouncementKind)))
    measurement = kind is AnnouncementKind.MEASUREMENT
    return Announcement(
        draw(st.text() | st.text(st.characters(min_codepoint=32, max_codepoint=126))),
        draw(st.integers(min_value=0) | st.integers(0, 10**19)),
        draw(st.sampled_from(["A", "B"])),
        kind,
        draw(st.sampled_from(list(BellLabel))) if measurement else None,
    )


_ANNOUNCEMENTS = _announcements()


def meas(block, side, label, sid="s1"):
    return Announcement(sid, block, side, AnnouncementKind.MEASUREMENT, label)


class TestWireFormat:
    def test_measurement_round_trip(self):
        ann = meas(3, "A", BellLabel.PSI_MINUS)
        again = Announcement.from_wire(ann.to_wire())
        assert again == ann

    @pytest.mark.parametrize("kind", [
        AnnouncementKind.SESSION_START,
        AnnouncementKind.SESSION_END,
        AnnouncementKind.NO_MESSAGE,
    ])
    def test_control_round_trip(self, kind):
        ann = Announcement("tok", 0, "B", kind)
        assert Announcement.from_wire(ann.to_wire()) == ann

    def test_label_only_on_measurements(self):
        with pytest.raises(ValueError, match="label"):
            Announcement("s", 0, "A", AnnouncementKind.SESSION_START,
                         BellLabel.PHI_PLUS)
        with pytest.raises(ValueError, match="label"):
            Announcement("s", 1, "A", AnnouncementKind.MEASUREMENT)

    def test_wire_schema_allowlist(self):
        # Every serialized announcement of a real session sticks to the
        # public field allowlist and never carries operation codes.
        res = run_session(SessionConfig(
            n_pairs=6, seed=5,
            alice_message=MessageBits.from_bits("011110"),
            bob_message=MessageBits.from_bits("101100"),
        ))
        for line in res.transcript.lines.wire_lines():
            fields = json.loads(line)
            assert set(fields) <= set(WIRE_FIELDS)
            assert "U" not in line.replace('"kind"', "").split('"sid":')[0]
            for private_marker in ('"op', "U0", "U1", "U2", "U3", "ops"):
                assert private_marker not in line

    def test_unknown_field_rejected(self):
        line = '{"v":1,"sid":"s","blk":1,"side":"A","kind":"Measurement","label":"PsiPlus","op":"U1"}'
        with pytest.raises(FrameError, match="unexpected fields"):
            Announcement.from_wire(line)

    def test_malformed_frame_names_byte_offset(self):
        # The parse stops after the 16 chars of the truncated frame, so the
        # reported stream offset is the line start plus that position.
        with pytest.raises(FrameError, match="at byte 116") as err:
            Announcement.from_wire('{"v":1,"sid":"s"', byte_offset=100)
        assert err.value.byte_offset == 116

    def test_wrong_version_rejected(self):
        with pytest.raises(FrameError, match="version"):
            Announcement.from_wire('{"v":2,"sid":"s","blk":0,"side":"A","kind":"SessionStart"}')

    @pytest.mark.parametrize("fields, message", [
        ('"sid":"s","blk":"3"', "blk must be an integer"),
        ('"sid":"s","blk":[1]', "blk must be an integer"),
        ('"sid":"s","blk":true', "blk must be an integer"),
        ('"sid":5,"blk":1', "sid must be a string"),
    ])
    def test_mistyped_fields_rejected(self, fields, message):
        line = '{"v":1,' + fields + ',"side":"A","kind":"SessionStart"}'
        with pytest.raises(FrameError, match=message):
            Announcement.from_wire(line)

    @given(
        sid=st.text(),
        block=st.integers(min_value=0),
        side=st.sampled_from(["A", "B"]),
        kind=st.sampled_from(list(AnnouncementKind)),
        label=st.sampled_from(list(BellLabel)),
    )
    def test_to_wire_equals_json_dumps_of_the_fields(self, sid, block, side, kind, label):
        measurement = kind is AnnouncementKind.MEASUREMENT
        ann = Announcement(sid, block, side, kind, label if measurement else None)
        fields = {"v": 1, "sid": sid, "blk": block, "side": side, "kind": kind.value}
        if measurement:
            fields["label"] = label.value
        assert ann.to_wire() == json.dumps(fields, separators=(",", ":"))

    @given(ann=_ANNOUNCEMENTS)
    def test_from_wire_inverts_to_wire(self, ann):
        assert Announcement.from_wire(ann.to_wire()) == ann

    @settings(max_examples=500)
    @given(
        ann=_ANNOUNCEMENTS,
        position=st.integers(min_value=0),
        edit=st.sampled_from(["replace", "insert", "delete"]),
        char=st.sampled_from('"\\{}[],:0123456789 AB\x00\x7f\u00fcn-e.') | st.characters(),
        byte_offset=st.integers(0, 10**6),
    )
    def test_from_wire_equals_strict_parse(self, ann, position, edit, char, byte_offset):
        """The one strict parse gives what the old two-path from_wire gave
        (tests/reference_channel.py): the same announcement, or the same
        error at the same offset."""
        line = ann.to_wire()
        at = position % (len(line) + 1)
        if edit == "replace":
            line = line[:at] + char + line[at + 1:]
        elif edit == "insert":
            line = line[:at] + char + line[at:]
        else:
            line = line[:at] + line[at + 1:]

        def outcome(parse):
            try:
                return parse(line, byte_offset)
            except FrameError as exc:
                return str(exc), exc.byte_offset

        assert outcome(Announcement.from_wire) == outcome(reference_channel.from_wire)

    @given(
        sid=st.text() | st.text(st.characters(min_codepoint=32, max_codepoint=126)),
        blocks=st.lists(st.integers(0, 2**63 - 1), min_size=len(LINE_KINDS),
                        max_size=len(LINE_KINDS)),
    )
    def test_wire_template_is_cut_from_to_wire(self, sid, blocks):
        prefix, suffixes = _wire_template(sid)
        for block, (code, line_kind) in zip(blocks, enumerate(LINE_KINDS)):
            ann = Announcement(sid, block, *line_kind)
            assert prefix + str(block) + suffixes[code] == ann.to_wire()
        lines = CodedLines(sid, np.array(blocks, dtype=np.int64), np.arange(len(LINE_KINDS)))
        assert lines.wire_lines() == [ann.to_wire() for ann in lines.announcements()]

    @pytest.mark.parametrize("n", [0, 1, 2, TCP_WINDOW_LINES, 2 * 4096 + 1])
    @pytest.mark.parametrize("sid", ["%", '%s"%d\u00e9\u2028', "%%\\", "\ud800 \u00fc%"])
    def test_wire_bytes_are_the_lines_to_wire_writes(self, n, sid):
        """A window's wire text is each announcement's to_wire line and a
        newline, for a session id with %, a quote or non-ASCII text."""
        rng = random.Random(n)
        anns = [Announcement(sid, rng.choice([0, 7, 2**63 - 1, rng.randrange(10**6)]),
                             *rng.choice(LINE_KINDS)) for _ in range(n)]
        expected = "".join(ann.to_wire() + "\n" for ann in anns).encode("utf-8")
        assert CodedLines.of(sid, anns).wire_bytes() == expected

    @given(sid=st.text(), lines=st.lists(st.tuples(
        st.integers(0, 2**63 - 1), st.sampled_from(LINE_KINDS)), max_size=20))
    def test_wire_bytes_of_any_session(self, sid, lines):
        anns = [Announcement(sid, block, *line_kind) for block, line_kind in lines]
        expected = "".join(ann.to_wire() + "\n" for ann in anns).encode("utf-8")
        assert CodedLines.of(sid, anns).wire_bytes() == expected

    def test_canonical_line_breaking_an_invariant_is_a_frame_error(self):
        for line in (
            '{"v":1,"sid":"s","blk":0,"side":"A","kind":"SessionStart","label":"PsiPlus"}',
            '{"v":1,"sid":"s","blk":3,"side":"A","kind":"Measurement"}',
        ):
            assert reference_channel.takes_the_regex(line)
            with pytest.raises(FrameError, match="exactly Measurement") as strict:
                Announcement.from_wire(line, 40)
            with pytest.raises(FrameError) as old:
                reference_channel.from_wire(line, 40)
            assert (str(strict.value), strict.value.byte_offset) == (
                str(old.value), old.value.byte_offset)

    @pytest.mark.parametrize("sid", [
        "", " ", "!", "#", "[", "]", "~", '"', "\\", "\x7f", "\x1f", "é", "s" * 300,
        session_id(SessionConfig(n_pairs=2, seed=0)),
    ])
    def test_from_wire_at_the_old_regex_edges(self, sid):
        """Canonical lines of any session, blocks of 18 and 19 digits, a
        label on a control line and a measurement without one, on both
        sides of the old regular expression's bounds: the strict parse
        gives what the old from_wire gave, at the same offset."""
        plain = all(" " <= char <= "~" and char not in '"\\' for char in sid)
        for block in (0, 10**17 - 1, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1):
            for line_kind in LINE_KINDS:
                line = Announcement(sid, block, *line_kind).to_wire()
                assert reference_channel.takes_the_regex(line) == (plain and block < 10**18)
                if line_kind[2] is None:  # a label on a control line
                    edited = line[:-1] + ',"label":"PhiMinus"}'
                else:  # a measurement without its label
                    edited = line[:line.index(',"label"')] + "}"
                leading_zero = line.replace(f'"blk":{block},', f'"blk":0{block},')
                for text in (line, edited, leading_zero):
                    outcomes = []
                    for parse in (Announcement.from_wire, reference_channel.from_wire):
                        try:
                            outcomes.append(parse(text, 7))
                        except FrameError as exc:
                            outcomes.append((str(exc), exc.byte_offset))
                    assert outcomes[0] == outcomes[1], text

    @pytest.mark.parametrize("block", [True, 1.0, "1", None])
    def test_non_int_block_rejected(self, block):
        with pytest.raises(ValueError, match="block must be an int"):
            Announcement("s", block, "A", AnnouncementKind.SESSION_START)

    def test_deeply_nested_frame_rejected(self):
        line = "[" * (MAX_FRAME_BYTES - 1)
        with pytest.raises(FrameError, match="nested too deeply"):
            Announcement.from_wire(line)


def _coded(anns):
    """The same announcements, of one session, as CodedLines."""
    return CodedLines(
        anns[0].session_id,
        np.array([ann.block for ann in anns], dtype=np.int64),
        np.array([LINE_CODES[ann.side, ann.kind, ann.label] for ann in anns]),
    )


class TestInProcessChannel:
    def test_send_receive_and_tap(self):
        channel = InProcessChannel()
        a, b = channel.endpoint("A"), channel.endpoint("B")
        ann = meas(1, "A", BellLabel.PHI_PLUS)
        a.send(ann)
        assert b.receive() == ann
        assert channel.tap() == (ann,)
        assert a.tap() == b.tap() == (ann,)

    def test_fifo_order(self):
        channel = InProcessChannel()
        a, b = channel.endpoint("A"), channel.endpoint("B")
        first, second = meas(1, "A", BellLabel.PHI_PLUS), meas(2, "A", BellLabel.PSI_PLUS)
        a.send(first)
        a.send(second)
        assert b.receive() == first
        assert b.receive() == second

    def test_out_of_order_blocks_rejected(self):
        channel = InProcessChannel()
        a = channel.endpoint("A")
        a.send(meas(2, "A", BellLabel.PHI_PLUS))
        with pytest.raises(OrderingError, match="block 1 after block 2"):
            a.send(meas(1, "A", BellLabel.PHI_PLUS))

    def test_cannot_send_for_other_side(self):
        channel = InProcessChannel()
        a = channel.endpoint("A")
        with pytest.raises(Exception, match="cannot send"):
            a.send(meas(1, "B", BellLabel.PHI_PLUS))

    def test_receive_on_empty_queue(self):
        channel = InProcessChannel()
        with pytest.raises(TransportError, match="nothing to receive"):
            channel.endpoint("A").receive()

    def test_window_out_of_block_order_fails_at_its_line(self):
        gate, tap = _OrderGate(), []
        anns = (meas(1, "A", BellLabel.PHI_PLUS), meas(1, "B", BellLabel.PSI_PLUS),
                meas(3, "A", BellLabel.PHI_MINUS), meas(2, "A", BellLabel.PSI_MINUS))
        lines = _coded(anns)
        with pytest.raises(OrderingError, match="side A announced block 2 after block 3"):
            gate.admit(lines, tap)
        assert [ann for piece in tap for ann in piece.announcements()] == list(anns[:3])

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.tuples(st.integers(0, len(LINE_KINDS) - 1), st.integers(0, 12)),
                       max_size=30),
        cuts=st.lists(st.integers(0, 30), max_size=4),
    )
    def test_order_gate_equals_the_per_announcement_check(self, lines, cuts):
        """Lines admitted in windows: the same tap and the same OrderingError
        as checking each announcement in turn."""
        coded = CodedLines("s", np.array([block for _, block in lines], dtype=np.int64),
                           np.array([code for code, _ in lines], dtype=np.intp))
        bounds = [0, *sorted(cut % (len(coded) + 1) for cut in cuts), len(coded)]

        def admitted(gate):
            tap, error = [], None
            try:
                for start, stop in zip(bounds, bounds[1:]):
                    gate.admit(coded[start:stop], tap)
            except OrderingError as exc:
                error = str(exc)
            return error, [ann for piece in tap for ann in (
                piece.announcements() if isinstance(piece, CodedLines) else (piece,))]

        assert admitted(_OrderGate()) == admitted(_ReferenceGate())

    def test_session_transcript_is_its_lines_built_once(self):
        result = run_session(SessionConfig(
            n_pairs=7, seed=5, alice_message=MessageBits.from_bits("0111"),
        ))
        lines = result.transcript.lines
        assert CodedLines.of(lines.session_id, result.transcript.announcements) == lines
        assert result.transcript.announcements is result.transcript.announcements

    def test_sessions_on_a_used_channel_run_on_their_own_lines(self):
        """The order gate keeps each session's blocks apart: a second
        session's lines, sent on a used channel, are admitted, and its lines
        of the tap are its transcript."""
        channel = InProcessChannel()
        first = SessionConfig(n_pairs=6, seed=1, alice_message=MessageBits.from_bits("01"))
        second = dataclasses.replace(first, seed=2)
        result = run_session(second)

        def send(config):
            for ann in run_session(config).transcript.announcements:
                channel.endpoint(ann.side).send(ann)

        send(first)
        send(second)
        assert result.decoded_by_bob == first.alice_message
        assert result.transcript.announcements == tuple(
            ann for ann in channel.tap() if ann.session_id == session_id(second))
        with pytest.raises(OrderingError, match="block 1 after block 3"):
            send(second)  # the same session again is out of order

    def test_line_counts_for_bidirectional_session(self):
        lines = run_session(SessionConfig(
            n_pairs=6, seed=5,
            alice_message=MessageBits.from_bits("011110"),
            bob_message=MessageBits.from_bits("101100"),
        )).transcript.lines
        assert lines.count(AnnouncementKind.MEASUREMENT) == 6  # 3 blocks x 2 sides
        assert len(lines) == 10


def run_tcp_pair(config_a, config_b, port=0):
    """Run both parties of a networked session in threads over a real socket."""
    listener = SessionListener("127.0.0.1", port, timeout=10.0)
    host, bound_port = listener.address
    results = {}
    errors = {}

    def serve():
        try:
            substrate, endpoint = listener.accept()
            try:
                results["A"] = run_remote_party("A", config_a, substrate, endpoint)
            finally:
                substrate.close()
                endpoint.close()
        except Exception as exc:  # noqa: BLE001 - surfaced in the test
            errors["A"] = exc
        finally:
            listener.close()

    def connect():
        try:
            substrate, endpoint = dial_session(host, bound_port, timeout=10.0)
            try:
                results["B"] = run_remote_party("B", config_b, substrate, endpoint)
            finally:
                substrate.close()
                endpoint.close()
        except Exception as exc:  # noqa: BLE001
            errors["B"] = exc

    t_a = threading.Thread(target=serve)
    t_b = threading.Thread(target=connect)
    t_a.start()
    t_b.start()
    t_a.join(timeout=20)
    t_b.join(timeout=20)
    return results, errors


class TestTcpChannel:
    def test_observationally_equivalent_to_in_process(self):
        config = SessionConfig(
            n_pairs=8, seed=99,
            alice_message=MessageBits.from_bits("01011011"),
            bob_message=MessageBits.from_bits("11100100"),
        )
        inproc = run_session(config)

        import dataclasses
        config_a = dataclasses.replace(config, bob_message=None)
        config_b = dataclasses.replace(config, alice_message=None)
        results, errors = run_tcp_pair(config_a, config_b)
        assert not errors, errors
        for side in ("A", "B"):
            assert results[side].transcript.lines.wire_lines() == inproc.transcript.lines.wire_lines()
        assert results["A"].decoded_by_alice == inproc.decoded_by_alice
        assert results["B"].decoded_by_bob == inproc.decoded_by_bob

    def test_unilateral_silent_session_over_tcp(self):
        from swapcomm.protocol import SessionMode, SilentFallback
        config_a = SessionConfig(
            n_pairs=6, seed=31, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
            alice_message=MessageBits.from_bits("011110"),
        )
        config_b = SessionConfig(
            n_pairs=6, seed=31, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
        )
        inproc = run_session(config_a)
        results, errors = run_tcp_pair(config_a, config_b)
        assert not errors, errors
        assert results["B"].decoded_by_bob == MessageBits.from_bits("011110")
        for side in ("A", "B"):
            assert results[side].transcript.lines.wire_lines() == inproc.transcript.lines.wire_lines()

    def test_unilateral_random_fallback_over_tcp(self):
        from swapcomm.protocol import SessionMode, SilentFallback
        config_a = SessionConfig(
            n_pairs=6, seed=37, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
            alice_message=MessageBits.from_bits("011110"),
        )
        config_b = SessionConfig(
            n_pairs=6, seed=37, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
        )
        inproc = run_session(config_a)
        results, errors = run_tcp_pair(config_a, config_b)
        assert not errors, errors
        assert results["B"].decoded_by_bob == MessageBits.from_bits("011110")
        assert results["B"].transcript.lines.wire_lines() == inproc.transcript.lines.wire_lines()

    def test_config_mismatch_is_a_session_error(self):
        config_a = SessionConfig(
            n_pairs=6, seed=1, alice_message=MessageBits.from_bits("01")
        )
        config_b = SessionConfig(
            n_pairs=6, seed=2, bob_message=MessageBits.from_bits("10")
        )
        results, errors = run_tcp_pair(config_a, config_b)
        assert not results
        assert all(isinstance(e, SessionError) for e in errors.values())
        assert any("seed" in str(e) for e in errors.values())

    def test_sent_lines_are_written_only_on_flush(self):
        config = SessionConfig(n_pairs=3 * TCP_WINDOW_LINES, seed=5,
                               alice_message=_random_bits(3 * TCP_WINDOW_LINES, 5))
        lines = run_session(config).transcript.lines.of_side("A")
        assert len(lines) > TcpEndpoint.window
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        far.settimeout(0)
        wire, received = lines.wire_bytes(), bytearray()

        def drain():  # the lines outgrow the socket buffers, so flush needs a reader
            while len(received) < len(wire):
                received.extend(far.recv(len(wire)))

        reader = threading.Thread(target=drain)
        try:
            endpoint.send(lines)
            with pytest.raises(BlockingIOError):  # more than a window, and no byte yet
                far.recv(1)
            far.settimeout(5.0)
            reader.start()
            endpoint.flush()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert received == wire
        finally:
            endpoint.close()
            far.close()

    def test_send_refuses_the_other_sides_lines(self):
        """A window that holds a line of the peer's side is refused whole:
        nothing of it is buffered, written or tapped."""
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        far.settimeout(0)
        lines = _coded([meas(1, "A", BellLabel.PHI_PLUS), meas(1, "B", BellLabel.PSI_MINUS)])
        try:
            with pytest.raises(ChannelError) as err:
                endpoint.send(lines)
            assert str(err.value) == "endpoint A cannot send for side B"
            endpoint.flush()
            with pytest.raises(BlockingIOError):
                far.recv(1)
            assert endpoint.tap() == ()
        finally:
            endpoint.close()
            far.close()

    def test_unreachable_peer(self):
        with pytest.raises(TransportError, match="cannot reach"):
            dial_session("127.0.0.1", 1, timeout=0.5)

    def test_listener_rejects_bad_preamble(self):
        listener = SessionListener("127.0.0.1", 0, timeout=5.0)
        host, port = listener.address

        def barge_in():
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n")

        t = threading.Thread(target=barge_in)
        t.start()
        with pytest.raises(TransportError, match="preamble"):
            listener.accept()
        t.join()
        listener.close()

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_listener_refuses_an_older_substrate_peer(self, version):
        """A peer of substrate v1, whose hello held its ops as a list, or of
        v2, which sampled another stream, is refused at its preamble, with
        both preambles named."""
        listener = SessionListener("127.0.0.1", 0, timeout=5.0)
        host, port = listener.address

        def old_peer():
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(f"swapcomm-substrate {version}\n".encode())
                try:
                    sock.recv(1)  # until the listener closes it
                except OSError:
                    pass

        t = threading.Thread(target=old_peer)
        t.start()
        try:
            with pytest.raises(TransportError) as info:
                listener.accept()
        finally:
            t.join(timeout=10)
            listener.close()
        assert SUBSTRATE_PREAMBLE == b"swapcomm-substrate v3\n"
        assert str(info.value) == (
            f"unexpected preamble b'swapcomm-substrate {version}\\n', "
            "wanted b'swapcomm-substrate v3\\n'")


class TestBoundedReads:
    """Every read off a socket has a byte limit; socketpair stands in for TCP."""

    @pytest.mark.parametrize("spelling", ["spaced", "padded to the frame limit"])
    def test_receive_accepts_an_equal_line_in_another_spelling(self, spelling):
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        anns = (meas(1, "B", BellLabel.PHI_PLUS), meas(2, "B", BellLabel.PSI_MINUS),
                meas(3, "B", BellLabel.PSI_PLUS))
        line = anns[1].to_wire()
        if spelling == "spaced":
            spelled = json.dumps(json.loads(line), indent=None)  # ", " and ": "
        else:  # with its newline, the longest frame that is read
            spelled = line[:-1] + " " * (MAX_FRAME_BYTES - len(line) - 1) + "}"
            assert len(spelled.encode()) + 1 == MAX_FRAME_BYTES
        assert spelled != line
        far.sendall("\n".join([anns[0].to_wire(), spelled, anns[2].to_wire()]).encode() + b"\n")
        try:
            assert endpoint.receive(_coded(anns)) is None
            assert endpoint.tap() == anns
            assert len(endpoint._tap) == 1  # the respelled line joined the expected lines
        finally:
            endpoint.close()
            far.close()

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("line, message", [
        (meas(2, "B", BellLabel.PSI_MINUS, sid="s2").to_wire(),
         "invalid frame: announcement names session 's2', not 's1'"),
        (meas(10**23, "B", BellLabel.PSI_MINUS).to_wire(),
         f"invalid frame: announcement block {10**23} is above {2**63 - 1}"),
        (meas(2**63, "B", BellLabel.PSI_MINUS).to_wire(),
         f"invalid frame: announcement block {2**63} is above {2**63 - 1}"),
        ("x" * (2 * MAX_FRAME_BYTES),
         f"frame is not newline-terminated within {MAX_FRAME_BYTES} bytes"),
    ], ids=["other-session", "block-past-int64", "block-at-2**63", "overlong"])
    def test_receive_refuses_a_bad_line_at_its_offset(self, line, message, lead):
        """A peer line of another session, with a block past int64, or with
        no newline within MAX_FRAME_BYTES is a FrameError at its offset,
        after `lead` good lines; the lines before it are tapped."""
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        anns = (meas(1, "B", BellLabel.PHI_PLUS), meas(2, "B", BellLabel.PSI_MINUS))
        before = "".join(ann.to_wire() + "\n" for ann in anns[:lead]).encode()
        far.sendall(before + line.encode() + b"\n")
        try:
            with pytest.raises(FrameError) as err:
                endpoint.receive(_coded(anns))
            assert str(err.value) == f"{message} (at byte {len(before)})"
            assert err.value.byte_offset == len(before)
            assert endpoint.tap() == anns[:lead]
        finally:
            endpoint.close()
            far.close()

    def test_receive_stops_at_the_first_line_that_differs(self):
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        anns = (meas(1, "B", BellLabel.PHI_PLUS), meas(2, "B", BellLabel.PSI_MINUS))
        wrong = meas(2, "B", BellLabel.PHI_MINUS)
        far.sendall(f"{anns[0].to_wire()}\n{wrong.to_wire()}\n".encode())
        try:
            assert endpoint.receive(_coded(anns)) == (wrong, anns[1])
            assert endpoint.tap() == (anns[0], wrong)
        finally:
            endpoint.close()
            far.close()

    def test_overlong_hello_is_a_transport_error(self):
        near, far = socket.socketpair()
        link = SubstrateLink(near, timeout=5.0)
        far.sendall(json.dumps({"v": 1, "pad": "x" * 300}).encode() + b"\n")
        try:
            with pytest.raises(TransportError, match="within 200 bytes"):
                link.receive_hello(200)
        finally:
            link.close()
            far.close()

    def test_hello_limit_admits_the_largest_real_hello(self):
        config = SessionConfig(
            n_pairs=10_001, seed=-(2**63),
            bob_message=MessageBits.from_bits("1" * 10_000),
        )
        near, far = socket.socketpair()
        sender, receiver = SubstrateLink(far, timeout=5.0), SubstrateLink(near, timeout=5.0)
        try:
            sender.send_hello(substrate_hello("B", config))
            hello = receiver.receive_hello(_hello_limit(config))
            assert len(hello["ops"]) == 5_000
            # One byte per op: the limit is within the fixed fields' allowance.
            line = json.dumps(hello, separators=(",", ":")).encode() + b"\n"
            assert len(line) <= _hello_limit(config) < len(line) + 256
        finally:
            sender.close()
            receiver.close()

    @pytest.mark.parametrize("after", [b"", b"x", b"{}\n"])
    def test_finish_rejects_bytes_past_the_peer_hello(self, after):
        near, far = socket.socketpair()
        link = SubstrateLink(near, timeout=5.0)
        far.sendall(json.dumps({"v": 1}).encode() + b"\n" + after)
        far.shutdown(socket.SHUT_WR)
        try:
            assert link.receive_hello(200) == {"v": 1}
            if after:
                with pytest.raises(TransportError, match="past the peer's substrate hello"):
                    link.finish()
            else:
                link.finish()
            assert far.recv(1) == b""  # this side ended its stream
        finally:
            link.close()
            far.close()


class _CountingSocket(socket.socket):
    """A socket that counts its sendall calls."""

    sendalls = 0

    def sendall(self, data, *args):
        self.sendalls += 1
        return super().sendall(data, *args)


def _small_buffer_tcp_pair(nbytes):
    """Both ends of a loopback TCP connection whose send and receive
    buffers are set to `nbytes` (the kernel's minimum, if larger)."""

    def shrink(sock):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, nbytes)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, nbytes)

    with socket.socket() as server:
        shrink(server)  # before listen, so the accepted end starts small
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.socket()
        shrink(client)
        client.connect(server.getsockname())
        conn, _ = server.accept()
    shrink(conn)
    return tuple(_CountingSocket(fileno=sock.detach()) for sock in (conn, client))


def _wire_order(lines):
    """The documented order of a TCP session: per window, A's lines, then B's."""
    order = []
    for start in range(0, len(lines), TCP_WINDOW_LINES):
        window = lines[start:start + TCP_WINDOW_LINES]
        order += [a for a in window if a.side == "A"] + [a for a in window if a.side == "B"]
    return order


def _random_bits(n, seed):
    rng = random.Random(seed)
    return MessageBits.from_bits("".join(rng.choice("01") for _ in range(n)))


class _PeerHello:
    """A substrate link whose peer hello is fixed."""

    def __init__(self, hello):
        self.hello = hello

    def send_hello(self, hello):
        pass

    def receive_hello(self, limit):
        return self.hello

    def finish(self):
        pass


class TestWindowedExchange:
    """A TCP session plays its schedule in windows, half-duplex."""

    FAULTS = [
        ("wrong label", "peer announced"),
        ("malformed frame", "invalid frame"),
        ("peer closed", "peer closed the connection"),
    ]

    # About four windows: the faults fall in the middle of the second.
    PAIRS = 4 * TCP_WINDOW_LINES - 48
    CONFIG = SessionConfig(
        n_pairs=PAIRS, seed=17,
        alice_message=_random_bits(PAIRS, 1), bob_message=_random_bits(PAIRS - 2, 2),
    )

    def test_small_socket_buffers_do_not_deadlock(self):
        pairs = 6 * TCP_WINDOW_LINES - 72
        config = SessionConfig(
            n_pairs=pairs, seed=23,
            alice_message=_random_bits(pairs, 3), bob_message=_random_bits(pairs, 4),
        )
        expected = run_session(config).transcript
        windows = -(-len(expected.announcements) // TCP_WINDOW_LINES)
        assert windows >= 4
        # One window of one side's lines is several times these buffers.
        public = _small_buffer_tcp_pair(4096)
        assert public[0].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) < 16384
        substrate = socket.socketpair()
        results, errors = {}, {}

        def play(side, sock, link):
            endpoint = TcpEndpoint(sock, side, timeout=10.0)
            mine = dataclasses.replace(
                config, **{"bob_message" if side == "A" else "alice_message": None})
            try:
                results[side] = run_remote_party(side, mine, SubstrateLink(link), endpoint)
            except Exception as exc:  # noqa: BLE001 - surfaced in the test
                errors[side] = exc
            finally:
                endpoint.close()

        threads = [threading.Thread(target=play, args=args)
                   for args in zip("AB", public, substrate)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for sock in substrate:
            sock.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for side, sock in zip("AB", public):
            assert results[side].transcript == expected
            assert sock.sendalls <= windows + 2, (side, sock.sendalls, windows)
        assert results["A"].decoded_by_alice == config.bob_message
        assert results["B"].decoded_by_bob == config.alice_message

    def _peer_stream(self, fault):
        """Side A's public stream of the clean session, broken at one of its
        lines in the middle of the second window: (stream, bad line, the
        stream offset of that line)."""
        clean = run_session(self.CONFIG).transcript.announcements
        middle = TCP_WINDOW_LINES + TCP_WINDOW_LINES // 2
        bad = next(ann for ann in clean[middle:] if ann.side == "A")
        lines = [ann for ann in clean if ann.side == "A"]
        before = b"".join(ann.to_wire().encode() + b"\n" for ann in lines[:lines.index(bad)])
        wrong = dataclasses.replace(bad, label=next(
            label for label in BellLabel if label is not bad.label))
        tail = {
            "wrong label": wrong.to_wire().encode() + b"\n",
            "malformed frame": b"not a frame\n",
            "peer closed": b"",
        }[fault]
        return before + tail, bad, wrong, len(before)

    @staticmethod
    def _serve(sock, stream, end=True):
        """Write `stream`, end the stream unless told not to, and discard
        what the peer sends until it closes."""
        try:
            sock.sendall(stream)
            if end:
                sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass
        except OSError:
            pass

    @pytest.mark.parametrize("fault, message", FAULTS)
    def test_fault_mid_window_keeps_the_wire_order_prefix(self, fault, message):
        stream, bad, wrong, offset = self._peer_stream(fault)
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="B", timeout=10.0)
        peer = threading.Thread(target=self._serve, args=(far, stream))
        peer.start()
        mine = dataclasses.replace(self.CONFIG, alice_message=None)
        try:
            with pytest.raises(SessionError, match=message) as err:
                run_remote_party("B", mine, _PeerHello(substrate_hello("A", self.CONFIG)),
                                 endpoint)
        finally:
            endpoint.close()
            peer.join(timeout=10)
            far.close()
        assert not peer.is_alive()
        clean = run_session(self.CONFIG).transcript.announcements
        wire = _wire_order(list(clean))
        # The first window whole, then A's lines of the second up to the fault.
        expected = wire[:wire.index(bad)] + ([wrong] if fault == "wrong label" else [])
        assert list(err.value.transcript.announcements) == expected
        if fault == "malformed frame":
            assert isinstance(err.value.__cause__, FrameError)
            assert err.value.__cause__.byte_offset == offset

    @pytest.mark.parametrize("fault, message", FAULTS)
    def test_fault_mid_window_exits_3(self, fault, message, tmp_path, capsys):
        stream, *_ = self._peer_stream(fault)
        listener = SessionListener("127.0.0.1", 0, timeout=10.0)
        host, port = listener.address

        def hostile_server():
            substrate, endpoint = listener.accept()
            try:
                substrate.send_hello(substrate_hello("A", self.CONFIG))
                substrate.receive_hello(1 << 16)
                self._serve(endpoint._sock, stream)
            finally:
                substrate.close()
                endpoint.close()
                listener.close()

        server = threading.Thread(target=hostile_server)
        server.start()
        bob_msg = tmp_path / "bob.bits"
        bob_msg.write_text(self.CONFIG.bob_message.bits)
        out = tmp_path / "never.json"
        code = main([
            "connect", "--peer", f"{host}:{port}", "--pairs", str(self.PAIRS), "--seed", "17",
            "--bob-msg", f"@{bob_msg}", "--timeout", "10", "--out", str(out),
        ])
        server.join(timeout=10)
        assert not server.is_alive()
        assert code == 3
        assert not out.exists()
        assert message in capsys.readouterr().err


def _windows(config, size):
    """Side A's lines of a real session, in windows of `size` lines, as
    side B expects them."""
    lines = run_session(config).transcript.lines.of_side("A")
    return [lines[start:start + size] for start in range(0, len(lines), size)]


@st.composite
def _peer_windows(draw):
    """_windows of a bidirectional session of 2 to 40 pairs."""
    n_pairs = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    capacity = n_pairs // 2 * 2
    config = SessionConfig(
        n_pairs=n_pairs, seed=seed,
        alice_message=_random_bits(draw(st.integers(1, capacity)), seed),
        bob_message=_random_bits(draw(st.integers(1, capacity)), seed + 1),
    )
    return _windows(config, draw(st.integers(1, 12)))


def _announced(windows):
    return tuple(ann for window in windows for ann in window.announcements())


def _mutate(stream: bytes, mutation: str, at: int, byte: int) -> bytes:
    """`stream` with one mutation, at a position drawn from `at`."""
    lines = stream.splitlines(keepends=True)
    pos = at % len(stream)
    k = at % len(lines)  # a line
    if mutation == "none":
        return stream
    if mutation == "flip":
        return stream[:pos] + bytes([stream[pos] ^ (byte or 1)]) + stream[pos + 1:]
    if mutation == "insert":
        return stream[:pos] + bytes([byte]) + stream[pos:]
    if mutation == "delete":
        return stream[:pos] + stream[pos + 1:]
    if mutation == "truncate":
        return stream[:pos]
    if mutation == "utf8":  # a lone byte above 0x7f among ASCII is never UTF-8
        return stream[:pos] + bytes([0x80 | byte]) + stream[pos + 1:]
    if mutation == "overlong":  # line k padded to 1022..1025 bytes, newline included
        length = MAX_FRAME_BYTES - 2 + byte % 4
        lines[k] = lines[k][:-2] + b" " * (length - len(lines[k])) + b"}\n"
    elif mutation == "respell":  # ", " and ": ": parses to the same announcement
        lines[k] = json.dumps(json.loads(lines[k])).encode() + b"\n"
    elif mutation == "extra":  # a copy of line k, at line boundary byte % (len + 1)
        lines.insert(byte % (len(lines) + 1), lines[k])
    return b"".join(lines)


def _send_in_pieces(sock, stream, cuts):
    """Write `stream` in pieces split at `cuts`, pausing between them, then
    end it."""
    bounds = [0, *sorted(cut % (len(stream) + 1) for cut in cuts), len(stream)]
    try:
        for start, end in zip(bounds, bounds[1:]):
            sock.sendall(stream[start:end])
            time.sleep(0.0005)
        sock.shutdown(socket.SHUT_WR)
    except OSError:  # the reader stopped and closed its end
        pass


class _ReferenceGate:
    """The per-announcement order check that tests/reference_channel.py
    calls, as channel._OrderGate.check was, with an admit that checks and
    taps each line in turn: a tap that holds Announcements."""

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

    def admit(self, lines: CodedLines, tap: list) -> None:
        for ann in lines.announcements():
            self.check(ann)
            tap.append(ann)


class _Reference(ReferenceEndpoint):
    """The per-line reader, with the order gate and the tap it had, read
    through the name the window read took."""

    receive = ReferenceEndpoint.receive_lines

    def __init__(self, sock, side, timeout=10.0):
        super().__init__(sock, side, timeout)
        self._gate = _ReferenceGate()

    def tap(self):
        return tuple(self._tap)


def _under_the_session_rule(reference, stream, windows):
    """The per-line reader's (outcomes, tap) of `stream`, under the rule
    that a received line of another session, or with a block above
    2**63-1, is a FrameError at its offset and is not tapped. The reader
    returned such a line as a mismatch, or refused it for its order."""
    outcomes, tap = reference
    sid = windows[0].session_id
    last = outcomes[-1] if outcomes else None
    # Every line read before that one was tapped, and ended at a newline.
    starts = [0, *(at + 1 for at, byte in enumerate(stream) if byte == ord("\n"))]
    if isinstance(last, tuple) and isinstance(last[0], Announcement):
        line, got, tap = len(tap) - 1, last[0], tap[:-1]
    elif last is not None and last[0] is OrderingError:
        line = len(tap)
        got = Announcement.from_wire(stream[starts[line]:starts[line + 1] - 1].decode())
    else:
        return reference
    if got.session_id != sid:
        message = f"invalid frame: announcement names session {got.session_id!r}, not {sid!r}"
    elif got.block > 2**63 - 1:
        message = f"invalid frame: announcement block {got.block} is above {2**63 - 1}"
    else:
        return reference
    return [*outcomes[:-1], (FrameError, f"{message} (at byte {starts[line]})", starts[line])], tap


def _receive_windows(endpoint_type, stream, cuts, windows):
    """Play `stream` through a socketpair into a fresh endpoint of side B
    that reads `windows` in turn, as a session does: (each window's result
    or the error that ended the reading, the tap)."""
    near, far = socket.socketpair()
    endpoint = endpoint_type(near, side="B", timeout=5.0)
    sender = threading.Thread(target=_send_in_pieces, args=(far, stream, cuts))
    sender.start()
    outcomes = []
    try:
        for window in windows:
            try:
                got = endpoint.receive(window)
            except ChannelError as exc:
                outcomes.append((type(exc), str(exc), getattr(exc, "byte_offset", None)))
                break
            outcomes.append(got)
            if got is not None:
                break
        return outcomes, endpoint.tap()
    finally:
        endpoint.close()
        sender.join(timeout=10)
        far.close()
        assert not sender.is_alive()


class TestWindowRead:
    """A window that is exactly its expected wire text is read with one
    comparison; anything else takes the per-line read, which must behave as
    the per-line reader always did (tests/reference_channel.py)."""

    CONFIG = SessionConfig(n_pairs=40, seed=3, alice_message=_random_bits(40, 3),
                           bob_message=_random_bits(31, 4))

    @settings(max_examples=200, deadline=None)
    @given(
        windows=_peer_windows(),
        mutation=st.sampled_from(["none", "flip", "insert", "delete", "truncate",
                                  "utf8", "overlong", "respell", "extra"]),
        at=st.integers(0, 2**16),
        byte=st.integers(0, 255),
        cuts=st.lists(st.integers(0, 2**16), max_size=3),
    )
    def test_window_read_equals_the_per_line_reader(self, windows, mutation, at, byte, cuts):
        clean = b"".join(window.wire_bytes() for window in windows)
        stream = _mutate(clean, mutation, at, byte)
        got = _receive_windows(TcpEndpoint, stream, cuts, windows)
        assert got == _under_the_session_rule(
            _receive_windows(_Reference, stream, cuts, windows), stream, windows)
        if stream == clean:
            assert got == ([None] * len(windows), _announced(windows))

    @pytest.mark.parametrize("length", [MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1])
    def test_padded_line_at_the_frame_limit(self, length):
        """A line of the second window padded to the limit parses equal and
        is read on; one byte more is a FrameError at its offset."""
        windows = _windows(self.CONFIG, 7)
        clean = b"".join(window.wire_bytes() for window in windows)
        stream = _mutate(clean, "overlong", 9, length - MAX_FRAME_BYTES + 2)
        got = _receive_windows(TcpEndpoint, stream, [], windows)
        assert got == _receive_windows(_Reference, stream, [], windows)
        if length == MAX_FRAME_BYTES:
            assert got == ([None] * len(windows), _announced(windows))
        else:
            offset = len(b"".join(clean.splitlines(keepends=True)[:9]))
            assert got[0][-1] == (FrameError, f"frame is not newline-terminated within "
                                  f"{MAX_FRAME_BYTES} bytes (at byte {offset})", offset)

    def test_clean_window_is_read_without_the_per_line_loop(self, monkeypatch):
        windows = _windows(self.CONFIG, 7)
        stream = b"".join(window.wire_bytes() for window in windows)

        def refused(self):
            raise AssertionError("a clean window was read line by line")

        monkeypatch.setattr(TcpEndpoint, "_read_frame", refused)
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="B", timeout=5.0)
        far.sendall(stream)
        try:
            assert [endpoint.receive(window) for window in windows] == [None] * len(windows)
            assert endpoint._read_offset == len(stream)
            assert endpoint.tap() == _announced(windows)
        finally:
            endpoint.close()
            far.close()

    @pytest.mark.parametrize("sent", ["nothing", "whole lines", "part of a line"])
    def test_stalled_peer_costs_one_timeout(self, sent):
        [window] = _windows(self.CONFIG, TCP_WINDOW_LINES)
        text = window.wire_bytes()
        lines_sent = {"nothing": 0, "whole lines": 5, "part of a line": 5}[sent]
        prefix = b"".join(text.splitlines(keepends=True)[:lines_sent])
        if sent == "part of a line":
            prefix += text[len(prefix):len(prefix) + 40]
        for endpoint_type in (TcpEndpoint, _Reference):
            near, far = socket.socketpair()
            endpoint = endpoint_type(near, side="B", timeout=0.2)
            far.sendall(prefix)
            start = time.monotonic()
            try:
                with pytest.raises(TransportError, match="receive failed: timed out"):
                    endpoint.receive(window)
                assert time.monotonic() - start < 0.4
                assert endpoint.tap() == window[:lines_sent].announcements()
            finally:
                endpoint.close()
                far.close()

    def test_real_session_lines_fit_in_a_frame(self):
        config = SessionConfig(n_pairs=2, seed=0)
        prefix, suffixes = _wire_template(session_id(config))
        longest = len(prefix) + len(str(2**63 - 1)) + max(map(len, suffixes)) + 1
        assert len(session_id(config)) == 16
        assert longest < MAX_FRAME_BYTES // 4
        assert _fits_frames(session_id(config))

    def test_expected_lines_over_the_frame_limit_are_refused(self):
        """A session id long enough to push its lines past MAX_FRAME_BYTES:
        the exact expected text is still refused, as the per-line read
        refuses it."""
        sid = "s" * MAX_FRAME_BYTES
        assert not _fits_frames(sid)
        window = _coded([meas(1, "A", BellLabel.PHI_PLUS, sid=sid)])
        outcomes = [_receive_windows(endpoint_type, window.wire_bytes(), [], [window])
                    for endpoint_type in (TcpEndpoint, _Reference)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [(FrameError, f"frame is not newline-terminated within "
                                   f"{MAX_FRAME_BYTES} bytes (at byte 0)", 0)]


class _FewLineWindows(TcpEndpoint):
    window = 5


class TestHostilePeer:
    """run_remote_party over a real socket against a peer that replays a
    recorded clean stream with one mutation, then ends the stream or stalls."""

    TIMEOUT = 0.5

    @settings(max_examples=150, deadline=None)
    @given(
        n_pairs=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        mutation=st.sampled_from(["flip", "insert", "delete", "truncate",
                                  "utf8", "overlong", "respell", "extra"]),
        at=st.integers(0, 2**16),
        byte=st.integers(0, 255),
        stall=st.booleans(),
    )
    # B's four lines, and a copy of the first appended after the last.
    @example(n_pairs=4, seed=1, mutation="extra", at=0, byte=4, stall=False)
    @example(n_pairs=4, seed=1, mutation="extra", at=0, byte=4, stall=True)
    def test_mutated_peer_stream_ends_clean_or_in_a_session_error(
            self, n_pairs, seed, mutation, at, byte, stall):
        capacity = n_pairs // 2 * 2
        config = SessionConfig(
            n_pairs=n_pairs, seed=seed, alice_message=_random_bits(capacity, seed),
            bob_message=_random_bits(capacity - 1, seed + 1),
        )
        clean = run_session(config)
        schedule = clean.transcript.lines
        # What A's endpoint taps of a clean session: per window, A's lines, then B's.
        wire_order = []
        for first in range(0, len(schedule), _FewLineWindows.window):
            window = schedule[first:first + _FewLineWindows.window]
            wire_order += [*window.of_side("A").announcements(),
                           *window.of_side("B").announcements()]
        clean_stream = schedule.of_side("B").wire_bytes()
        stream = _mutate(clean_stream, mutation, at, byte)
        near, far = socket.socketpair()
        endpoint = _FewLineWindows(near, side="A", timeout=self.TIMEOUT)
        peer = threading.Thread(target=TestWindowedExchange._serve,
                                args=(far, stream, not stall))
        peer.start()
        mine = dataclasses.replace(config, bob_message=None)
        start = time.monotonic()
        try:
            result = run_remote_party(
                "A", mine, _ScriptedSubstrate(substrate_hello("B", config)), endpoint)
        except SessionError as exc:
            error = exc
        else:
            error = None
        finally:
            elapsed = time.monotonic() - start
            endpoint.close()
            peer.join(timeout=10)
            far.close()
        assert not peer.is_alive()
        assert elapsed < self.TIMEOUT + 1
        if len(stream) > len(clean_stream) and stream.startswith(clean_stream):
            # Bytes past B's last line: A reads its peer to the end of the stream.
            assert isinstance(error, SessionError) and isinstance(error.__cause__, FrameError)
            assert error.__cause__.byte_offset == len(clean_stream)
        if error is None:
            assert result.transcript == clean.transcript
            assert (result.decoded_by_alice, result.decoded_by_bob) == (
                clean.decoded_by_alice, clean.decoded_by_bob)
            return
        seen = list(error.transcript.announcements)
        if isinstance(error.__cause__, ChannelError):
            assert seen == wire_order[:len(seen)]
        else:  # a mismatch: the differing peer line ends the transcript
            assert error.__cause__ is None and str(error).startswith("peer announced")
            assert seen[:-1] == wire_order[:len(seen) - 1]
            assert seen[-1] != wire_order[len(seen) - 1]
