import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from swapcomm.channel import (
    MAX_FRAME_BYTES,
    Announcement,
    AnnouncementKind,
    FrameError,
    InProcessChannel,
    OrderingError,
    SessionListener,
    SubstrateLink,
    TcpEndpoint,
    TransportError,
    WIRE_FIELDS,
    dial_session,
)
from swapcomm.protocol import (
    MessageBits,
    SessionConfig,
    SessionError,
    _hello_limit,
    run_remote_party,
    run_session,
    substrate_hello,
)
from swapcomm.quantum import BellLabel


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
        for line in res.transcript.wire_lines():
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
        """The canonical-line shortcut gives what the strict json.loads path
        gives: the same announcement, or the same error at the same offset."""
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

        assert outcome(Announcement.from_wire) == outcome(Announcement._from_json)

    def test_canonical_line_breaking_an_invariant_is_a_frame_error(self):
        for line in (
            '{"v":1,"sid":"s","blk":0,"side":"A","kind":"SessionStart","label":"PsiPlus"}',
            '{"v":1,"sid":"s","blk":3,"side":"A","kind":"Measurement"}',
        ):
            with pytest.raises(FrameError, match="exactly Measurement") as fast:
                Announcement.from_wire(line, 40)
            with pytest.raises(FrameError) as strict:
                Announcement._from_json(line, 40)
            assert (str(fast.value), fast.value.byte_offset) == (
                str(strict.value), strict.value.byte_offset)

    @pytest.mark.parametrize("block", [True, 1.0, "1", None])
    def test_non_int_block_rejected(self, block):
        with pytest.raises(ValueError, match="block must be an int"):
            Announcement("s", block, "A", AnnouncementKind.SESSION_START)

    def test_deeply_nested_frame_rejected(self):
        line = "[" * (MAX_FRAME_BYTES - 1)
        with pytest.raises(FrameError, match="nested too deeply"):
            Announcement.from_wire(line)


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

    def test_tap_counts_for_bidirectional_session(self):
        channel = InProcessChannel()
        run_session(SessionConfig(
            n_pairs=6, seed=5,
            alice_message=MessageBits.from_bits("011110"),
            bob_message=MessageBits.from_bits("101100"),
        ), channel)
        tap = channel.tap()
        measurements = [a for a in tap if a.kind is AnnouncementKind.MEASUREMENT]
        assert len(measurements) == 6  # 3 blocks x 2 sides
        assert len(tap) == 10


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
            assert results[side].transcript.wire_lines() == inproc.transcript.wire_lines()
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
            assert results[side].transcript.wire_lines() == inproc.transcript.wire_lines()

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
        assert results["B"].transcript.wire_lines() == inproc.transcript.wire_lines()

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


class TestBoundedReads:
    """Every read off a socket has a byte limit; socketpair stands in for TCP."""

    def test_overlong_frame_is_a_frame_error_at_its_offset(self):
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        first = meas(1, "B", BellLabel.PHI_PLUS).to_wire().encode() + b"\n"
        far.sendall(first + b"x" * (2 * MAX_FRAME_BYTES) + b"\n")
        try:
            assert endpoint.receive() == meas(1, "B", BellLabel.PHI_PLUS)
            with pytest.raises(FrameError, match=f"within {MAX_FRAME_BYTES} bytes") as info:
                endpoint.receive()
            assert info.value.byte_offset == len(first)
        finally:
            endpoint.close()
            far.close()

    def test_frame_at_the_limit_is_read(self):
        near, far = socket.socketpair()
        endpoint = TcpEndpoint(near, side="A", timeout=5.0)
        line = meas(1, "B", BellLabel.PHI_PLUS).to_wire()
        line = line[:-1] + " " * (MAX_FRAME_BYTES - len(line) - 1) + "}"
        far.sendall(line.encode() + b"\n")
        try:
            assert endpoint.receive() == meas(1, "B", BellLabel.PHI_PLUS)
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
        finally:
            sender.close()
            receiver.close()
