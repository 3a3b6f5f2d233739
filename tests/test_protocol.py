import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import reference_replay
from swapcomm.channel import (
    LINE_CODES,
    Announcement,
    AnnouncementKind,
    CodedLines,
    InProcessChannel,
)
from swapcomm.protocol import (
    MAX_BLOCKS,
    CapacityError,
    MessageBits,
    ReplayError,
    SessionConfig,
    SessionError,
    SessionMode,
    SilentFallback,
    _decodes_exactly,
    _draw_grid,
    _peer_message,
    _seed_column,
    _seed_words,
    _session_blocks,
    _spawn_seeds,
    block_rng,
    decode_ops,
    encode_bits,
    parse_message,
    replay,
    run_remote_party,
    run_session,
    run_trials,
    session_id,
    substrate_hello,
)
from swapcomm.quantum import BELL_ORDER, BellLabel, PauliCode, bell_measure, bell_state
from swapcomm.quantum import apply_local, tensor
from swapcomm.stats import chi_square_uniform, label_counts
from swapcomm.swap import A_PAIR, B_PAIR, SwapOutcome, generate_decode_table


def _block_draws(seed, n_blocks):
    """The first three integers(4) draws of block_rng(seed, k) for every
    block k in 1..n_blocks, as row k-1 of an (n_blocks, 3) uint8 array:
    the one-seed case of _draw_grid."""
    return _draw_grid(_seed_column(seed), n_blocks)[:, 0].T


def fixed_op_outcomes(op_a, op_b, n_blocks, seed):
    """The block outcomes of a session of n_blocks blocks whose messages
    repeat op_a and op_b."""
    config = bidirectional(2 * n_blocks, seed, format(op_a.code, "02b") * n_blocks,
                           format(op_b.code, "02b") * n_blocks)
    blocks = run_session(config).blocks
    assert {(rec.op_a, rec.op_b) for rec in blocks} == {(op_a, op_b)}
    return [rec.outcome for rec in blocks]


def bidirectional(n_pairs, seed, alice, bob):
    return SessionConfig(
        n_pairs=n_pairs,
        seed=seed,
        alice_message=MessageBits.from_bits(alice),
        bob_message=MessageBits.from_bits(bob),
    )


class TestMessageBits:
    def test_padding(self):
        m = MessageBits.from_bits("1")
        assert m.bits == "10" and m.declared_length == 1
        assert m.declared_bits == "1"

    def test_empty(self):
        m = MessageBits.from_bits("")
        assert m.bits == "" and m.declared_length == 0 and not m

    def test_rejects_odd_storage(self):
        with pytest.raises(ValueError, match="padded to even"):
            MessageBits(bits="101", declared_length=3)

    def test_rejects_nonzero_padding(self):
        with pytest.raises(ValueError, match="padding"):
            MessageBits(bits="11", declared_length=1)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="only '0' and '1'"):
            MessageBits.from_bits("012")

    @pytest.mark.parametrize("bits", [
        "2", "12", "0 ", " 1", "0\t", "1\n", "\u0661\u0660", "0\uff11", "\U0001d7ce1", "o1",
        "10" * 1000 + "2", "\x00\x00",
    ])
    def test_rejects_any_character_but_ascii_zero_and_one(self, bits):
        padded = bits + "0" * (len(bits) % 2)
        for message in (lambda: MessageBits.from_bits(bits),
                        lambda: MessageBits(bits=padded, declared_length=len(padded))):
            with pytest.raises(ValueError, match="^bits must contain only '0' and '1'$"):
                message()

    def test_parse_plain(self):
        assert parse_message("0110") == MessageBits.from_bits("0110")

    def test_parse_hex_msb_first(self):
        assert parse_message("0xa5").bits == "10100101"
        assert parse_message("0XA5").bits == "10100101"

    def test_parse_bad_hex(self):
        with pytest.raises(ValueError, match="invalid hex"):
            parse_message("0xzz")


class TestEncodeDecode:
    def test_worked_alice_string(self):
        ops = encode_bits(MessageBits.from_bits("011110"))
        assert ops == (PauliCode.U1, PauliCode.U3, PauliCode.U2)

    def test_worked_bob_string(self):
        ops = encode_bits(MessageBits.from_bits("101100"))
        assert ops == (PauliCode.U2, PauliCode.U3, PauliCode.U0)

    def test_empty(self):
        assert encode_bits(MessageBits.from_bits("")) == ()
        assert decode_ops((), 0) == MessageBits.from_bits("")

    def test_single_bit_padding(self):
        assert encode_bits(MessageBits.from_bits("1")) == (PauliCode.U2,)
        assert decode_ops((PauliCode.U2,), 1) == MessageBits.from_bits("1")

    def test_decode_inverse_of_worked_example(self):
        ops = (PauliCode.U1, PauliCode.U3, PauliCode.U2)
        assert decode_ops(ops, 6) == MessageBits.from_bits("011110")

    def test_declared_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            decode_ops((PauliCode.U0,), 3)

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            bits = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, 33))))
            m = MessageBits.from_bits(bits)
            assert decode_ops(encode_bits(m), m.declared_length) == m


class TestRunSession:
    def test_worked_example(self):
        res = run_session(bidirectional(6, 7, "011110", "101100"))
        assert res.decoded_by_bob == MessageBits.from_bits("011110")
        assert res.decoded_by_alice == MessageBits.from_bits("101100")

    def test_round_trip_law(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            cap = 2 * (n // 2)
            alice = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, cap + 1))))
            bob = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, cap + 1))))
            res = run_session(bidirectional(n, int(rng.integers(2**63)), alice, bob))
            assert res.decoded_by_bob.declared_bits == alice
            assert res.decoded_by_alice.declared_bits == bob

    def test_capacity_error_before_any_announcement(self):
        channel = InProcessChannel()
        with pytest.raises(CapacityError, match="6 pairs but the session has 4"):
            run_session(bidirectional(4, 0, "011011", ""), channel)
        assert channel.tap() == ()

    def test_empty_messages(self):
        res = run_session(bidirectional(6, 3, "", ""))
        assert res.decoded_by_alice == MessageBits.from_bits("")
        assert res.decoded_by_bob == MessageBits.from_bits("")
        kinds = [a.kind for a in res.transcript.announcements]
        assert kinds.count(AnnouncementKind.MEASUREMENT) == 6

    def test_odd_pair_never_touched(self):
        res = run_session(bidirectional(5, 9, "0111", "1010"))
        assert res.transcript.usable_blocks == 2
        assert len(res.blocks) == 2
        max_block = max(
            (a.block for a in res.transcript.announcements
             if a.kind is AnnouncementKind.MEASUREMENT),
            default=0,
        )
        assert max_block == 2  # pair 5 is never measured or announced

    def test_unequal_lengths(self):
        res = run_session(bidirectional(8, 1, "01", "11011011"))
        assert res.decoded_by_bob.declared_bits == "01"
        assert res.decoded_by_alice.declared_bits == "11011011"

    def test_deterministic(self):
        a = run_session(bidirectional(10, 77, "0101", "1100"))
        b = run_session(bidirectional(10, 77, "0101", "1100"))
        assert a.transcript == b.transcript
        assert a.blocks == b.blocks

    def test_different_seeds_differ(self):
        a = run_session(bidirectional(10, 1, "0101", "1100"))
        b = run_session(bidirectional(10, 2, "0101", "1100"))
        assert [r.outcome for r in a.blocks] != [r.outcome for r in b.blocks]

    def test_block_outcome_in_composite_column(self):
        table = generate_decode_table()
        res = run_session(bidirectional(12, 5, "010111", "101001"))
        for rec in res.blocks:
            column = table.composite[(rec.effective_a, rec.effective_b)]
            assert table.infer[rec.outcome] is column


class TestModes:
    def test_announced_silence_one_sided_transcript(self):
        cfg = SessionConfig(
            n_pairs=6, seed=11, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
            alice_message=MessageBits.from_bits("011110"),
        )
        res = run_session(cfg)
        meas_sides = {a.side for a in res.transcript.announcements
                      if a.kind is AnnouncementKind.MEASUREMENT}
        assert meas_sides == {"A"}
        declarations = [a for a in res.transcript.announcements
                        if a.kind is AnnouncementKind.NO_MESSAGE]
        assert [d.side for d in declarations] == ["B"]
        assert res.decoded_by_bob == MessageBits.from_bits("011110")
        assert res.decoded_by_alice is None
        assert all(rec.op_b is None for rec in res.blocks)

    def test_silent_reverse_direction(self):
        cfg = SessionConfig(
            n_pairs=7, seed=13, mode=SessionMode.BOB_TO_ALICE,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
            bob_message=MessageBits.from_bits("110"),
        )
        res = run_session(cfg)
        meas_sides = {a.side for a in res.transcript.announcements
                      if a.kind is AnnouncementKind.MEASUREMENT}
        assert meas_sides == {"B"}
        assert res.decoded_by_alice == MessageBits.from_bits("110")
        assert res.decoded_by_bob is None

    def test_random_fallback_announces_and_discards(self):
        cfg = SessionConfig(
            n_pairs=6, seed=19, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
            alice_message=MessageBits.from_bits("011110"),
        )
        res = run_session(cfg)
        meas_sides = {a.side for a in res.transcript.announcements
                      if a.kind is AnnouncementKind.MEASUREMENT}
        assert meas_sides == {"A", "B"}
        assert res.decoded_by_bob == MessageBits.from_bits("011110")
        assert res.decoded_by_alice is None
        assert all(rec.op_b is not None for rec in res.blocks)

    def test_random_fallback_ops_vary(self):
        cfg = SessionConfig(
            n_pairs=40, seed=19, mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
            alice_message=MessageBits.from_bits("01" * 20),
        )
        res = run_session(cfg)
        assert len({rec.op_b for rec in res.blocks}) > 1

    def test_message_on_silent_side_rejected(self):
        cfg = SessionConfig(
            n_pairs=6, seed=0, mode=SessionMode.ALICE_TO_BOB,
            bob_message=MessageBits.from_bits("11"),
        )
        with pytest.raises(ValueError, match="no sending role"):
            run_session(cfg)


class TestOutcomeDistribution:
    def test_chi_square_uniform_per_fixed_ops(self):
        outcomes = fixed_op_outcomes(PauliCode.U1, PauliCode.U2, 10_000, seed=4242)
        table = generate_decode_table()
        column = table.composite[(PauliCode.U1, PauliCode.U2)]
        support = [o for o in table.infer if table.infer[o] is column]
        assert {o for o in outcomes} <= set(support)
        counts = label_counts(outcomes, support)
        _, p = chi_square_uniform(counts)
        assert p > 0.001, f"counts {counts}"

    def test_sequential_measurement_path_agrees(self):
        # The engine samples the joint outcome in one step; two sequential
        # Bell measurements on the actual state must give the same support
        # and the same uniform law.
        op_a, op_b = PauliCode.U1, PauliCode.U2
        table = generate_decode_table()
        column = table.composite[(op_a, op_b)]
        support = [o for o in table.infer if table.infer[o] is column]

        encoded = apply_local(
            op_b, 1, apply_local(op_a, 0, bell_state(BellLabel.PSI_PLUS))
        )
        state = tensor(bell_state(BellLabel.PSI_PLUS), encoded)

        rng = np.random.default_rng(31)
        draws = []
        for _ in range(2000):
            a_label, residual = bell_measure(state, A_PAIR, rng)
            b_label, _ = bell_measure(residual, B_PAIR, rng)
            draws.append(SwapOutcome(a_label, b_label))
        assert set(draws) == set(support)
        counts = label_counts(draws, support)
        _, p = chi_square_uniform(counts)
        assert p > 0.001, f"counts {counts}"


class TestReplay:
    def make_result(self):
        return run_session(bidirectional(8, 21, "01011100", "11100101"))

    def test_replay_reproduces_decodes(self):
        res = self.make_result()
        again = replay(res.transcript, res.blocks)
        assert again.decoded_by_alice == res.decoded_by_alice
        assert again.decoded_by_bob == res.decoded_by_bob

    def test_replay_of_every_mode(self):
        for mode, fallback in [
            (SessionMode.BIDIRECTIONAL, SilentFallback.RANDOM_OPS),
            (SessionMode.ALICE_TO_BOB, SilentFallback.RANDOM_OPS),
            (SessionMode.ALICE_TO_BOB, SilentFallback.ANNOUNCED_SILENCE),
            (SessionMode.BOB_TO_ALICE, SilentFallback.ANNOUNCED_SILENCE),
        ]:
            cfg = SessionConfig(
                n_pairs=6, seed=3, mode=mode, fallback=fallback,
                alice_message=(
                    MessageBits.from_bits("0110")
                    if mode is not SessionMode.BOB_TO_ALICE else None
                ),
                bob_message=(
                    MessageBits.from_bits("10")
                    if mode is not SessionMode.ALICE_TO_BOB else None
                ),
            )
            res = run_session(cfg)
            again = replay(res.transcript, res.blocks)
            assert again.decoded_by_alice == res.decoded_by_alice
            assert again.decoded_by_bob == res.decoded_by_bob

    def test_empty_session_replay(self):
        res = run_session(bidirectional(0, 0, "", ""))
        again = replay(res.transcript, res.blocks)
        assert again.decoded_by_bob == MessageBits.from_bits("")

    def test_tampered_announcement_label(self):
        res = self.make_result()
        tampered = []
        for ann in res.transcript.announcements:
            if ann.kind is AnnouncementKind.MEASUREMENT and ann.block == 2 and ann.side == "A":
                wrong = next(lab for lab in BELL_ORDER if lab is not ann.label)
                ann = dataclasses.replace(ann, label=wrong)
            tampered.append(ann)
        transcript = dataclasses.replace(
            res.transcript, announcements=tuple(tampered)
        )
        with pytest.raises(ReplayError) as err:
            replay(transcript, res.blocks)
        assert err.value.block == 2

    def test_tampered_operation_record(self):
        res = self.make_result()
        rec = res.blocks[1]
        wrong_op = next(op for op in PauliCode if op is not rec.op_a)
        blocks = list(res.blocks)
        blocks[1] = dataclasses.replace(rec, op_a=wrong_op)
        with pytest.raises(ReplayError) as err:
            replay(res.transcript, blocks)
        assert err.value.block == 2

    def test_hand_built_forms_are_stored_as_columns(self):
        res = self.make_result()
        transcript = dataclasses.replace(
            res.transcript, announcements=tuple(res.transcript.announcements))
        result = dataclasses.replace(res, transcript=transcript, blocks=tuple(res.blocks))
        assert type(transcript.lines) is CodedLines
        assert np.array_equal(transcript.lines.codes, res.transcript.lines.codes)
        assert result == res
        assert np.array_equal(result.block_columns.label_b, res.block_columns.label_b)

    @pytest.mark.parametrize("sid, block", [("other", 1), (None, 2**63)])
    def test_transcript_of_lines_no_column_holds_is_refused(self, sid, block):
        res = self.make_result()
        ann = Announcement(sid or res.transcript.session_id, block, "A",
                           AnnouncementKind.MEASUREMENT, BellLabel.PHI_PLUS)
        with pytest.raises(ValueError, match="session|above"):
            dataclasses.replace(res.transcript, announcements=(ann,))

    def test_transcript_of_another_sessions_lines_is_refused(self):
        res = self.make_result()
        lines = res.transcript.lines
        with pytest.raises(ValueError, match="lines of session 'other'"):
            dataclasses.replace(res.transcript,
                                announcements=CodedLines("other", lines.blocks, lines.codes))

    @pytest.mark.parametrize("indices", [[2, 1, 3, 4], [1, 2, 3, 3], [0, 1, 2, 3]])
    def test_result_of_misnumbered_records_is_refused(self, indices):
        res = self.make_result()
        records = [dataclasses.replace(res.blocks[i % 4], index=k)
                   for i, k in enumerate(indices)]
        with pytest.raises(ValueError, match="index"):
            dataclasses.replace(res, blocks=records)

    def test_missing_block_record(self):
        res = self.make_result()
        with pytest.raises(ReplayError):
            replay(res.transcript, res.blocks[:-1])

    @pytest.mark.parametrize("edit", [
        [("B", 3), ("B", 2)],  # two measurements of a side that announces none
        [("A", 1, 0), ("A", 9)],  # blocks outside 1..4, and block 1 missing
        [("A", 1, 7)],  # block 1 missing, block 7 outside
        [("A", 3, None)],  # block 3 missing
    ], ids=repr)
    def test_pattern_errors_name_the_block_the_record_walk_names(self, edit):
        """Hand-built transcripts whose measurements break the pattern in
        ways a document cannot hold: replay names the lowest block at
        fault, as the per-record reference does."""
        config = SessionConfig(n_pairs=8, seed=4, mode=SessionMode.ALICE_TO_BOB,
                               fallback=SilentFallback.ANNOUNCED_SILENCE,
                               alice_message=MessageBits.from_bits("0110"))
        res = run_session(config)
        anns = list(res.transcript.announcements)
        for side, block, *new in edit:
            at = next((i for i, ann in enumerate(anns)
                       if (ann.side, ann.block, ann.label is not None) == (side, block, True)),
                      None)
            if at is None:
                anns.insert(-2, Announcement(res.transcript.session_id, block, side,
                                             AnnouncementKind.MEASUREMENT, BellLabel.PHI_PLUS))
            elif new == [None]:
                del anns[at]
            else:
                anns[at] = dataclasses.replace(anns[at], block=new[0])
        transcript = dataclasses.replace(res.transcript, announcements=tuple(anns))
        errors = []
        for run in (replay, reference_replay.replay):
            with pytest.raises(ReplayError) as err:
                run(transcript, res.blocks)
            errors.append((str(err.value), err.value.block))
        assert errors[0] == errors[1]
        assert "announcement pattern is inconsistent" in errors[0][0]


class TestBatchedSampling:
    """The vectorised sampling path against its per-block definitions."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(),
            st.integers(max_value=-1),
            st.integers(min_value=2**64),
            st.integers(2**32 - 3, 2**32 + 3),
        ),
        n_blocks=st.integers(0, 300),
    )
    def test_block_draws_equal_block_rng(self, seed, n_blocks):
        draws = _block_draws(seed, n_blocks)
        assert draws.shape == (n_blocks, 3) and draws.dtype == np.uint8
        for k in range(1, n_blocks + 1):
            rng = block_rng(seed, k)
            assert draws[k - 1].tolist() == [int(rng.integers(4)) for _ in range(3)], k

    @settings(max_examples=80, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(st.sampled_from([0, -5, 2**32, 2**64 - 1]), st.integers()),
            min_size=1, max_size=4,
        ),
        keys=st.lists(
            st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
            max_size=5,
        ),
        n_words=st.integers(1, 9),
    )
    def test_seed_words_equal_seed_sequence(self, seeds, keys, n_words):
        entropy = np.array([seed & (2**64 - 1) for seed in seeds], dtype=np.uint64)
        words = _seed_words(entropy[:, None], np.array(keys, dtype=np.uint32), n_words)
        assert len(words) == n_words
        for i, seed in enumerate(seeds):
            for j, key in enumerate(keys):
                seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(key,))
                expected = seq.generate_state(n_words, np.uint32).tolist()
                assert [int(word[i, j]) for word in words] == expected, (seed, key)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(), start=st.integers(0, 2**32 - 8), count=st.integers(0, 8))
    def test_spawn_seeds_equal_seed_sequence(self, seed, start, count):
        expected = [
            int(np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(t,))
                .generate_state(1, np.uint64)[0])
            for t in range(start, start + count)
        ]
        assert _spawn_seeds(seed, start, start + count).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=4), n_blocks=st.integers(0, 30))
    def test_draw_grid_rows_equal_block_draws(self, seeds, n_blocks):
        grid = _draw_grid(np.array(seeds, dtype=np.uint64), n_blocks)
        assert grid.shape == (3, len(seeds), n_blocks) and grid.dtype == np.uint8
        for i, seed in enumerate(seeds):
            assert np.array_equal(grid[:, i].T, _block_draws(seed, n_blocks))

    def test_decodes_exactly_counts_declared_bits_only(self):
        """"101" is stored as codes [2, 2]; the last code's low bit is padding."""
        table = generate_decode_table()
        # For each partner code c, a label pair that decodes to c when the
        # party's own operation is U0.
        labels = {
            int(table.partner_codes[0, table.infer_codes[a, b]]): (a, b)
            for a in range(4) for b in range(4)
        }
        rows = [[2, 2], [2, 3], [2, 0], [3, 2], [0, 2]]
        label_a, label_b = (np.array([[labels[c][i] for c in row] for row in rows])
                            for i in range(2))
        own = np.zeros((1, 2), dtype=np.intp)
        sent = MessageBits.from_bits("101")
        assert _decodes_exactly(True, own, label_a, label_b, sent, table) == [
            True, True, False, False, False]
        assert _decodes_exactly(False, own, label_a, label_b, sent, table) == [None] * 5
        assert _decodes_exactly(True, own, label_a, label_b, None, table) == [None] * 5

    @pytest.mark.parametrize("mode", list(SessionMode))
    @pytest.mark.parametrize("fallback", list(SilentFallback))
    def test_compute_blocks_equals_per_block_reference(self, mode, fallback):
        alice = "1011001" if mode is not SessionMode.BOB_TO_ALICE else None
        bob = "01110" if mode is not SessionMode.ALICE_TO_BOB else None
        config = SessionConfig(
            n_pairs=41, mode=mode, fallback=fallback, seed=2**40 + 3,
            alice_message=MessageBits.from_bits(alice) if alice else None,
            bob_message=MessageBits.from_bits(bob) if bob else None,
        )
        config.validate()
        records = _session_blocks(config).records()
        got = [
            (rec.index,
             None if rec.op_a is None else rec.op_a.code,
             None if rec.op_b is None else rec.op_b.code,
             rec.outcome.a_side.value,
             rec.outcome.b_side.value)
            for rec in records
        ]
        expected = oracle.session_blocks(
            config.seed, config.usable_blocks,
            config.alice_message.bits if alice else None,
            config.bob_message.bits if bob else None,
            fallback is SilentFallback.RANDOM_OPS,
        )
        assert got == expected
        assert {(rec.announced_a, rec.announced_b) for rec in records} == {
            config.announce_pattern()
        }

    def test_block_count_limit(self):
        SessionConfig(n_pairs=2 * MAX_BLOCKS + 1).validate()
        with pytest.raises(ValueError, match=f"limit of {2 * MAX_BLOCKS + 1}"):
            SessionConfig(n_pairs=2 * MAX_BLOCKS + 2).validate()
        with pytest.raises(ValueError, match="n_blocks must be in"):
            _block_draws(7, MAX_BLOCKS + 1)


class TestRunTrials:
    def test_no_trials_give_four_empty_columns(self):
        assert run_trials(bidirectional(6, 7, "011110", "101100"), 0) == ([], [], [], [])

    def test_one_entry_per_trial_in_each_column(self):
        seeds, ok_alice, ok_bob, sids = run_trials(bidirectional(6, 7, "011110", "101100"), 3)
        assert seeds == _spawn_seeds(7, 0, 3).tolist()
        assert ok_alice == ok_bob == [True] * 3
        assert len(set(sids)) == 3


class TestSessionId:
    def test_stable(self):
        cfg = bidirectional(6, 7, "011110", "101100")
        assert session_id(cfg) == session_id(cfg)

    def test_distinct_configs_distinct_ids(self):
        base = bidirectional(6, 7, "011110", "101100")
        other = bidirectional(6, 8, "011110", "101100")
        assert session_id(base) != session_id(other)

    def test_announcement_count(self):
        res = run_session(bidirectional(6, 7, "011110", "101100"))
        assert len(res.transcript.announcements) == 10  # 2 start + 6 + 2 end


def _relabel(ann):
    """The same announcement with a different measurement label."""
    wrong = next(lab for lab in BELL_ORDER if lab is not ann.label)
    return dataclasses.replace(ann, label=wrong)


class _TamperingChannel(InProcessChannel):
    """Delivers Bob's block-2 measurement with a different label."""

    def _deliver_lines(self, lines):
        codes = lines.codes.copy()
        for at, ann in enumerate(lines.announcements()):
            if ann.kind is AnnouncementKind.MEASUREMENT and (ann.block, ann.side) == (2, "B"):
                codes[at] = LINE_CODES[ann.side, ann.kind, _relabel(ann).label]
        return super()._deliver_lines(CodedLines(lines.session_id, lines.blocks, codes))


class _ScriptedSubstrate:
    def __init__(self, hello):
        self.hello, self.sent, self.limits = hello, [], []

    def send_hello(self, hello):
        self.sent.append(hello)

    def receive_hello(self, limit):
        self.limits.append(limit)
        return self.hello

    def finish(self):
        pass


class _ScriptedEndpoint:
    """Plays a peer whose lines are fixed in advance."""

    window = 1

    def __init__(self, peer_lines=()):
        self._script = list(peer_lines)
        self._tap = []

    def send(self, ann):
        self._tap.append(ann)

    def finish(self):
        pass

    def receive(self):
        ann = self._script.pop(0)
        self._tap.append(ann)
        return ann

    def send_lines(self, lines):
        for ann in lines.announcements():
            self.send(ann)

    def receive_lines(self, expected):
        for want in expected.announcements():
            got = self.receive()
            if got != want:
                return got, want
        return None

    def tap(self):
        return tuple(self._tap)

    def close(self):
        pass


class TestPeerCheck:
    """Both the in-process and the remote path verify every peer line."""

    CONFIG = bidirectional(8, 5, "0110", "1011")

    def test_in_process_rejects_tampered_peer_line(self):
        clean = run_session(self.CONFIG).transcript.announcements
        bad = next(i for i, ann in enumerate(clean)
                   if ann.kind is AnnouncementKind.MEASUREMENT
                   and (ann.block, ann.side) == (2, "B"))
        with pytest.raises(SessionError, match="peer announced") as err:
            run_session(self.CONFIG, channel=_TamperingChannel())
        partial = err.value.transcript.announcements
        assert partial == clean[:bad] + (_relabel(clean[bad]),)

    def test_abort_on_a_used_channel_holds_only_its_own_lines(self):
        """Two sessions on one tampering channel each abort at their own
        tampered line; the second's transcript holds none of the first's."""
        channel = _TamperingChannel()
        for seed in (5, 6):
            config = dataclasses.replace(self.CONFIG, seed=seed)
            clean = run_session(config).transcript.announcements
            bad = next(i for i, ann in enumerate(clean)
                       if ann.kind is AnnouncementKind.MEASUREMENT
                       and (ann.block, ann.side) == (2, "B"))
            with pytest.raises(SessionError, match="peer announced") as err:
                run_session(config, channel=channel)
            assert err.value.transcript.announcements == clean[:bad] + (_relabel(clean[bad]),)
        assert len({ann.session_id for ann in channel.tap()}) == 2

    def test_remote_party_rejects_wrong_peer_label(self):
        clean = run_session(self.CONFIG).transcript.announcements
        peer_lines = [ann for ann in clean if ann.side == "B"]
        peer_lines[3] = _relabel(peer_lines[3])  # Bob's block-2 measurement
        substrate = _ScriptedSubstrate(substrate_hello("B", self.CONFIG))
        endpoint = _ScriptedEndpoint(peer_lines)
        mine = dataclasses.replace(self.CONFIG, bob_message=None)
        with pytest.raises(SessionError, match="peer announced") as err:
            run_remote_party("A", mine, substrate, endpoint)
        assert err.value.transcript.announcements[-1] == peer_lines[3]


_HELLO_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2**70) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["hello", "A", "B", "bidirectional", "random", 1, 8, 4, [2, 3]]),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8,
)


class TestSubstrateHelloSchema:
    """A malformed or hostile peer hello is a SessionError (exit 3), raised
    before any announcement is sent."""

    MINE = SessionConfig(n_pairs=8, seed=1, alice_message=MessageBits.from_bits("0110"))
    # The well-formed peer hello: Bob's "1011" is ops [2, 3].
    PEER = substrate_hello("B", dataclasses.replace(
        MINE, alice_message=None, bob_message=MessageBits.from_bits("1011")))

    @pytest.mark.parametrize("fields", [
        {"declared_length": True, "ops": [2]},
        {"declared_length": -2, "ops": []},
        {"declared_length": "4"},
        {"declared_length": 4.0},
        {"declared_length": None},
        {"ops": None},
        {"ops": "23"},
        {"ops": [2.0, 3]},
        {"ops": [2, True]},
        {"ops": [2, 4]},
        {"ops": [-1, 3]},
        {"ops": [2, 3, 1]},
        {"ops": [2]},
        {"declared_length": 3, "ops": [2, 3]},  # nonzero padding bit
        {"declared_length": 20, "ops": [0] * 10},  # over capacity
        {"seed": True},
        {"seed": 1.0},
        {"n_pairs": "8"},
        {"side": "A"},
    ], ids=repr)
    def test_rejected(self, fields):
        substrate = _ScriptedSubstrate({**self.PEER, **fields})
        endpoint = _ScriptedEndpoint()
        with pytest.raises(SessionError):
            run_remote_party("A", self.MINE, substrate, endpoint)
        assert endpoint.tap() == ()

    def test_bool_n_pairs_rejected(self):
        mine = SessionConfig(n_pairs=1, seed=1)
        peer = {**substrate_hello("B", mine), "n_pairs": True}
        with pytest.raises(SessionError, match="n_pairs"):
            run_remote_party("A", mine, _ScriptedSubstrate(peer), _ScriptedEndpoint())

    def test_message_from_a_silent_peer_rejected(self):
        mine = SessionConfig(n_pairs=8, seed=1, mode=SessionMode.ALICE_TO_BOB,
                             alice_message=MessageBits.from_bits("0110"))
        peer = {**substrate_hello("B", mine), "declared_length": 2, "ops": [1]}
        with pytest.raises(SessionError, match="no sending role"):
            run_remote_party("A", mine, _ScriptedSubstrate(peer), _ScriptedEndpoint())

    @settings(max_examples=200, deadline=None)
    @given(config=st.builds(
        SessionConfig,
        n_pairs=st.integers(0, 41),
        mode=st.sampled_from(list(SessionMode)),
        fallback=st.sampled_from(list(SilentFallback)),
        seed=st.integers(-(2**64), 2**65),
    ), side=st.sampled_from(["A", "B"]), data=st.data())
    def test_hello_round_trips_to_its_message(self, config, side, data):
        sends = config.alice_sends if side == "A" else config.bob_sends
        capacity = 2 * config.usable_blocks
        messages = st.none() | st.text("01", max_size=capacity).map(MessageBits.from_bits)
        message = data.draw(messages)
        slot = "alice_message" if side == "A" else "bob_message"
        config = dataclasses.replace(config, **{slot: message if sends else None})
        hello = json.loads(json.dumps(substrate_hello(side, config)))
        assert _peer_message(hello, side, config) == (message if sends else None)

    @settings(max_examples=200, deadline=None)
    @given(fields=st.dictionaries(
        st.sampled_from(list(PEER)) | st.text(max_size=4), _HELLO_VALUES, max_size=6),
        start=st.sampled_from(["peer", "empty"]))
    def test_arbitrary_hello_raises_only_session_errors(self, fields, start):
        hello = {**(self.PEER if start == "peer" else {}), **fields}
        try:
            got = _peer_message(hello, "B", self.MINE)
        except SessionError:
            return
        assert got is None or isinstance(got, MessageBits)

    def test_hello_read_is_bounded_by_own_pair_count(self):
        substrate = _ScriptedSubstrate(self.PEER)
        peer_lines = [ann for ann in run_session(dataclasses.replace(
            self.MINE, bob_message=MessageBits.from_bits("1011"))).transcript.announcements
            if ann.side == "B"]
        run_remote_party("A", self.MINE, substrate, _ScriptedEndpoint(peer_lines))
        (limit,) = substrate.limits
        assert 2 * self.MINE.usable_blocks < limit < 300
