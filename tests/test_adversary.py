import dataclasses
import math

import numpy as np
import pytest

import reference_analysis
from swapcomm.adversary import (
    _VIEW_CODES,
    _VIEW_PARTS,
    _VIEWS,
    PATTERN_A_ONLY,
    PATTERN_B_ONLY,
    PATTERN_BOTH,
    PATTERN_NONE,
    EveView,
    _likelihoods,
    _pattern_views,
    estimate_mi_monte_carlo,
    eve_posterior,
    independent_priors,
    information_summary,
    pattern_information,
    point_prior,
    uniform_priors,
)
from swapcomm.channel import CodedLines
from swapcomm.protocol import (
    MessageBits,
    SessionConfig,
    SessionMode,
    SilentFallback,
    run_session,
)
from swapcomm.quantum import BellLabel, PauliCode
from swapcomm.swap import ALL_OP_PAIRS, ENCODING_ORDER, generate_decode_table

ALL_PATTERNS = (PATTERN_BOTH, PATTERN_A_ONLY, PATTERN_B_ONLY, PATTERN_NONE)


def session(alice="01", bob="00", seed=1, **kwargs):
    longest = max((len(m) for m in (alice, bob) if m is not None), default=0)
    blocks = max((longest + 1) // 2, 1)
    return run_session(SessionConfig(
        n_pairs=2 * blocks,
        seed=seed,
        alice_message=MessageBits.from_bits(alice) if alice is not None else None,
        bob_message=MessageBits.from_bits(bob) if bob is not None else None,
        **kwargs,
    ))


class TestPriors:
    def test_uniform_sums_to_one(self):
        assert abs(sum(uniform_priors().values()) - 1.0) < 1e-12

    def test_invalid_priors_rejected(self):
        bad = uniform_priors()
        bad[(PauliCode.U0, PauliCode.U0)] = 0.5
        with pytest.raises(ValueError, match="sum to"):
            eve_posterior(EveView(session().transcript), bad)

    def test_sum_error_names_a_plain_float(self):
        half = {pair: p for pair, p in uniform_priors().items()
                if pair[0] in (PauliCode.U0, PauliCode.U1)}
        with pytest.raises(ValueError) as excinfo:
            eve_posterior(EveView(session().transcript), half)
        assert str(excinfo.value) == "priors sum to 0.5, not 1"

    def test_independent_priors(self):
        skew = {PauliCode.U0: 0.7, PauliCode.U1: 0.3,
                PauliCode.U2: 0.0, PauliCode.U3: 0.0}
        flat = {op: 0.25 for op in PauliCode}
        priors = independent_priors(skew, flat)
        assert abs(sum(priors.values()) - 1.0) < 1e-12
        assert priors[(PauliCode.U0, PauliCode.U2)] == pytest.approx(0.175)


class TestEvePosterior:
    def test_both_announced_uniform_posterior_over_column(self):
        # Alice applies U1, Bob U0: the composite is the PsiMinus column.
        res = session(alice="01", bob="00")
        report = eve_posterior(EveView(res.transcript), uniform_priors())
        block = report.blocks[0]
        assert block.pattern == PATTERN_BOTH
        support = {pair for pair, p in block.posterior.items() if p > 0}
        assert support == {
            (PauliCode.U1, PauliCode.U0),
            (PauliCode.U0, PauliCode.U1),
            (PauliCode.U2, PauliCode.U3),
            (PauliCode.U3, PauliCode.U2),
        }
        for pair in support:
            assert block.posterior[pair] == pytest.approx(0.25, abs=1e-12)
        assert block.posterior_entropy_bits == pytest.approx(2.0, abs=1e-12)

    def test_one_side_announced_posterior_equals_prior(self):
        res = session(
            alice="01", bob=None,
            mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
        )
        report = eve_posterior(EveView(res.transcript), uniform_priors())
        block = report.blocks[0]
        assert block.pattern == PATTERN_A_ONLY
        for pair, p in block.posterior.items():
            assert p == pytest.approx(1 / 16, abs=1e-12)
        # Alice's marginal is uniform: every a-side label sits in every column.
        marg = {}
        for (a, _b), p in block.posterior.items():
            marg[a] = marg.get(a, 0.0) + p
        for p in marg.values():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_point_prior_stays_point(self):
        res = session(alice="01", bob="00")
        report = eve_posterior(
            EveView(res.transcript), point_prior(PauliCode.U1, PauliCode.U0)
        )
        block = report.blocks[0]
        assert block.consistent
        assert block.posterior[(PauliCode.U1, PauliCode.U0)] == pytest.approx(1.0)
        assert block.posterior_entropy_bits == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_evidence_flagged(self):
        # A prior that excludes the observed outcome's whole column.
        res = session(alice="01", bob="00")  # PsiMinus column
        report = eve_posterior(
            EveView(res.transcript), point_prior(PauliCode.U0, PauliCode.U0)
        )
        block = report.blocks[0]
        assert block.consistent is False
        assert block.posterior == {}
        assert math.isnan(block.posterior_entropy_bits)
        assert report.inconsistent_blocks == (1,)

    def test_view_is_transcript_only(self):
        res = session(alice="0110", bob="1001")
        view = EveView(res.transcript)
        assert [field.name for field in dataclasses.fields(view)] == ["transcript"]
        for column in view.label_columns():
            # Indices into ENCODING_ORDER: announced labels, never operation codes.
            assert len(column) == 2 and set(column.tolist()) <= {0, 1, 2, 3}
            labels = [ENCODING_ORDER[i] for i in column.tolist()]
            assert all(isinstance(label, BellLabel) for label in labels)
            assert not any(isinstance(label, PauliCode) for label in labels)

    def test_report_numeric_invariants(self):
        # Posteriors of consistent blocks sum to 1; MI values never go
        # meaningfully negative, whatever the priors and pattern.
        priors_list = [
            uniform_priors(),
            independent_priors(
                {PauliCode.U0: 0.6, PauliCode.U1: 0.4,
                 PauliCode.U2: 0.0, PauliCode.U3: 0.0},
                {op: 0.25 for op in PauliCode},
            ),
        ]
        sessions = [
            session(alice="0110", bob="1001"),
            session(alice="0110", bob=None, mode=SessionMode.ALICE_TO_BOB,
                    fallback=SilentFallback.ANNOUNCED_SILENCE),
        ]
        for priors in priors_list:
            for res in sessions:
                report = eve_posterior(EveView(res.transcript), priors)
                for block in report.blocks:
                    if block.consistent:
                        assert sum(block.posterior.values()) == pytest.approx(
                            1.0, abs=1e-9
                        )
                    assert block.mi_alice_bits >= -1e-9
                    assert block.mi_bob_bits >= -1e-9
                    assert block.mi_joint_bits >= -1e-9


def _with_lines(transcript, order, tuple_form):
    """The transcript with its lines in `order`, an index list that may
    repeat lines, held as columns or as a tuple of Announcements."""
    lines = transcript.lines
    lines = CodedLines(lines.session_id, lines.blocks[order], lines.codes[order])
    return dataclasses.replace(
        transcript, announcements=lines.announcements() if tuple_form else lines
    )


class TestLabelColumns:
    def test_tuple_form_transcript_gives_the_same_report(self):
        res = session(alice="0110", bob="1001")
        blocks = res.transcript.lines.blocks
        # Lines out of block order, and one measurement line dropped.
        order = np.delete(np.argsort(-blocks, kind="stable"), 3)
        for priors in (uniform_priors(), point_prior(PauliCode.U0, PauliCode.U0)):
            reports = [
                eve_posterior(EveView(_with_lines(res.transcript, order, tuple_form)), priors)
                for tuple_form in (False, True)
            ]
            assert repr(reports[0].blocks) == repr(reports[1].blocks)
            assert reports[0].inconsistent_blocks == reports[1].inconsistent_blocks
            summaries = [repr(information_summary(report, priors)) for report in reports]
            assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("tuple_form", [False, True])
    def test_block_announced_twice_reports_side_a_first(self, tuple_form):
        res = session(alice="0110", bob="1001")
        lines = res.transcript.lines
        order = list(range(len(lines)))
        first_b, second_a = (
            next(i for i, ann in enumerate(lines.announcements())
                 if (ann.side, ann.block) == (side, block) and ann.label is not None)
            for side, block in (("B", 1), ("A", 2))
        )
        # B repeats block 1 before A repeats block 2, yet A is reported.
        order.insert(first_b + 1, first_b)
        order.append(second_a)
        view = EveView(_with_lines(res.transcript, order, tuple_form))
        with pytest.raises(ValueError, match="^side A announced block 2 twice$"):
            view.label_columns()


class TestInformationMeasures:
    def test_marginal_security_under_uniform_priors(self):
        priors = uniform_priors()
        for pattern in ALL_PATTERNS:
            info = pattern_information(priors, pattern)
            assert info["mi_alice_bits"] == 0.0
            assert info["mi_bob_bits"] == 0.0

    def test_composite_leak_is_two_bits(self):
        info = pattern_information(uniform_priors(), PATTERN_BOTH)
        assert info["mi_joint_bits"] == 2.0

    def test_single_side_leaks_nothing_at_all(self):
        for pattern in (PATTERN_A_ONLY, PATTERN_B_ONLY, PATTERN_NONE):
            info = pattern_information(uniform_priors(), pattern)
            assert info["mi_joint_bits"] == 0.0

    def test_deterministic_priors_leak_nothing(self):
        # No prior uncertainty means nothing to learn, whatever is announced.
        priors = point_prior(PauliCode.U2, PauliCode.U1)
        for pattern in ALL_PATTERNS:
            info = pattern_information(priors, pattern)
            assert info == {
                "mi_alice_bits": 0.0, "mi_bob_bits": 0.0, "mi_joint_bits": 0.0,
            }

    def test_skewed_priors_do_leak(self):
        # Bob known to apply U0: the composite then names Alice's operation.
        priors = independent_priors(
            {op: 0.25 for op in PauliCode},
            {PauliCode.U0: 1.0, PauliCode.U1: 0.0, PauliCode.U2: 0.0, PauliCode.U3: 0.0},
        )
        info = pattern_information(priors, PATTERN_BOTH)
        assert info["mi_alice_bits"] == pytest.approx(2.0)
        assert info["mi_bob_bits"] == 0.0

    def test_correlated_priors_do_leak(self):
        # Equal operations on both sides: the composite is always PsiPlus,
        # yet the outcome still reveals nothing about either party alone.
        priors = {pair: 0.0 for pair in uniform_priors()}
        for op in PauliCode:
            priors[(op, op)] = 0.25
        info = pattern_information(priors, PATTERN_BOTH)
        assert info["mi_joint_bits"] == 0.0
        assert info["mi_alice_bits"] == 0.0

    def test_summary_totals(self):
        res = session(alice="0110", bob="1001")
        priors = uniform_priors()
        report = eve_posterior(EveView(res.transcript), priors)
        summary = information_summary(report, priors)
        n = len(report.blocks)
        assert summary["session"]["blocks"] == n
        assert summary["session"]["mi_joint_bits"] == pytest.approx(2.0 * n)
        assert summary["session"]["mi_alice_bits"] == 0.0
        assert summary["session"]["prior_entropy_bits"] == pytest.approx(4.0 * n)
        assert summary["session"]["posterior_entropy_bits"] == pytest.approx(2.0 * n)
        assert summary["session"]["inconsistent_blocks"] == []


class TestMonteCarloAgreement:
    def test_uniform_both_pattern(self):
        mc = estimate_mi_monte_carlo(uniform_priors(), PATTERN_BOTH,
                                     n_blocks=100_000, seed=12)
        assert abs(mc["mi_joint_bits"] - 2.0) < 0.02
        assert abs(mc["mi_alice_bits"]) < 0.02
        assert abs(mc["mi_bob_bits"]) < 0.02

    def test_uniform_single_side(self):
        for pattern in (PATTERN_A_ONLY, PATTERN_B_ONLY):
            mc = estimate_mi_monte_carlo(uniform_priors(), pattern,
                                         n_blocks=100_000, seed=13)
            assert abs(mc["mi_joint_bits"]) < 0.02

    def test_matches_analytic_for_skewed_priors(self):
        priors = independent_priors(
            {PauliCode.U0: 0.5, PauliCode.U1: 0.5,
             PauliCode.U2: 0.0, PauliCode.U3: 0.0},
            {op: 0.25 for op in PauliCode},
        )
        analytic = pattern_information(priors, PATTERN_BOTH)
        mc = estimate_mi_monte_carlo(priors, PATTERN_BOTH,
                                     n_blocks=100_000, seed=14)
        for key in ("mi_alice_bits", "mi_bob_bits", "mi_joint_bits"):
            assert abs(mc[key] - analytic[key]) < 0.02, key


# Which sides each pattern's views show: (side A, side B).
_SHOWN = {
    PATTERN_BOTH: (True, True),
    PATTERN_A_ONLY: (True, False),
    PATTERN_B_ONLY: (False, True),
    PATTERN_NONE: (False, False),
}


def _label_index(label):
    return -1 if label is None else ENCODING_ORDER.index(label)


class TestViewLayout:
    """_VIEW_PARTS is the one layout of the views; everything else agrees."""

    def test_every_column_agrees(self):
        table = generate_decode_table()
        lik = _likelihoods()
        assert lik.shape == (16, len(_VIEW_PARTS)) == (16, 25)
        assert sorted(_VIEW_CODES.ravel().tolist()) == list(range(25))
        assert list(_VIEWS) == list(ALL_PATTERNS)
        for column, (pattern, a_label, b_label) in enumerate(_VIEW_PARTS):
            assert _VIEWS[pattern].start <= column < _VIEWS[pattern].stop
            assert (a_label is not None, b_label is not None) == _SHOWN[pattern]
            assert _VIEW_CODES[_label_index(a_label) + 1, _label_index(b_label) + 1] == column
            # P(view | ops): the outcomes of the operations' composite column
            # that show these labels, 1/4 each.
            want = np.zeros(16)
            for outcome, second in table.infer.items():
                if a_label in (None, outcome.a_side) and b_label in (None, outcome.b_side):
                    for i, pair in enumerate(ALL_OP_PAIRS):
                        want[i] += 0.25 if table.composite[pair] is second else 0.0
            assert np.array_equal(lik[:, column], want), column

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_monte_carlo_views_follow_the_layout(self, pattern):
        a_idx, b_idx = (grid.ravel() for grid in np.meshgrid(range(4), range(4)))
        views = _pattern_views(pattern, a_idx, b_idx)
        shows_a, shows_b = _SHOWN[pattern]
        for a, b, view in zip(a_idx.tolist(), b_idx.tolist(), views.tolist()):
            column = range(25)[_VIEWS[pattern]][view]
            want = _VIEW_CODES[a + 1 if shows_a else 0, b + 1 if shows_b else 0]
            assert column == want, (a, b)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("priors", [
        uniform_priors(),
        independent_priors(dict(zip(PauliCode, (0.4, 0.3, 0.2, 0.1))),
                           dict(zip(PauliCode, (0.15, 0.25, 0.35, 0.25)))),
        point_prior(PauliCode.U1, PauliCode.U0),
    ], ids=["uniform", "skewed", "point"])
    def test_monte_carlo_equals_the_reference(self, pattern, priors):
        for seed in (0, 1, 12, 2**40):
            for n_blocks in (1, 37, 4096, 50_000):
                got = estimate_mi_monte_carlo(priors, pattern, n_blocks, seed)
                want = reference_analysis.estimate_mi_monte_carlo(priors, pattern, n_blocks, seed)
                assert repr(got) == repr(want), (seed, n_blocks)

    def test_report_views_in_column_order(self):
        res = session(alice="011010", bob="100101")
        lines = res.transcript.lines
        # Drop B's measurement of block 1 and A's of block 2: an a-only and
        # a b-only view, which follow the both-sides views in column order.
        dropped = [
            i for i, ann in enumerate(lines.announcements())
            if ann.label is not None and (ann.side, ann.block) in {("B", 1), ("A", 2)}
        ]
        kept = np.delete(np.arange(len(lines)), dropped)
        view = EveView(_with_lines(res.transcript, kept, False))
        report = eve_posterior(view, uniform_priors())
        columns = [
            _VIEW_CODES[_label_index(v.announced_a) + 1, _label_index(v.announced_b) + 1]
            for v in report.views
        ]
        a_seen, b_seen = view.label_columns()
        seen = _VIEW_CODES[a_seen + 1, b_seen + 1]
        assert columns == sorted(set(seen.tolist()))
        assert np.array_equal(np.array(columns)[report.which], seen)
        assert [v.pattern for v in report.views][-2:] == [PATTERN_A_ONLY, PATTERN_B_ONLY]


class TestSessionPatterns:
    def test_announced_silence_pattern_per_block(self):
        res = session(
            alice="0110", bob=None,
            mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.ANNOUNCED_SILENCE,
        )
        report = eve_posterior(EveView(res.transcript), uniform_priors())
        assert all(b.pattern == PATTERN_A_ONLY for b in report.blocks)
        assert all(b.mi_joint_bits == 0.0 for b in report.blocks)

    def test_random_fallback_still_two_bit_composite(self):
        res = session(
            alice="0110", bob=None,
            mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
        )
        report = eve_posterior(EveView(res.transcript), uniform_priors())
        assert all(b.pattern == PATTERN_BOTH for b in report.blocks)
        assert all(b.mi_joint_bits == 2.0 for b in report.blocks)
        assert all(b.mi_alice_bits == 0.0 for b in report.blocks)
