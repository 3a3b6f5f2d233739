import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

import reference_analysis
from reference_analysis import blocks_of, independent_priors, point_prior
from swapcomm import adversary
from swapcomm.adversary import (
    _VIEW_CODES,
    _VIEW_PARTS,
    _VIEWS,
    MAX_MC_BLOCKS,
    PATTERN_A_ONLY,
    PATTERN_B_ONLY,
    PATTERN_BOTH,
    PATTERN_NONE,
    _label_columns,
    _likelihoods,
    estimate_mi_monte_carlo,
    eve_posterior,
    information_summary,
    pattern_information,
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
            eve_posterior(session().transcript, bad)

    def test_sum_error_names_a_plain_float(self):
        half = {pair: p for pair, p in uniform_priors().items()
                if pair[0] in (PauliCode.U0, PauliCode.U1)}
        with pytest.raises(ValueError) as excinfo:
            eve_posterior(session().transcript, half)
        assert str(excinfo.value) == "priors sum to 0.5, not 1"

    @pytest.mark.parametrize("p", [1 + 2e-9, 1e308])
    def test_a_prior_above_1_is_named_before_the_sum(self, p):
        priors = {(PauliCode.U0, PauliCode.U0): p, (PauliCode.U1, PauliCode.U1): p}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e308 + 1e308 overflows, with a RuntimeWarning
            with pytest.raises(ValueError) as excinfo:
                pattern_information(priors, PATTERN_BOTH)
        assert str(excinfo.value) == f"prior {p!r} for (U0, U0) is above 1"

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
        report = eve_posterior(res.transcript, uniform_priors())
        block = blocks_of(report)[0]
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
        report = eve_posterior(res.transcript, uniform_priors())
        block = blocks_of(report)[0]
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
            res.transcript, point_prior(PauliCode.U1, PauliCode.U0)
        )
        block = blocks_of(report)[0]
        assert block.consistent
        assert block.posterior[(PauliCode.U1, PauliCode.U0)] == pytest.approx(1.0)
        assert block.posterior_entropy_bits == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_evidence_flagged(self):
        # A prior that excludes the observed outcome's whole column.
        res = session(alice="01", bob="00")  # PsiMinus column
        report = eve_posterior(
            res.transcript, point_prior(PauliCode.U0, PauliCode.U0)
        )
        block = blocks_of(report)[0]
        assert block.consistent is False
        assert block.posterior == {}
        assert math.isnan(block.posterior_entropy_bits)
        assert report.inconsistent_blocks == (1,)

    def test_view_is_transcript_only(self):
        res = session(alice="0110", bob="1001")
        assert list(inspect.signature(eve_posterior).parameters) == ["transcript", "priors"]
        for column in _label_columns(res.transcript):
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
                report = eve_posterior(res.transcript, priors)
                for block in blocks_of(report):
                    if block.consistent:
                        assert sum(block.posterior.values()) == pytest.approx(
                            1.0, abs=1e-9
                        )
                    assert block.mi_alice_bits >= -1e-9
                    assert block.mi_bob_bits >= -1e-9
                    assert block.mi_joint_bits >= -1e-9


def _with_lines(transcript, order, tuple_form):
    """The transcript with its lines in `order`, an index list that may
    repeat lines, held as columns or as CodedLines.of their Announcements."""
    lines = transcript.lines
    lines = CodedLines(lines.session_id, lines.blocks[order], lines.codes[order])
    return dataclasses.replace(
        transcript,
        lines=CodedLines.of(lines.session_id, lines.announcements()) if tuple_form else lines,
    )


class TestLabelColumns:
    def test_tuple_form_transcript_gives_the_same_report(self):
        res = session(alice="0110", bob="1001")
        blocks = res.transcript.lines.blocks
        # Lines out of block order, and one measurement line dropped.
        order = np.delete(np.argsort(-blocks, kind="stable"), 3)
        for priors in (uniform_priors(), point_prior(PauliCode.U0, PauliCode.U0)):
            reports = [
                eve_posterior(_with_lines(res.transcript, order, tuple_form), priors)
                for tuple_form in (False, True)
            ]
            assert repr(blocks_of(reports[0])) == repr(blocks_of(reports[1]))
            assert reports[0].inconsistent_blocks == reports[1].inconsistent_blocks
            summaries = [repr(information_summary(report)) for report in reports]
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
        transcript = _with_lines(res.transcript, order, tuple_form)
        with pytest.raises(ValueError, match="^side A announced block 2 twice$"):
            _label_columns(transcript)

    @pytest.mark.parametrize("block", [0, 3])
    def test_measurement_outside_the_blocks_is_a_value_error(self, block):
        # The rule and message of a stored document's transcript, for a
        # transcript built by hand.
        res = session(alice="0110", bob="1001")  # 2 blocks
        lines = res.transcript.lines
        first_a = next(i for i, ann in enumerate(lines.announcements())
                       if ann.side == "A" and ann.label is not None)
        blocks = lines.blocks.copy()
        blocks[first_a] = block
        transcript = dataclasses.replace(
            res.transcript, lines=CodedLines(lines.session_id, blocks, lines.codes)
        )
        with pytest.raises(ValueError, match=f"^measurement for block {block} outside 1..2$"):
            eve_posterior(transcript, uniform_priors())


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

    @pytest.mark.parametrize("scale", [1 + 5e-10, 1 - 5e-10])
    def test_a_point_prior_that_sums_within_1e_9_of_1_leaks_nothing(self, scale):
        # The priors are divided by their sum, so these are the point prior:
        # every MI exactly 0, and no prior entropy below 0.
        priors = {pair: p * scale for pair, p in point_prior(PauliCode.U0, PauliCode.U0).items()}
        for pattern in ALL_PATTERNS:
            assert set(pattern_information(priors, pattern).values()) == {0.0}, pattern
        report = eve_posterior(session(alice="0110", bob="1001").transcript, priors)
        totals = information_summary(report)["session"]
        assert [totals[key] for key in ("mi_alice_bits", "mi_bob_bits", "mi_joint_bits")] == [0.0] * 3
        assert totals["prior_entropy_bits"] >= 0.0
        assert all(view.prior_entropy_bits >= 0.0 for view in report.views)

    def test_point_prior_entropies_are_positive_zeros(self):
        # 0.0, not -0.0: a document writes the sign of zero.
        priors = point_prior(PauliCode.U1, PauliCode.U0)
        for res in (session(alice="0110", bob="1001"), session(alice="01", bob="00")):
            report = eve_posterior(res.transcript, priors)
            totals = information_summary(report)["session"]
            entropies = [totals["prior_entropy_bits"], totals["posterior_entropy_bits"]]
            for view in report.views:
                entropies.append(view.prior_entropy_bits)
                if view.consistent:
                    entropies.append(view.posterior_entropy_bits)
            assert entropies and all(math.copysign(1.0, h) == 1.0 and h == 0.0 for h in entropies)

    @pytest.mark.parametrize("n_pairs", [0, 1, 4])
    def test_totals_of_no_blocks_are_floats(self, n_pairs):
        # With no blocks, or only inconsistent ones, a total is an empty sum:
        # a document writes 0.0 for it, not the int 0.
        bits = n_pairs // 2 * 2
        res = run_session(SessionConfig(
            n_pairs=n_pairs, seed=1,
            alice_message=MessageBits.from_bits("0101"[:bits]),
            bob_message=MessageBits.from_bits("0000"[:bits]),
        ))
        report = eve_posterior(res.transcript, point_prior(PauliCode.U0, PauliCode.U0))
        totals = information_summary(report)["session"]
        assert len(report.inconsistent_blocks) == n_pairs // 2
        keys = ["prior_entropy_bits", "posterior_entropy_bits",
                "mi_alice_bits", "mi_bob_bits", "mi_joint_bits"]
        assert [repr(totals[key]) for key in keys] == ["0.0"] * len(keys)

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
        report = eve_posterior(res.transcript, priors)
        summary = information_summary(report)
        assert list(inspect.signature(information_summary).parameters) == ["report"]
        n = len(blocks_of(report))
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

    @pytest.mark.parametrize("n_blocks", [-1, 0, MAX_MC_BLOCKS + 1])
    def test_block_count_outside_its_range_is_a_value_error(self, n_blocks):
        with pytest.raises(ValueError, match=rf"^n_blocks must be in 1\.\.{MAX_MC_BLOCKS}, got"):
            estimate_mi_monte_carlo(uniform_priors(), n_blocks=n_blocks)

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


@pytest.mark.parametrize("scale", [1 + 5e-10, 1 - 5e-10])
@pytest.mark.parametrize("priors", [
    point_prior(PauliCode.U0, PauliCode.U0),
    independent_priors(dict(zip(PauliCode, (0.4, 0.3, 0.2, 0.1))), dict.fromkeys(PauliCode, 0.25)),
], ids=["point", "skewed"])
@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_monte_carlo_takes_priors_that_sum_within_1e_9_of_1(pattern, priors, scale):
    """_validate_priors accepts a sum within 1e-9 of 1; the estimate draws
    from the priors divided by their sum."""
    priors = {pair: p * scale for pair, p in priors.items()}
    analytic = pattern_information(priors, pattern)
    mc = estimate_mi_monte_carlo(priors, pattern, n_blocks=100_000, seed=15)
    for key in ("mi_alice_bits", "mi_bob_bits", "mi_joint_bits"):
        assert math.isfinite(mc[key]), key
        assert abs(mc[key] - analytic[key]) < 0.02, key


# The priors of the Monte Carlo reference tests.
_MC_PRIORS = [
    uniform_priors(),
    independent_priors(dict(zip(PauliCode, (0.4, 0.3, 0.2, 0.1))),
                       dict(zip(PauliCode, (0.15, 0.25, 0.35, 0.25)))),
    point_prior(PauliCode.U1, PauliCode.U0),
]
_MC_PRIOR_IDS = ["uniform", "skewed", "point"]

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
    def test_monte_carlo_views_follow_the_layout(self, pattern, monkeypatch):
        """Under a point prior on each operation pair, the Monte Carlo counts
        land on exactly the views _likelihoods() gives that pair in the
        pattern's run of columns."""
        joints = []
        monkeypatch.setattr(adversary, "_joint_information",
                            lambda joint: joints.append(joint) or {})
        lik = _likelihoods()[:, _VIEWS[pattern]]
        for i, pair in enumerate(ALL_OP_PAIRS):
            estimate_mi_monte_carlo(point_prior(*pair), pattern, 4096, seed=i)
            joint = joints.pop()
            assert joint.shape == lik.shape
            assert joint.sum() == pytest.approx(1.0) and not np.delete(joint, i, axis=0).any()
            assert np.array_equal(joint[i] > 0, lik[i] > 0), pair

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("priors", _MC_PRIORS, ids=_MC_PRIOR_IDS)
    def test_monte_carlo_equals_the_cell_reference(self, pattern, priors):
        for seed in (0, 1, 12, 2**40):
            for n_blocks in (1, 37, 4096, 50_000):
                got = estimate_mi_monte_carlo(priors, pattern, n_blocks, seed)
                want = reference_analysis.estimate_mi_monte_carlo_cells(
                    priors, pattern, n_blocks, seed)
                assert repr(got) == repr(want), (seed, n_blocks)

    @pytest.mark.parametrize("priors", _MC_PRIORS, ids=_MC_PRIOR_IDS)
    def test_monte_carlo_counts_follow_the_per_block_law(self, priors, monkeypatch):
        """Over 200 seeds, the mean count of every (operation pair, view)
        cell of every pattern is the per-block estimator's, within 5 sigma
        of the difference of the two means."""
        joints = []

        def kept(joint):
            joints.append(joint)
            return {}

        monkeypatch.setattr(adversary, "_joint_information", kept)
        n_blocks, seeds = 2000, range(200)
        for pattern in ALL_PATTERNS:
            joints.clear()
            for seed in seeds:
                estimate_mi_monte_carlo(priors, pattern, n_blocks, seed)
            cells = np.rint(np.array(joints) * n_blocks)
            blocks = np.array([
                reference_analysis.per_block_counts(priors, pattern, n_blocks, seed)
                for seed in seeds
            ])
            assert cells.shape == blocks.shape
            assert cells.sum(axis=(1, 2)).tolist() == [n_blocks] * len(seeds)
            sigma = np.sqrt((cells.var(axis=0, ddof=1) + blocks.var(axis=0, ddof=1)) / len(seeds))
            gap = np.abs(cells.mean(axis=0) - blocks.mean(axis=0))
            assert np.all(gap <= 5 * sigma), (pattern, np.argwhere(gap > 5 * sigma))

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
        transcript = _with_lines(res.transcript, kept, False)
        report = eve_posterior(transcript, uniform_priors())
        columns = [
            _VIEW_CODES[_label_index(v.announced_a) + 1, _label_index(v.announced_b) + 1]
            for v in report.views
        ]
        a_seen, b_seen = _label_columns(transcript)
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
        report = eve_posterior(res.transcript, uniform_priors())
        assert all(b.pattern == PATTERN_A_ONLY for b in blocks_of(report))
        assert all(b.mi_joint_bits == 0.0 for b in blocks_of(report))

    def test_random_fallback_still_two_bit_composite(self):
        res = session(
            alice="0110", bob=None,
            mode=SessionMode.ALICE_TO_BOB,
            fallback=SilentFallback.RANDOM_OPS,
        )
        report = eve_posterior(res.transcript, uniform_priors())
        assert all(b.pattern == PATTERN_BOTH for b in blocks_of(report))
        assert all(b.mi_joint_bits == 2.0 for b in blocks_of(report))
        assert all(b.mi_alice_bits == 0.0 for b in blocks_of(report))
