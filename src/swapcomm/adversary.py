"""Transcript-only eavesdropper analysis.

The eavesdropper holds no photons; her entire view is the public
announcement transcript. This module turns that qualitative setting into
computed information measures: exact Bayesian posteriors over the parties'
operation pairs given the announcements, Shannon entropies, and mutual
information between the view and the operations, per block and per session.

The channel model is analytic, not sampled, and lives in one table built
once from the decode table. Given operations with composite label L, the
announced outcome pair is uniform over the four outcomes of L's column, so

    L[ops, 4*a_idx + b_idx] = P(both announcements | ops)
                            = 1/4   if the outcome lies in the column,
                              0     otherwise.

Every other announcement pattern is a marginal of this 16x16 table: summing
over b_idx gives the a-only likelihoods, over a_idx the b-only ones, and
over both the single none view. _VIEW_PARTS is the one layout of these 25
views as the table's columns. Every a-side label occurs exactly once in
every column, which is why a single side's announcement carries no
information at all: its likelihood is 1/4 under every operation pair.

Mutual information here is the standard discrete definition,

    I(V; X) = sum_{v,x} P(v,x) log2( P(v,x) / (P(v) P(x)) ),

computed over the finite view and operation spaces. With uniform
independent priors this gives I = 0 bits for either party's marginal under
any announcement pattern, and 2 bits for the joint pair when both sides
announce: the transcript reveals the composite label and nothing more.
Non-uniform priors are supported because skewed or correlated message
statistics change what the composite reveals; the report measures that
instead of asserting blanket security.

The analyzer reads only the public Transcript. A report has one stored
form, a table: PosteriorReport.views scores each distinct view once, and
PosteriorReport.which gives each block's view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .channel import SIDES
from .protocol import Transcript
from .quantum import BellLabel, PauliCode
from .swap import ALL_OP_PAIRS, ENCODING_ORDER, LABEL_CODES, generate_decode_table

OpPair = tuple[PauliCode, PauliCode]

# Every 16-vector over operation pairs is indexed by 4*a.code + b.code.
assert all(4 * a.code + b.code == i for i, (a, b) in enumerate(ALL_OP_PAIRS))

_PAIR_INDEX: dict[OpPair, int] = {pair: i for i, pair in enumerate(ALL_OP_PAIRS)}

# Announcement patterns a block can show.
PATTERN_BOTH = "both"
PATTERN_A_ONLY = "a-only"
PATTERN_B_ONLY = "b-only"
PATTERN_NONE = "none"

# The most blocks estimate_mi_monte_carlo counts. It draws 64 cell counts,
# not one row per block, so its time and memory do not grow with the count.
MAX_MC_BLOCKS = 10**7

# The one layout of the 25 views: column c of _likelihoods() is the view
# _VIEW_PARTS[c], (pattern, a-side label, b-side label), None for a silent side.
_VIEW_PARTS = (
    *((PATTERN_BOTH, a, b) for a in ENCODING_ORDER for b in ENCODING_ORDER),
    *((PATTERN_A_ONLY, a, None) for a in ENCODING_ORDER),
    *((PATTERN_B_ONLY, None, b) for b in ENCODING_ORDER),
    (PATTERN_NONE, None, None),
)

# Each pattern's views: its run of columns of _likelihoods().
_PATTERNS = [parts[0] for parts in _VIEW_PARTS]
_VIEWS = {
    pattern: slice(_PATTERNS.index(pattern), _PATTERNS.index(pattern) + _PATTERNS.count(pattern))
    for pattern in dict.fromkeys(_PATTERNS)
}

# _VIEW_CODES[a + 1, b + 1]: the column of the view of label indices a and b, -1 if silent.
_VIEW_CODES = np.empty((5, 5), dtype=np.intp)
_VIEW_CODES[
    [LABEL_CODES.get(a, -1) + 1 for _, a, _ in _VIEW_PARTS],
    [LABEL_CODES.get(b, -1) + 1 for _, _, b in _VIEW_PARTS],
] = range(len(_VIEW_PARTS))
_VIEW_CODES.flags.writeable = False


def uniform_priors() -> dict[OpPair, float]:
    """Independent uniform operations on both sides: 1/16 per pair."""
    return {pair: 1.0 / 16.0 for pair in ALL_OP_PAIRS}


def _validate_priors(priors: Mapping[OpPair, float]) -> np.ndarray:
    """Priors as a 16-vector indexed by 4*a.code + b.code, divided by their
    sum, which may differ from 1 by up to 1e-9."""
    vec = np.zeros(16)
    for pair, p in priors.items():
        if pair not in _PAIR_INDEX:
            raise ValueError(f"unknown operation pair {pair!r}")
        if not math.isfinite(p):
            raise ValueError(f"non-finite prior {p!r} for {pair!r}")
        if p < 0:
            raise ValueError(f"negative prior for {pair!r}")
        if p > 1 + 1e-9:  # checked here, so that the sum below cannot overflow
            raise ValueError(f"prior {p!r} for {pair!r} is above 1")
        vec[_PAIR_INDEX[pair]] = p
    total = float(vec.sum())  # a Python float, so the message reads "0.5", not "np.float64(0.5)"
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {total!r}, not 1")
    return vec / total


@lru_cache(maxsize=1)
def _likelihoods() -> np.ndarray:
    """lik[ops_index, view] = P(view | ops), views laid out as in _VIEW_PARTS.

    The both-sides likelihoods from the decode table, with a side that
    announced nothing summed out. Built on first use, not at import, so
    that importing the package stays as cheap as before.
    """
    table = generate_decode_table()
    both = np.where(table.infer_codes == table.composite_codes.reshape(16, 1, 1), 0.25, 0.0)
    every = slice(None)
    lik = np.column_stack([
        both[:, LABEL_CODES.get(a, every), LABEL_CODES.get(b, every)].reshape(16, -1).sum(1)
        for _, a, b in _VIEW_PARTS
    ])
    lik.flags.writeable = False
    return lik


def _entropy_bits(probs: np.ndarray) -> float:
    """Entropy in bits; + 0.0 makes a one-point distribution's 0.0, not -0.0."""
    p = probs[probs > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0


def _mi_bits(joint: np.ndarray) -> float:
    """MI of a joint probability matrix (rows: X, columns: V)."""
    px = joint.sum(axis=1, keepdims=True)
    pv = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.ones_like(joint)
    np.divide(joint, px * pv, out=ratio, where=mask)
    return float((joint[mask] * np.log2(ratio[mask])).sum())


def _pattern_likelihoods(pattern: str) -> np.ndarray:
    """lik[ops_index, view_index] = P(view | ops) for one pattern."""
    try:
        return _likelihoods()[:, _VIEWS[pattern]]
    except KeyError:
        raise ValueError(f"unknown announcement pattern {pattern!r}") from None


def _pattern_information(priors_vec: np.ndarray, pattern: str) -> dict[str, float]:
    return _joint_information(priors_vec[:, None] * _pattern_likelihoods(pattern))


def _joint_information(joint: np.ndarray) -> dict[str, float]:
    """mi_alice_bits, mi_bob_bits and mi_joint_bits of a joint probability
    matrix of (16 operation pairs, indexed by 4*a.code + b.code) x views."""
    by_ops = joint.reshape(4, 4, -1)
    return {
        "mi_alice_bits": _mi_bits(by_ops.sum(axis=1)),
        "mi_bob_bits": _mi_bits(by_ops.sum(axis=0)),
        "mi_joint_bits": _mi_bits(joint),
    }


def pattern_information(priors: Mapping[OpPair, float], pattern: str) -> dict[str, float]:
    """Analytic MI between one block's view and the operations, in bits.

    Keys: mi_alice_bits, mi_bob_bits (the marginals) and mi_joint_bits (the
    operation pair). Depends only on the announcement pattern and priors,
    never on which outcome was announced.
    """
    return _pattern_information(_validate_priors(priors), pattern)


def _label_columns(transcript: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """Each side's announced label per block, as its index in
    ENCODING_ORDER (entry k-1 is block k), -1 where the side announced
    none. A measurement outside 1..usable_blocks is a ValueError, as
    Transcript.check_measured_blocks reports it; so is a side that
    announced a block twice, side A checked first, as Transcript.measured
    reports it."""
    transcript.check_measured_blocks()
    n = transcript.usable_blocks
    columns = (np.full(n, -1, dtype=np.intp), np.full(n, -1, dtype=np.intp))
    for side, column in zip(SIDES, columns):
        blocks, labels = transcript.measured(side)
        column[blocks - 1] = labels
    return columns


@dataclass(frozen=True)
class BlockPosterior:
    """Exact Bayesian update for one view's announcements."""

    announced_a: BellLabel | None
    announced_b: BellLabel | None
    pattern: str
    consistent: bool
    posterior: Mapping[OpPair, float]
    prior_entropy_bits: float
    posterior_entropy_bits: float
    mi_alice_bits: float
    mi_bob_bits: float
    mi_joint_bits: float


class PosteriorReport:
    """A session's block posteriors as columns: `views` holds the posterior
    of each distinct view once, and `which[k-1]` is the position in `views`
    of block k's view. Blocks of one view share its values."""

    __slots__ = ("views", "which")

    def __init__(self, views: tuple[BlockPosterior, ...], which: np.ndarray):
        self.views = views
        self.which = which

    @property
    def inconsistent_blocks(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(~self._consistent()) + 1).tolist())

    def _consistent(self) -> np.ndarray:
        """Per block, whether its view is consistent with the priors."""
        return np.array([view.consistent for view in self.views], dtype=bool)[self.which]


def _block_sum(report: PosteriorReport, field: str, which: np.ndarray) -> float:
    """The sum of the view field over the blocks whose views `which`
    lists, added in that order from 0.0, so that a sum of no blocks is a float."""
    values = np.array([getattr(view, field) for view in report.views], dtype=float)
    return sum(values[which].tolist(), 0.0)


def eve_posterior(transcript: Transcript, priors: Mapping[OpPair, float]) -> PosteriorReport:
    """Exact per-block posterior over operation pairs given the transcript.

    A block whose announced outcome has zero probability under the priors
    is flagged inconsistent; its posterior is left empty rather than
    normalizing a zero vector.
    """
    priors_vec = _validate_priors(priors)
    prior_entropy = _entropy_bits(priors_vec)
    a_seen, b_seen = _label_columns(transcript)
    seen = _VIEW_CODES[a_seen + 1, b_seen + 1]  # each block's column in _likelihoods()
    # A block's posterior depends only on its view, so each distinct view is
    # scored once, in column order. which[k-1] counts the views before block k's.
    present = np.bincount(seen, minlength=len(_VIEW_PARTS)) > 0
    columns = np.flatnonzero(present)
    which = (np.cumsum(present) - 1)[seen]
    weighted = priors_vec * _likelihoods().T[columns]
    info = {}
    views = []
    for column, row, evidence in zip(columns.tolist(), weighted, weighted.sum(axis=1).tolist()):
        pattern, a_label, b_label = _VIEW_PARTS[column]
        if pattern not in info:
            info[pattern] = _pattern_information(priors_vec, pattern)
        consistent = evidence > 0.0
        if consistent:
            post_vec = row / evidence
            posterior = MappingProxyType(dict(zip(ALL_OP_PAIRS, post_vec.tolist())))
            posterior_entropy = _entropy_bits(post_vec)
        else:
            posterior, posterior_entropy = MappingProxyType({}), float("nan")
        views.append(BlockPosterior(
            announced_a=a_label,
            announced_b=b_label,
            pattern=pattern,
            consistent=consistent,
            posterior=posterior,
            prior_entropy_bits=prior_entropy,
            posterior_entropy_bits=posterior_entropy,
            **info[pattern],
        ))
    return PosteriorReport(tuple(views), which)


def information_summary(report: PosteriorReport) -> dict:
    """Session totals of the entropy and MI bookkeeping, under "session".

    Blocks are independent, so session totals are sums; inconsistent blocks
    are excluded from the posterior-entropy total and listed instead. Every
    view holds the entropy of the same priors.
    """
    which = report.which
    prior_entropy = report.views[0].prior_entropy_bits if report.views else 0.0
    session = {
        "blocks": len(which),
        "prior_entropy_bits": prior_entropy * len(which),
        "posterior_entropy_bits": _block_sum(
            report, "posterior_entropy_bits", which[report._consistent()]
        ),
        "mi_alice_bits": _block_sum(report, "mi_alice_bits", which),
        "mi_bob_bits": _block_sum(report, "mi_bob_bits", which),
        "mi_joint_bits": _block_sum(report, "mi_joint_bits", which),
        "inconsistent_blocks": list(report.inconsistent_blocks),
    }
    return {"session": session}


def estimate_mi_monte_carlo(
    priors: Mapping[OpPair, float],
    pattern: str = PATTERN_BOTH,
    n_blocks: int = 100_000,
    seed: int = 0,
) -> dict[str, float]:
    """Plug-in MI estimates from simulated blocks, for cross-checking the
    analytic values.

    A block takes one of 64 cells, (operation pair, a-side outcome): its
    operation pair from the priors and its a-side outcome uniform, so the
    count of each cell over n_blocks blocks is Multinomial(n_blocks, priors
    / 4), drawn in one call. The swapping law fixes each cell's b-side
    outcome by the composite's column, and the cell's counts go to the view
    the given announcement pattern leaves of that outcome.
    A block count outside 1..MAX_MC_BLOCKS is a ValueError.
    """
    if not 1 <= n_blocks <= MAX_MC_BLOCKS:
        raise ValueError(f"n_blocks must be in 1..{MAX_MC_BLOCKS}, got {n_blocks}")
    priors_vec = _validate_priors(priors)
    n_views = _pattern_likelihoods(pattern).shape[1]
    # partner_b[ops_index, a_idx]: the b_idx paired with a_idx in the column
    # of the operations' composite label.
    partner_b = _pattern_likelihoods(PATTERN_BOTH).reshape(16, 4, 4).argmax(axis=2)

    # The cells in row-major order, (ops, a_idx).
    cell_p = np.repeat(priors_vec / 4, 4)
    cells = np.random.default_rng(seed).multinomial(n_blocks, cell_p)
    ops, a_idx = np.divmod(np.arange(64), 4)
    # Each cell's column of _likelihoods(), a side the pattern hides read as
    # silent, and its position in the pattern's run of columns.
    first = _VIEWS[pattern].start
    _, shows_a, shows_b = _VIEW_PARTS[first]
    a_code = a_idx + 1 if shows_a is not None else 0
    b_code = partner_b[ops, a_idx] + 1 if shows_b is not None else 0
    views = _VIEW_CODES[a_code, b_code] - first

    counts = np.bincount(ops * n_views + views, weights=cells, minlength=16 * n_views)
    joint = counts.reshape(16, n_views) / n_blocks
    return {**_joint_information(joint), "n_blocks": float(n_blocks)}
