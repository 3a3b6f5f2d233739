"""Dense state-vector core for 2- and 4-qubit registers.

Convention used throughout the package: qubit 0 is the most significant
bit of the computational basis index, so the amplitude of
|q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
Within a protocol block the register order is (a1, b1, a2, b2).

All values are immutable after construction; operations are pure functions
plus an explicitly threaded numpy Generator where sampling is involved.

A Bell projection transposes the measured pair's two axes to the front
once, then takes one row dot per Bell label against that view: the same
arithmetic as a per-label np.tensordot, so results are bit for bit those
of contracting each label alone. A measurement builds the residual state
only for the label it draws; bell_sample draws many labels from one
projection and builds no residual at all.
"""
from __future__ import annotations

import enum
import math

import numpy as np

# Tolerances: per-operation roundoff vs. accumulated aggregates.
ATOL_OP = 1e-12
ATOL_ACC = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "PhiPlus"    # (|00> + |11>)/sqrt(2)
    PHI_MINUS = "PhiMinus"  # (|00> - |11>)/sqrt(2)
    PSI_PLUS = "PsiPlus"    # (|01> + |10>)/sqrt(2)
    PSI_MINUS = "PsiMinus"  # (|01> - |10>)/sqrt(2)

    # Members compare by identity, so they may hash by it too: Enum's own
    # __hash__ is a Python function that hashes the name.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value


# Fixed label order used wherever the four outcomes are enumerated or
# sampled; keeping one order makes every sampling path reproducible.
BELL_ORDER: tuple[BellLabel, ...] = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)


class PauliCode(enum.Enum):
    """The four local encoding operations and their two-bit codes.

    The matrices are kept exactly as defined (U1 = |1><1| - |0><0|,
    U3 = |0><1| - |1><0|), not silently normalized to textbook Z/Y;
    the differences are global phases on Bell states and never observable.
    """

    U0 = 0  # identity,               bits 00
    U1 = 1  # |1><1| - |0><0|,        bits 01
    U2 = 2  # |0><1| + |1><0|,        bits 10
    U3 = 3  # |0><1| - |1><0|,        bits 11

    __hash__ = object.__hash__  # as BellLabel's

    @property
    def code(self) -> int:
        return self.value

    @property
    def bits(self) -> str:
        return format(self.value, "02b")

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]

    def __repr__(self) -> str:
        return self.name


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


_PAULI_MATRICES: dict[PauliCode, np.ndarray] = {
    PauliCode.U0: _frozen([[1, 0], [0, 1]]),
    PauliCode.U1: _frozen([[-1, 0], [0, 1]]),
    PauliCode.U2: _frozen([[0, 1], [1, 0]]),
    PauliCode.U3: _frozen([[0, 1], [-1, 0]]),
}


def _require_normalized(amps: np.ndarray) -> list[float]:
    """Squared norms of the vectors along the last axis, in C order, as np.vdot takes
    them. PureState's ValueError for the first not finite or off 1 by > ATOL_ACC."""
    rows = amps.reshape(-1, amps.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row is named below
        sq_norms = (rows.conj()[:, None, :] @ rows[:, :, None]).real.reshape(-1).tolist()
    for k, sq_norm in enumerate(sq_norms):
        if not abs(sq_norm - 1.0) <= ATOL_ACC:  # a NaN fails too
            raise ValueError("amplitudes must be finite" if not np.isfinite(rows[k]).all()
                             else f"state is not normalized: squared norm {sq_norm!r}")
    return sq_norms


class PureState:
    """Normalized complex amplitude vector over a small qubit register.

    Immutable. The constructor validates rather than normalizes: a vector
    whose squared norm is off by more than 1e-9 is a bug upstream.
    """

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        n = amps.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"amplitude vector length {n} is not a power of two")
        num_qubits = n.bit_length() - 1
        if num_qubits > 4:
            raise ValueError(f"register of {num_qubits} qubits exceeds the 4-qubit maximum")
        _require_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", num_qubits)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __repr__(self) -> str:
        terms = []
        for idx, amp in enumerate(self.amplitudes):
            if abs(amp) > 1e-9:
                terms.append(f"({amp:.3g})|{idx:0{self.num_qubits}b}>")
        return " + ".join(terms) or "0"


_BELL_AMPLITUDES: dict[BellLabel, np.ndarray] = {
    BellLabel.PHI_PLUS: _frozen([_INV_SQRT2, 0, 0, _INV_SQRT2]),
    BellLabel.PHI_MINUS: _frozen([_INV_SQRT2, 0, 0, -_INV_SQRT2]),
    BellLabel.PSI_PLUS: _frozen([0, _INV_SQRT2, _INV_SQRT2, 0]),
    BellLabel.PSI_MINUS: _frozen([0, _INV_SQRT2, -_INV_SQRT2, 0]),
}


def bell_state(label: BellLabel) -> PureState:
    """The canonical normalized two-qubit state for a Bell label."""
    return PureState(_BELL_AMPLITUDES[label])


def tensor(left: PureState, right: PureState) -> PureState:
    """Tensor product; qubit indices of `right` are offset by left.num_qubits."""
    if left.num_qubits + right.num_qubits > 4:
        raise ValueError(
            f"combined register of {left.num_qubits + right.num_qubits} qubits "
            "exceeds the 4-qubit maximum"
        )
    return PureState(np.multiply.outer(left.amplitudes, right.amplitudes).reshape(-1))


def apply_local(op: PauliCode, qubit: int, state: PureState) -> PureState:
    """Apply the 2x2 matrix of `op` to one qubit, leaving the rest untouched."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n}-qubit register")
    t = state.amplitudes.reshape([2] * n)
    t = np.tensordot(op.matrix, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    return PureState(t.reshape(-1))


def state_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff |<a|b>| >= 1 - tol. Global phase is unobservable."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"mismatched register sizes: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol


# <label| over a pair's two bits, in BELL_ORDER, as the (1, 4) row
# np.tensordot would contract against; conj() is kept so the values are
# exactly that row's.
_BELL_BRAS: dict[BellLabel, np.ndarray] = {
    label: _frozen(_BELL_AMPLITUDES[label].conj().reshape(1, 4)) for label in BELL_ORDER
}


def _pair_view(state: PureState, pair: tuple[int, int]) -> tuple[np.ndarray, list[int]]:
    """The amplitudes as a (4, 2**(n-2)) matrix indexed by the pair's bits.

    Returns the matrix and the axis order that made it: the pair first,
    the other qubits after it in register order. A Bell overlap is then
    np.dot of that label's bra row against the matrix, the same dot that
    np.tensordot runs for one label, so its values are bitwise the same.
    """
    i, j = pair
    n = state.num_qubits
    if i == j:
        raise ValueError(f"duplicate qubit indices in pair {pair}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {pair} out of range for {n}-qubit register")
    order = [i, j, *(k for k in range(n) if k != i and k != j)]
    view = state.amplitudes.reshape([2] * n).transpose(order).reshape(4, -1)
    return view, order


def _norm(overlap: np.ndarray) -> float:
    return float(np.vdot(overlap, overlap).real)


def _bell_overlaps(view: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
    """Each label's overlap with a pair view and its probability, in BELL_ORDER.

    The one place Bell probabilities are computed, so every projection,
    measurement and sample sees the same values bit for bit.
    """
    overlaps = [np.dot(bra, view) for bra in _BELL_BRAS.values()]
    return overlaps, [_norm(overlap) for overlap in overlaps]


def _residual(
    label: BellLabel, overlap: np.ndarray, probability: float, order: list[int]
) -> PureState:
    """|label> on the pair times the renormalized unmeasured factor."""
    rest = overlap / math.sqrt(probability)
    out = np.multiply.outer(_BELL_AMPLITUDES[label], rest.reshape(-1))
    # Undo _pair_view's transpose: qubit q sits at position order.index(q).
    inverse = [order.index(q) for q in range(len(order))]
    out = out.reshape([2] * len(order)).transpose(inverse)
    return PureState(out.reshape(-1))


def bell_project(
    state: PureState, pair: tuple[int, int], label: BellLabel
) -> tuple[float, PureState | None]:
    """Project onto the Bell state `label` of the indicated qubit pair.

    Returns (probability, renormalized residual). The residual is None when
    the probability is below 1e-12; renormalizing there would only amplify
    rounding noise.
    """
    view, order = _pair_view(state, pair)
    # Contract the pair against <label|; what remains is the unmeasured factor.
    overlap = np.dot(_BELL_BRAS[label], view)
    probability = _norm(overlap)
    if probability < ATOL_OP:
        return probability, None
    return probability, _residual(label, overlap, probability, order)


def bell_project_all(
    state: PureState, pair: tuple[int, int]
) -> dict[BellLabel, float]:
    """Probabilities of all four Bell outcomes on one pair (they sum to 1)."""
    view, _ = _pair_view(state, pair)
    _, probs = _bell_overlaps(view)
    return dict(zip(BELL_ORDER, probs))


def _inverted(probs: list[float], uniforms) -> list[int]:
    """The Bell index each uniform draws, over the running sum of the positive
    probabilities: the first label whose sum exceeds u, the last one when
    none does."""
    positive = [k for k, p in enumerate(probs) if p > ATOL_OP]
    assert positive, "no outcome has positive probability"
    cumulative = np.cumsum([probs[k] for k in positive])
    picks = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(picks, len(positive) - 1, out=picks)
    return [positive[k] for k in picks.tolist()]


def bell_measure(
    state: PureState, pair: tuple[int, int], rng: np.random.Generator
) -> tuple[BellLabel, PureState]:
    """Sample a Bell-basis measurement of one pair with Born probabilities.

    Consumes exactly one uniform draw from `rng`, so a fixed seed yields a
    fixed label sequence regardless of the outcome probabilities. Only the
    drawn label's residual is built.
    """
    view, order = _pair_view(state, pair)
    overlaps, probs = _bell_overlaps(view)
    (chosen,) = _inverted(probs, [rng.random()])
    label = BELL_ORDER[chosen]
    return label, _residual(label, overlaps[chosen], probs[chosen], order)


def bell_sample(
    state: PureState, pair: tuple[int, int], rng: np.random.Generator, n: int
) -> list[BellLabel]:
    """n Bell-basis measurement labels of one pair, each of the same state.

    Draw for draw the labels of n bell_measure calls on a same-seeded rng,
    which is left in the same state: one uniform per draw, inverted by the
    same rule. No residual state is built.
    """
    if n < 0:
        raise ValueError(f"sample count {n} is negative")
    view, _ = _pair_view(state, pair)
    _, probs = _bell_overlaps(view)
    return [BELL_ORDER[k] for k in _inverted(probs, rng.random(n))]
