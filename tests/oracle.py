"""Independent exact-arithmetic oracle for the swapping algebra.

Deliberately shares nothing with the package: states are maps from bit
tuples to integer coefficients, and every amplitude that matters is a
multiple of 1/2, so the scale factor is carried implicitly (sqrt(2) per
Bell factor) and all overlaps come out as exact Fractions.

Wire order everywhere is (a1, b1, a2, b2).
"""
from fractions import Fraction

# Coefficients x sqrt(2) over (first_bit, second_bit).
BELL_TERMS = {
    "PhiPlus": {(0, 0): 1, (1, 1): 1},
    "PhiMinus": {(0, 0): 1, (1, 1): -1},
    "PsiPlus": {(0, 1): 1, (1, 0): 1},
    "PsiMinus": {(0, 1): 1, (1, 0): -1},
}

LABELS = tuple(BELL_TERMS)

# op[(out_bit, in_bit)] = integer matrix entry.
PAULI_TERMS = {
    "U0": {(0, 0): 1, (1, 1): 1},
    "U1": {(0, 0): -1, (1, 1): 1},
    "U2": {(0, 1): 1, (1, 0): 1},
    "U3": {(0, 1): 1, (1, 0): -1},
}


def product_state(first: str, second: str) -> dict:
    """|first>_{a1 b1} (x) |second>_{a2 b2}; coefficients x 2."""
    out = {}
    for (a1, b1), c1 in BELL_TERMS[first].items():
        for (a2, b2), c2 in BELL_TERMS[second].items():
            out[(a1, b1, a2, b2)] = c1 * c2
    return out


def outcome_basis(a_label: str, b_label: str) -> dict:
    """|a_label>_{a1 a2} (x) |b_label>_{b1 b2}; coefficients x 2."""
    out = {}
    for (a1, a2), c1 in BELL_TERMS[a_label].items():
        for (b1, b2), c2 in BELL_TERMS[b_label].items():
            out[(a1, b1, a2, b2)] = c1 * c2
    return out


def overlap(u: dict, v: dict) -> Fraction:
    """<u|v> for two coefficient-x-2 states: exact."""
    return Fraction(sum(c * v.get(key, 0) for key, c in u.items()), 4)


def decompose(first: str, second: str) -> dict:
    """Exact signed amplitude of every outcome pair."""
    state = product_state(first, second)
    return {
        (la, lb): overlap(outcome_basis(la, lb), state)
        for la in LABELS
        for lb in LABELS
    }


def apply_op(op: str, wire: int, state: dict) -> dict:
    out = {}
    for bits, c in state.items():
        for (out_bit, in_bit), m in PAULI_TERMS[op].items():
            if in_bit == bits[wire]:
                key = bits[:wire] + (out_bit,) + bits[wire + 1:]
                out[key] = out.get(key, 0) + c * m
    return {k: v for k, v in out.items() if v != 0}


def composite_label(op_a: str, op_b: str) -> str:
    """Label of (op_a on a2) (op_b on b2) |PsiPlus>, up to overall sign."""
    state = apply_op(op_b, 1, apply_op(op_a, 0, dict(BELL_TERMS["PsiPlus"])))
    for label, terms in BELL_TERMS.items():
        if state == terms or state == {k: -v for k, v in terms.items()}:
            return label
    raise AssertionError(f"({op_a},{op_b}) composite is not a Bell state: {state}")


# The label a block's a-side draw selects: position k holds the label that
# u_k alone produces on PsiPlus.
DRAW_LABELS = ("PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus")


def session_blocks(seed, n_blocks, alice_bits, bob_bits, random_fallback):
    """Reference for protocol._session_blocks, sampled one block at a time.

    Block k draws from numpy's stream for SeedSequence(seed mod 2^64,
    spawn_key=(k,)), in a fixed order: Alice's fallback operation if she
    has no message (None: she is silent), then Bob's, then the a-side
    label. A sender's operations come from her bits, two per block, with
    U0 past the end. The b-side label is the one that pairs with the
    a-side label in the outcome column of the operations' composite.
    Returns (k, op_a, op_b, a_side, b_side) per block; an operation is its
    index, or None when a silent party applied nothing.
    """
    import numpy as np

    def message_ops(bits):
        return [int(bits[i:i + 2], 2) for i in range(0, len(bits), 2)]

    senders = [None if bits is None else message_ops(bits) for bits in (alice_bits, bob_bits)]
    rows = []
    for k in range(1, n_blocks + 1):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed % 2**64, spawn_key=(k,))
        )
        ops = []
        for own in senders:
            if own is not None:
                ops.append(own[k - 1] if k - 1 < len(own) else 0)
            else:
                ops.append(int(rng.integers(4)) if random_fallback else None)
        column = composite_label(*(f"U{op or 0}" for op in ops))
        a_side = DRAW_LABELS[int(rng.integers(4))]
        (b_side,) = [
            b for (a, b), amp in decompose("PsiPlus", column).items()
            if a == a_side and amp != 0
        ]
        rows.append((k, ops[0], ops[1], a_side, b_side))
    return rows
