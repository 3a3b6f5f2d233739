"""Entanglement-swapping correlation structure.

A block starts as |first>_{a1 b1} (x) |second>_{a2 b2}. Measuring the
(a1, a2) and (b1, b2) pairs in the Bell basis projects onto one of four
equally likely outcome pairs; which four, and with which signs, depends
only on the input labels. This module derives that structure from the
state-vector core, stores it once as four 4x4 code arrays, and audits
the generated tables against the hand-transcribed reference table as
printed, which is known to carry bit-code misprints.

Register order inside a block is (a1, b1, a2, b2), so the measured pairs
are qubits (0, 2) and (1, 3).
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .quantum import (
    ATOL_OP,
    BELL_ORDER,
    BellLabel,
    PauliCode,
    PureState,
    apply_local,
    bell_state,
    state_equal_up_to_phase,
    tensor,
)

A_PAIR = (0, 2)  # qubits a1, a2
B_PAIR = (1, 3)  # qubits b1, b2

# Label order matching the two-bit encoding: the label produced by u_k
# alone sits at position k.
ENCODING_ORDER: tuple[BellLabel, ...] = (
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
)


class SwapOutcome(NamedTuple):
    """Joint result of the two Bell measurements in one block."""

    a_side: BellLabel  # measured on photons a1, a2
    b_side: BellLabel  # measured on photons b1, b2

    def __repr__(self) -> str:
        return f"({self.a_side.value},{self.b_side.value})"


ALL_OUTCOMES: tuple[SwapOutcome, ...] = tuple(
    SwapOutcome(a, b) for a, b in itertools.product(BELL_ORDER, BELL_ORDER)
)

ALL_OP_PAIRS: tuple[tuple[PauliCode, PauliCode], ...] = tuple(
    itertools.product(PauliCode, PauliCode)
)


class OutcomeTerm(NamedTuple):
    amplitude: complex
    probability: float


@dataclass(frozen=True)
class OutcomeDistribution:
    """Signed expansion of a Bell product in the Bell-x-Bell outcome basis.

    Signed amplitudes are retained even though measurements cannot see
    them; they allow exact term-by-term verification of the decomposition
    identities.
    """

    first: BellLabel
    second: BellLabel
    entries: Mapping[SwapOutcome, OutcomeTerm]

    def support(self, threshold: float = ATOL_OP) -> tuple[SwapOutcome, ...]:
        return tuple(o for o, t in self.entries.items() if t.probability > threshold)


@cache
def _bell_product_basis(a_label: BellLabel, b_label: BellLabel) -> np.ndarray:
    """4-qubit vector of |a_label>_{a1 a2} (x) |b_label>_{b1 b2}, read-only.

    One of 16 vectors, built once per process and shared by every caller.
    """
    ba = bell_state(a_label).amplitudes.reshape(2, 2)
    bb = bell_state(b_label).amplitudes.reshape(2, 2)
    # indices: [x_a1, x_b1, x_a2, x_b2]
    vector = np.einsum("ac,bd->abcd", ba, bb).reshape(16)
    vector.flags.writeable = False
    return vector


def block_input_state(first: BellLabel, second: BellLabel) -> PureState:
    """|first>_{a1 b1} (x) |second>_{a2 b2} in block register order."""
    return tensor(bell_state(first), bell_state(second))


def swap_decompose(first: BellLabel, second: BellLabel) -> OutcomeDistribution:
    """Expand a Bell product in the outcome basis of the measured pairs.

    Exactly 4 of the 16 entries carry nonzero probability, 1/4 each.
    """
    state = block_input_state(first, second).amplitudes
    entries: dict[SwapOutcome, OutcomeTerm] = {}
    for outcome in ALL_OUTCOMES:
        amp = complex(np.vdot(_bell_product_basis(*outcome), state))
        entries[outcome] = OutcomeTerm(amp, abs(amp) ** 2)
    return OutcomeDistribution(first, second, entries)


# Integer code of each label: its position in ENCODING_ORDER. An
# operation's code is PauliCode.code.
LABEL_CODES: Mapping[BellLabel, int] = {
    label: code for code, label in enumerate(ENCODING_ORDER)
}
_OPS: tuple[PauliCode, ...] = tuple(PauliCode)  # the operation of each code


@dataclass(frozen=True, eq=False)
class DecodeTable:
    """Inference structure derived from the swapping algebra, generated
    from the state-vector core and stored once, as four read-only 4x4 int
    arrays over operation codes (PauliCode.code) and label codes
    (LABEL_CODES): composite_codes[op_a, op_b], infer_codes[a_side, b_side]
    (an outcome's column), pairing_codes[column, a_side] and
    partner_codes[own, inferred]. A whole session is sampled and decoded by
    gathers on them. infer, composite and combos are read-only views keyed
    by SwapOutcome, operation pair and BellLabel, in ALL_OUTCOMES,
    ALL_OP_PAIRS and BELL_ORDER order, built the first time they are read.
    """

    composite_codes: np.ndarray
    pairing_codes: np.ndarray
    infer_codes: np.ndarray
    partner_codes: np.ndarray

    @cached_property
    def infer(self) -> Mapping[SwapOutcome, BellLabel]:
        return MappingProxyType({
            o: ENCODING_ORDER[self.infer_codes[LABEL_CODES[o.a_side], LABEL_CODES[o.b_side]]]
            for o in ALL_OUTCOMES
        })

    @cached_property
    def composite(self) -> Mapping[tuple[PauliCode, PauliCode], BellLabel]:
        return MappingProxyType({
            (a, b): ENCODING_ORDER[self.composite_codes[a.code, b.code]] for a, b in ALL_OP_PAIRS
        })

    @cached_property
    def combos(self) -> Mapping[BellLabel, frozenset[tuple[PauliCode, PauliCode]]]:
        return MappingProxyType({
            label: frozenset(pair for pair, lab in self.composite.items() if lab is label)
            for label in BELL_ORDER
        })

    def decode(self, own: PauliCode, inferred: BellLabel) -> PauliCode:
        return _OPS[self.partner_codes.item(own.code, LABEL_CODES[inferred])]


def composite_label(op_a: PauliCode, op_b: PauliCode) -> BellLabel:
    """Bell label of the second pair after both parties' local operations.

    op_a acts on photon a2, op_b on photon b2 of a PsiPlus pair. Local
    encoding operations permute the Bell basis, so the result is always a
    single label up to global phase.
    """
    state = apply_local(op_b, 1, apply_local(op_a, 0, bell_state(BellLabel.PSI_PLUS)))
    for label in BELL_ORDER:
        if state_equal_up_to_phase(state, bell_state(label), 1e-9):
            return label
    raise AssertionError(f"composite of ({op_a}, {op_b}) is not a Bell state")


@lru_cache(maxsize=1)
def generate_decode_table() -> DecodeTable:
    """Build and validate the inference tables from the swapping algebra."""
    infer_codes = np.full((4, 4), -1, dtype=np.intp)
    for second in BELL_ORDER:
        for outcome in swap_decompose(BellLabel.PSI_PLUS, second).support():
            cell = LABEL_CODES[outcome.a_side], LABEL_CODES[outcome.b_side]
            if infer_codes[cell] >= 0:
                raise AssertionError(f"outcome {outcome} appears in two columns")
            infer_codes[cell] = LABEL_CODES[second]
    if (infer_codes < 0).any():
        raise AssertionError("outcome columns do not cover all 16 outcomes")

    composite_codes = np.array(
        [[LABEL_CODES[composite_label(a, b)] for b in PauliCode] for a in PauliCode]
    )
    for label in BELL_ORDER:
        members = np.count_nonzero(composite_codes == LABEL_CODES[label])
        if members != 4:
            raise AssertionError(f"{label} has {members} operation pairs, not 4")

    # The row inverses that sampling and decoding use, by scatter (np.argsort
    # would add 0.5 MB of RSS): every cell is written if each row permutes 0..3.
    i, j = np.arange(4)[:, None], np.arange(4)
    pairing_codes = np.full((4, 4), -1, dtype=np.intp)
    pairing_codes[infer_codes, i] = j
    partner_codes = np.full((4, 4), -1, dtype=np.intp)
    partner_codes[i, composite_codes] = j
    for codes, fault in ((pairing_codes, "a-side labels do not appear once per column"),
                         (partner_codes, "own operation and label do not fix the partner's")):
        if (codes < 0).any():
            raise AssertionError(fault)
    for codes in (composite_codes, pairing_codes, infer_codes, partner_codes):
        codes.flags.writeable = False
    return DecodeTable(
        composite_codes=composite_codes, pairing_codes=pairing_codes,
        infer_codes=infer_codes, partner_codes=partner_codes,
    )


# --------------------------------------------------------------------------
# Audit against the reference table as printed.
#
# The transcription below is kept verbatim, including its misprints; the
# generated tables above are authoritative and the audit reports every cell
# where the print disagrees. Each operations cell is
# ((a_index, printed_a_bits), (b_index, printed_b_bits)).
# --------------------------------------------------------------------------

_L = {"P+": BellLabel.PSI_PLUS, "P-": BellLabel.PSI_MINUS,
      "F+": BellLabel.PHI_PLUS, "F-": BellLabel.PHI_MINUS}

REFERENCE_OUTCOME_COLUMNS: tuple[tuple[SwapOutcome, ...], ...] = tuple(
    tuple(SwapOutcome(_L[a], _L[b]) for a, b in column)
    for column in (
        (("F+", "F+"), ("P-", "P-"), ("P+", "P+"), ("F-", "F-")),
        (("P-", "P+"), ("F+", "F-"), ("F-", "F+"), ("P+", "P-")),
        (("P+", "F+"), ("P-", "F-"), ("F+", "P+"), ("F-", "P-")),
        (("P+", "F-"), ("P-", "F+"), ("F+", "P-"), ("F-", "P+")),
    )
)

REFERENCE_INITIAL_STATES: tuple[tuple[BellLabel, BellLabel], ...] = (
    (_L["P+"], _L["P+"]),
    (_L["P+"], _L["P-"]),
    (_L["P+"], _L["F+"]),
    (_L["P+"], _L["F-"]),
)

REFERENCE_OPERATION_COLUMNS: tuple[
    tuple[tuple[tuple[int, str], tuple[int, str]], ...], ...
] = (
    (((0, "00"), (0, "00")), ((1, "00"), (1, "00")),
     ((2, "00"), (2, "00")), ((3, "00"), (3, "00"))),
    (((1, "01"), (0, "00")), ((0, "00"), (1, "01")),
     ((2, "10"), (3, "11")), ((3, "11"), (2, "10"))),
    (((2, "10"), (0, "00")), ((0, "00"), (2, "10")),
     ((1, "01"), (3, "11")), ((3, "11"), (1, "01"))),
    (((3, "11"), (0, "00")), ((0, "00"), (3, "11")),
     ((1, "01"), (2, "10")), ((2, "10"), (1, "01"))),
)


@dataclass(frozen=True)
class Discrepancy:
    section: str  # outcome-pairs | initial-state | operations
    column: int   # 1-based, as printed
    row: int      # 1-based within the section
    detail: str
    printed: str
    derived: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    discrepancies: tuple[Discrepancy, ...]

    def in_section(self, section: str) -> tuple[Discrepancy, ...]:
        return tuple(d for d in self.discrepancies if d.section == section)

    def flagged_cells(self, section: str) -> tuple[tuple[int, int], ...]:
        return tuple(sorted({(d.column, d.row) for d in self.in_section(section)}))

    def to_dict(self) -> dict:
        return {
            "total_discrepancies": len(self.discrepancies),
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "sections": {
                s: len(self.in_section(s))
                for s in ("outcome-pairs", "initial-state", "operations")
            },
        }


def _iter_operation_cells() -> Iterator[tuple[int, int, tuple, tuple]]:
    for col_idx, column in enumerate(REFERENCE_OPERATION_COLUMNS):
        for row_idx, cell in enumerate(column):
            yield col_idx, row_idx, cell[0], cell[1]


def audit_reference_table() -> AuditReport:
    """Compare the generated tables against the reference table as printed.

    Every disagreeing cell is reported; nothing is silently corrected.
    """
    table = generate_decode_table()
    found: list[Discrepancy] = []

    for col_idx, (printed_col, (first, second)) in enumerate(
        zip(REFERENCE_OUTCOME_COLUMNS, REFERENCE_INITIAL_STATES)
    ):
        derived = set(swap_decompose(first, second).support())
        for row_idx, outcome in enumerate(printed_col):
            if outcome not in derived:
                found.append(Discrepancy(
                    section="outcome-pairs", column=col_idx + 1, row=row_idx + 1,
                    detail="outcome pair not produced by this initial state",
                    printed=repr(outcome),
                    derived="one of " + ", ".join(sorted(map(repr, derived))),
                ))
        for outcome in printed_col:
            if outcome in derived and table.infer[outcome] is not second:
                found.append(Discrepancy(
                    section="outcome-pairs", column=col_idx + 1,
                    row=printed_col.index(outcome) + 1,
                    detail="outcome assigned to the wrong column",
                    printed=second.value, derived=table.infer[outcome].value,
                ))

    for col_idx, (first, second) in enumerate(REFERENCE_INITIAL_STATES):
        if first is not BellLabel.PSI_PLUS:
            found.append(Discrepancy(
                section="initial-state", column=col_idx + 1, row=1,
                detail="first pair is not PsiPlus",
                printed=first.value, derived=BellLabel.PSI_PLUS.value,
            ))
        derived_second = table.infer[REFERENCE_OUTCOME_COLUMNS[col_idx][0]]
        if second is not derived_second:
            found.append(Discrepancy(
                section="initial-state", column=col_idx + 1, row=1,
                detail="second pair label disagrees with the outcome column",
                printed=second.value, derived=derived_second.value,
            ))

    for col_idx, row_idx, (a_idx, a_bits), (b_idx, b_bits) in _iter_operation_cells():
        column_label = REFERENCE_INITIAL_STATES[col_idx][1]
        pair = (PauliCode(a_idx), PauliCode(b_idx))
        if pair not in table.combos[column_label]:
            found.append(Discrepancy(
                section="operations", column=col_idx + 1, row=row_idx + 1,
                detail="operation pair does not produce this column's label",
                printed=f"(u{a_idx},u{b_idx})",
                derived=table.composite[pair].value,
            ))
        for side, idx, bits in (("A", a_idx, a_bits), ("B", b_idx, b_bits)):
            canonical = PauliCode(idx).bits
            if bits != canonical:
                found.append(Discrepancy(
                    section="operations", column=col_idx + 1, row=row_idx + 1,
                    detail=f"bit-code annotation beside u{idx}^{side}",
                    printed=f"({bits})", derived=f"({canonical})",
                ))

    return AuditReport(discrepancies=tuple(found))
