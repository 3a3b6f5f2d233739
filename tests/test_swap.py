import itertools

import numpy as np
import pytest

import oracle
from swapcomm.quantum import BELL_ORDER, BellLabel, PauliCode, bell_state
from swapcomm.swap import (
    ALL_OP_PAIRS,
    ALL_OUTCOMES,
    ENCODING_ORDER,
    SwapOutcome,
    _bell_product_basis,
    audit_reference_table,
    block_input_state,
    composite_label,
    decode_partner,
    generate_decode_table,
    infer_second_pair,
    swap_decompose,
)

L = {label.value: label for label in BellLabel}

# The four printed decomposition identities, frozen sign by sign. The same
# values fall out of the exact oracle; asserting them literally keeps the
# printed form pinned.
PRINTED_DECOMPOSITIONS = {
    ("PsiPlus", "PsiPlus"): {
        ("PsiPlus", "PsiPlus"): +0.5,
        ("PsiMinus", "PsiMinus"): -0.5,
        ("PhiPlus", "PhiPlus"): +0.5,
        ("PhiMinus", "PhiMinus"): -0.5,
    },
    ("PsiPlus", "PsiMinus"): {
        ("PsiPlus", "PsiMinus"): +0.5,
        ("PsiMinus", "PsiPlus"): -0.5,
        ("PhiPlus", "PhiMinus"): -0.5,
        ("PhiMinus", "PhiPlus"): +0.5,
    },
    ("PsiPlus", "PhiPlus"): {
        ("PsiPlus", "PhiPlus"): +0.5,
        ("PsiMinus", "PhiMinus"): -0.5,
        ("PhiPlus", "PsiPlus"): +0.5,
        ("PhiMinus", "PsiMinus"): -0.5,
    },
    ("PsiPlus", "PhiMinus"): {
        ("PsiPlus", "PhiMinus"): +0.5,
        ("PsiMinus", "PhiPlus"): -0.5,
        ("PhiPlus", "PsiMinus"): -0.5,
        ("PhiMinus", "PsiPlus"): +0.5,
    },
}


class TestSwapDecompose:
    @pytest.mark.parametrize("inputs", sorted(PRINTED_DECOMPOSITIONS))
    def test_printed_identities_term_by_term(self, inputs):
        first, second = inputs
        dist = swap_decompose(L[first], L[second])
        expected = PRINTED_DECOMPOSITIONS[inputs]
        for outcome, term in dist.entries.items():
            want = expected.get((outcome.a_side.value, outcome.b_side.value), 0.0)
            assert abs(term.amplitude - want) < 1e-12, (outcome, term.amplitude, want)

    @pytest.mark.parametrize("first", BELL_ORDER)
    @pytest.mark.parametrize("second", BELL_ORDER)
    def test_matches_exact_oracle(self, first, second):
        dist = swap_decompose(first, second)
        exact = oracle.decompose(first.value, second.value)
        for outcome, term in dist.entries.items():
            want = float(exact[(outcome.a_side.value, outcome.b_side.value)])
            assert abs(term.amplitude - want) < 1e-12

    @pytest.mark.parametrize("first", BELL_ORDER)
    @pytest.mark.parametrize("second", BELL_ORDER)
    def test_four_outcomes_quarter_each(self, first, second):
        dist = swap_decompose(first, second)
        support = dist.support()
        assert len(support) == 4
        for outcome in support:
            assert abs(dist.probability(outcome) - 0.25) < 1e-12
        assert abs(sum(t.probability for t in dist.entries.values()) - 1.0) < 1e-9

    @pytest.mark.parametrize("first", BELL_ORDER)
    @pytest.mark.parametrize("second", BELL_ORDER)
    def test_resummation_reconstructs_input(self, first, second):
        dist = swap_decompose(first, second)
        resummed = np.zeros(16, dtype=complex)
        for outcome, term in dist.entries.items():
            resummed += term.amplitude * _bell_product_basis(*outcome)
        delta = resummed - block_input_state(first, second).amplitudes
        assert np.abs(delta).max() < 1e-12

    @pytest.mark.parametrize("first, second", itertools.product(BELL_ORDER, repeat=2))
    def test_cached_product_basis_is_the_einsum_and_read_only(self, first, second):
        vector = _bell_product_basis(first, second)
        want = np.einsum(
            "ac,bd->abcd",
            bell_state(first).amplitudes.reshape(2, 2),
            bell_state(second).amplitudes.reshape(2, 2),
        ).reshape(16)
        assert vector.dtype == want.dtype and vector.tobytes() == want.tobytes()
        assert _bell_product_basis(first, second) is vector
        with pytest.raises(ValueError):
            vector[0] = 1.0

    def test_probability_equals_squared_amplitude(self):
        dist = swap_decompose(BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)
        for term in dist.entries.values():
            assert abs(term.probability - abs(term.amplitude) ** 2) < 1e-12


class TestInferSecondPair:
    @pytest.mark.parametrize("a_side, b_side, expected", [
        ("PsiPlus", "PsiMinus", "PsiMinus"),
        ("PhiPlus", "PsiMinus", "PhiMinus"),
        ("PhiPlus", "PhiPlus", "PsiPlus"),
    ])
    def test_worked_inferences(self, a_side, b_side, expected):
        assert infer_second_pair(SwapOutcome(L[a_side], L[b_side])) is L[expected]

    def test_total_on_all_outcomes(self):
        for outcome in ALL_OUTCOMES:
            infer_second_pair(outcome)

    def test_consistency_with_decomposition(self):
        for outcome in ALL_OUTCOMES:
            second = infer_second_pair(outcome)
            dist = swap_decompose(BellLabel.PSI_PLUS, second)
            assert abs(dist.probability(outcome) - 0.25) < 1e-12

    def test_columns_partition_outcomes(self):
        columns = {label: set() for label in BELL_ORDER}
        for outcome in ALL_OUTCOMES:
            columns[infer_second_pair(outcome)].add(outcome)
        assert all(len(col) == 4 for col in columns.values())
        union = set().union(*columns.values())
        assert union == set(ALL_OUTCOMES)


class TestCompositeAndDecode:
    @pytest.mark.parametrize("op_a, op_b, expected", [
        (PauliCode.U1, PauliCode.U0, "PsiMinus"),
        (PauliCode.U2, PauliCode.U3, "PsiMinus"),
        (PauliCode.U0, PauliCode.U0, "PsiPlus"),
    ])
    def test_worked_composites(self, op_a, op_b, expected):
        assert composite_label(op_a, op_b) is L[expected]

    @pytest.mark.parametrize("op_a", list(PauliCode))
    @pytest.mark.parametrize("op_b", list(PauliCode))
    def test_composites_match_exact_oracle(self, op_a, op_b):
        assert composite_label(op_a, op_b).value == oracle.composite_label(
            op_a.name, op_b.name
        )

    @pytest.mark.parametrize("own, inferred, expected", [
        (PauliCode.U1, "PsiMinus", PauliCode.U0),
        (PauliCode.U0, "PsiPlus", PauliCode.U0),
    ])
    def test_worked_decodes(self, own, inferred, expected):
        assert decode_partner(own, L[inferred]) is expected

    def test_exhaustive_round_trip(self):
        for op_a, op_b in ALL_OP_PAIRS:
            assert decode_partner(op_a, composite_label(op_a, op_b)) is op_b

    def test_symmetric_round_trip(self):
        # The composite does not care which side the decoder sits on.
        for op_a, op_b in ALL_OP_PAIRS:
            assert decode_partner(op_b, composite_label(op_a, op_b)) is op_a

    @pytest.mark.parametrize("own", list(PauliCode))
    def test_decode_is_bijective_for_fixed_own(self, own):
        partners = {decode_partner(own, label) for label in BELL_ORDER}
        assert partners == set(PauliCode)


class TestGeneratedTable:
    def test_infer_has_sixteen_entries(self):
        table = generate_decode_table()
        assert len(table.infer) == 16
        for label in BELL_ORDER:
            assert sum(1 for lab in table.infer.values() if lab is label) == 4

    def test_identity_combo_column(self):
        table = generate_decode_table()
        assert table.combos[BellLabel.PSI_PLUS] == frozenset({
            (PauliCode.U0, PauliCode.U0),
            (PauliCode.U1, PauliCode.U1),
            (PauliCode.U2, PauliCode.U2),
            (PauliCode.U3, PauliCode.U3),
        })

    def test_psi_minus_combo_column(self):
        table = generate_decode_table()
        assert table.combos[BellLabel.PSI_MINUS] == frozenset({
            (PauliCode.U1, PauliCode.U0),
            (PauliCode.U0, PauliCode.U1),
            (PauliCode.U2, PauliCode.U3),
            (PauliCode.U3, PauliCode.U2),
        })

    def test_combos_partition_operation_pairs(self):
        table = generate_decode_table()
        seen = list(itertools.chain.from_iterable(table.combos.values()))
        assert len(seen) == 16
        assert set(seen) == set(ALL_OP_PAIRS)

    def test_pairing_is_column_consistent(self):
        table = generate_decode_table()
        for (column, a_side), b_side in table.pairing.items():
            assert table.infer[SwapOutcome(a_side, b_side)] is column


class TestReferenceAudit:
    def test_outcome_section_clean(self):
        assert audit_reference_table().in_section("outcome-pairs") == ()

    def test_initial_state_row_clean(self):
        assert audit_reference_table().in_section("initial-state") == ()

    def test_flags_exactly_the_misprinted_cells(self):
        report = audit_reference_table()
        assert report.flagged_cells("operations") == ((1, 2), (1, 3), (1, 4))

    def test_misprints_are_bit_codes_not_operator_indices(self):
        report = audit_reference_table()
        ops_flags = report.in_section("operations")
        assert len(ops_flags) == 6
        for d in ops_flags:
            assert "bit-code annotation" in d.detail
            assert d.printed == "(00)"
        derived = sorted(d.derived for d in ops_flags)
        assert derived == ["(01)", "(01)", "(10)", "(10)", "(11)", "(11)"]

    def test_report_lists_each_flagged_cell(self):
        report = audit_reference_table()
        cells = [(d.column, d.row) for d in report.in_section("operations")]
        for cell in ((1, 2), (1, 3), (1, 4)):
            assert cells.count(cell) == 2  # one A-side and one B-side annotation

    def test_to_dict_shape(self):
        doc = audit_reference_table().to_dict()
        assert doc["total_discrepancies"] == 6
        assert doc["sections"] == {
            "outcome-pairs": 0, "initial-state": 0, "operations": 6,
        }

    def test_audit_detects_corrupted_outcome_cell(self, monkeypatch):
        # The audit must catch any new transcription mismatch, not only the
        # known annotation misprints.
        import swapcomm.swap as swap_module
        corrupted = list(list(col) for col in swap_module.REFERENCE_OUTCOME_COLUMNS)
        corrupted[0][0] = SwapOutcome(BellLabel.PSI_PLUS, BellLabel.PHI_MINUS)
        monkeypatch.setattr(
            swap_module, "REFERENCE_OUTCOME_COLUMNS",
            tuple(tuple(col) for col in corrupted),
        )
        report = swap_module.audit_reference_table()
        flagged = report.in_section("outcome-pairs")
        assert any(d.column == 1 and d.row == 1 for d in flagged)

    def test_audit_detects_misplaced_operation_pair(self, monkeypatch):
        import swapcomm.swap as swap_module
        corrupted = [list(col) for col in swap_module.REFERENCE_OPERATION_COLUMNS]
        corrupted[1][0] = ((2, "10"), (0, "00"))  # belongs in column 3
        monkeypatch.setattr(
            swap_module, "REFERENCE_OPERATION_COLUMNS",
            tuple(tuple(col) for col in corrupted),
        )
        report = swap_module.audit_reference_table()
        assert any(
            d.detail == "operation pair does not produce this column's label"
            and (d.column, d.row) == (2, 1)
            for d in report.in_section("operations")
        )


def test_code_arrays_agree_with_dict_tables():
    """Each 4x4 code array holds its dict table's 16 entries, with labels
    coded by their position in ENCODING_ORDER and operations by .code."""
    table = generate_decode_table()
    label = ENCODING_ORDER
    for i, j in itertools.product(range(4), range(4)):
        op_i, op_j = PauliCode(i), PauliCode(j)
        assert label[table.composite_codes[i, j]] is table.composite[(op_i, op_j)]
        assert label[table.pairing_codes[i, j]] is table.pairing[(label[i], label[j])]
        assert label[table.infer_codes[i, j]] is table.infer[SwapOutcome(label[i], label[j])]
        assert PauliCode(table.partner_codes[i, j]) is table.partner[(op_i, label[j])]
    for codes in (table.composite_codes, table.pairing_codes,
                  table.infer_codes, table.partner_codes):
        assert not codes.flags.writeable
