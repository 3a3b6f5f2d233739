import dataclasses
import itertools

import numpy as np
import pytest

import oracle
import swapcomm.swap as swap_module
from swapcomm.quantum import BELL_ORDER, BellLabel, PauliCode, bell_state
from swapcomm.swap import (
    ALL_OP_PAIRS,
    ALL_OUTCOMES,
    ENCODING_ORDER,
    LABEL_CODES,
    DecodeTable,
    OutcomeDistribution,
    OutcomeTerm,
    SwapOutcome,
    _bell_product_basis,
    audit_reference_table,
    block_input_state,
    composite_label,
    generate_decode_table,
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
            assert abs(dist.entries[outcome].probability - 0.25) < 1e-12
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

    def test_product_matrix_rows_are_the_cached_vectors_in_outcome_order(self):
        matrix = swap_module._bell_product_matrix()
        assert [row.tobytes() for row in matrix] == [
            _bell_product_basis(*outcome).tobytes() for outcome in ALL_OUTCOMES]
        assert swap_module._bell_product_matrix() is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    @pytest.mark.parametrize("first, second", itertools.product(BELL_ORDER, repeat=2))
    def test_decomposition_is_one_vdot_per_outcome(self, first, second):
        """The one product over the basis matrix, against the per-outcome np.vdot it
        replaced: equal to within a few ulps of the unit amplitudes."""
        state = block_input_state(first, second).amplitudes
        dist = swap_decompose(first, second)
        assert tuple(dist.entries) == ALL_OUTCOMES
        for outcome, term in dist.entries.items():
            want = complex(np.vdot(_bell_product_basis(*outcome), state))
            assert abs(term.amplitude - want) <= 4 * np.finfo(float).eps
            assert abs(term.probability - abs(want) ** 2) <= 4 * np.finfo(float).eps

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
        assert generate_decode_table().infer[SwapOutcome(L[a_side], L[b_side])] is L[expected]

    def test_total_on_all_outcomes(self):
        for outcome in ALL_OUTCOMES:
            generate_decode_table().infer[outcome]

    def test_consistency_with_decomposition(self):
        for outcome in ALL_OUTCOMES:
            second = generate_decode_table().infer[outcome]
            dist = swap_decompose(BellLabel.PSI_PLUS, second)
            assert abs(dist.entries[outcome].probability - 0.25) < 1e-12

    def test_columns_partition_outcomes(self):
        columns = {label: set() for label in BELL_ORDER}
        for outcome in ALL_OUTCOMES:
            columns[generate_decode_table().infer[outcome]].add(outcome)
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
        assert generate_decode_table().decode(own, L[inferred]) is expected

    def test_exhaustive_round_trip(self):
        table = generate_decode_table()
        for op_a, op_b in ALL_OP_PAIRS:
            assert table.decode(op_a, composite_label(op_a, op_b)) is op_b

    def test_symmetric_round_trip(self):
        # The composite does not care which side the decoder sits on.
        table = generate_decode_table()
        for op_a, op_b in ALL_OP_PAIRS:
            assert table.decode(op_b, composite_label(op_a, op_b)) is op_a

    @pytest.mark.parametrize("own", list(PauliCode))
    def test_decode_is_bijective_for_fixed_own(self, own):
        partners = {generate_decode_table().decode(own, label) for label in BELL_ORDER}
        assert partners == set(PauliCode)


class TestGeneratedTable:
    def test_infer_codes_are_the_oracle_columns(self):
        """infer_codes[a, b] is the one column whose oracle decomposition of
        PsiPlus x column holds the outcome (a, b), labels coded by their
        position in oracle.DRAW_LABELS; so each column holds 4 outcomes."""
        table = generate_decode_table()
        labels = oracle.DRAW_LABELS
        for a, b in itertools.product(range(4), range(4)):
            columns = [column for column in range(4)
                       if oracle.decompose("PsiPlus", labels[column])[(labels[a], labels[b])] != 0]
            assert [table.infer_codes[a, b]] == columns
        for column in range(4):
            assert np.count_nonzero(table.infer_codes == column) == 4

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
        """pairing_codes[column, a_side] is the b-side label that the
        oracle's decomposition of PsiPlus x column pairs with a_side."""
        table = generate_decode_table()
        labels = oracle.DRAW_LABELS
        for i, j in itertools.product(range(4), range(4)):
            b_side = labels[table.pairing_codes[i, j]]
            assert oracle.decompose("PsiPlus", labels[i])[(labels[j], b_side)] != 0


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


def test_code_arrays_agree_with_oracle():
    """Each 4x4 code array holds the oracle's 16 entries, with labels coded
    by their position in oracle.DRAW_LABELS and operations by their index."""
    table = generate_decode_table()
    labels = oracle.DRAW_LABELS
    ops = ("U0", "U1", "U2", "U3")
    column_of = {
        outcome: second
        for second in oracle.LABELS
        for outcome, amplitude in oracle.decompose("PsiPlus", second).items()
        if amplitude != 0
    }
    for i, j in itertools.product(range(4), range(4)):
        assert labels[table.composite_codes[i, j]] == oracle.composite_label(ops[i], ops[j])
        assert labels[table.infer_codes[i, j]] == column_of[(labels[i], labels[j])]
        assert column_of[(labels[j], labels[table.pairing_codes[i, j]])] == labels[i]
        assert oracle.composite_label(ops[i], ops[table.partner_codes[i, j]]) == labels[j]


def test_table_is_its_four_read_only_code_arrays():
    table = generate_decode_table()
    assert [f.name for f in dataclasses.fields(DecodeTable)] == [
        "composite_codes", "pairing_codes", "infer_codes", "partner_codes"]
    for codes in (table.composite_codes, table.pairing_codes,
                  table.infer_codes, table.partner_codes):
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0, 0] = 0


def test_views_read_the_code_arrays_and_are_read_only():
    table = generate_decode_table()
    label = ENCODING_ORDER
    assert list(table.infer) == list(ALL_OUTCOMES)
    for o, column in table.infer.items():
        assert column is label[table.infer_codes[LABEL_CODES[o.a_side], LABEL_CODES[o.b_side]]]
    assert list(table.composite) == list(ALL_OP_PAIRS)
    for (a, b), column in table.composite.items():
        assert column is label[table.composite_codes[a.code, b.code]]
    assert list(table.combos) == list(BELL_ORDER)
    for column, pairs in table.combos.items():
        assert pairs == {pair for pair in ALL_OP_PAIRS if table.composite[pair] is column}
    for own, inferred in itertools.product(PauliCode, BELL_ORDER):
        partner = table.partner_codes[own.code, LABEL_CODES[inferred]]
        assert table.decode(own, inferred) is PauliCode(partner)
    for name in ("infer", "composite", "combos"):
        view = getattr(table, name)
        assert getattr(table, name) is view  # built once
        with pytest.raises(TypeError):
            view[next(iter(view))] = None


class TestBuildFaults:
    """Each fault generate_decode_table checks for, fed in through the
    state-vector core it builds from."""

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        generate_decode_table.cache_clear()
        yield
        generate_decode_table.cache_clear()

    @staticmethod
    def _columns(monkeypatch, column_of):
        """Make swap_decompose(PsiPlus, second) support the outcomes that
        column_of maps to second."""
        def fake(first, second):
            return OutcomeDistribution(first, second, {
                o: OutcomeTerm(0j, 0.25 if column_of(o) is second else 0.0) for o in ALL_OUTCOMES
            })
        monkeypatch.setattr(swap_module, "swap_decompose", fake)

    def test_outcome_in_two_columns(self, monkeypatch):
        real = swap_module.swap_decompose
        monkeypatch.setattr(swap_module, "swap_decompose",
                            lambda first, second: real(first, BellLabel.PHI_PLUS))
        with pytest.raises(AssertionError, match="appears in two columns"):
            generate_decode_table()

    def test_columns_miss_outcomes(self, monkeypatch):
        self._columns(monkeypatch, lambda o: None)
        with pytest.raises(AssertionError, match="do not cover all 16 outcomes"):
            generate_decode_table()

    def test_label_without_four_operation_pairs(self, monkeypatch):
        real = swap_module.composite_label
        monkeypatch.setattr(swap_module, "composite_label", lambda a, b: (
            BellLabel.PSI_PLUS if (a, b) == (PauliCode.U0, PauliCode.U1) else real(a, b)))
        with pytest.raises(AssertionError, match="has 5 operation pairs, not 4"):
            generate_decode_table()

    def test_a_side_label_twice_in_a_column(self, monkeypatch):
        # Each column holds the four outcomes of one a-side label.
        self._columns(monkeypatch, lambda o: o.a_side)
        with pytest.raises(AssertionError, match="a-side labels do not appear once per column"):
            generate_decode_table()

    def test_partner_not_fixed(self, monkeypatch):
        # Each label is the composite of four pairs, all with the same own operation.
        monkeypatch.setattr(swap_module, "composite_label",
                            lambda a, b: ENCODING_ORDER[a.code])
        with pytest.raises(AssertionError, match="own operation and label do not fix"):
            generate_decode_table()
