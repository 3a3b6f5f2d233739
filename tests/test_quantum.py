import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcomm import quantum
from swapcomm.quantum import (
    ATOL_OP,
    BELL_ORDER,
    BellLabel,
    PauliCode,
    PureState,
    apply_local,
    bell_measure,
    bell_project,
    bell_project_all,
    bell_sample,
    bell_state,
    state_equal_up_to_phase,
    tensor,
)
from swapcomm.stats import chi_square_uniform, label_counts

S2 = 1 / math.sqrt(2)


def basis_state(bits):
    """The computational basis state |bits>, e.g. basis_state('01')."""
    amps = np.zeros(2 ** len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return PureState(amps)


def random_state(rng, n_qubits):
    raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState(raw / np.linalg.norm(raw))


class TestPureState:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PureState([1.0, 0.0, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            PureState([float("nan"), 0.0])

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError, match="4-qubit"):
            PureState([0.0] * 31 + [1.0])

    def test_immutable(self):
        state = bell_state(BellLabel.PSI_PLUS)
        with pytest.raises(AttributeError):
            state.num_qubits = 3
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestBellStates:
    def test_psi_plus_amplitudes(self):
        assert np.allclose(
            bell_state(BellLabel.PSI_PLUS).amplitudes, [0, S2, S2, 0], atol=1e-15
        )

    def test_phi_minus_amplitudes(self):
        assert np.allclose(
            bell_state(BellLabel.PHI_MINUS).amplitudes, [S2, 0, 0, -S2], atol=1e-15
        )

    @pytest.mark.parametrize("label", BELL_ORDER)
    def test_normalized(self, label):
        amps = bell_state(label).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    def test_pairwise_orthonormal(self):
        gram = np.array([
            [np.vdot(bell_state(a).amplitudes, bell_state(b).amplitudes)
             for b in BELL_ORDER]
            for a in BELL_ORDER
        ])
        assert np.abs(gram - np.eye(4)).max() < 1e-12


class TestTensor:
    def test_bell_product_amplitudes(self):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        expected = np.zeros(16)
        for bits in ("0101", "0110", "1001", "1010"):
            expected[int(bits, 2)] = 0.5
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_basis_case(self):
        state = tensor(basis_state("0"), basis_state("1"))
        assert np.allclose(state.amplitudes, basis_state("01").amplitudes)

    def test_norm_is_product_of_norms(self):
        rng = np.random.default_rng(7)
        state = tensor(random_state(rng, 2), random_state(rng, 2))
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12

    def test_too_large(self):
        four = tensor(bell_state(BellLabel.PHI_PLUS), bell_state(BellLabel.PHI_PLUS))
        with pytest.raises(ValueError, match="exceeds"):
            tensor(four, basis_state("0"))

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_kron(self, sizes, seed):
        rng = np.random.default_rng(seed)
        left, right = (random_state(rng, n) for n in sizes)
        want = np.kron(left.amplitudes, right.amplitudes)
        assert tensor(left, right).amplitudes.tobytes() == want.tobytes()


class TestRequireNormalized:
    """The one norm validator, for PureState and for a stack of vectors."""

    def _rows(self):
        rng = np.random.default_rng(3)
        return np.array([random_state(rng, 2).amplitudes for _ in range(6)])

    def test_squared_norms_are_vdots_in_c_order(self):
        rows = self._rows()
        want = [float(np.vdot(row, row).real) for row in rows]
        assert quantum._require_normalized(rows.reshape(2, 3, 4)) == want

    @pytest.mark.parametrize("bad, message", [
        (lambda rows: rows.__setitem__(2, 1.5 * rows[2]), "not normalized"),
        (lambda rows: rows.__setitem__((2, 0), np.nan), "finite"),
        (lambda rows: rows.__setitem__((2, 1), np.inf), "finite"),
    ])
    def test_the_first_bad_vector_raises_what_pure_state_raises(self, bad, message):
        rows = self._rows()
        bad(rows)
        rows[4] *= 2.0
        with pytest.raises(ValueError, match=message) as want:
            PureState(rows[2])
        with pytest.raises(ValueError) as got:
            quantum._require_normalized(rows.reshape(3, 2, 4))
        assert str(got.value) == str(want.value)


class TestApplyLocal:
    # The defining identities: each operation on the b2 photon of PsiPlus.
    @pytest.mark.parametrize("op, expected", [
        (PauliCode.U0, BellLabel.PSI_PLUS),
        (PauliCode.U1, BellLabel.PSI_MINUS),
        (PauliCode.U2, BellLabel.PHI_PLUS),
        (PauliCode.U3, BellLabel.PHI_MINUS),
    ])
    def test_encoding_action_on_psi_plus(self, op, expected):
        state = apply_local(op, 1, bell_state(BellLabel.PSI_PLUS))
        assert state_equal_up_to_phase(state, bell_state(expected), 1e-9)

    def test_identity_is_exact(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 4)
        out = apply_local(PauliCode.U0, 2, state)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_local(PauliCode.U2, 2, bell_state(BellLabel.PSI_PLUS))

    @pytest.mark.parametrize("op", list(PauliCode))
    @pytest.mark.parametrize("qubit", range(4))
    def test_norm_preserved(self, op, qubit):
        rng = np.random.default_rng(40 + qubit)
        state = random_state(rng, 4)
        out = apply_local(op, qubit, state)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12

    @pytest.mark.parametrize("op", list(PauliCode))
    def test_unitary(self, op):
        m = op.matrix
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("op", list(PauliCode))
    @pytest.mark.parametrize("label", BELL_ORDER)
    def test_twice_is_identity_up_to_phase(self, op, label):
        state = bell_state(label)
        twice = apply_local(op, 0, apply_local(op, 0, state))
        assert state_equal_up_to_phase(twice, state, 1e-9)


class TestStateEquality:
    def test_reflexive(self):
        s = bell_state(BellLabel.PHI_PLUS)
        assert state_equal_up_to_phase(s, s, 1e-9)

    def test_global_sign(self):
        s = bell_state(BellLabel.PHI_PLUS)
        assert state_equal_up_to_phase(s, PureState(-s.amplitudes), 1e-9)

    def test_orthogonal(self):
        assert not state_equal_up_to_phase(
            bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_MINUS), 1e-9
        )

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match="mismatched"):
            state_equal_up_to_phase(basis_state("0"), bell_state(BellLabel.PSI_PLUS))


class TestBellProject:
    def test_quarter_probability_on_swapped_pair(self):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        prob, residual = bell_project(state, (0, 2), BellLabel.PHI_PLUS)
        assert abs(prob - 0.25) < 1e-12
        assert residual is not None

    def test_eigenstate(self):
        state = bell_state(BellLabel.PHI_PLUS)
        prob, residual = bell_project(state, (0, 1), BellLabel.PHI_PLUS)
        assert abs(prob - 1.0) < 1e-12
        assert np.allclose(residual.amplitudes, state.amplitudes, atol=1e-12)

    def test_orthogonal_outcome(self):
        prob, residual = bell_project(
            bell_state(BellLabel.PHI_PLUS), (0, 1), BellLabel.PSI_PLUS
        )
        assert prob < 1e-12
        assert residual is None

    def test_duplicate_indices(self):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        with pytest.raises(ValueError, match="duplicate"):
            bell_project(state, (1, 1), BellLabel.PHI_PLUS)

    @pytest.mark.parametrize("pair, message", [
        ((0, 4), "pair (0, 4) out of range for 4-qubit register"),
        ((-1, 2), "pair (-1, 2) out of range for 4-qubit register"),
        ((2, 7), "pair (2, 7) out of range for 4-qubit register"),
        ((1, 1), "duplicate qubit indices in pair (1, 1)"),
    ])
    @pytest.mark.parametrize("call", [
        lambda s, p: bell_project(s, p, BellLabel.PHI_PLUS),
        bell_project_all,
        lambda s, p: bell_measure(s, p, np.random.default_rng(0)),
        lambda s, p: bell_sample(s, p, np.random.default_rng(0), 3),
    ], ids=["bell_project", "bell_project_all", "bell_measure", "bell_sample"])
    def test_bad_pair_message(self, call, pair, message):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        with pytest.raises(ValueError) as excinfo:
            call(state, pair)
        assert str(excinfo.value) == message

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = random_state(rng, 4)
            total = sum(bell_project_all(state, (0, 2)).values())
            assert abs(total - 1.0) < 1e-9

    def test_residual_collapses_the_pair(self):
        rng = np.random.default_rng(12)
        state = random_state(rng, 4)
        for label in BELL_ORDER:
            prob, residual = bell_project(state, (1, 3), label)
            if residual is None:
                continue
            again, _ = bell_project(residual, (1, 3), label)
            assert abs(again - 1.0) < 1e-9


class TestBellMeasure:
    def test_uniform_on_swapped_pair(self):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        rng = np.random.default_rng(2024)
        draws = [bell_measure(state, (0, 2), rng)[0] for _ in range(10_000)]
        counts = label_counts(draws, BELL_ORDER)
        _, p = chi_square_uniform(counts)
        assert p > 0.001, f"counts {counts}"

    def test_matches_projection_probabilities(self):
        # A state with a non-uniform outcome spectrum on the measured pair.
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        probs = bell_project_all(state, (0, 1))
        draws = [bell_measure(state, (0, 1), rng)[0] for _ in range(10_000)]
        counts = label_counts(draws, BELL_ORDER)
        stat = sum(
            (c - 10_000 * probs[label]) ** 2 / (10_000 * probs[label])
            for label, c in zip(BELL_ORDER, counts)
            if probs[label] > 1e-12
        )
        # 3 dof: reject above the 0.001 critical value.
        assert stat < 16.27, f"counts {counts} probs {probs}"

    def test_eigenstate_is_deterministic(self):
        state = bell_state(BellLabel.PSI_MINUS)
        rng = np.random.default_rng(1)
        for _ in range(32):
            label, residual = bell_measure(state, (0, 1), rng)
            assert label is BellLabel.PSI_MINUS
            assert np.allclose(residual.amplitudes, state.amplitudes, atol=1e-12)

    def test_same_seed_same_sequence(self):
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PHI_MINUS))
        seq1 = [
            bell_measure(state, (0, 2), np.random.default_rng(55))[0]
            for _ in range(1)
        ]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(55)
            runs.append([bell_measure(state, (0, 2), rng)[0] for _ in range(100)])
        assert runs[0] == runs[1]
        assert runs[0][0] == seq1[0]

    def test_residual_pins_partner_measurement(self):
        # After one pair collapses, the other pair's outcome is certain.
        state = tensor(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_PLUS))
        rng = np.random.default_rng(8)
        for _ in range(50):
            a_label, residual = bell_measure(state, (0, 2), rng)
            b_label, _ = bell_measure(residual, (1, 3), rng)
            prob, _ = bell_project(residual, (1, 3), b_label)
            assert abs(prob - 1.0) < 1e-9


# Reference: the per-label tensordot projection that the shared pair view
# replaced, kept verbatim. Every probability, residual and drawn label of
# the package must equal these bit for bit.
def _ref_bell_pair_tensor(label):
    return quantum._BELL_AMPLITUDES[label].reshape(2, 2)


def _ref_bell_project(state, pair, label):
    i, j = pair
    n = state.num_qubits
    if i == j:
        raise ValueError(f"duplicate qubit indices in pair {pair}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {pair} out of range for {n}-qubit register")
    bell = _ref_bell_pair_tensor(label)
    t = state.amplitudes.reshape([2] * n)
    # Contract the pair against <label|; what remains is the unmeasured factor.
    rest = np.tensordot(bell.conj(), t, axes=([0, 1], [i, j]))
    probability = float(np.vdot(rest, rest).real)
    if probability < ATOL_OP:
        return probability, None
    rest = rest / math.sqrt(probability)
    out = np.multiply.outer(bell, rest)
    out = np.moveaxis(out, [0, 1], [i, j])
    return probability, PureState(out.reshape(-1))


def _ref_bell_project_all(state, pair):
    return {label: _ref_bell_project(state, pair, label)[0] for label in BELL_ORDER}


def _ref_bell_measure(state, pair, rng):
    probs = _ref_bell_project_all(state, pair)
    u = float(rng.random())
    chosen = None
    cumulative = 0.0
    for label in BELL_ORDER:
        p = probs[label]
        if p <= ATOL_OP:
            continue
        chosen = label
        cumulative += p
        if u < cumulative:
            break
    assert chosen is not None, "no outcome has positive probability"
    _, residual = _ref_bell_project(state, pair, chosen)
    assert residual is not None
    return chosen, residual


@st.composite
def _states(draw):
    """Normalized 2-, 3- or 4-qubit states from an integer seed; some have
    amplitudes zeroed so that outcomes of probability 0 occur."""
    n = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if draw(st.booleans()):
        raw[rng.permutation(2**n)[: rng.integers(1, 2**n)]] = 0
    return PureState(raw / np.linalg.norm(raw))


class TestProjectionMatchesTensordotReference:
    @settings(max_examples=150, deadline=None)
    @given(state=_states(), rng_seed=st.integers(0, 2**64 - 1))
    def test_every_pair_and_label_is_bitwise_equal(self, state, rng_seed):
        for pair in itertools.permutations(range(state.num_qubits), 2):
            got_all = bell_project_all(state, pair)
            want_all = _ref_bell_project_all(state, pair)
            assert list(got_all) == list(want_all) == list(BELL_ORDER)
            assert all(got_all[label] == want_all[label] for label in BELL_ORDER)
            for label in BELL_ORDER:
                got_p, got_res = bell_project(state, pair, label)
                want_p, want_res = _ref_bell_project(state, pair, label)
                assert got_p == want_p
                assert (got_res is None) == (want_res is None)
                if got_res is not None:
                    assert np.array_equal(got_res.amplitudes, want_res.amplitudes)
            got_rng = np.random.default_rng(rng_seed)
            want_rng = np.random.default_rng(rng_seed)
            got_label, got_res = bell_measure(state, pair, got_rng)
            want_label, want_res = _ref_bell_measure(state, pair, want_rng)
            assert got_label is want_label
            assert isinstance(got_res, PureState)
            assert np.array_equal(got_res.amplitudes, want_res.amplitudes)
            # One uniform consumed by each, so the streams stay in step.
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("first, second", itertools.product(BELL_ORDER, repeat=2))
    def test_block_inputs_are_bitwise_equal(self, first, second):
        state = tensor(bell_state(first), bell_state(second))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for pair in itertools.permutations(range(4), 2):
            got_all = bell_project_all(state, pair)
            want_all = _ref_bell_project_all(state, pair)
            assert all(got_all[label] == want_all[label] for label in BELL_ORDER)
            for _ in range(3):
                got_label, got_res = bell_measure(state, pair, rng)
                want_label, want_res = _ref_bell_measure(state, pair, ref_rng)
                assert got_label is want_label
                assert np.array_equal(got_res.amplitudes, want_res.amplitudes)


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are given in advance."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        drawn, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(drawn)


class TestBellSample:
    def test_eigenstate_gives_one_label(self):
        state = tensor(bell_state(BellLabel.PHI_MINUS), bell_state(BellLabel.PSI_PLUS))
        rng = np.random.default_rng(3)
        assert bell_sample(state, (2, 3), rng, 40) == [BellLabel.PSI_PLUS] * 40

    def test_inversion_rule_at_the_boundaries(self):
        # PsiPlus has a positive probability at or below ATOL_OP, so it is
        # skipped and the positive ones sum to less than 1.
        weights = [0.5, 0.5 - 1e-13, 1e-13, 0.0]
        state = PureState(sum(
            math.sqrt(w) * quantum._BELL_AMPLITUDES[label]
            for w, label in zip(weights, BELL_ORDER)
        ))
        probs = bell_project_all(state, (0, 1))
        first = probs[BellLabel.PHI_PLUS]
        total = first + probs[BellLabel.PHI_MINUS]
        assert 0 < probs[BellLabel.PSI_PLUS] <= ATOL_OP and total < 1.0
        uniforms = [0.0, np.nextafter(first, 0), first, np.nextafter(total, 0),
                    total, np.nextafter(1.0, 0)]
        want = [BellLabel.PHI_PLUS] * 2 + [BellLabel.PHI_MINUS] * 4
        assert bell_sample(state, (0, 1), _FixedUniforms(uniforms), 6) == want
        rng = _FixedUniforms(uniforms)
        assert [bell_measure(state, (0, 1), rng)[0] for _ in range(6)] == want

    def test_negative_count(self):
        state = bell_state(BellLabel.PSI_MINUS)
        with pytest.raises(ValueError, match="sample count -1 is negative"):
            bell_sample(state, (0, 1), np.random.default_rng(0), -1)

    @settings(max_examples=150, deadline=None)
    @given(state=_states(), data=st.data(),
           rng_seed=st.integers(0, 2**64 - 1), n=st.integers(0, 50))
    def test_equals_repeated_bell_measure(self, state, data, rng_seed, n):
        pair = data.draw(st.sampled_from(
            list(itertools.permutations(range(state.num_qubits), 2))
        ))
        got_rng = np.random.default_rng(rng_seed)
        want_rng = np.random.default_rng(rng_seed)
        got = bell_sample(state, pair, got_rng, n)
        want = [bell_measure(state, pair, want_rng)[0] for _ in range(n)]
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
