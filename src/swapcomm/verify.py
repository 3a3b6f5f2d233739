"""Self-verification of the algebra and the module invariant suites.

Each check is deterministic (sampling checks run with a fixed seed) and
returns its detail line and every violation it finds, including the
offending amplitude, so a failing run names exactly what broke.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import (
    PATTERN_A_ONLY,
    PATTERN_B_ONLY,
    PATTERN_BOTH,
    pattern_information,
    uniform_priors,
)
from .protocol import (
    MessageBits,
    SessionConfig,
    SessionMode,
    SilentFallback,
    replay,
    run_session,
)
from .quantum import (
    BELL_ORDER,
    BellLabel,
    PauliCode,
    PureState,
    apply_local,
    bell_project_all,
    bell_sample,
    bell_state,
    state_equal_up_to_phase,
)
from .stats import chi_square_uniform, label_counts
from .swap import (
    ALL_OP_PAIRS,
    ENCODING_ORDER,
    SwapOutcome,
    _bell_product_basis,
    audit_reference_table,
    block_input_state,
    generate_decode_table,
    swap_decompose,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    failures: list[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_line(self) -> str:
        shown = ("decompositions", "table-vs-core")
        return ", ".join(c.detail for c in self.checks if c.name in shown)


def _check_bell_orthonormality() -> tuple[str, list[str]]:
    failures = []
    for i, la in enumerate(BELL_ORDER):
        for j, lb in enumerate(BELL_ORDER):
            g = complex(np.vdot(bell_state(la).amplitudes, bell_state(lb).amplitudes))
            want = 1.0 if i == j else 0.0
            if abs(g - want) > 1e-12:
                failures.append(f"<{la.value}|{lb.value}> = {g!r}, wanted {want}")
    return "Gram matrix of the four Bell states is the identity", failures


def _check_pauli_unitarity() -> tuple[str, list[str]]:
    failures = []
    for op in PauliCode:
        m = op.matrix
        delta = m @ m.conj().T - np.eye(2)
        worst = float(np.abs(delta).max())
        if worst > 1e-12:
            failures.append(f"{op.name}: U U^dag deviates from identity by {worst!r}")
    return "all four operation matrices unitary", failures


def _check_pauli_involution() -> tuple[str, list[str]]:
    failures = []
    for op in PauliCode:
        for label in BELL_ORDER:
            for qubit in (0, 1):
                state = bell_state(label)
                twice = apply_local(op, qubit, apply_local(op, qubit, state))
                if not state_equal_up_to_phase(twice, state, 1e-9):
                    failures.append(
                        f"{op.name} twice on qubit {qubit} of {label.value} "
                        f"does not return the state"
                    )
    return "applying any operation twice is the identity up to phase", failures


def _check_norm_preservation() -> tuple[str, list[str]]:
    rng = np.random.default_rng(20240001)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = PureState(raw / np.linalg.norm(raw))
    failures = []
    for op in PauliCode:
        for qubit in range(4):
            out = apply_local(op, qubit, state)
            norm = float(np.vdot(out.amplitudes, out.amplitudes).real)
            if abs(norm - 1.0) > 1e-12:
                failures.append(f"{op.name} on qubit {qubit}: norm {norm!r}")
    return "local operations preserve the norm on a generic 4-qubit state", failures


def _check_decompositions() -> tuple[str, list[str]]:
    failures = []
    exact = 0
    for first in BELL_ORDER:
        for second in BELL_ORDER:
            dist = swap_decompose(first, second)
            support = dist.support()
            ok = True
            if len(support) != 4:
                ok = False
                failures.append(
                    f"{first.value}x{second.value}: {len(support)} nonzero outcomes"
                )
            for outcome in support:
                term = dist.entries[outcome]
                if abs(term.probability - 0.25) > 1e-12:
                    ok = False
                    failures.append(
                        f"{first.value}x{second.value} at {outcome!r}: "
                        f"probability {term.probability!r}"
                    )
            resummed = np.zeros(16, dtype=complex)
            for outcome, term in dist.entries.items():
                resummed += term.amplitude * _bell_product_basis(*outcome)
            delta = resummed - block_input_state(first, second).amplitudes
            worst = int(np.argmax(np.abs(delta)))
            if abs(delta[worst]) > 1e-12:
                ok = False
                failures.append(
                    f"{first.value}x{second.value}: re-summation off by "
                    f"{complex(delta[worst])!r} at basis index {worst}"
                )
            exact += ok
    return f"{exact}/16 decompositions exact", failures


def _check_table_vs_core() -> tuple[str, list[str]]:
    """Each operation pair on a2 and b2 of PsiPlus x PsiPlus, Bell-measured on the dense
    core: the outcomes, their columns and the partners decoded are as the code arrays say."""
    t = generate_decode_table()
    c = t.composite_codes
    outcomes = [SwapOutcome(a, b) for a in ENCODING_ORDER for b in ENCODING_ORDER]
    paulis = np.array([op.matrix for op in PauliCode])
    start = block_input_state(BellLabel.PSI_PLUS, BellLabel.PSI_PLUS).amplitudes
    # states[op_a, op_b] in register order (a1, b1, a2, b2); probs[op_a, op_b, a, b] by codes
    states = np.einsum("ick,jdl,xykl->ijxycd", paulis, paulis, start.reshape(2, 2, 2, 2))
    basis = np.array([_bell_product_basis(*o) for o in outcomes])
    probs = (np.abs(states.reshape(16, 16) @ basis.conj().T) ** 2).reshape(4, 4, 4, 4)
    want = np.where(t.pairing_codes[c][..., None] == np.arange(4), 0.25, 0.0)
    misread = (probs > 1e-12) & (t.infer_codes != c[..., None, None])
    failures = [
        f"{ALL_OP_PAIRS[4 * i + j]} at {outcomes[4 * a + b]!r}: probability "
        f"{probs.item(i, j, a, b)!r}, not {want[i, j, a, b]} by pairing_codes[{c[i, j]}, {a}] "
        f"= {t.pairing_codes[c[i, j], a]}"
        for i, j, a, b in zip(*np.nonzero(np.abs(probs - want) > 1e-12))
    ] + [
        f"{ALL_OP_PAIRS[4 * i + j]} at {outcomes[4 * a + b]!r}: infer_codes[{a}, {b}] = "
        f"{t.infer_codes[a, b]}, not composite_codes[{i}, {j}] = {c[i, j]}"
        for i, j, a, b in zip(*np.nonzero(misread))
    ] + [
        f"{ALL_OP_PAIRS[4 * i + j]}: partner_codes[{own}, {c[i, j]}] = "
        f"{t.partner_codes[own, c[i, j]]}, not {partner}"
        for i in range(4) for j in range(4) for own, partner in dict.fromkeys(((i, j), (j, i)))
        if t.partner_codes[own, c[i, j]] != partner
    ]
    return "the dense core measures all 16 operation pairs as the code arrays say", failures


def _check_projection_sums() -> tuple[str, list[str]]:
    failures = []
    for first in BELL_ORDER:
        for second in BELL_ORDER:
            state = block_input_state(first, second)
            for pair in ((0, 2), (1, 3), (0, 1), (2, 3)):
                total = sum(bell_project_all(state, pair).values())
                if abs(total - 1.0) > 1e-9:
                    failures.append(
                        f"{first.value}x{second.value} pair {pair}: "
                        f"probabilities sum to {total!r}"
                    )
    return "Bell projection probabilities sum to 1 on every pair", failures


def _check_sampling_uniformity() -> tuple[str, list[str]]:
    rng = np.random.default_rng(20240002)
    state = block_input_state(BellLabel.PSI_PLUS, BellLabel.PSI_PLUS)
    draws = bell_sample(state, (0, 2), rng, 4000)
    counts = label_counts(draws, BELL_ORDER)
    stat, p = chi_square_uniform(counts)
    detail = f"chi-square p = {p:.4f} over 4000 fixed-seed measurements"
    return detail, [] if p > 0.001 else [f"counts {counts}, statistic {stat:.2f}"]


def _check_eavesdropper_margins() -> tuple[str, list[str]]:
    failures = []
    priors = uniform_priors()
    both = pattern_information(priors, PATTERN_BOTH)
    if both["mi_alice_bits"] != 0.0 or both["mi_bob_bits"] != 0.0:
        failures.append(f"marginal MI nonzero with both sides announcing: {both}")
    if both["mi_joint_bits"] != 2.0:
        failures.append(f"joint MI is {both['mi_joint_bits']!r}, wanted 2.0")
    for pattern in (PATTERN_A_ONLY, PATTERN_B_ONLY):
        info = pattern_information(priors, pattern)
        if any(v != 0.0 for v in info.values()):
            failures.append(f"single-side pattern {pattern} leaks: {info}")
    return "uniform priors: marginals 0 bits, joint 2 bits when both announce", failures


def _check_session_round_trips() -> tuple[str, list[str]]:
    failures = []
    cases = [
        SessionConfig(n_pairs=12, seed=71,
                      alice_message=MessageBits.from_bits("011110101001"),
                      bob_message=MessageBits.from_bits("1011")),
        SessionConfig(n_pairs=7, seed=72, mode=SessionMode.ALICE_TO_BOB,
                      fallback=SilentFallback.ANNOUNCED_SILENCE,
                      alice_message=MessageBits.from_bits("010011")),
        SessionConfig(n_pairs=6, seed=73, mode=SessionMode.BOB_TO_ALICE,
                      fallback=SilentFallback.RANDOM_OPS,
                      bob_message=MessageBits.from_bits("111000")),
    ]
    for config in cases:
        result = run_session(config)
        for decoded, sent in (
            (result.decoded_by_bob, config.alice_message),
            (result.decoded_by_alice, config.bob_message),
        ):
            if sent is not None and decoded != sent:
                failures.append(
                    f"seed {config.seed}: decoded {decoded!r}, sent {sent!r}"
                )
        replayed = replay(result.transcript, result.blocks)
        if (replayed.decoded_by_alice, replayed.decoded_by_bob) != (
            result.decoded_by_alice, result.decoded_by_bob,
        ):
            failures.append(f"seed {config.seed}: replay diverged")
    return "fixed-seed sessions decode and replay exactly in every mode", failures


def _check_reference_audit() -> tuple[str, list[str]]:
    report = audit_reference_table()
    expected_cells = ((1, 2), (1, 3), (1, 4))
    failures = []
    if report.in_section("outcome-pairs"):
        failures.append("outcome-pair section shows discrepancies")
    if report.in_section("initial-state"):
        failures.append("initial-state row shows discrepancies")
    if report.flagged_cells("operations") != expected_cells:
        failures.append(
            f"operations flags {report.flagged_cells('operations')}, "
            f"expected {expected_cells}"
        )
    if any("operation pair" in d.detail for d in report.in_section("operations")):
        failures.append("an operation pair landed in the wrong column")
    return "reference table agrees except the known bit-code misprints", failures


_CHECKS = {
    "bell-orthonormality": _check_bell_orthonormality,
    "pauli-unitarity": _check_pauli_unitarity,
    "pauli-involution": _check_pauli_involution,
    "norm-preservation": _check_norm_preservation,
    "decompositions": _check_decompositions,
    "table-vs-core": _check_table_vs_core,
    "projection-sums": _check_projection_sums,
    "sampling-uniformity": _check_sampling_uniformity,
    "eavesdropper-margins": _check_eavesdropper_margins,
    "session-round-trips": _check_session_round_trips,
    "reference-audit": _check_reference_audit,
}


def run_verification() -> VerificationReport:
    """Each check in turn. One that raises fails alone, with the exception's type and
    message, and the rest still run; a MemoryError is left to the caller."""
    checks = []
    for name, check in _CHECKS.items():
        try:
            detail, failures = check()
        except MemoryError:
            raise
        except Exception as exc:
            detail, failures = f"stopped by {type(exc).__name__}", [str(exc)]
        checks.append(CheckResult(name, not failures, detail, failures))
    return VerificationReport(checks)
