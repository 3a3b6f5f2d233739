"""Self-verification of the algebra and the module invariant suites.

Each check is deterministic (sampling checks run with a fixed seed) and
returns its detail line and every violation it finds, including the
offending amplitude, so a failing run names exactly what broke.

The dense-core checks are batched, one array product each over the four
Pauli matrices, the four Bell states or the 16 block inputs. They read the
core's definitions as they run, never the decode tables, and validate each
state they build as PureState would, in the order the per-state loops did.
"""
from __future__ import annotations

import itertools
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
    _BELL_AMPLITUDES,
    _BELL_BRAS,
    BELL_ORDER,
    BellLabel,
    PauliCode,
    PureState,
    _require_normalized,
    bell_sample,
)
from .stats import chi_square_uniform, label_counts
from .swap import (
    ALL_OP_PAIRS,
    ENCODING_ORDER,
    SwapOutcome,
    _bell_product_basis,
    _bell_product_matrix,
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


def _bells() -> np.ndarray:
    """The four Bell amplitude vectors as the core defines them now, in BELL_ORDER."""
    return np.array([_BELL_AMPLITUDES[label] for label in BELL_ORDER])


def _block_inputs() -> np.ndarray:
    """block_input_state of each label pair, BELL_ORDER x BELL_ORDER, validated as such."""
    bells = _bells()
    _require_normalized(bells)
    inputs = np.multiply.outer(bells, bells).transpose(0, 2, 1, 3).reshape(16, 16)
    _require_normalized(inputs)
    return inputs


def _check_bell_orthonormality() -> tuple[str, list[str]]:
    bells = _bells()
    _require_normalized(bells)
    gram = bells.conj() @ bells.T
    names = [label.value for label in BELL_ORDER]
    failures = [f"<{names[i]}|{names[j]}> = {gram.item(i, j)!r}, wanted {float(i == j)}"
                for i, j in zip(*np.nonzero(np.abs(gram - np.eye(4)) > 1e-12))]
    return "Gram matrix of the four Bell states is the identity", failures


def _check_pauli_unitarity() -> tuple[str, list[str]]:
    paulis = np.array([op.matrix for op in PauliCode])
    worst = np.abs(paulis @ paulis.conj().swapaxes(1, 2) - np.eye(2)).max(axis=(1, 2))
    failures = [f"{op.name}: U U^dag deviates from identity by {w!r}"
                for op, w in zip(PauliCode, worst.tolist()) if w > 1e-12]
    return "all four operation matrices unitary", failures


def _check_pauli_involution() -> tuple[str, list[str]]:
    paulis, bells = np.array([op.matrix for op in PauliCode]), _bells()
    # [op, label, qubit]: each operation once, then twice, on each qubit of each Bell state
    specs = ("oxa,olab->olxb", "oxb,olab->olax")
    once = [np.einsum(s, paulis, np.broadcast_to(bells.reshape(4, 2, 2), (4, 4, 2, 2)))
            for s in specs]
    twice = [np.einsum(s, paulis, states) for s, states in zip(specs, once)]
    once, twice = (np.stack(states, axis=2).reshape(4, 4, 2, 4) for states in (once, twice))
    # Per (op, label, qubit): the state, once, twice, as bell_state and apply_local raise.
    _require_normalized(np.stack([np.broadcast_to(bells[:, None], once.shape), once, twice], 3))
    returned = np.abs(np.einsum("olqi,li->olq", twice.conj(), bells)) >= 1.0 - 1e-9
    failures = [f"{tuple(PauliCode)[o].name} twice on qubit {q} of {BELL_ORDER[l].value} "
                "does not return the state" for o, l, q in zip(*np.nonzero(~returned))]
    return "applying any operation twice is the identity up to phase", failures


def _check_norm_preservation() -> tuple[str, list[str]]:
    rng = np.random.default_rng(20240001)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = PureState(raw / np.linalg.norm(raw)).amplitudes.reshape(2, 2, 2, 2)
    # [op, qubit]: each operation on each qubit of the state
    paulis = np.array([op.matrix for op in PauliCode])
    outs = np.stack([np.einsum(spec, paulis, state).reshape(4, 16) for spec in (
        "oxa,abcd->oxbcd", "oxb,abcd->oaxcd", "oxc,abcd->oabxd", "oxd,abcd->oabcx")], axis=1)
    norms = _require_normalized(outs)
    failures = [f"{op.name} on qubit {qubit}: norm {norm!r}"
                for (op, qubit), norm in zip(itertools.product(PauliCode, range(4)), norms)
                if abs(norm - 1.0) > 1e-12]
    return "local operations preserve the norm on a generic 4-qubit state", failures


def _check_decompositions() -> tuple[str, list[str]]:
    pairs = [(first, second) for first in BELL_ORDER for second in BELL_ORDER]
    dists = [swap_decompose(first, second) for first, second in pairs]
    # Entries are in ALL_OUTCOMES order, the rows of the basis matrix.
    amplitudes = np.array([[term.amplitude for term in d.entries.values()] for d in dists])
    deltas = amplitudes @ _bell_product_matrix() - _block_inputs()
    failures = []
    exact = 0
    for (first, second), dist, delta in zip(pairs, dists, deltas):
        name, support = f"{first.value}x{second.value}", dist.support()
        found = [f"{name}: {len(support)} nonzero outcomes"] if len(support) != 4 else []
        found += [f"{name} at {outcome!r}: probability {dist.entries[outcome].probability!r}"
                  for outcome in support if abs(dist.entries[outcome].probability - 0.25) > 1e-12]
        worst = int(np.argmax(np.abs(delta)))
        if abs(delta[worst]) > 1e-12:
            found.append(f"{name}: re-summation off by {complex(delta[worst])!r} "
                         f"at basis index {worst}")
        exact += not found
        failures += found
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
    inputs = _block_inputs().reshape(16, 2, 2, 2, 2)
    pairs = ((0, 2), (1, 3), (0, 1), (2, 3))
    totals = np.empty((16, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        rest = [1 + k for k in range(4) if k not in (i, j)]
        view = inputs.transpose(1 + i, 1 + j, 0, *rest).reshape(4, -1)
        # [label, input, 1, rest]: each label's overlap, as _bell_overlaps takes it
        overlaps = np.array([np.dot(bra, view) for bra in _BELL_BRAS.values()])
        overlaps = overlaps.reshape(4, 16, 1, 4)
        totals[:, p] = (overlaps.conj() @ overlaps.swapaxes(2, 3)).real.sum(axis=(0, 2, 3))
    failures = [
        f"{BELL_ORDER[k // 4].value}x{BELL_ORDER[k % 4].value} pair {pairs[p]}: "
        f"probabilities sum to {totals.item(k, p)!r}"
        for k, p in zip(*np.nonzero(~(np.abs(totals - 1.0) <= 1e-9)))
    ]
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
