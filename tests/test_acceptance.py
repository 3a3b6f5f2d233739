"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go;
without -s they still appear in captured output on failure.
"""
import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import oracle
from swapcomm.adversary import (
    PATTERN_A_ONLY,
    PATTERN_B_ONLY,
    PATTERN_BOTH,
    estimate_mi_monte_carlo,
    pattern_information,
    uniform_priors,
)
from swapcomm.protocol import (
    MessageBits,
    SessionConfig,
    run_session,
)
from swapcomm.quantum import BELL_ORDER, BellLabel, PauliCode
from swapcomm.stats import chi_square_uniform, label_counts
from swapcomm.swap import (
    ALL_OP_PAIRS,
    ALL_OUTCOMES,
    ENCODING_ORDER,
    SwapOutcome,
    _bell_product_basis,
    audit_reference_table,
    block_input_state,
    composite_label,
    generate_decode_table,
    swap_decompose,
)

L = {label.value: label for label in BellLabel}


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def test_criterion_1_first_decomposition_exact():
    with criterion(1, "first decomposition identity exact"):
        dist = swap_decompose(L["PsiPlus"], L["PsiPlus"])
        expected_signs = {
            ("PsiPlus", "PsiPlus"): +1,
            ("PsiMinus", "PsiMinus"): -1,
            ("PhiPlus", "PhiPlus"): +1,
            ("PhiMinus", "PhiMinus"): -1,
        }
        for outcome, term in dist.entries.items():
            key = (outcome.a_side.value, outcome.b_side.value)
            want = 0.5 * expected_signs.get(key, 0.0)
            assert abs(term.amplitude - want) < 1e-12, (key, term.amplitude)
            if key in expected_signs:
                assert abs(abs(term.amplitude) - 0.5) < 1e-12

        resummed = np.zeros(16, dtype=complex)
        for outcome, term in dist.entries.items():
            resummed += term.amplitude * _bell_product_basis(*outcome)
        delta = resummed - block_input_state(L["PsiPlus"], L["PsiPlus"]).amplitudes
        assert np.abs(delta).max() < 1e-12


def test_criterion_2_remaining_decompositions_exact():
    with criterion(2, "remaining decomposition identities exact"):
        printed = {
            ("PsiPlus", "PsiMinus"): {
                ("PsiPlus", "PsiMinus"): +0.5, ("PsiMinus", "PsiPlus"): -0.5,
                ("PhiPlus", "PhiMinus"): -0.5, ("PhiMinus", "PhiPlus"): +0.5,
            },
            ("PsiPlus", "PhiPlus"): {
                ("PsiPlus", "PhiPlus"): +0.5, ("PsiMinus", "PhiMinus"): -0.5,
                ("PhiPlus", "PsiPlus"): +0.5, ("PhiMinus", "PsiMinus"): -0.5,
            },
            ("PsiPlus", "PhiMinus"): {
                ("PsiPlus", "PhiMinus"): +0.5, ("PsiMinus", "PhiPlus"): -0.5,
                ("PhiPlus", "PsiMinus"): -0.5, ("PhiMinus", "PsiPlus"): +0.5,
            },
        }
        for (first, second), terms in printed.items():
            dist = swap_decompose(L[first], L[second])
            for outcome, term in dist.entries.items():
                key = (outcome.a_side.value, outcome.b_side.value)
                assert abs(term.amplitude - terms.get(key, 0.0)) < 1e-12

        # Every Bell-product input: exactly 4 outcomes, probability 1/4 each,
        # cross-checked against the exact oracle.
        for first in BELL_ORDER:
            for second in BELL_ORDER:
                dist = swap_decompose(first, second)
                support = dist.support()
                assert len(support) == 4
                for outcome in support:
                    assert abs(dist.entries[outcome].probability - 0.25) < 1e-12
                exact = oracle.decompose(first.value, second.value)
                for outcome, term in dist.entries.items():
                    want = float(exact[(outcome.a_side.value, outcome.b_side.value)])
                    assert abs(term.amplitude - want) < 1e-12


def test_criterion_3_decode_totality_and_bijection():
    with criterion(3, "decode totality and bijection"):
        columns = {label: set() for label in BELL_ORDER}
        for outcome in ALL_OUTCOMES:
            columns[generate_decode_table().infer[outcome]].add(outcome)
        assert all(len(col) == 4 for col in columns.values())
        assert set().union(*columns.values()) == set(ALL_OUTCOMES)

        table = generate_decode_table()
        for own in PauliCode:
            partners = {table.decode(own, label) for label in BELL_ORDER}
            assert partners == set(PauliCode)

        for op_a, op_b in ALL_OP_PAIRS:
            assert table.decode(op_a, composite_label(op_a, op_b)) is op_b


def test_criterion_4_protocol_determinism_and_speed():
    with criterion(4, "1000 random sessions decode exactly"):
        rng = np.random.default_rng(20240404)
        started = time.perf_counter()
        exact = 0
        for _ in range(1000):
            alice = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, 41))))
            bob = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, 41))))
            config = SessionConfig(
                n_pairs=40,
                seed=int(rng.integers(2**63)),
                alice_message=MessageBits.from_bits(alice),
                bob_message=MessageBits.from_bits(bob),
            )
            result = run_session(config)
            if (result.decoded_by_bob.declared_bits == alice
                    and result.decoded_by_alice.declared_bits == bob):
                exact += 1
        elapsed = time.perf_counter() - started
        assert exact == 1000, f"{exact}/1000 sessions decoded exactly"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def fixed_op_outcomes(op_a, op_b, n_blocks, seed):
    """The block outcomes of a session of n_blocks blocks whose messages
    repeat op_a and op_b."""
    config = SessionConfig(
        n_pairs=2 * n_blocks, seed=seed,
        alice_message=MessageBits.from_bits(format(op_a.code, "02b") * n_blocks),
        bob_message=MessageBits.from_bits(format(op_b.code, "02b") * n_blocks),
    )
    blocks = run_session(config).blocks
    assert set(zip(blocks.op_a.tolist(), blocks.op_b.tolist())) == {(op_a.code, op_b.code)}
    return [SwapOutcome(ENCODING_ORDER[a], ENCODING_ORDER[b])
            for a, b in zip(blocks.label_a.tolist(), blocks.label_b.tolist())]


def test_criterion_5_sampling_fidelity():
    with criterion(5, "block outcomes uniform per fixed operation pair"):
        table = generate_decode_table()
        for op_a, op_b in ALL_OP_PAIRS:
            seed = 58_000 + 4 * op_a.code + op_b.code
            outcomes = fixed_op_outcomes(op_a, op_b, 10_000, seed=seed)
            column = table.composite[(op_a, op_b)]
            support = [o for o in table.infer if table.infer[o] is column]
            assert set(outcomes) <= set(support)
            counts = label_counts(outcomes, support)
            _, p = chi_square_uniform(counts)
            assert p > 0.001, f"({op_a.name},{op_b.name}): counts {counts}, p={p}"


def test_criterion_6_security_quantification():
    with criterion(6, "transcript information measures"):
        priors = uniform_priors()
        both = pattern_information(priors, PATTERN_BOTH)
        assert both["mi_alice_bits"] == 0.0
        assert both["mi_bob_bits"] == 0.0
        assert both["mi_joint_bits"] == 2.0
        for pattern in (PATTERN_A_ONLY, PATTERN_B_ONLY):
            single = pattern_information(priors, pattern)
            assert single["mi_alice_bits"] == 0.0
            assert single["mi_bob_bits"] == 0.0
            assert single["mi_joint_bits"] == 0.0

        mc_both = estimate_mi_monte_carlo(priors, PATTERN_BOTH,
                                          n_blocks=100_000, seed=606)
        assert abs(mc_both["mi_joint_bits"] - 2.0) < 0.02
        assert abs(mc_both["mi_alice_bits"]) < 0.02
        assert abs(mc_both["mi_bob_bits"]) < 0.02
        mc_single = estimate_mi_monte_carlo(priors, PATTERN_A_ONLY,
                                            n_blocks=100_000, seed=607)
        assert abs(mc_single["mi_joint_bits"]) < 0.02


def test_criterion_7_reference_table_audit():
    with criterion(7, "reference table audit"):
        report = audit_reference_table()
        assert report.in_section("outcome-pairs") == ()
        assert report.in_section("initial-state") == ()
        flags = report.in_section("operations")
        # Operator indices all agree; only bit-code annotations differ, in
        # rows 2-4 of the first operations column, and each cell is listed.
        assert all("bit-code annotation" in d.detail for d in flags)
        assert report.flagged_cells("operations") == ((1, 2), (1, 3), (1, 4))
        listed = [(d.column, d.row, d.printed, d.derived) for d in flags]
        assert sorted(listed) == [
            (1, 2, "(00)", "(01)"), (1, 2, "(00)", "(01)"),
            (1, 3, "(00)", "(10)"), (1, 3, "(00)", "(10)"),
            (1, 4, "(00)", "(11)"), (1, 4, "(00)", "(11)"),
        ]


def test_criterion_8_channel_equivalence(tmp_path):
    with criterion(8, "two-process transcript byte-identical"):
        config = SessionConfig(
            n_pairs=6, seed=7,
            alice_message=MessageBits.from_bits("011110"),
            bob_message=MessageBits.from_bits("101100"),
        )
        reference = run_session(config).transcript.lines.wire_lines()

        serve_out = tmp_path / "serve.json"
        conn_out = tmp_path / "conn.json"
        server = subprocess.Popen(
            [sys.executable, "-m", "swapcomm", "serve",
             "--listen", "127.0.0.1:0", "--pairs", "6",
             "--alice-msg", "011110", "--seed", "7", "--out", str(serve_out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening "), banner
            address = banner.split()[1]
            client = subprocess.run(
                [sys.executable, "-m", "swapcomm", "connect",
                 "--peer", address, "--pairs", "6",
                 "--bob-msg", "101100", "--seed", "7", "--out", str(conn_out)],
                capture_output=True, text=True, timeout=30,
            )
            assert client.returncode == 0, client.stderr
            assert server.wait(timeout=15) == 0
        finally:
            if server.poll() is None:
                server.kill()

        for path in (serve_out, conn_out):
            doc = json.loads(path.read_text())
            assert doc["transcript"] == reference, path
