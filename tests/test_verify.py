"""Each check of `swapcomm verify` fails on a fault that it exists to catch.

One case per check, and one per code array for table-vs-core, plants one
plausible fault by monkeypatching. Each requires exactly the listed checks
to fail, a failure line that names the fault, `verify` to exit 2, and the
json report to carry the check as failed with that line. A name that other
modules import is replaced in every swapcomm module bound to it, as a fault
in its definition would be. The caches of values built from the core are
emptied before and after each case, so the fault reaches them and does not
outlive the case.

A blunt fault makes the core raise. Each such case requires the checks
that raise to fail alone, with the exception's type and message, and every
check to be reported all the same.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import math
import pkgutil
import re
import sys
import types

import numpy as np
import pytest

import swapcomm
from swapcomm import adversary, channel, cli, protocol, quantum, swap, verify
from swapcomm.cli import main
from swapcomm.protocol import MessageBits
from swapcomm.quantum import BellLabel, PauliCode
from swapcomm.verify import run_verification

_CACHED = (swap.generate_decode_table, swap._bell_product_basis, swap._bell_product_matrix,
           adversary._likelihoods, channel._wire_template, cli._parser)
_S = quantum._INV_SQRT2


@pytest.fixture(autouse=True)
def _empty_caches():
    for cached in _CACHED:
        cached.cache_clear()
    yield
    for cached in _CACHED:
        cached.cache_clear()


def test_every_cache_is_emptied_around_each_case():
    """A cache missing from _CACHED would keep a value built before a fault was planted,
    and hide the fault from the checks that read it."""
    modules = [importlib.import_module(f"swapcomm.{info.name}")
               for info in pkgutil.iter_modules(swapcomm.__path__) if info.name != "__main__"]
    caches = {(mod.__name__, name): value for mod in modules
              for name, value in vars(mod).items() if hasattr(value, "cache_clear")}
    assert caches
    for where, cache in caches.items():
        assert any(cache is cached for cached in _CACHED), where


def _everywhere(monkeypatch, module, name, fault):
    """Bind `name` to `fault` in every swapcomm module bound to module.name."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "swapcomm" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, fault)


def _bell_literal(monkeypatch):
    """PhiMinus's last amplitude is 1/sqrt(2) typed to 11 places."""
    monkeypatch.setitem(quantum._BELL_AMPLITUDES, BellLabel.PHI_MINUS,
                        quantum._frozen([_S, 0, 0, -0.70710678118]))


def _psi_minus_typed_as_psi_plus(monkeypatch):
    """PsiMinus's amplitudes typed as PsiPlus's, [0, s, s, 0]."""
    monkeypatch.setitem(quantum._BELL_AMPLITUDES, BellLabel.PSI_MINUS,
                        quantum._frozen([0, _S, _S, 0]))


def _pauli_entry(op, rows):
    def plant(monkeypatch):
        monkeypatch.setitem(quantum._PAULI_MATRICES, op, quantum._frozen(rows))
    return plant


def _decomposition_sign(monkeypatch):
    """The first term of PsiPlus x PsiMinus's expansion with its sign flipped."""
    real = swap.swap_decompose

    def faulty(first, second):
        dist = real(first, second)
        if (first, second) != (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
            return dist
        entries = dict(dist.entries)
        term = entries[dist.support()[0]]
        entries[dist.support()[0]] = term._replace(amplitude=-term.amplitude)
        return dataclasses.replace(dist, entries=entries)

    _everywhere(monkeypatch, swap, "swap_decompose", faulty)


def _swapped_cells(field, first, second):
    """The decode table with two cells of one code array swapped, built by hand."""
    def plant(monkeypatch):
        table = swap.generate_decode_table()
        codes = getattr(table, field).copy()
        codes[first], codes[second] = codes[second], codes[first]
        codes.flags.writeable = False
        faulty = dataclasses.replace(table, **{field: codes})
        _everywhere(monkeypatch, swap, "generate_decode_table", lambda: faulty)
    return plant


def _bra_sign(monkeypatch):
    """<PsiMinus| with the sign of its second term flipped, so it is <PsiPlus|."""
    monkeypatch.setitem(quantum._BELL_BRAS, BellLabel.PSI_MINUS, quantum._frozen([[0, _S, _S, 0]]))


def _short_uniforms(monkeypatch):
    """bell_sample inverts uniforms drawn from [0, 0.9), not [0, 1)."""
    real = quantum.bell_sample

    def faulty(state, pair, rng, n):
        return real(state, pair, types.SimpleNamespace(random=lambda k: 0.9 * rng.random(k)), n)

    _everywhere(monkeypatch, quantum, "bell_sample", faulty)


def _mi_in_nats(monkeypatch):
    """Mutual information taken with the natural log, not log2."""
    real = adversary._mi_bits
    monkeypatch.setattr(adversary, "_mi_bits", lambda joint: real(joint) * math.log(2))


def _replay_drops_a_block(monkeypatch):
    """A replay that decodes every block but the last."""
    real = protocol.replay

    def faulty(transcript, blocks):
        result = real(transcript, blocks)
        return dataclasses.replace(result, **{
            side: MessageBits.from_bits(getattr(result, side).declared_bits[:-2])
            for side in ("decoded_by_alice", "decoded_by_bob")
            if getattr(result, side) is not None
        })

    _everywhere(monkeypatch, protocol, "replay", faulty)


def _misplaced_reference_pair(monkeypatch):
    """(u2, u0), which belongs in the third column, printed first in the second."""
    columns = [list(column) for column in swap.REFERENCE_OPERATION_COLUMNS]
    columns[1][0] = ((2, "10"), (0, "00"))
    monkeypatch.setattr(swap, "REFERENCE_OPERATION_COLUMNS", tuple(map(tuple, columns)))


CASES = [
    pytest.param(
        _bell_literal, {"bell-orthonormality", "decompositions", "table-vs-core"},
        "bell-orthonormality", r"<PhiPlus\|PhiMinus> = \(4\.6\d*e-12\+0j\), wanted 0\.0",
        id="bell-orthonormality"),
    pytest.param(
        _pauli_entry(PauliCode.U2, [[0, 1], [1, 1e-11]]),
        {"pauli-unitarity", "norm-preservation"},
        "pauli-unitarity", r"U2: U U\^dag deviates from identity by 1e-11", id="pauli-unitarity"),
    pytest.param(
        _pauli_entry(PauliCode.U1, [[-1, 0], [0, np.exp(6e-5j)]]),
        {"pauli-involution", "table-vs-core"},
        "pauli-involution", r"U1 twice on qubit 0 of PhiPlus does not return the state",
        id="pauli-involution"),
    pytest.param(
        _pauli_entry(PauliCode.U0, [[1 + 1e-11, 0], [0, 1]]),
        {"pauli-unitarity", "norm-preservation", "table-vs-core"},
        "norm-preservation", r"U0 on qubit 0: norm 1\.00000000001\d*", id="norm-preservation"),
    pytest.param(
        _decomposition_sign, {"decompositions"},
        "decompositions", r"PsiPlusxPsiMinus: re-summation off by .* at basis index \d+",
        id="decompositions"),
    pytest.param(
        _swapped_cells("composite_codes", (0, 0), (0, 1)),
        {"table-vs-core", "eavesdropper-margins", "session-round-trips", "reference-audit"},
        "table-vs-core",
        r"\(U0, U0\) at \(PsiPlus,PsiPlus\): "
        r"infer_codes\[0, 0\] = 0, not composite_codes\[0, 0\] = 1",
        id="table-vs-core-composite"),
    pytest.param(
        _swapped_cells("pairing_codes", (0, 0), (0, 1)), {"table-vs-core"},
        "table-vs-core",
        r"\(U0, U0\) at \(PsiPlus,PsiPlus\): "
        r"probability 0\.2\d*, not 0\.0 by pairing_codes\[0, 0\] = 1",
        id="table-vs-core-pairing"),
    pytest.param(
        _swapped_cells("infer_codes", (0, 0), (0, 1)),
        {"table-vs-core", "eavesdropper-margins", "reference-audit"},
        "table-vs-core",
        r"\(U0, U0\) at \(PsiPlus,PsiPlus\): "
        r"infer_codes\[0, 0\] = 1, not composite_codes\[0, 0\] = 0",
        id="table-vs-core-infer"),
    pytest.param(
        _swapped_cells("partner_codes", (0, 0), (0, 1)), {"table-vs-core", "session-round-trips"},
        "table-vs-core", r"\(U0, U0\): partner_codes\[0, 0\] = 1, not 0",
        id="table-vs-core-partner"),
    pytest.param(
        _bra_sign, {"projection-sums"},
        "projection-sums", r"PhiPlusxPsiPlus pair \(2, 3\): probabilities sum to 1\.99\d*",
        id="projection-sums"),
    pytest.param(
        _short_uniforms, {"sampling-uniformity"},
        "sampling-uniformity", r"counts \[\d+, \d+, \d+, \d+\], statistic \d+\.\d\d",
        id="sampling-uniformity"),
    pytest.param(
        _mi_in_nats, {"eavesdropper-margins"},
        "eavesdropper-margins", r"joint MI is 1\.386\d*, wanted 2\.0", id="eavesdropper-margins"),
    pytest.param(
        _replay_drops_a_block, {"session-round-trips"},
        "session-round-trips", r"seed 71: replay diverged", id="session-round-trips"),
    pytest.param(
        _misplaced_reference_pair, {"reference-audit"},
        "reference-audit", r"an operation pair landed in the wrong column", id="reference-audit"),
]


@pytest.mark.parametrize("plant, failing, check, line", CASES)
def test_a_planted_fault_fails_its_check(monkeypatch, capsys, plant, failing, check, line):
    plant(monkeypatch)
    report = run_verification()
    assert {c.name for c in report.checks if not c.passed} == failing
    (result,) = [c for c in report.checks if c.name == check]
    assert any(re.fullmatch(line, failure) for failure in result.failures), result.failures

    assert main(["verify"]) == 2
    text = capsys.readouterr().out.splitlines()
    assert f"[FAIL] {check}: {result.detail}" in text
    assert any(re.fullmatch(line, printed.strip()) for printed in text)

    assert main(["verify", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    (record,) = [r for r in doc["checks"] if r["name"] == check]
    assert record["passed"] is False
    assert any(re.fullmatch(line, failure) for failure in record["failures"])


def test_every_check_has_a_case():
    assert {case.values[2] for case in CASES} == {c.name for c in run_verification().checks}


# The checks that read the decode table stop where the table is built.
_TABLE_READERS = {"table-vs-core", "eavesdropper-margins", "session-round-trips",
                  "reference-audit"}

BLUNT_CASES = [
    pytest.param(
        _psi_minus_typed_as_psi_plus,
        {"bell-orthonormality", "decompositions"}, _TABLE_READERS, "AssertionError",
        r"outcome \(PhiPlus,PhiPlus\) appears in two columns", id="psi-minus-typed-as-psi-plus"),
    pytest.param(
        _pauli_entry(PauliCode.U3, [[0, 1], [1, 0]]), set(), _TABLE_READERS, "AssertionError",
        r"BellLabel\.PSI_PLUS has 6 operation pairs, not 4", id="u3-typed-as-u2"),
    pytest.param(
        _pauli_entry(PauliCode.U1, [[-1, 0], [0, 1j]]),
        {"pauli-involution"}, _TABLE_READERS, "AssertionError",
        r"composite of \(PauliCode\.U0, PauliCode\.U1\) is not a Bell state",
        id="u1-not-an-involution"),
    pytest.param(
        _pauli_entry(PauliCode.U1, [[-1, 0], [0, 2]]),
        {"pauli-unitarity"}, {"pauli-involution", "norm-preservation", *_TABLE_READERS},
        "ValueError", r"state is not normalized: squared norm 2\.\d+", id="u1-not-unitary"),
]


@pytest.mark.parametrize("plant, failing, stopped, exc_type, message", BLUNT_CASES)
def test_a_blunt_fault_stops_only_its_checks(
        monkeypatch, capsys, plant, failing, stopped, exc_type, message):
    plant(monkeypatch)
    names = list(verify._CHECKS)
    assert len(names) == 11

    assert main(["verify"]) == 2
    text = capsys.readouterr().out.splitlines()
    reported = [re.fullmatch(r"\[(ok|FAIL)\] ([a-z-]+): (.*)", line) for line in text]
    reported = [m.groups() for m in reported if m]
    assert [name for _, name, _ in reported] == names
    assert {name for status, name, _ in reported if status == "FAIL"} == failing | stopped
    for name in stopped:
        (at,) = [i for i, line in enumerate(text) if line.startswith(f"[FAIL] {name}: ")]
        assert text[at] == f"[FAIL] {name}: stopped by {exc_type}"
        assert re.fullmatch(message, text[at + 1].strip())

    assert main(["verify", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in doc["checks"]] == names
    assert {r["name"] for r in doc["checks"] if not r["passed"]} == failing | stopped
    for record in doc["checks"]:
        if record["name"] in stopped:
            assert record["detail"] == f"stopped by {exc_type}"
            (line,) = record["failures"]
            assert re.fullmatch(message, line)
        else:
            assert not record["detail"].startswith("stopped by")


def test_a_memory_error_in_a_check_ends_verify(monkeypatch, capsys):
    def exhausted():
        raise MemoryError("Unable to allocate 2.00 GiB")

    _everywhere(monkeypatch, swap, "generate_decode_table", exhausted)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "swapcomm: out of memory in verify: Unable to allocate 2.00 GiB\n"


@pytest.mark.parametrize("plant", [
    pytest.param(case.values[0], id=case.id) for case in CASES + BLUNT_CASES])
def test_no_failure_line_prints_a_numpy_repr(monkeypatch, plant):
    plant(monkeypatch)
    printed = [f for c in run_verification().checks for f in c.failures if "np." in f]
    assert not printed
