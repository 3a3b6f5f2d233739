"""Tampered outputs must count as failed ops.

Run with: python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import json
import random
import socket
import subprocess
import sys
import time

import pytest

import checks
import metrics
from workloads import ROOT, SRC, WORKLOADS, invoke, random_bits, read_line

sys.path.insert(0, str(SRC))

PAIRS = 40
BLOCKS = PAIRS // 2


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A real bidirectional run document from the CLI, with its messages."""
    rng = random.Random(7)
    alice, bob = random_bits(rng, PAIRS), random_bits(rng, PAIRS)
    out = tmp_path_factory.mktemp("run") / "run.json"
    code, *_ = invoke(["simulate", "--pairs", str(PAIRS), "--seed", "11",
                         "--alice-msg", alice, "--bob-msg", bob, "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8")), alice, bob


def _flip_decoded_bit(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    bits = doc["private"]["decoded_by_bob"]
    doc["private"]["decoded_by_bob"] = ("1" if bits[0] == "0" else "0") + bits[1:]
    return doc


def _drop_announcement(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    del doc["transcript"][5]
    return doc


def _halves(doc: dict) -> tuple[dict, dict]:
    doc_a, doc_b = copy.deepcopy(doc), copy.deepcopy(doc)
    doc_a["session"]["party"], doc_b["session"]["party"] = "A", "B"
    return doc_a, doc_b


def test_untampered_outputs_pass(session):
    doc, alice, bob = session
    assert checks.judge(0, checks.session_failures, doc, alice, bob, BLOCKS) == []
    assert checks.judge(0, checks.replay_failures, doc, alice, bob) == []
    assert checks.judge(0, checks.loopback_failures, *_halves(doc), alice, bob, BLOCKS) == []


def test_flipped_decoded_bit_fails(session):
    doc, alice, bob = session
    tampered = _flip_decoded_bit(doc)
    assert checks.judge(0, checks.session_failures, tampered, alice, bob, BLOCKS)
    doc_a, _ = _halves(doc)
    _, doc_b = _halves(tampered)
    assert checks.judge(0, checks.loopback_failures, doc_a, doc_b, alice, bob, BLOCKS)


def test_dropped_announcement_fails(session):
    doc, alice, bob = session
    tampered = _drop_announcement(doc)
    assert checks.judge(0, checks.session_failures, tampered, alice, bob, BLOCKS)
    doc_a, _ = _halves(doc)
    _, doc_b = _halves(tampered)
    assert checks.judge(0, checks.loopback_failures, doc_a, doc_b, alice, bob, BLOCKS)
    assert checks.judge(0, checks.transcript_failures, doc, tampered)


def test_nonzero_exit_fails(session, tmp_path):
    doc, alice, bob = session
    assert checks.judge(3, checks.session_failures, doc, alice, bob, BLOCKS)
    # A real capacity error: 40 bits do not fit in 4 pairs.
    code, *_ = invoke(["simulate", "--pairs", "4", "--alice-msg", alice,
                         "--out", str(tmp_path / "none.json")])
    assert code == 1
    assert checks.judge(code, checks.trials_failures, {}, 1)


def test_missing_output_fails(tmp_path):
    assert checks.judge(0, lambda: checks.trials_failures(
        json.loads((tmp_path / "absent.json").read_text()), 1))


def test_analysis_totals_must_be_exact(tmp_path):
    rng = random.Random(3)
    stored, report = tmp_path / "stored.json", tmp_path / "report.json"
    assert invoke(["simulate", "--pairs", str(PAIRS), "--alice-msg", random_bits(rng, PAIRS),
                   "--bob-msg", random_bits(rng, PAIRS), "--out", str(stored)])[0] == 0
    assert invoke(["analyze", str(stored), "--mc-blocks", "1000", "--out", str(report)])[0] == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert checks.analysis_failures(doc, "both", BLOCKS) == []
    assert checks.analysis_failures(doc, "a-only", BLOCKS)
    doc["session_totals"]["mi_alice_bits"] = 1e-12
    assert checks.analysis_failures(doc, "both", BLOCKS)


def test_verify_failure_line_fails():
    assert checks.verify_failures("[ok] a: fine\n[ok] b: fine\nall ok\n") == []
    assert checks.verify_failures("[ok] a: fine\n[FAIL] b: broken\n")
    assert checks.verify_failures("")


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m.name: m.unit for m in metrics.PER_LAYER}
    assert {w for m in metrics.PER_LAYER for w in m.workloads} <= {*WORKLOADS, "all"}


def test_serve_that_never_listens_times_out():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"],
                             stdout=subprocess.PIPE)
    try:
        t0 = time.monotonic()
        assert read_line(child.stdout, 0.2) == ""
        assert time.monotonic() - t0 < 5
    finally:
        child.kill()
        child.communicate()


def test_tracer_counts_socket_bytes():
    from tracing import Tracer

    tracer = Tracer()
    a, b = socket.socketpair()
    tracer.install()
    try:
        tracer.op_id = 1
        a.sendall(b"hello\n")
        assert b.recv(16) == b"hello\n"
    finally:
        tracer.uninstall()
        a.close()
        b.close()
    assert tracer.wire == {1: {"sent": 6, "received": 6}}


def test_speed_gauge_scales_an_op_by_the_slices_during_it():
    from run import GAUGE_NOMINAL_S, SpeedGauge
    from workloads import Op

    gauge = SpeedGauge()
    # (end time, CPU seconds): two slices end inside the op's window, [1, 3].
    gauge.slices = [(0.5, 0.001), (1.5, 0.003), (2.5, 0.003), (5.0, 0.009)]
    op = Op(2.0, cpu_seconds=1.006, started=1.0)
    assert gauge.cpu_seconds(op) == pytest.approx(1.0)
    assert gauge.normalised_cpu_seconds(op) == pytest.approx(GAUGE_NOMINAL_S / 0.003)
