"""Golden outputs, pinned byte for byte.

The stored run documents under tests/golden/ pin seeded sampling for every
mode, both fallbacks and an odd pair count, in json, csv and text (run-odd
holds the "final odd pair idle" line); the stored analyze reports pin
the eavesdropper analyzer under uniform, skewed and point priors (the point
prior makes some blocks inconsistent). run-mixed.json is run-bidirectional
with some measurement lines removed, so one transcript shows all four
announcement patterns. The serve and connect documents pin both halves of
a two-process session over loopback, the trials*.json documents pin
`simulate --trials` in each mode, and verify.txt and verify.json pin what
`swapcomm verify` prints in text and json, so a flipped draw in its
sampling check shows.

Regenerate (only when a change to the bytes is intended and versioned):

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swapcomm import adversary, documents
from swapcomm.cli import main
from swapcomm.swap import ALL_OP_PAIRS, ENCODING_ORDER, generate_decode_table

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "bidirectional": ["--pairs", "16", "--seed", "11",
                      "--alice-msg", "0110100111", "--bob-msg", "1100101101011"],
    "a-to-b-silent": ["--pairs", "12", "--seed", "12", "--mode", "a-to-b",
                      "--fallback", "silent", "--alice-msg", "101101001110"],
    "b-to-a-silent": ["--pairs", "12", "--seed", "13", "--mode", "b-to-a",
                      "--fallback", "silent", "--bob-msg", "0011101"],
    "odd": ["--pairs", "13", "--seed", "14",
            "--alice-msg", "111000110101", "--bob-msg", "01001"],
}
# The other formats of a single-session document: golden run-{run}.{suffix}.
FORMATS = {"csv": "csv", "text": "txt"}
# Two-process sessions: (serve flags, connect flags). Each side gets only
# its own message.
NETWORKED = {
    "bidirectional": (["--pairs", "16", "--seed", "11", "--alice-msg", "0110100111"],
                      ["--pairs", "16", "--seed", "11", "--bob-msg", "1100101101011"]),
    "a-to-b-silent": (["--pairs", "12", "--seed", "12", "--mode", "a-to-b",
                       "--fallback", "silent", "--alice-msg", "101101001110"],
                      ["--pairs", "12", "--seed", "12", "--mode", "a-to-b",
                       "--fallback", "silent"]),
}
# `simulate --trials` documents: golden trials{name}.json. The 41-pair runs
# cover an odd pair count, a message at full capacity (40 bits), odd-length
# messages, both fallbacks and an absent message.
TRIALS = {
    "": ["--trials", "5", "--pairs", "8", "--seed", "3",
         "--alice-msg", "0110", "--bob-msg", "101"],
    "-a-to-b-random": ["--trials", "64", "--pairs", "41", "--seed", "21",
                       "--mode", "a-to-b", "--fallback", "random",
                       "--alice-msg", "1011001110001111000010110100101101001110"],
    "-b-to-a-silent": ["--trials", "64", "--pairs", "41", "--seed", "-22",
                       "--mode", "b-to-a", "--fallback", "silent",
                       "--bob-msg", "0110100111010"],
    "-bidirectional-one-message": ["--trials", "64", "--pairs", "41",
                                   "--seed", "18446744073709551615",
                                   "--bob-msg", "110010110101100"],
}
# run-mixed drops these (block, side) measurement lines from run-bidirectional.
MIXED_DROPS = {(2, "A"), (3, "B"), (4, "A"), (4, "B")}
DOCUMENTS = (*RUNS, "mixed")
PRIORS = ("uniform", "@priors-skewed.json", "@priors-point.json")
ANALYZE_FLAGS = ["--mc-blocks", "2000", "--seed", "5"]


def _priors_name(priors: str) -> str:
    return priors.removeprefix("@priors-").removesuffix(".json")


def _analyze(document: str, priors: str, out: Path) -> int:
    # Run from the golden directory: the report quotes the --priors argument.
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        return main(["analyze", f"run-{document}.json", "--priors", priors,
                     *ANALYZE_FLAGS, "--out", str(out)])
    finally:
        os.chdir(cwd)


def _serve_connect(run: str, serve_out: Path, connect_out: Path) -> None:
    """Serve in a child process, connect in this one; both write documents."""
    serve_flags, connect_flags = NETWORKED[run]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "swapcomm", "serve", "--listen", "127.0.0.1:0",
         *serve_flags, "--out", str(serve_out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = server.stdout.readline().strip()
        assert banner.startswith("listening "), server.stderr.read()
        peer = banner.split()[1]
        assert main(["connect", "--peer", peer, *connect_flags,
                     "--out", str(connect_out)]) == 0
        assert server.wait(timeout=15) == 0
    finally:
        if server.poll() is None:
            server.kill()
        server.communicate()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_document_bytes(run, tmp_path):
    out = tmp_path / "run.json"
    assert main(["simulate", *RUNS[run], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"run-{run}.json").read_bytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_document_bytes_in_other_formats(run, fmt, tmp_path):
    out = tmp_path / "run.out"
    assert main(["simulate", *RUNS[run], "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"run-{run}.{FORMATS[fmt]}").read_bytes()


@pytest.mark.parametrize("priors", PRIORS)
@pytest.mark.parametrize("document", DOCUMENTS)
def test_analyze_report_bytes(document, priors, tmp_path):
    out = tmp_path / "report.json"
    assert _analyze(document, priors, out) == 0
    golden = GOLDEN / f"analyze-{document}-{_priors_name(priors)}.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("run", sorted(NETWORKED))
def test_serve_connect_document_bytes(run, tmp_path):
    serve_out, connect_out = tmp_path / "serve.json", tmp_path / "connect.json"
    _serve_connect(run, serve_out, connect_out)
    assert serve_out.read_bytes() == (GOLDEN / f"serve-{run}.json").read_bytes()
    assert connect_out.read_bytes() == (GOLDEN / f"connect-{run}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trials_document_bytes(name, tmp_path):
    out = tmp_path / "trials.json"
    assert main(["simulate", *TRIALS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"trials{name}.json").read_bytes()


def test_verify_output_bytes(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify.txt").read_bytes()


def test_verify_json_output_bytes(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify.json").read_bytes()


@pytest.mark.parametrize("pattern", ["both", "a-only"])
def test_large_documents_equal_indented_json_dumps(pattern, tmp_path, monkeypatch):
    """At 20 000 pairs block rows repeat far more than in the goldens. What
    render_json writes must equal json.dumps(indent=2) of the document it
    was given, and of the document read back from the file."""
    checks = []

    def checked_render_json(doc, write):
        pieces = []

        def passed_on(piece):
            pieces.append(piece)
            write(piece)

        real_render_json(doc, passed_on)
        checks.append("".join(pieces) == json.dumps(doc, indent=2, default=list) + "\n")

    real_render_json = documents.RENDERERS["json"]
    monkeypatch.setitem(documents.RENDERERS, "json", checked_render_json)
    bits = np.random.default_rng(7).integers(2, size=20_000)
    message = tmp_path / "message.txt"
    message.write_text("".join(map(str, bits)))
    flags = (["--alice-msg", f"@{message}", "--bob-msg", f"@{message}"] if pattern == "both"
             else ["--mode", "a-to-b", "--fallback", "silent", "--alice-msg", f"@{message}"])
    run, report = tmp_path / "run.json", tmp_path / "report.json"
    assert main(["simulate", "--pairs", "20000", "--seed", "9", *flags, "--out", str(run)]) == 0
    assert main(["analyze", str(run), "--out", str(report)]) == 0
    assert checks == [True, True]
    for out in (run, report):
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_goldens_cover_all_patterns_and_inconsistency():
    mixed = json.loads((GOLDEN / "analyze-mixed-uniform.json").read_text())
    assert {b["pattern"] for b in mixed["blocks"]} == {
        "both", "a-only", "b-only", "none"}
    point = json.loads((GOLDEN / "analyze-bidirectional-point.json").read_text())
    assert point["session_totals"]["inconsistent_blocks"]


# Reference: the per-pattern likelihood builder the single table replaced.
_LABEL_INDEX = {lab: i for i, lab in enumerate(ENCODING_ORDER)}


def _reference_likelihood_matrix(pattern: str) -> np.ndarray:
    table = generate_decode_table()
    col = np.zeros((4, 4), dtype=np.int64)
    for outcome, label in table.infer.items():
        col[_LABEL_INDEX[outcome.a_side], _LABEL_INDEX[outcome.b_side]] = (
            _LABEL_INDEX[label]
        )
    comp = np.zeros(16, dtype=np.int64)
    for a, b in ALL_OP_PAIRS:
        comp[4 * a.code + b.code] = _LABEL_INDEX[table.composite[(a, b)]]
    if pattern == "both":
        lik = np.zeros((16, 16))
        for a_idx in range(4):
            for b_idx in range(4):
                lik[comp == col[a_idx, b_idx], 4 * a_idx + b_idx] = 0.25
        return lik
    if pattern == "a-only":
        lik = np.zeros((16, 4))
        for a_idx in range(4):
            for b_idx in range(4):
                lik[comp == col[a_idx, b_idx], a_idx] += 0.25
        return lik
    if pattern == "b-only":
        lik = np.zeros((16, 4))
        for a_idx in range(4):
            for b_idx in range(4):
                lik[comp == col[a_idx, b_idx], b_idx] += 0.25
        return lik
    return np.ones((16, 1))


@pytest.mark.parametrize("pattern", ["both", "a-only", "b-only", "none"])
def test_table_marginals_equal_reference(pattern):
    table = adversary._likelihoods()[:, adversary._VIEWS[pattern]]
    assert np.array_equal(table, _reference_likelihood_matrix(pattern))


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    weights_a = dict(zip("0123", (0.4, 0.3, 0.2, 0.1)))
    weights_b = dict(zip("0123", (0.15, 0.25, 0.35, 0.25)))
    skewed = {f"U{a},U{b}": weights_a[a] * weights_b[b]
              for a in "0123" for b in "0123"}
    point = {f"U{a},U{b}": 1.0 if (a, b) == ("1", "0") else 0.0
             for a in "0123" for b in "0123"}
    (GOLDEN / "priors-skewed.json").write_text(json.dumps(skewed, indent=2) + "\n")
    (GOLDEN / "priors-point.json").write_text(json.dumps(point, indent=2) + "\n")
    for run, flags in RUNS.items():
        assert main(["simulate", *flags, "--out", str(GOLDEN / f"run-{run}.json")]) == 0
        for fmt, suffix in FORMATS.items():
            out = GOLDEN / f"run-{run}.{suffix}"
            assert main(["simulate", *flags, "--format", fmt, "--out", str(out)]) == 0

    def kept(line: str) -> bool:
        ann = json.loads(line)
        return ann["kind"] != "Measurement" or (ann["blk"], ann["side"]) not in MIXED_DROPS

    doc = json.loads((GOLDEN / "run-bidirectional.json").read_text())
    doc["transcript"] = [line for line in doc["transcript"] if kept(line)]
    (GOLDEN / "run-mixed.json").write_text(json.dumps(doc, indent=2) + "\n")
    for document in DOCUMENTS:
        for priors in PRIORS:
            out = GOLDEN / f"analyze-{document}-{_priors_name(priors)}.json"
            assert _analyze(document, priors, out) == 0
    for run in NETWORKED:
        _serve_connect(run, GOLDEN / f"serve-{run}.json", GOLDEN / f"connect-{run}.json")
    for name, flags in TRIALS.items():
        assert main(["simulate", *flags, "--out", str(GOLDEN / f"trials{name}.json")]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        assert main(["verify"]) == 0
    (GOLDEN / "verify.txt").write_text(verify_out.getvalue(), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        assert main(["verify", "--format", "json"]) == 0
    (GOLDEN / "verify.json").write_text(verify_out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
