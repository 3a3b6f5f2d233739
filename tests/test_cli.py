import contextlib
import dataclasses
import copy
import functools
import io
import json
import random
import resource
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import reference_analysis
import reference_documents
import reference_replay
from swapcomm import cli, documents, jsontext, protocol
from swapcomm.adversary import (
    EveView,
    PosteriorReport,
    eve_posterior,
    independent_priors,
    information_summary,
    point_prior,
    uniform_priors,
)
from swapcomm.channel import (
    MAX_FRAME_BYTES,
    PUBLIC_PREAMBLE,
    SUBSTRATE_PREAMBLE,
    Announcement,
    FrameError,
    SessionListener,
)
from swapcomm.cli import main
from swapcomm.protocol import (
    CapacityError,
    MessageBits,
    ReplayError,
    SessionConfig,
    SessionError,
    SessionMode,
    SilentFallback,
    run_session,
    substrate_hello,
)
from swapcomm.quantum import PauliCode


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


class TestSimulate:
    def test_worked_example_document(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, _ = run_cli(
            "simulate", "--pairs", "6", "--alice-msg", "011110",
            "--bob-msg", "101100", "--seed", "7", "--out", str(out),
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["private"]["decoded_by_alice"] == "101100"
        assert doc["private"]["decoded_by_bob"] == "011110"
        assert doc["summary"]["decode_ok_alice"] is True
        assert doc["summary"]["decode_ok_bob"] is True
        assert doc["session"]["seed"] == 7

    def test_byte_identical_documents(self, tmp_path):
        flags = ["simulate", "--pairs", "10", "--alice-msg", "0x3c",
                 "--bob-msg", "01", "--seed", "123"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(flags + ["--out", str(out1)]) == 0
        assert main(flags + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_odd_pair_reported_idle(self, capsys):
        code, out = run_cli(
            "simulate", "--pairs", "5", "--alice-msg", "0111",
            "--format", "text", capsys=capsys,
        )
        assert code == 0
        assert "final odd pair idle" in out.out

    def test_capacity_violation_exit_code_and_message(self, capsys):
        code, out = run_cli(
            "simulate", "--pairs", "4", "--alice-msg", "011011", capsys=capsys
        )
        assert code == 1
        assert "6 pairs" in out.err and "has 4" in out.err

    def test_hex_message_equals_bits(self, tmp_path):
        out_hex, out_bits = tmp_path / "h.json", tmp_path / "b.json"
        main(["simulate", "--pairs", "8", "--alice-msg", "0xa5",
              "--seed", "3", "--out", str(out_hex)])
        main(["simulate", "--pairs", "8", "--alice-msg", "10100101",
              "--seed", "3", "--out", str(out_bits)])
        assert out_hex.read_bytes() == out_bits.read_bytes()

    def test_message_from_file(self, tmp_path, capsys):
        msg = tmp_path / "msg.txt"
        msg.write_text("0110\n")
        code, out = run_cli(
            "simulate", "--pairs", "4", "--alice-msg", f"@{msg}", capsys=capsys
        )
        assert code == 0
        assert json.loads(out.out)["private"]["alice_message"] == "0110"

    def test_csv_format(self, capsys):
        code, out = run_cli(
            "simulate", "--pairs", "4", "--alice-msg", "0110",
            "--bob-msg", "1001", "--format", "csv", capsys=capsys,
        )
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "index,op_a,op_b,outcome_a,outcome_b,announced_a,announced_b"
        assert len(lines) == 3

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_no_write_holds_the_whole_document(self, fmt, tmp_path, monkeypatch):
        lengths = []
        renderer = documents.RENDERERS[fmt]

        def recorded(doc, write):
            def passed_on(piece):
                lengths.append(len(piece))
                write(piece)

            renderer(doc, passed_on)

        monkeypatch.setitem(documents.RENDERERS, fmt, recorded)
        out = tmp_path / "run"
        # Five slices of block rows, the whole of a csv table or text trace.
        pairs = str(10 * _CHUNK)
        assert main(["simulate", "--pairs", pairs, "--seed", "4", "--format", fmt,
                     "--out", str(out)]) == 0
        size = out.stat().st_size
        assert sum(lengths) == size  # the text is ASCII: every byte went through the writer
        assert max(lengths) < size / 4

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_stdout_is_what_out_writes(self, fmt, tmp_path, capsys):
        flags = ["simulate", "--pairs", "20000", "--seed", "4", "--format", fmt]
        out = tmp_path / "run"
        assert main([*flags, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(flags) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPCOMM_OUT_DIR", str(tmp_path))
        assert main(["simulate", "--pairs", "2", "--out", "sub/run.json"]) == 0
        assert (tmp_path / "sub" / "run.json").exists()

    def test_trials_aggregate(self, capsys):
        code, out = run_cli(
            "simulate", "--pairs", "8", "--alice-msg", "0110", "--bob-msg", "10",
            "--seed", "5", "--trials", "8", capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out.out)
        assert doc["kind"] == "simulate-trials"
        assert doc["summary"] == {"trials": 8, "all_decodes_exact": True}
        assert len({row["seed"] for row in doc["trials"]}) == 8

    @pytest.mark.parametrize("workers", ["2", "0", "-2"])
    def test_workers_is_a_usage_error(self, workers, tmp_path, capsys):
        """--trials runs in one process; the worker-pool option is gone."""
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--pairs", "6", "--alice-msg", "01", "--seed", "9",
                  "--trials", "4", "--workers", workers, "--out", str(out)])
        assert err.value.code == 1
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_read_file_and_hex_messages(self, tmp_path):
        msg = tmp_path / "alice.txt"
        msg.write_text("10100101\n")
        flags = ["simulate", "--pairs", "8", "--seed", "4", "--trials", "3"]
        inline, from_file, from_hex = (tmp_path / f"{n}.json" for n in "ifh")
        assert main(flags + ["--alice-msg", "10100101", "--bob-msg", "0110",
                             "--out", str(inline)]) == 0
        assert main(flags + ["--alice-msg", f"@{msg}", "--bob-msg", "0110",
                             "--out", str(from_file)]) == 0
        assert main(flags + ["--alice-msg", "0xa5", "--bob-msg", "0x6",
                             "--out", str(from_hex)]) == 0
        assert from_file.read_bytes() == inline.read_bytes()
        assert from_hex.read_bytes() == inline.read_bytes()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--pairs", "not-a-number"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, flag, bound", [
        (["simulate", "--pairs", "6", "--trials", "0"], "--trials", "at least"),
        (["simulate", "--pairs", "6", "--trials", "-3"], "--trials", "at least"),
        # A trial index is one 32-bit spawn word: 2^32 trials at most.
        (["simulate", "--pairs", "6", "--trials", str(2**32 + 1)], "--trials", "at most"),
        (["analyze", "run.json", "--mc-blocks", "-5"], "--mc-blocks", "at least"),
    ])
    def test_out_of_range_count_is_a_usage_error(self, argv, flag, bound, tmp_path, capsys):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 1
        assert f"argument {flag}: must be {bound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_trials_in_a_session_format_is_a_usage_error(self, fmt, tmp_path, capsys):
        out = tmp_path / "never.json"
        code, captured = run_cli("simulate", "--pairs", "6", "--trials", "3", "--format", fmt,
                                 "--out", str(out), capsys=capsys)
        assert code == 1
        assert f"--format {fmt}" in captured.err
        assert not out.exists()

    def test_one_trial_writes_a_session_run(self, capsys):
        code, out = run_cli("simulate", "--pairs", "6", "--trials", "1", capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["kind"] == "session-run"


def _reference_trial_seed(seed: int, trial: int) -> int:
    seq = np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=(trial,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _reference_run_trial(payload: tuple[SessionConfig, int]) -> dict:
    """The trial row as a full session gives it: one run_session per trial."""
    base, trial = payload
    config = dataclasses.replace(base, seed=_reference_trial_seed(base.seed, trial))
    result = run_session(config)
    return {
        "trial": trial,
        "seed": config.seed,
        "decode_ok_alice": documents.decode_ok(result.decoded_by_alice, config.bob_message),
        "decode_ok_bob": documents.decode_ok(result.decoded_by_bob, config.alice_message),
        "session_id": result.transcript.session_id,
    }


def _outcome(fn):
    """fn()'s value, or the type and text of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _trial_configs(draw):
    """Session configs of every mode and fallback, 0-41 pairs, with each
    message absent, empty, random (odd lengths too), at full capacity or,
    rarely, beyond it or given to a side with no sending role."""
    n_pairs = draw(st.integers(0, 41))
    mode = draw(st.sampled_from(list(SessionMode)))
    capacity = 2 * (n_pairs // 2)

    def message(sends):
        kind = draw(st.sampled_from(
            ["absent", "empty", "random", "full", "over"] if sends else ["absent", "empty", "role"]
        ))
        if kind == "absent":
            return None
        length = {"empty": 0, "full": capacity, "over": capacity + 1, "role": 1,
                  "random": draw(st.integers(0, capacity))}[kind]
        return MessageBits.from_bits("".join(draw(st.lists(
            st.sampled_from("01"), min_size=length, max_size=length))))

    return SessionConfig(
        n_pairs=n_pairs,
        mode=mode,
        fallback=draw(st.sampled_from(list(SilentFallback))),
        seed=draw(st.one_of(st.sampled_from([0, -5, 2**32, 2**64 - 1]), st.integers())),
        alice_message=message(mode is not SessionMode.BOB_TO_ALICE),
        bob_message=message(mode is not SessionMode.ALICE_TO_BOB),
    )


class TestTrialRows:
    """The batched trials pass against one full session per trial."""

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @settings(max_examples=120, deadline=None)
    @given(config=_trial_configs(), trials=st.integers(1, 20))
    def test_rows_equal_one_session_per_trial(self, chunk, config, trials):
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:  # many chunks of rows, or one row a chunk
                patch.setattr(protocol, "_TRIAL_CHUNK_BLOCKS", chunk)
            got = _outcome(lambda: cli._trial_rows(config, trials))
        want = _outcome(lambda: [_reference_run_trial((config, t)) for t in range(trials)])
        assert got == want

    def test_capacity_error_matches_a_session(self):
        config = SessionConfig(n_pairs=7, seed=3, alice_message=MessageBits.from_bits("1" * 7))
        with pytest.raises(CapacityError) as batched:
            cli._trial_rows(config, 5)
        with pytest.raises(CapacityError) as session:
            _reference_run_trial((config, 0))
        assert str(batched.value) == str(session.value)
        assert "7-bit message needs 8 pairs" in str(batched.value)

    def test_zero_pairs(self):
        config = SessionConfig(n_pairs=0, seed=-5, alice_message=MessageBits.from_bits(""))
        rows = cli._trial_rows(config, 3)
        assert rows == [_reference_run_trial((config, t)) for t in range(3)]
        assert {row["decode_ok_bob"] for row in rows} == {True}


class TestTable:
    def test_document_contents(self, capsys):
        code, out = run_cli("table", capsys=capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["combos"]["PsiMinus"] == [
            ["U0", "U1"], ["U1", "U0"], ["U2", "U3"], ["U3", "U2"],
        ]
        assert len(doc["infer"]) == 16
        assert doc["audit"]["total_discrepancies"] == 6
        assert doc["composite"]["U2,U3"] == "PsiMinus"


class TestVerify:
    def test_passes_and_prints_summary(self, capsys):
        code, out = run_cli("verify", capsys=capsys)
        assert code == 0
        assert "16/16 decompositions exact" in out.out
        assert "4 columns x 4 outcomes" in out.out
        assert "16/16 decode round-trips" in out.out

    def test_failure_exits_2_and_enumerates(self, capsys, monkeypatch):
        import swapcomm.cli as cli_module
        from swapcomm.verify import CheckResult, VerificationReport

        def broken():
            checks = [
                CheckResult("decompositions", False, "15/16 decompositions exact",
                            ["PsiPlusxPsiPlus: re-summation off by (0.25+0j)"]),
                CheckResult("column-partition", True, "4 columns x 4 outcomes"),
                CheckResult("decode-round-trips", True, "16/16 decode round-trips"),
            ]
            return VerificationReport(checks=checks)

        monkeypatch.setattr(cli_module, "run_verification", broken)
        code, out = run_cli("verify", capsys=capsys)
        assert code == 2
        assert "[FAIL] decompositions" in out.out
        assert "re-summation off by" in out.out
        code, out = run_cli("verify", "--format", "json", capsys=capsys)
        assert code == 2
        doc = json.loads(out.out)
        assert doc["checks"][0] == {
            "name": "decompositions", "passed": False,
            "detail": "15/16 decompositions exact",
            "failures": ["PsiPlusxPsiPlus: re-summation off by (0.25+0j)"],
        }

    def test_json_records_match_text_lines(self, capsys):
        code, text = run_cli("verify", "--format", "text", capsys=capsys)
        assert code == 0
        code, out = run_cli("verify", "--format", "json", capsys=capsys)
        assert code == 0
        assert out.out == json.dumps(json.loads(out.out), indent=2) + "\n"
        doc = json.loads(out.out)
        assert doc["kind"] == "verification-report"
        lines = []
        for record in doc["checks"]:
            assert list(record) == ["name", "passed", "detail", "failures"]
            status = "ok" if record["passed"] else "FAIL"
            lines.append(f"[{status}] {record['name']}: {record['detail']}")
            lines.extend(f"       {failure}" for failure in record["failures"])
        # Text adds one summary line after the per-check lines.
        assert text.out.splitlines()[:-1] == lines
        assert len(lines) == 12

    def test_unknown_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--format", "csv"])
        assert err.value.code == 1
        assert "invalid choice: 'csv'" in capsys.readouterr().err


# Values that compare equal but render differently, and other edge cases,
# shared by identity the way documents share them.
_TRICKY = [1, True, 1.0, 0, False, 0.0, -0.0, float("nan"), float("inf"),
           float("-inf"), None, [], {}, "", "\u00fc\u2028", "\"\\"]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.sampled_from(_TRICKY))
_JSON_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _rows(draw):
    """Rows that share key and value objects, so that bodies repeat."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    pools = [draw(st.lists(_JSON_TREES, min_size=1, max_size=3)) for _ in keys[1:]]
    firsts = st.integers() if draw(st.booleans()) else _SCALARS
    return [
        {keys[0]: draw(firsts),
         **{key: draw(st.sampled_from(pool)) for key, pool in zip(keys[1:], pools)}}
        for _ in range(draw(st.integers(0, 30)))
    ]


_ROWS = _rows()
_CHUNK = jsontext._CHUNK


def _without_session_id(doc):
    del doc["session"]["id"]


def _with_string_block(doc):
    doc["transcript"][2] = doc["transcript"][2].replace('"blk":1,', '"blk":"1",')


def _with_block_past_end(doc):
    doc["transcript"][9] = doc["transcript"][9].replace('"blk":4,', '"blk":5,')


def _with_string_pairs(doc):
    doc["session"]["n_pairs"] = "8"


def _with_block_of(line: int, old: int, new: int):
    """A tamper that gives transcript line `line` block `new` for `old`."""

    def tamper(doc):
        doc["transcript"][line] = doc["transcript"][line].replace(
            f'"blk":{old},', f'"blk":{new},'
        )

    return tamper


def _with_foreign_session_line(doc):
    doc["transcript"][3] = doc["transcript"][3].replace(doc["session"]["id"], "0" * 16)


def _with_number_line(doc):
    doc["transcript"][2] = 7


def _as_list(doc):
    return [1, 2]


def _with_list_session(doc):
    return {"session": [], "transcript": []}


def _bounded_analyze(*argv):
    """`swapcomm analyze` in a child process with 1 GiB of address space and
    a deadline, so that a regression fails the test instead of exhausting
    the machine."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "swapcomm", "analyze", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )


class TestAnalyze:
    @pytest.fixture()
    def run_doc(self, tmp_path):
        path = tmp_path / "run.json"
        main(["simulate", "--pairs", "8", "--alice-msg", "01111010",
              "--bob-msg", "10110001", "--seed", "42", "--out", str(path)])
        return path

    def test_uniform_priors_report(self, run_doc, capsys):
        code, out = run_cli("analyze", str(run_doc), capsys=capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["kind"] == "posterior-report"
        assert doc["session_totals"]["mi_alice_bits"] == 0.0
        assert doc["session_totals"]["mi_bob_bits"] == 0.0
        assert doc["session_totals"]["mi_joint_bits"] == 8.0
        assert all(b["consistent"] for b in doc["blocks"])
        assert all(len(b["posterior"]) == 4 for b in doc["blocks"])

    def test_monte_carlo_section(self, run_doc, capsys):
        code, out = run_cli(
            "analyze", str(run_doc), "--mc-blocks", "20000", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out.out)
        assert abs(doc["monte_carlo"]["both"]["mi_joint_bits"] - 2.0) < 0.05

    def test_priors_file(self, run_doc, tmp_path, capsys):
        priors = {f"U{a},U{b}": 1 / 16 for a in range(4) for b in range(4)}
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        code, out = run_cli(
            "analyze", str(run_doc), "--priors", f"@{path}", capsys=capsys
        )
        assert code == 0

    def test_bad_priors_rejected(self, run_doc, tmp_path, capsys):
        path = tmp_path / "priors.json"
        path.write_text('{"U9,U0": 1.0}')
        code, out = run_cli(
            "analyze", str(run_doc), "--priors", f"@{path}", capsys=capsys
        )
        assert code == 1
        assert "unknown operation pair" in out.err

    @pytest.mark.parametrize("content, message", [
        ('{"U0,U0": NaN}', "non-finite prior"),
        ('{"U0,U0": Infinity}', "non-finite prior"),
        ('[["U0,U0", 1.0]]', "must hold an object"),
        ('{"U0,U0": null}', "is not a number"),
        pytest.param('{"U0,U0": 1, "U0,U0": 2}', "duplicate key 'U0,U0' in priors file",
                     id="duplicate-key"),
        pytest.param('{"U0,U0": 1' + "0" * 400 + "}", "prior for U0,U0 is out of range",
                     id="integer-beyond-float-range"),
    ])
    def test_malformed_priors_rejected(self, run_doc, tmp_path, capsys,
                                       content, message):
        path = tmp_path / "priors.json"
        path.write_text(content)
        code, out = run_cli(
            "analyze", str(run_doc), "--priors", f"@{path}", capsys=capsys
        )
        assert code == 1
        assert message in out.err

    @pytest.mark.parametrize("tamper, message", [
        (_without_session_id, "missing 'id'"),
        (_with_string_block, "blk must be an integer"),
        (_with_block_past_end, "measurement for block 5 outside 1..4"),
        (_with_string_pairs, "session n_pairs has the wrong type"),
        (_with_number_line, "transcript must be a list of wire lines"),
        (_as_list, "document must be a JSON object"),
        (_with_list_session, "session must be a JSON object"),
        # Lines 2-9 announce blocks 1-4, side A then B; lines 0, 1, 10 and
        # 11 are the start and end lines, of block 0.
        pytest.param(_with_block_of(4, 2, 1), "side A announced block 1 twice",
                     id="duplicate-a-measurement"),
        pytest.param(_with_block_of(5, 2, 1), "side B announced block 1 twice",
                     id="duplicate-b-measurement"),
        pytest.param(_with_foreign_session_line, "transcript line 3 names session "
                     "'0000000000000000', not the document's", id="foreign-session-id"),
        pytest.param(_with_block_of(10, 0, 10**30), f"transcript line 10: block {10**30} "
                     f"is above {2**63 - 1}", id="huge-control-block"),
        pytest.param(_with_block_of(2, 1, 0), "measurement for block 0 outside 1..4",
                     id="measurement-on-block-0"),
    ])
    def test_hostile_document_rejected(self, run_doc, capsys, tamper, message):
        doc = json.loads(run_doc.read_text())
        doc = tamper(doc) or doc  # a tamper edits the document or replaces it
        run_doc.write_text(json.dumps(doc))
        code, out = run_cli("analyze", str(run_doc), capsys=capsys)
        assert code == 1
        assert message in out.err

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc["transcript"].insert(2, "[" * 10**5),
         "transcript line 2 is longer than 1023 bytes"),
        (lambda doc: doc["session"].update(alice_declared_length=-1),
         "session alice_declared_length must be non-negative"),
        (lambda doc: doc["session"].update(n_pairs=-2),
         "session n_pairs must be non-negative"),
        (lambda doc: doc["session"].update(n_pairs=10**9),
         "needs 500000000 blocks but the transcript has only 12 lines"),
    ], ids=["long-line", "negative-declared-length", "negative-n-pairs",
            "n-pairs-beyond-transcript"])
    def test_document_bounded_by_its_size(self, run_doc, tamper, message):
        doc = json.loads(run_doc.read_text())
        tamper(doc)
        run_doc.write_text(json.dumps(doc))
        proc = _bounded_analyze(str(run_doc))
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("nested", ["document", "priors"])
    def test_deeply_nested_file_rejected(self, run_doc, tmp_path, nested):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        argv = [str(deep)] if nested == "document" else [str(run_doc), "--priors", f"@{deep}"]
        proc = _bounded_analyze(*argv)
        assert proc.returncode == 1, proc.stderr
        assert "nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_input_file(self, capsys):
        code, out = run_cli("analyze", "/nonexistent/run.json", capsys=capsys)
        assert code == 1

    def test_analyze_builds_no_announcements_or_block_posteriors(
        self, run_doc, tmp_path, monkeypatch
    ):
        expected = tmp_path / "expected.json"
        # This run also caches the session's wire template, whose making
        # builds Announcements.
        assert main(["analyze", str(run_doc), "--out", str(expected)]) == 0

        def built(*args):
            raise AssertionError("analyze built a per-line or per-block object")

        monkeypatch.setattr(Announcement, "__post_init__", built)
        monkeypatch.setattr(PosteriorReport, "blocks", property(built))
        out = tmp_path / "report.json"
        assert main(["analyze", str(run_doc), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()


class TestDocuments:
    def test_replay_document_round_trip(self):
        config = SessionConfig(
            n_pairs=8, seed=77,
            alice_message=MessageBits.from_bits("0101"),
            bob_message=MessageBits.from_bits("111000"),
        )
        result = run_session(config)
        doc = documents.run_document(config, result)
        again = documents.replay_document(json.loads(json.dumps(doc, default=list)))
        assert again.decoded_by_alice == result.decoded_by_alice
        assert again.decoded_by_bob == result.decoded_by_bob

    def test_render_text_has_block_trace(self):
        config = SessionConfig(
            n_pairs=6, seed=7,
            alice_message=MessageBits.from_bits("011110"),
            bob_message=MessageBits.from_bits("101100"),
        )
        doc = documents.run_document(config, run_session(config))
        text = documents.render(doc, "text")
        assert "block 1: pairs (1,2)" in text
        assert "decoded by bob:   011110" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            documents.render({}, "yaml")

    @settings(max_examples=200, deadline=None)
    @given(tree=_JSON_TREES, rows=_ROWS, lines=st.lists(st.text()))
    def test_render_json_is_indented_json_dumps(self, tree, rows, lines):
        for doc in (tree, rows, {"tree": tree, "rows": rows,
                                 "nested": {"rows": rows, "lines": lines}}):
            assert documents.render(doc, "json") == json.dumps(doc, indent=2) + "\n"

    def test_render_json_of_shapes_the_tree_strategy_never_draws(self):
        rows = jsontext.KeyedItems([{"index": 0, "x": [1]}, {"index": 0, "x": "y"}], [0, 1, 0])
        for doc in ((1, "a", (2.5, None)), {"t": (1, [2, (3,)]), "u": ()},
                    {1: "a", 2: {"b": 3}}, {1.5: 0, True: 1, None: 2, "s": [4]},
                    {"a": {False: [1], "b": 2}}, 7, "text\n", None, -1.5, True, [], [1, [2]],
                    {}, {"e": {}, "f": []}, [{"a": 1}, rows, {"b": rows}],
                    {"list": [rows, {"c": 2}], "rows": rows}):
            assert documents.render(doc, "json") == json.dumps(doc, indent=2, default=list) + "\n"
        looped = [1]
        looped.append(looped)
        for bad in ({1, 2}, {"a": {"b": {1}}}, [{"c": {1}}], looped, {"a": looped}):
            with pytest.raises((TypeError, ValueError)) as want:
                json.dumps(bad, indent=2)
            with pytest.raises(type(want.value)) as got:
                documents.render(bad, "json")
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_repeated_rows_of_equal_values_render_apart(self):
        # Equal values that render differently, each a kind repeated in one column.
        column = [1, True, 1.0, 0.0, -0.0, float("nan"), float("inf"), [], {}, "\u00fc"]
        kinds = [{"index": 0, "x": x, "y": None} for x in column]
        which = [i % len(column) for i in range(60)]
        rows = jsontext.KeyedItems(kinds, which, range(60))
        assert list(rows) == [{"index": i, "x": column[i % len(column)], "y": None}
                              for i in range(60)]
        doc = {"rows": rows}
        assert documents.render(doc, "json") == json.dumps(doc, indent=2, default=list) + "\n"

    def test_keyed_items_read_as_their_list(self):
        kinds = [{"index": 0, "x": [1]}, {"index": 0, "x": "\u00fc"}]
        which, keys = [1, 0, 1, 1], [5, -3, 10**20, 0]
        rows = jsontext.KeyedItems(kinds, which, keys)
        expected = [{**kinds[w], "index": k} for w, k in zip(which, keys)]
        assert rows == expected and expected == rows and rows != expected[:3]
        assert (len(rows), repr(rows), rows[1], rows[-1]) == (
            4, repr(expected), expected[1], expected[-1])
        assert rows[1:3] == expected[1:3] and list(reversed(rows)) == expected[::-1]
        rows[0]["x"] = "changed"  # a read row is a copy
        assert rows == expected
        lines = jsontext.KeyedItems(["b", '"\u00e9\n'], [0, 1], [7, 42], prefix="a\\")
        assert lines == ["a\\7b", 'a\\42"\u00e9\n']
        # Kinds whose first fields differ in name have no one head: refused.
        with pytest.raises(ValueError, match="first field"):
            jsontext.KeyedItems([{"a": 0, "x": 1}, {"bb": 0}], [0, 1, 0])
        for doc in ({"rows": rows, "lines": lines, "empty": jsontext.KeyedItems([], [], [])},
                    rows, lines, [rows, {"lines": lines}]):
            assert documents.render(doc, "json") == json.dumps(doc, indent=2, default=list) + "\n"
        with pytest.raises(TypeError):
            hash(rows)
        with pytest.raises(TypeError, match="ints"):
            documents.render({"rows": jsontext.KeyedItems(kinds, [0], [True])}, "json")
        with pytest.raises(TypeError, match="KeyedItems is not JSON serializable"):
            json.dumps({"rows": rows})
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            documents.render({"rows": rows, "other": {1}}, "json")

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("shape", ["dict", "prefix", "unlike"])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_streamed_keyed_items_at_slice_edges(self, n, shape, data):
        """A KeyedItems of dict kinds or of prefix kinds streams as json.dumps
        writes it, and past one slice no write holds more than one slice's
        text. Dict kinds whose first fields differ in name are refused."""
        if shape == "prefix":
            kinds = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4))
            prefix = data.draw(st.text(max_size=4))
        else:
            names = data.draw(st.lists(st.text(max_size=3), min_size=2, max_size=4, unique=True))
            firsts = names if shape == "unlike" else names[:1] * data.draw(st.integers(1, 4))
            fields = st.dictionaries(st.text(max_size=3).filter(lambda key: key not in names),
                                     _JSON_TREES, max_size=2)
            kinds, prefix = [{first: 0, **data.draw(fields)} for first in firsts], None
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        which = rng.choices(range(len(kinds)), k=n)
        keys = data.draw(st.sampled_from([None, [rng.randrange(-2**70, 2**70) for _ in which]]))
        if shape == "unlike":
            with pytest.raises(ValueError, match="first field"):
                jsontext.KeyedItems(kinds, which, keys, prefix)
            return
        rows = jsontext.KeyedItems(kinds, which, keys, prefix)
        depth = data.draw(st.integers(0, 2))
        value = rows
        for _ in range(depth):
            value = {"before": [0], "rows": value, "after": 1}
        pieces = []
        jsontext.stream(value, pieces.append)
        text = "".join(pieces)
        assert text == json.dumps(value, indent=2, default=list) + "\n"
        assert text == documents.render(value, "json")
        if n > _CHUNK:
            # The text of the longest slice as a list of its own, on a line
            # indented as deep as the column.
            pad = "\n" + "  " * depth
            longest = max(len(json.dumps(rows[start:start + _CHUNK], indent=2).replace("\n", pad))
                          for start in range(0, n, _CHUNK))
            assert max(map(len, pieces)) <= longest

    def test_unrendered_run_document_is_not_json_dumps_input(self):
        config = SessionConfig(n_pairs=8, seed=77, alice_message=MessageBits.from_bits("0101"))
        doc = documents.run_document(config, run_session(config))
        with pytest.raises(TypeError, match="KeyedItems is not JSON serializable"):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match="KeyedItems is not JSON serializable"):
            json.dumps(doc)


@st.composite
def _session_configs(draw):
    """Every mode and fallback; 0, 1, 2 or more pairs, odd and even; any
    seed; each sending side with no message or one within capacity."""
    n_pairs = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 81))
    mode = draw(st.sampled_from(list(SessionMode)))
    messages = st.none() | st.text("01", max_size=2 * (n_pairs // 2)).map(MessageBits.from_bits)
    return SessionConfig(
        n_pairs=n_pairs,
        mode=mode,
        fallback=draw(st.sampled_from(list(SilentFallback))),
        seed=draw(st.integers(-(2**64), 2**65)),
        alice_message=draw(messages) if mode is not SessionMode.BOB_TO_ALICE else None,
        bob_message=draw(messages) if mode is not SessionMode.ALICE_TO_BOB else None,
    )


@settings(max_examples=150, deadline=None)
@given(config=_session_configs())
def test_run_document_columns_render_as_json_dumps(config):
    result = run_session(config)
    doc = documents.run_document(config, result)
    assert doc["transcript"] == result.transcript.wire_lines()
    assert doc["private"]["blocks"] == [
        {"index": r.index, "op_a": r.op_a.name if r.op_a else None,
         "op_b": r.op_b.name if r.op_b else None,
         "outcome_a": r.outcome.a_side.value, "outcome_b": r.outcome.b_side.value,
         "announced_a": r.announced_a, "announced_b": r.announced_b}
        for r in result.blocks
    ]
    expected = json.dumps(doc, indent=2, default=list) + "\n"
    assert documents.render(doc, "json") == expected
    tuple_form = dataclasses.replace(
        result, transcript=dataclasses.replace(
            result.transcript, announcements=result.transcript.announcements
        ), blocks=result.blocks,
    )
    plain = documents.run_document(config, tuple_form)
    assert type(plain["transcript"]) is type(doc["transcript"])  # converted at construction
    assert documents.render(plain, "json") == expected


_ROW_BY_ROW = {"csv": reference_documents.render_csv, "text": reference_documents.render_text}


@settings(max_examples=150, deadline=None)
@given(config=_session_configs())
def test_csv_and_text_equal_the_row_by_row_renderers(config):
    """csv and text, written per kind of block row, give the bytes of the
    renderers that walked the rows one by one; so does the document read
    back from its JSON, whose rows are a plain list."""
    doc = documents.run_document(config, run_session(config))
    loaded = json.loads(documents.render(doc, "json"))
    for fmt, reference in _ROW_BY_ROW.items():
        expected = reference(doc)
        assert documents.render(doc, fmt) == expected
        assert documents.render(loaded, fmt) == expected


def test_csv_and_text_across_slice_edges():
    rng = random.Random(29)
    blocks = 2 * _CHUNK + 1
    config = SessionConfig(
        n_pairs=2 * blocks, seed=29,
        alice_message=MessageBits.from_bits("".join(rng.choice("01") for _ in range(blocks))),
        bob_message=MessageBits.from_bits("".join(rng.choice("01") for _ in range(blocks))),
    )
    doc = documents.run_document(config, run_session(config))
    loaded = json.loads(documents.render(doc, "json"))
    for fmt, reference in _ROW_BY_ROW.items():
        expected = reference(doc)
        assert documents.render(doc, fmt) == expected
        assert documents.render(loaded, fmt) == expected
    for index in ("5", True, 5.0, None):
        loaded["private"]["blocks"][blocks - 1]["index"] = index
        for fmt in _ROW_BY_ROW:
            with pytest.raises(ValueError, match="index must be an int"):
                documents.render(loaded, fmt)


@functools.lru_cache(maxsize=None)
def _small_run_documents():
    """Small valid run documents, as JSON text."""
    configs = [
        SessionConfig(n_pairs=9, seed=3, alice_message=MessageBits.from_bits("0110101"),
                      bob_message=MessageBits.from_bits("10")),
        SessionConfig(n_pairs=8, seed=-5, mode=SessionMode.ALICE_TO_BOB,
                      fallback=SilentFallback.ANNOUNCED_SILENCE,
                      alice_message=MessageBits.from_bits("011")),
    ]
    return tuple(documents.render(documents.run_document(config, run_session(config)), "json")
                 for config in configs)


def _paths(node, path=()):
    """The path of every value inside a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


# Replacement values. The large number is bounded too: as n_pairs it is
# rejected against the transcript's length, as a declared length against
# the decoded bits, before any work depends on it.
_RETYPED = st.sampled_from([None, True, -1, 0, 7, 10**12, 1.5, "x", "", [], {}, ["x"], {"x": 1}])
_EDIT_CHARS = st.sampled_from('"\\{}[],:0123456789 AB\x00\u00fc') | st.characters()


@st.composite
def _mutated_documents(draw):
    """A small valid run document with one value dropped or retyped, or
    one transcript line edited, dropped or duplicated."""
    doc = json.loads(draw(st.sampled_from(_small_run_documents())))
    *within, key = draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(lambda node, k: node[k], within, doc)
    line = within == ["transcript"]
    action = draw(st.sampled_from(["drop", "retype"] + (["edit", "duplicate"] if line else [])))
    if action == "drop":
        del parent[key]
    elif action == "retype":
        parent[key] = draw(_RETYPED.filter(lambda value: type(value) is not type(parent[key])))
    elif action == "duplicate":
        parent.insert(key, parent[key])
    else:
        text = parent[key]
        at = draw(st.integers(0, len(text)))
        char = draw(_EDIT_CHARS)
        parent[key] = draw(st.sampled_from([
            text[:at] + char + text[at + 1:], text[:at] + char + text[at:], text[:at] + text[at + 1:],
        ]))
    return doc


class TestDocumentProperties:
    @settings(max_examples=150, deadline=None)
    @given(config=_session_configs())
    def test_session_round_trips_through_its_document(self, config):
        result = run_session(config)
        transcript = result.transcript
        assert transcript.wire_lines() == [ann.to_wire() for ann in transcript.announcements]
        doc = json.loads(documents.render(documents.run_document(config, result), "json"))
        assert documents.transcript_from_document(doc) == transcript
        again = documents.replay_document(doc)
        assert again.decoded_by_alice == result.decoded_by_alice
        assert again.decoded_by_bob == result.decoded_by_bob
        assert again.blocks == result.blocks

    @settings(max_examples=400, deadline=None)
    @given(doc=_mutated_documents())
    def test_mutated_document_raises_only_typed_errors(self, doc):
        typed = (FrameError, SessionError, ValueError)
        try:
            documents.transcript_from_document(copy.deepcopy(doc))
            parsed = True
        except typed:
            parsed = False
        try:
            documents.replay_document(copy.deepcopy(doc))
        except typed:
            pass
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["analyze", str(path), "--out", str(Path(tmp) / "report.json")])
        assert code in ((0, 1, 3) if parsed else (1, 3)), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()


# Block spellings: as to_wire writes it, and others that int() reads; JSON
# reads the first few (" 1 ") but not the rest ("1.0", "+1", "01").
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")
_BLOCK_SPELLINGS = (
    str, str, str, str,
    lambda block: f" {block} ",
    lambda block: f"{block}.0",
    lambda block: f"{block}e0",
    lambda block: f"+{block}",
    lambda block: f"0{block}",
    lambda block: str(block).translate(_ARABIC_INDIC),
)
_JSON_BLOCK_SPELLINGS = 5


def _escaped(text: str) -> str:
    """A JSON string of `text` with every character \\u-escaped."""
    return '"' + "".join(f"\\u{ord(char):04x}" for char in text) + '"'


@st.composite
def _respelled_documents(draw):
    """A valid run document whose transcript lines are each kept, given
    another spelling of the block, which JSON may reject, or respelled:
    keys reordered, spaces around separators, strings \\u-escaped and the
    block spelled another way. Some documents also lose measurement lines
    (so blocks show every pattern), repeat a line or swap two."""
    config = draw(_session_configs())
    doc = json.loads(documents.render(documents.run_document(config, run_session(config)), "json"))
    drop = draw(st.booleans())
    spellings = _BLOCK_SPELLINGS[:draw(st.sampled_from([_JSON_BLOCK_SPELLINGS, None]))]
    lines = []
    for line in doc["transcript"]:
        fields = json.loads(line)
        if drop and "label" in fields and draw(st.integers(0, 9)) == 0:
            continue
        action = draw(st.sampled_from(["keep", "block", "respell"]))
        if action == "keep":
            lines.append(line)
            continue
        spell_block = draw(st.sampled_from(spellings))
        if action == "block":  # the line as to_wire writes it but for the block
            blk = f'"blk":{fields["blk"]},'
            lines.append(line.replace(blk, f'"blk":{spell_block(fields["blk"])},'))
            continue
        item_sep = draw(st.sampled_from([",", ", ", " , "]))
        key_sep = draw(st.sampled_from([":", ": ", " :"]))
        escaped = draw(st.sets(st.sampled_from(["sid", "side", "kind", "label"])))
        members = []
        for key in draw(st.permutations(list(fields))):
            value = fields[key]
            if key == "blk":
                text = spell_block(value)
            elif key in escaped:
                text = _escaped(value)
            else:
                text = json.dumps(value)
            members.append(f"{json.dumps(key)}{key_sep}{text}")
        lines.append("{" + item_sep.join(members) + "}")
    if lines and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if len(lines) > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2))
        lines[i], lines[j] = lines[j], lines[i]
    doc["transcript"] = lines
    return doc


_ANALYSIS_PRIORS = st.sampled_from([
    uniform_priors(),
    point_prior(PauliCode.U1, PauliCode.U0),  # some blocks inconsistent
    independent_priors({PauliCode.U0: 0.7, PauliCode.U1: 0.3},
                       {op: 0.25 for op in PauliCode}),
])


class TestAnalysisProperties:
    @settings(max_examples=300, deadline=None)
    @given(doc=_respelled_documents(), priors=_ANALYSIS_PRIORS)
    def test_column_analysis_equals_the_per_object_reference(self, doc, priors):
        def outcome(analyze):
            try:
                return analyze()
            except (FrameError, ValueError) as exc:
                return type(exc), str(exc)

        def on_columns():
            transcript = documents.transcript_from_document(copy.deepcopy(doc))
            report = eve_posterior(EveView(transcript), priors)
            return transcript, repr(report.blocks), repr(information_summary(report, priors))

        def on_objects():
            transcript = reference_analysis.transcript_from_document(copy.deepcopy(doc))
            blocks = reference_analysis.eve_posterior(transcript, priors)
            summary = reference_analysis.information_summary(blocks, priors)
            return transcript, repr(blocks), repr(summary)

        assert outcome(on_columns) == outcome(on_objects)


_ROW_FIELDS = ("index", "op_a", "op_b", "outcome_a", "outcome_b", "announced_a", "announced_b")
_OP_VALUES = [None, *(op.name for op in PauliCode)]
_LABEL_VALUES = ["PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus"]


@st.composite
def _replayed_documents(draw):
    """A valid run document of every mode and fallback, 0 to 81 pairs,
    with at most one mutation: a block row dropped, repeated or swapped
    with another; an index renumbered; a flag flipped; an op or outcome
    changed; a row field retyped or deleted; or a transcript line given
    another label or another block, dropped or repeated."""
    config = draw(_session_configs())
    doc = json.loads(documents.render(documents.run_document(config, run_session(config)), "json"))
    rows, lines = doc["private"]["blocks"], doc["transcript"]
    measured = [k for k, line in enumerate(lines) if '"label":' in line]
    mutation = draw(st.sampled_from(["none"] + 2 * [
        "drop", "repeat", "swap", "renumber", "flip", "op", "outcome", "retype", "delete",
    ] * bool(rows) + ["relabel", "reblock", "unline", "reline"] * bool(measured)))
    if rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
    if mutation == "drop":
        rows.remove(row)
    elif mutation == "repeat":
        rows.insert(draw(st.integers(0, len(rows))), dict(row))
    elif mutation == "swap":
        i, j = rows.index(row), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "renumber":
        row["index"] = draw(st.integers(-1, len(rows) + 1).filter(lambda k: k != row["index"]))
    elif mutation == "flip":
        flag = draw(st.sampled_from(["announced_a", "announced_b"]))
        row[flag] = not row[flag]
    elif mutation in ("op", "outcome"):
        field = draw(st.sampled_from([f"{mutation}_a", f"{mutation}_b"]))
        values = _OP_VALUES if mutation == "op" else _LABEL_VALUES
        row[field] = draw(st.sampled_from(values).filter(lambda value: value != row[field]))
    elif mutation == "retype":
        field = draw(st.sampled_from(_ROW_FIELDS))
        retyped = _RETYPED | st.sampled_from([1, 1.0, 0.0, False, "U1", "PsiPlus"])
        row[field] = draw(retyped.filter(lambda value: type(value) is not type(row[field])))
    elif mutation == "delete":
        del row[draw(st.sampled_from(_ROW_FIELDS))]
    elif mutation in ("relabel", "reblock", "unline", "reline"):
        k = draw(st.sampled_from(measured))
        fields = json.loads(lines[k])
        if mutation == "relabel":
            fields["label"] = draw(st.sampled_from(_LABEL_VALUES).filter(
                lambda value: value != fields["label"]))
        elif mutation == "reblock":
            fields["blk"] = draw(st.integers(1, len(rows)))
        line = json.dumps(fields, separators=(",", ":"))
        if mutation == "unline":
            del lines[k]
        elif mutation == "reline":
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:
            lines[k] = line
    return doc


class TestReplayProperties:
    @settings(max_examples=300, deadline=None)
    @given(doc=_replayed_documents())
    def test_column_replay_equals_the_per_record_reference(self, doc):
        def outcome(replay):
            try:
                return replay(copy.deepcopy(doc))
            except (FrameError, ValueError) as exc:
                return type(exc), str(exc), getattr(exc, "block", None)

        def as_the_record_walk(want):
            """The per-record path built its flag columns before its walk
            of the records, and numpy refused a flag that is a JSON array.
            The column path raises the walk's error for that row."""
            if not (isinstance(want, tuple) and want[1].startswith("setting an array element")):
                return want
            pos = next(pos for pos, row in enumerate(doc["private"]["blocks"], start=1)
                       if isinstance(row["announced_a"], list)
                       or isinstance(row["announced_b"], list))
            return ReplayError, f"block {pos}: announced flags disagree with the session mode", pos

        assert outcome(documents.replay_document) == as_the_record_walk(
            outcome(reference_replay.replay_document))
        try:  # the same records, replayed with protocol.replay
            transcript = documents.transcript_from_document(doc)
            records = reference_replay.blocks_from_document(doc)
        except ValueError:
            return
        assert outcome(lambda _: protocol.replay(transcript, records)) == as_the_record_walk(
            outcome(lambda _: reference_replay.replay(transcript, records)))


_PRIOR_KEYS = [f"U{a},U{b}" for a in range(4) for b in range(4)]
_PRIOR_VALUES = _JSON_TREES | st.floats(0, 1) | st.sampled_from([1 / 16, 10**400, -(10**309)])


@st.composite
def _priors_texts(draw):
    """JSON text a priors file might hold: objects over real and bogus pair
    names, repeated keys included, any JSON value, or text that is not JSON."""
    kind = draw(st.sampled_from(["object", "value", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "value":
        return json.dumps(draw(_JSON_TREES))
    keys = st.sampled_from(_PRIOR_KEYS) | st.text(max_size=6)
    members = draw(st.lists(st.tuples(keys, _PRIOR_VALUES), max_size=18))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}"


class TestPriorsProperties:
    @settings(max_examples=200, deadline=None)
    @given(text=_priors_texts())
    def test_priors_file_raises_only_typed_errors(self, text):
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            priors, run = Path(tmp) / "priors.json", Path(tmp) / "run.json"
            priors.write_text(text, encoding="utf-8")
            run.write_text(_small_run_documents()[0], encoding="utf-8")
            try:
                cli._load_priors(f"@{priors}")
                loaded = True
            except (ValueError, OSError):
                loaded = False
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["analyze", str(run), "--priors", f"@{priors}",
                             "--out", str(Path(tmp) / "report.json")])
        # A priors file that loads may still fail validation (a sum off 1).
        assert code in ((0, 1) if loaded else (1,)), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()


class TestNetworkedCli:
    def test_serve_connect_round_trip(self, tmp_path):
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
            assert banner.startswith("listening ")
            host, port = banner.split()[1].rsplit(":", 1)
            code = main([
                "connect", "--peer", f"{host}:{port}", "--pairs", "6",
                "--bob-msg", "101100", "--seed", "7", "--out", str(conn_out),
            ])
            assert code == 0
            assert server.wait(timeout=15) == 0
        finally:
            if server.poll() is None:
                server.kill()
        serve_doc = json.loads(serve_out.read_text())
        conn_doc = json.loads(conn_out.read_text())
        assert serve_doc["transcript"] == conn_doc["transcript"]
        assert serve_doc["private"]["decoded_by_alice"] == "101100"
        assert conn_doc["private"]["decoded_by_bob"] == "011110"
        assert serve_doc["session"]["party"] == "A"

    def test_deeply_nested_hello_exits_3(self, tmp_path):
        """A peer whose substrate hello nests 5 000 lists deep: exit 3."""
        server = subprocess.Popen(
            [sys.executable, "-m", "swapcomm", "serve",
             "--listen", "127.0.0.1:0", "--pairs", "10000", "--alice-msg", "0",
             "--seed", "7", "--timeout", "10", "--out", str(tmp_path / "never.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            host, port = server.stdout.readline().split()[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as substrate, \
                    socket.create_connection((host, int(port)), timeout=10) as public:
                substrate.sendall(SUBSTRATE_PREAMBLE)
                public.sendall(PUBLIC_PREAMBLE)
                substrate.sendall(b"[" * 5000 + b"]" * 5000 + b"\n")
                _, err = server.communicate(timeout=15)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 3, err
        assert "invalid substrate hello: nested too deeply" in err
        assert "Traceback" not in err
        assert not (tmp_path / "never.json").exists()

    @pytest.mark.parametrize("argv", [
        ["serve", "--listen", "127.0.0.1:99999", "--alice-msg", "01"],
        ["connect", "--peer", "127.0.0.1:70000", "--bob-msg", "10"],
    ])
    def test_port_out_of_range_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--pairs", "6", "--timeout", "0.5", "--out", str(out)])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert "port must be in 0..65535" in err_text
        assert "cannot reach" not in err_text
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e400", "soon"])
    @pytest.mark.parametrize("argv", [
        ["serve", "--listen", "127.0.0.1:0", "--alice-msg", "01"],
        ["connect", "--peer", "127.0.0.1:9", "--bob-msg", "10"],
    ], ids=["serve", "connect"])
    def test_timeout_out_of_range_is_a_usage_error(
        self, argv, value, tmp_path, capsys, monkeypatch
    ):
        import swapcomm.cli as cli

        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(cli, "SessionListener", no_socket)
        monkeypatch.setattr(cli, "dial_session", no_socket)
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--pairs", "6", "--timeout", value, "--out", str(out)])
        assert err.value.code == 1
        assert "argument --timeout:" in capsys.readouterr().err
        assert not out.exists()

    def test_connect_unreachable_no_document(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code, captured = run_cli(
            "connect", "--peer", "127.0.0.1:1", "--pairs", "6",
            "--bob-msg", "10", "--timeout", "0.5", "--out", str(out),
            capsys=capsys,
        )
        assert code == 3
        assert not out.exists()
        assert "cannot reach" in captured.err

    PEER = SessionConfig(n_pairs=8, seed=7, alice_message=MessageBits.from_bits("0110"),
                         bob_message=MessageBits.from_bits("1011"))

    @pytest.mark.parametrize("fault", [
        "another session", "overlong line", "block out of order", "wrong label", "closed socket",
        "trailing byte",
    ])
    def test_connect_console_script_exits_3_per_peer_fault(self, fault, tmp_path):
        """`python -m swapcomm connect` against a scripted side A that sends a
        valid substrate hello, its lines up to block 2, then one fault (or
        all its lines, then one byte): exit 3, one `swapcomm:` line on
        stderr, with the byte offset where there is one, and no traceback."""
        lines = [ann for ann in run_session(self.PEER).transcript.announcements
                 if ann.side == "A"]
        at = next(i for i, ann in enumerate(lines) if ann.block == 2)
        head = b"".join(ann.to_wire().encode() + b"\n" for ann in lines[:at])
        sid, bad = lines[at].session_id, lines[at]
        wrong = next(label for label in _LABEL_VALUES if label != bad.label.value)

        def line(text):
            return text.encode() + b"\n"

        every = head + b"".join(line(ann.to_wire()) for ann in lines[at:])
        stream, message = {
            "another session": (
                head + line(dataclasses.replace(bad, session_id="0" * 16).to_wire()),
                f"invalid frame: announcement names session '{'0' * 16}', not '{sid}' "
                f"(at byte {len(head)})"),
            "overlong line": (
                head + line("x" * (2 * MAX_FRAME_BYTES)),
                f"frame is not newline-terminated within {MAX_FRAME_BYTES} bytes "
                f"(at byte {len(head)})"),
            "block out of order": (
                head + line(lines[at - 1].to_wire()), "side A announced block 1 after block 1"),
            "wrong label": (
                head + line(bad.to_wire().replace(bad.label.value, wrong)),
                f"peer announced {bad.to_wire().replace(bad.label.value, wrong)} "
                f"where {bad.to_wire()} was expected"),
            "closed socket": (head, "peer closed the connection"),
            "trailing byte": (
                every + b"x", f"bytes past the peer's last line (at byte {len(every)})"),
        }[fault]
        listener = SessionListener("127.0.0.1", 0, timeout=10.0)
        host, port = listener.address

        def scripted_peer():
            substrate, endpoint = listener.accept()
            try:
                substrate.send_hello(substrate_hello("A", self.PEER))
                substrate.receive_hello(1 << 16)
                endpoint._sock.sendall(stream)
                endpoint._sock.shutdown(socket.SHUT_WR)
                while endpoint._sock.recv(1 << 16):
                    pass
            except OSError:
                pass
            finally:
                substrate.close()
                endpoint.close()
                listener.close()

        peer = threading.Thread(target=scripted_peer)
        peer.start()
        out = tmp_path / "never.json"
        try:
            connect = subprocess.run(
                [sys.executable, "-m", "swapcomm", "connect", "--peer", f"{host}:{port}",
                 "--pairs", "8", "--seed", "7", "--bob-msg", "1011", "--timeout", "10",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=60,
            )
        finally:
            peer.join(timeout=20)
        assert not peer.is_alive()
        assert connect.returncode == 3, connect.stderr
        assert connect.stderr.splitlines() == [f"swapcomm: {message}"]
        assert not out.exists()

    def test_peer_message_over_capacity_is_a_session_failure(self, tmp_path, capsys):
        """The peer's oversized message is not this user's usage error: exit 3."""
        listener = SessionListener("127.0.0.1", 0, timeout=10.0)
        host, port = listener.address
        peer = SessionConfig(n_pairs=4, seed=7, alice_message=MessageBits.from_bits("0110"))
        hello = {**substrate_hello("A", peer), "declared_length": 8, "ops": [0, 1, 2, 3]}

        def hostile_server():
            substrate, endpoint = listener.accept()
            try:
                substrate.send_hello(hello)
                substrate.receive_hello(1024)
            finally:
                substrate.close()
                endpoint.close()
                listener.close()

        server = threading.Thread(target=hostile_server)
        server.start()
        out = tmp_path / "never.json"
        code, captured = run_cli(
            "connect", "--peer", f"{host}:{port}", "--pairs", "4", "--seed", "7",
            "--bob-msg", "10", "--out", str(out), capsys=capsys,
        )
        server.join(timeout=10)
        assert code == 3
        assert not out.exists()
        assert "invalid substrate hello" in captured.err
