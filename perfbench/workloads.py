"""The five workloads. One op is one CLI invocation.

Every workload makes its inputs from the workload seed, in `prepare`,
outside the timed phase, and passes only CLI flags the README documents.
None passes --workers: trials run with the default worker count.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    seconds: float  # wall time of the CLI invocation alone
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0  # bytes of documents the op wrote
    cpu_seconds: float = 0.0  # CPU time of the invocation, in every process that served it
    started: float = 0.0  # time.perf_counter() when the invocation began


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(argv: list[str]) -> tuple[int, Op, str]:
    """Run `swapcomm.cli.main` in this process: (exit code, the op with its
    times, stdout). The caller adds the op's failures and output size."""
    from swapcomm import cli

    out = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    op = Op(time.perf_counter() - t0, cpu_seconds=time.process_time() - c0, started=t0)
    return code, op, out.getvalue()


def process_cpu_seconds(pid: int) -> float:
    """CPU time so far of another, still running process: its CPU-time
    clock (Linux's clock_getcpuclockid(pid), built by hand)."""
    return time.clock_gettime((~pid << 3) | 2)


def children_cpu_seconds() -> float:
    """CPU time of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def read_line(pipe, timeout: float) -> str:
    """A child's first line of output, or what it wrote before `timeout`
    ran out or it closed the pipe."""
    fd, data = pipe.fileno(), b""
    deadline = time.monotonic() + timeout
    while not data.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        data += chunk
    return data.decode("utf-8", "replace")


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def random_bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Workload:
    name = ""
    why = ""
    blocks_per_op: int | None = None  # session blocks simulated, exchanged or analysed
    ops_per_round = 1  # kinds of op run in turn; runs stop on whole rounds

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops_run = 0

    def prepare(self) -> None:
        pass

    def run_op(self) -> Op:
        raise NotImplementedError

    def final_failures(self) -> list[str]:
        """Once-per-run checks, made after the timed phase."""
        return []

    def _message_file(self, label: str, bits: str) -> str:
        path = self.workdir / f"{label}.bits"
        path.write_text(bits, encoding="utf-8")
        return f"@{path}"


class BulkSimulate(Workload):
    name = "bulk-simulate"
    why = "one 5x10^4-pair bidirectional session: per-block sampling, delivery, decoding and rendering dominate"
    PAIRS = 50_000
    blocks_per_op = PAIRS // 2

    def prepare(self):
        self.alice = random_bits(self.rng, self.PAIRS)
        self.bob = random_bits(self.rng, self.PAIRS)
        self.out = self.workdir / "run.json"
        self.argv = [
            "simulate", "--pairs", str(self.PAIRS), "--seed", str(self.rng.getrandbits(32)),
            "--alice-msg", self._message_file("alice", self.alice),
            "--bob-msg", self._message_file("bob", self.bob), "--out", str(self.out),
        ]

    def run_op(self):
        self.out.unlink(missing_ok=True)
        code, op, _ = invoke(self.argv)
        op.failures = checks.judge(code, lambda: checks.session_failures(
            load(self.out), self.alice, self.bob, self.blocks_per_op))
        op.bytes_out = size(self.out)
        return op

    def final_failures(self):
        return checks.judge(0, lambda: checks.replay_failures(load(self.out), self.alice, self.bob))


class TrialsSweep(Workload):
    name = "trials-sweep"
    why = "1000 short sessions of 40 pairs: per-session fixed costs and the CLI trial loop dominate"
    PAIRS, TRIALS = 40, 1000
    blocks_per_op = TRIALS * (PAIRS // 2)

    def prepare(self):
        self.out = self.workdir / "trials.json"
        self.argv = [
            "simulate", "--pairs", str(self.PAIRS), "--trials", str(self.TRIALS),
            "--seed", str(self.rng.getrandbits(32)),
            "--alice-msg", random_bits(self.rng, self.PAIRS),
            "--bob-msg", random_bits(self.rng, self.PAIRS), "--out", str(self.out),
        ]

    def run_op(self):
        self.out.unlink(missing_ok=True)
        code, op, _ = invoke(self.argv)
        op.failures = checks.judge(code, lambda: checks.trials_failures(load(self.out), self.TRIALS))
        op.bytes_out = size(self.out)
        return op


class EavesdropAnalyze(Workload):
    name = "eavesdrop-analyze"
    why = "analyze two stored 5x10^3-pair runs, patterns both and a-only, in turn: analyser and document read path only"
    PAIRS, MC_BLOCKS = 5_000, 100_000
    blocks_per_op = PAIRS // 2
    ops_per_round = 2  # one op per stored run

    def prepare(self):
        # The stored runs come from the program itself, in a child process,
        # so their making adds nothing to this process's memory peak.
        alice = self._message_file("alice", random_bits(self.rng, self.PAIRS))
        bob = self._message_file("bob", random_bits(self.rng, self.PAIRS))
        self.runs = []
        for pattern, flags in (
            ("both", ["--alice-msg", alice, "--bob-msg", bob]),
            ("a-only", ["--mode", "a-to-b", "--fallback", "silent", "--alice-msg", alice]),
        ):
            stored = self.workdir / f"stored-{pattern}.json"
            subprocess.run(
                [sys.executable, "-m", "swapcomm", "simulate", "--pairs", str(self.PAIRS),
                 "--seed", str(self.rng.getrandbits(32)), *flags, "--out", str(stored)],
                env=child_env(), cwd=ROOT, check=True, timeout=120,
            )
            self.runs.append((pattern, stored))
        self.mc_seed = str(self.rng.getrandbits(32))
        self.out = self.workdir / "report.json"

    def run_op(self):
        pattern, stored = self.runs[self.ops_run % len(self.runs)]
        self.ops_run += 1
        self.out.unlink(missing_ok=True)
        code, op, _ = invoke([
            "analyze", str(stored), "--priors", "uniform", "--mc-blocks", str(self.MC_BLOCKS),
            "--seed", self.mc_seed, "--out", str(self.out),
        ])
        op.failures = checks.judge(code, lambda: checks.analysis_failures(
            load(self.out), pattern, self.blocks_per_op))
        op.bytes_out = size(self.out)
        return op


class LoopbackSession(Workload):
    name = "loopback-session"
    why = "serve in a child process, connect here, 2x10^4 pairs over 127.0.0.1: TCP framing, hello and per-frame peer checks"
    PAIRS = 20_000
    blocks_per_op = PAIRS // 2
    SERVE_TIMEOUT = 60  # seconds to start listening, and to exit after the session

    def prepare(self):
        self.alice = random_bits(self.rng, self.PAIRS)
        self.bob = random_bits(self.rng, self.PAIRS)
        self.session = ["--pairs", str(self.PAIRS), "--seed", str(self.rng.getrandbits(32))]
        self.alice_msg = self._message_file("alice", self.alice)
        self.bob_msg = self._message_file("bob", self.bob)
        self.out_a = self.workdir / "side-a.json"
        self.out_b = self.workdir / "side-b.json"

    def run_op(self):
        for out in (self.out_a, self.out_b):
            out.unlink(missing_ok=True)
        reaped_cpu = children_cpu_seconds()
        server = subprocess.Popen(
            [sys.executable, "-m", "swapcomm", "serve", "--listen", "127.0.0.1:0",
             *self.session, "--alice-msg", self.alice_msg, "--out", str(self.out_a)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        op = Op(0.0)
        try:
            # The clock starts once the server is listening.
            words = read_line(server.stdout, self.SERVE_TIMEOUT).split()
            if len(words) != 2 or words[0] != "listening":
                server.kill()
                _, err = server.communicate(timeout=self.SERVE_TIMEOUT)
                op.failures = [f"serve did not listen: {err.strip()[-200:]}"]
                return op
            startup_cpu = process_cpu_seconds(server.pid)
            code, op, _ = invoke([
                "connect", "--peer", words[1], *self.session,
                "--bob-msg", self.bob_msg, "--out", str(self.out_b),
            ])
            _, err = server.communicate(timeout=self.SERVE_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            op.failures = [f"serve did not exit within {exc.timeout:g} s"]
            return op
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        if server.returncode != 0:
            op.failures = [f"serve exit code {server.returncode}: {err.strip()[-200:]}"]
            return op
        op.failures = checks.judge(code, lambda: checks.loopback_failures(
            load(self.out_a), load(self.out_b), self.alice, self.bob, self.blocks_per_op))
        op.bytes_out = size(self.out_b)
        # Both sides' CPU time: the serve child's, less what it spent
        # starting up before it listened.
        op.cpu_seconds += children_cpu_seconds() - reaped_cpu - startup_cpu
        return op

    def final_failures(self):
        # The README promises the same transcript in and across processes.
        sim = self.workdir / "in-process.json"
        code, *_ = invoke([
            "simulate", *self.session, "--alice-msg", self.alice_msg,
            "--bob-msg", self.bob_msg, "--out", str(sim),
        ])
        return checks.judge(code, lambda: checks.transcript_failures(load(sim), load(self.out_b)))


class VerifySuite(Workload):
    name = "verify-suite"
    why = "swapcomm verify: the only workload that runs the dense state-vector core"

    def run_op(self):
        code, op, stdout = invoke(["verify"])
        op.failures = checks.judge(code, checks.verify_failures, stdout)
        return op


WORKLOADS = {w.name: w for w in (
    BulkSimulate, TrialsSweep, EavesdropAnalyze, LoopbackSession, VerifySuite,
)}
