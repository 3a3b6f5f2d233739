"""swapcomm benchmark: drive the CLI in process and measure it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
Each workload runs as a closed loop with one client: the next op starts
when the previous one has finished and been checked. The first op is a
warm-up and is not timed. Ops that fail are counted, never retried.

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports per-layer metrics from spans recorded around the package's public
functions, plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, child_env  # noqa: E402

MIN_ROUNDS = 3  # per untraced run; each half of a traced run needs 2
SETUP_PROBES = 9  # at least, per untraced run, spread through it
GAUGE_PERIOD_S = 0.025  # between speed-gauge slices
GAUGE_SLICE = 20_000  # loop iterations in one slice
GAUGE_NOMINAL_S = 0.0015  # a slice's CPU time when this machine runs fast

# Fresh-process set-up: import the CLI and build the decode table once.
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import swapcomm.cli\n"
    "from swapcomm.swap import generate_decode_table\n"
    "generate_decode_table()\n"
    "print(time.perf_counter() - t0)\n"
)


class SetupProbes:
    """The set-up a user pays, measured in fresh processes at intervals
    through a run. The fastest probe is reported: the machine's load
    drifts over minutes, and the minimum moves far less with it than the
    median of probes taken together."""

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_PROBES
        self.samples: list[float] = []
        self.last = 0.0

    def probe(self) -> None:
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def between_rounds(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.probe()

    def seconds(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return min(self.samples)


class SpeedGauge(threading.Thread):
    """How fast the machine runs while each op runs: a thread that, every
    GAUGE_PERIOD_S, times a fixed slice of pure-Python work in its own CPU
    time.

    Other tenants slow this machine for stretches of seconds to minutes,
    in CPU time as well as in wall time, so that the CPU time of the same
    op moves by up to 1.5x between runs. The slices slow with them and not
    with the program. The slices that ran during an op measure the speed
    the op saw, so its CPU time over their median CPU time moves far less
    than its CPU time alone. The speed changes within seconds, so the
    slices run during the ops: slices timed between them track the ops
    poorly.
    """

    def __init__(self):
        super().__init__(name="speed-gauge", daemon=True)
        self.done = threading.Event()
        self.slices: list[tuple[float, float]] = []  # (perf_counter at its end, CPU seconds)

    def run(self) -> None:
        while not self.done.wait(GAUGE_PERIOD_S):
            c0 = time.thread_time()
            total = 0
            for i in range(GAUGE_SLICE):
                total += i * i
            self.slices.append((time.perf_counter(), time.thread_time() - c0))

    def stop(self) -> None:
        self.done.set()
        self.join()

    def _during(self, op) -> list[float]:
        return [cpu for end, cpu in self.slices if op.started <= end <= op.started + op.seconds]

    def cpu_seconds(self, op) -> float:
        """The op's CPU time, less that of the slices that ran during it."""
        return op.cpu_seconds - sum(self._during(op))

    def normalised_cpu_seconds(self, op) -> float:
        """The op's CPU time at the speed at which a slice takes GAUGE_NOMINAL_S."""
        during = self._during(op) or [cpu for _, cpu in self.slices]
        return self.cpu_seconds(op) * GAUGE_NOMINAL_S / statistics.median(during)

    def seconds(self) -> float:
        return statistics.median(cpu for _, cpu in self.slices)


def timed_ops(workload, seconds: float, tracer=None, min_rounds: int = MIN_ROUNDS,
              between_rounds=None) -> list:
    """Closed loop for about `seconds` of wall time, in whole rounds.

    A new round starts only if the last one would still fit, so a run
    overshoots its budget by little; at least `min_rounds` rounds run.
    `between_rounds`, if given, is called after each round but the last.
    """
    ops, rounds = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.ops_per_round):
            if tracer is not None:
                tracer.op_id += 1
            ops.append(workload.run_op())
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - round_start) > deadline:
            return ops
        if between_rounds is not None:
            between_rounds()


def per_kind(ops: list, per_round: int, stat, time_of=lambda op: op.seconds) -> float:
    """`stat` of the op times of each kind of op in a round, averaged over
    kinds; `time_of` reads an op's time. Failed ops are left out, unless
    every op of a kind failed."""
    def times(kind):
        return [time_of(op) for op in [op for op in kind if not op.failures] or kind]
    return statistics.fmean(stat(times(ops[k::per_round])) for k in range(per_round))


def run_untraced(workload, seconds: float) -> tuple[dict, list]:
    setup, gauge = SetupProbes(seconds), SpeedGauge()
    setup.probe()
    workload.prepare()
    warm = workload.run_op()
    gauge.start()
    try:
        ops = timed_ops(workload, seconds, between_rounds=setup.between_rounds)
    finally:
        gauge.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = [warm, *ops]
    per_round = workload.ops_per_round
    median = statistics.median
    values = {"setup_s": setup.seconds(),
              "op_cpu_norm_s": per_kind(ops, per_round, median, gauge.normalised_cpu_seconds),
              "peak_rss_mb": peak_mb}
    failed = sum(1 for op in attempted if op.failures)
    # Printed but not gated: on a shared machine they drift too much between runs.
    shown = {**values, "op_cpu_s": per_kind(ops, per_round, median, gauge.cpu_seconds),
             "gauge_s": gauge.seconds(),
             "op_p50_s": per_kind(ops, per_round, statistics.median),
             "ops_per_s": len(ops) / sum(op.seconds for op in ops)}
    if workload.blocks_per_op:
        shown["blocks_per_s"] = shown["ops_per_s"] * workload.blocks_per_op
    shown["error_rate"] = failed / len(attempted)
    units = {**metrics.END_TO_END, **metrics.PRINTED}
    for name, value in shown.items():
        print(f"  {name:<13} {value:>14.6g} {units[name]}")
    print(f"  {len(ops)} timed ops after 1 warm-up op, {failed} failed")
    return {n: {"value": v, "unit": metrics.END_TO_END[n]} for n, v in values.items()}, attempted


def run_traced(workload, seconds: float) -> tuple[dict, list]:
    from tracing import Tracer, TraceSummary

    tracer = Tracer()
    workload.prepare()
    # The warm-up op is traced so that the first, cold decode-table build
    # is seen; it is op 0 and stays out of every other figure.
    tracer.install()
    warm = workload.run_op()
    tracer.uninstall()
    untraced = timed_ops(workload, seconds / 2, min_rounds=2)
    first_traced = tracer.op_id + 1
    tracer.install()
    try:
        traced = timed_ops(workload, seconds / 2, tracer, min_rounds=2)
    finally:
        tracer.uninstall()
    traced_ids = list(range(first_traced, tracer.op_id + 1))
    wire = {k: statistics.fmean(tracer.wire.get(i, {}).get(k, 0) for i in traced_ids)
            for k in ("sent", "received")}
    run = metrics.TraceRun(
        summary=TraceSummary(tracer, traced_ids),
        blocks_per_op=workload.blocks_per_op,
        bytes_out=statistics.fmean(op.bytes_out for op in traced),
        wire=wire,
        errors=len(tracer.errors),
        overhead_ratio=per_kind(traced, workload.ops_per_round, min)
        / per_kind(untraced, workload.ops_per_round, min),
    )
    values, absent = metrics.layer_values(run, tracer)
    tracer.dump(ROOT / ".bench_out" / f"spans-{workload.name}.npz")
    units = {m.name: m.unit for m in metrics.PER_LAYER}
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for name in absent:
        print(f"  {name:<48} {'absent':>14}")
    print(f"  {len(untraced)} untraced and {len(traced)} traced ops after 1 warm-up op")
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, [warm, *untraced, *traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](workdir, seed)
        print(f"{name} (seed {seed}, {seconds:g} s, trace {int(trace)}):")
        values, ops = (run_traced if trace else run_untraced)(workload, seconds)
        # The once-per-run checks read the last op's outputs.
        ops[-1].failures += workload.final_failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for op in ops for f in op.failures]
    for reason in failures[:10]:
        print(f"  FAILED: {reason}")
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failures),
        "metrics": values,
    }


def run_all(args) -> dict | None:
    """Each workload in a process of its own, so that memory peaks stay apart."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            return None
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On two CPUs the loopback session's two processes hand each block to
    each other across CPUs, and each hand-over waits for the other CPU to
    wake: its time then follows the host's load more than the program.
    On one CPU a hand-over is a plain switch between the processes. The
    speed gauge then also times the CPU that every op runs on.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    if not (SRC / "swapcomm" / "__init__.py").is_file():
        print(f"perfbench: no swapcomm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swapcomm

    if Path(swapcomm.__file__).resolve().parent != (SRC / "swapcomm").resolve():
        print(f"perfbench: imported swapcomm from {swapcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
        if result is None:
            return 1
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
