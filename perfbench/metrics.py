"""The benchmark's metrics: names, units and how each is computed.

End-to-end metrics come from an untraced run; per-layer metrics from a
separate traced run. A per-layer metric whose entry point no longer exists
at the commit under test is reported as absent, never as zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# name -> unit, for the gated metrics of the untraced run. On a shared
# two-vCPU machine, wall time also counts the time an op waits for a CPU
# while other tenants run, and CPU time still moves with their load by up
# to 1.5x. So the op time is CPU time at a nominal machine speed: for each
# op, its CPU time (this process plus, for loopback-session, the serve
# child after it listens) times nominal / the median CPU time of the
# speed-gauge slices that ran during it (run.SpeedGauge); then the median
# over the run's ops, averaged over the kinds of op a workload rotates
# through. The set-up time is the fastest of the set-up probes spread
# through the run.
END_TO_END = {
    "setup_s": "s",
    "op_cpu_norm_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit, for figures the untraced run prints but does not gate.
PRINTED = {
    "op_cpu_s": "s",
    "gauge_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "blocks_per_s": "1/s",
    "error_rate": "ratio",
}


@dataclass(frozen=True)
class TraceRun:
    """What a traced run hands the per-layer metrics."""

    summary: object  # tracing.TraceSummary over the traced ops
    blocks_per_op: int | None
    bytes_out: float  # mean bytes of documents written per op
    wire: dict[str, float]  # mean bytes per op through this process's TCP sockets
    errors: int
    overhead_ratio: float


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, and the end-to-end metric it should move on
    which workloads (the layer map, written down before measuring)."""

    name: str
    unit: str
    needs: tuple[str, ...]  # span names that must exist at the commit under test
    value: Callable[[TraceRun], float]
    workloads: tuple[str, ...]
    moves: str = "op_cpu_norm_s"


BULK, TRIALS, ANALYZE = "bulk-simulate", "trials-sweep", "eavesdrop-analyze"
LOOPBACK, VERIFY, ALL = "loopback-session", "verify-suite", "all"


def _calls(span: str, *workloads: str) -> LayerMetric:
    return LayerMetric(f"{span}.calls", "count", (span,), lambda r: r.summary.calls(span), workloads)


def _us_per_call(span: str, *workloads: str) -> LayerMetric:
    return LayerMetric(f"{span}.us_per_call", "us", (span,),
                       lambda r: r.summary.us_per_call(span), workloads)


def _self_s(span: str, *workloads: str) -> LayerMetric:
    return LayerMetric(f"{span}.self_s", "s", (span,), lambda r: r.summary.self_seconds(span), workloads)


def _s(span: str, *workloads: str) -> LayerMetric:
    return LayerMetric(f"{span}.s", "s", (span,), lambda r: r.summary.seconds(span), workloads)


def _per_block(r: TraceRun, value: float) -> float:
    return value / r.blocks_per_op if r.blocks_per_op else 0.0


_TCP_SEND = "channel.TcpEndpoint.send"
_TCP_RECEIVE = "channel.TcpEndpoint.receive"
_TO_WIRE = "channel.Announcement.to_wire"
_FROM_WIRE = "channel.Announcement.from_wire"

PER_LAYER: tuple[LayerMetric, ...] = (
    _calls("protocol.block_rng", BULK, TRIALS, LOOPBACK),
    _us_per_call("protocol.block_rng", BULK, TRIALS, LOOPBACK),
    _self_s("protocol.run_session", BULK, TRIALS),
    _self_s("protocol.run_remote_party", LOOPBACK),
    _calls("protocol.session_id", TRIALS),
    _calls("protocol.SessionConfig.validate", TRIALS),
    LayerMetric("swap.generate_decode_table.cold_s", "s", ("swap.generate_decode_table",),
                lambda r: r.summary.first_seconds("swap.generate_decode_table"), (ALL,), "setup_s"),
    LayerMetric("swap.generate_decode_table.calls_per_block", "ratio",
                ("swap.generate_decode_table",),
                lambda r: _per_block(r, r.summary.calls("swap.generate_decode_table")), (ANALYZE,)),
    _calls("swap.DecodeTable.decode", BULK, LOOPBACK),
    _us_per_call("swap.DecodeTable.decode", BULK, LOOPBACK),
    _us_per_call("channel.InProcessEndpoint.send", BULK, TRIALS),
    _us_per_call("channel.InProcessEndpoint.receive", BULK, TRIALS),
    _calls(_TO_WIRE, BULK, LOOPBACK),
    _us_per_call(_TO_WIRE, BULK, LOOPBACK),
    _calls(_FROM_WIRE, ANALYZE, LOOPBACK),
    _us_per_call(_FROM_WIRE, ANALYZE, LOOPBACK),
    _us_per_call(_TCP_SEND, LOOPBACK),
    # Time blocked on the peer: a receive span less its from_wire child.
    LayerMetric("channel.TcpEndpoint.receive.wait_us_p50", "us", (_TCP_RECEIVE,),
                lambda r: r.summary.self_us_quantile(_TCP_RECEIVE, 0.5), (LOOPBACK,)),
    LayerMetric("channel.TcpEndpoint.receive.wait_us_p99", "us", (_TCP_RECEIVE,),
                lambda r: r.summary.self_us_quantile(_TCP_RECEIVE, 0.99), (LOOPBACK,)),
    # Public-channel frames: one per send or receive call of a TCP endpoint.
    LayerMetric("channel.tcp.frames", "count", (_TCP_SEND, _TCP_RECEIVE),
                lambda r: r.summary.calls(_TCP_SEND) + r.summary.calls(_TCP_RECEIVE), (LOOPBACK,)),
    # Bytes the sockets carried, both connections: preambles, the substrate
    # hello and the public frames.
    LayerMetric("channel.tcp.bytes_sent", "bytes", (), lambda r: r.wire["sent"], (LOOPBACK,)),
    LayerMetric("channel.tcp.bytes_received", "bytes", (), lambda r: r.wire["received"], (LOOPBACK,)),
    LayerMetric("channel.errors", "count", (), lambda r: float(r.errors), (ALL,),
                "error_rate (failed / attempted ops)"),
    _s("documents.run_document", BULK, TRIALS),
    _calls("documents.run_document", BULK, TRIALS),
    _s("documents.render_json", BULK, TRIALS),
    LayerMetric("documents.bytes_written", "bytes", (), lambda r: r.bytes_out, (BULK, TRIALS),
                "peak_rss_mb"),
    _s("documents.load_document", ANALYZE),
    _s("documents.transcript_from_document", ANALYZE),
    LayerMetric("adversary.eve_posterior.us_per_block", "us", ("adversary.eve_posterior",),
                lambda r: _per_block(r, r.summary.seconds("adversary.eve_posterior") * 1e6),
                (ANALYZE,)),
    _s("adversary.information_summary", ANALYZE),
    _s("adversary.estimate_mi_monte_carlo", ANALYZE),
    _calls("quantum.bell_measure", VERIFY),
    _us_per_call("quantum.bell_measure", VERIFY),
    LayerMetric("quantum.self_s", "s", (), lambda r: r.summary.layer_self_seconds("quantum"),
                (VERIFY,)),
    _self_s("verify.run_verification", VERIFY),
    _self_s("cli.main", ALL),
    LayerMetric("trace.overhead_ratio", "ratio", (), lambda r: r.overhead_ratio, (ALL,),
                "none: the cost of tracing itself"),
)


def layer_values(run: TraceRun, tracer) -> tuple[dict[str, float], list[str]]:
    """(metric -> value, names of absent metrics) for one traced run."""
    values, absent = {}, []
    for metric in PER_LAYER:
        if all(tracer.has(span) for span in metric.needs):
            values[metric.name] = metric.value(run)
        else:
            absent.append(metric.name)
    return values, absent
