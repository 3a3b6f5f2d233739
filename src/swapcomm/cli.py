"""Command-line entry point.

Subcommands: simulate (run a session), table (emit the decode table and
reference audit), verify (check the algebra end to end), analyze (quantify
eavesdropper knowledge from a transcript document), serve/connect (the two
halves of a networked two-process session).

Exit codes: 0 success, 1 usage or capacity error (running out of memory
too), 2 verification failure, 3 transport or session failure, 141 when
stdout's reader closed it early.
Every path is deterministic given flags and seed.
"""
from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, documents, jsontext
from .adversary import (
    MAX_MC_BLOCKS,
    estimate_mi_monte_carlo,
    eve_posterior,
    information_summary,
    uniform_priors,
)
from .channel import ChannelError, FrameError, SessionListener, dial_session
from .protocol import (
    MAX_TRIALS,
    STREAM,
    CapacityError,
    SessionConfig,
    SessionError,
    SessionMode,
    SilentFallback,
    parse_message,
    run_remote_party,
    run_session,
    run_trials,
)
from .swap import ALL_OP_PAIRS, audit_reference_table, generate_decode_table
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_TRANSPORT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe ended

_MODES = {m.value: m for m in SessionMode}
_FALLBACKS = {f.value: f for f in SilentFallback}
# "Ua,Ub": how documents and priors files name an operation pair.
_PAIR_KEYS = {pair: f"{pair[0].name},{pair[1].name}" for pair in ALL_OP_PAIRS}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 here; argparse's default of 2 is reserved for
    # verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_message(value: str):
    if value.startswith("@"):
        try:
            value = Path(value[1:]).read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{value[1:]}: {exc}") from exc
    return parse_message(value)


def _emit(doc: dict, path: str | None, fmt: str = "json") -> None:
    """Write `doc` in format `fmt` to the file `path`, or to stdout, as
    documents.RENDERERS[fmt] renders it, in slices.

    A regular file is written whole or not at all: the document goes to a
    temporary file beside it, which replaces the file only once every byte
    is written, so a failed write leaves what the file held before. The file
    replaced keeps its permission bits, and through a symlink the link's
    target is the file replaced. A device or a pipe is written in place.
    Either way, the OSError of a failed write names `path`."""
    render = documents.RENDERERS[fmt]
    if path is None:
        render(doc, sys.stdout.write)
        return
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = None
    try:
        if out.exists() and not out.is_file():
            with open(out, "w", encoding="utf-8") as fh:
                render(doc, fh.write)
            return
        target = out.resolve()
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            if target.exists():
                shutil.copymode(target, tmp)
            render(doc, fh.write)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (None, str(tmp)):
            raise OSError(exc.errno, exc.strerror, str(out)) from exc
        raise


def _host_port(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    if int(port) > 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0..65535, got {port}")
    return host or "127.0.0.1", int(port)


def _at_least(minimum: int, maximum: int | None = None):
    """An argparse type: an integer no smaller than `minimum` and, if
    given, no larger than `maximum`."""

    def integer(value: str) -> int:
        number = int(value)  # argparse reports a ValueError as "invalid integer value"
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {number}")
        if maximum is not None and number > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {number}")
        return number

    return integer


def _seconds(value: str) -> float:
    """An argparse type: a finite number of seconds above 0."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of seconds, got {value!r}") from None
    if not 0 < seconds < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {value}")
    return seconds


def _session_flags(parser: argparse.ArgumentParser, *, alice=True, bob=True):
    parser.add_argument("--pairs", type=int, required=True,
                        help="number of pre-shared Bell pairs (N)")
    parser.add_argument("--seed", type=int, default=0, help="session seed")
    parser.add_argument("--mode", choices=sorted(_MODES), default="bidirectional")
    parser.add_argument("--fallback", choices=sorted(_FALLBACKS), default="random",
                        help="behaviour of a party with no message (unilateral modes)")
    if alice:
        parser.add_argument("--alice-msg", default=None, metavar="BITS|@FILE",
                            help="bit string, 0x-prefixed hex, or @file")
    if bob:
        parser.add_argument("--bob-msg", default=None, metavar="BITS|@FILE")
    parser.add_argument("--format", choices=sorted(documents.RENDERERS),
                        default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _message_arg(args, name: str):
    value = getattr(args, name, None)  # serve has no --bob-msg, connect no --alice-msg
    return _read_message(value) if value is not None else None


def _config_from_args(args) -> SessionConfig:
    return SessionConfig(
        n_pairs=args.pairs,
        mode=_MODES[args.mode],
        fallback=_FALLBACKS[args.fallback],
        seed=args.seed,
        alice_message=_message_arg(args, "alice_msg"),
        bob_message=_message_arg(args, "bob_msg"),
    )


def _trial_rows(config: SessionConfig, trials: int) -> jsontext.RowColumns:
    """The rows of a trials document, one per trial of `config`."""
    seeds, ok_alice, ok_bob, sids = run_trials(config, trials)
    return jsontext.RowColumns({
        "trial": range(len(seeds)), "seed": seeds, "decode_ok_alice": ok_alice,
        "decode_ok_bob": ok_bob, "session_id": sids,
    })


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if args.trials > 1:
        if args.format != "json":
            raise ValueError(
                f"--format {args.format} applies to a single session; --trials writes json"
            )
        rows = _trial_rows(config, args.trials)
        exact = all(False not in rows.columns[key] for key in ("decode_ok_alice", "decode_ok_bob"))
        doc = {
            "tool": dict(documents.TOOL),
            "kind": "simulate-trials",
            "stream": STREAM,
            "trials": rows,
            "summary": {"trials": len(rows), "all_decodes_exact": exact},
        }
        _emit(doc, args.out)
        return EXIT_OK

    result = run_session(config)
    doc = documents.run_document(config, result)
    _emit(doc, args.out, args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    table = generate_decode_table()
    infer_rows = [
        {
            "a_side": outcome.a_side.value,
            "b_side": outcome.b_side.value,
            "second_pair": label.value,
        }
        for outcome, label in sorted(
            table.infer.items(),
            key=lambda kv: (kv[1].value, kv[0].a_side.value, kv[0].b_side.value),
        )
    ]
    combos = {
        label.value: sorted([a.name, b.name] for a, b in pairs)
        for label, pairs in table.combos.items()
    }
    composite = {key: table.composite[pair].value for pair, key in _PAIR_KEYS.items()}
    doc = {
        "tool": dict(documents.TOOL),
        "kind": "decode-table",
        "infer": infer_rows,
        "combos": combos,
        "composite": composite,
        "audit": audit_reference_table().to_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification()
    if args.format == "json":
        doc = {
            "tool": dict(documents.TOOL),
            "kind": "verification-report",
            "checks": [asdict(check) for check in report.checks],
        }
        _emit(doc, None)
        return EXIT_OK if report.ok else EXIT_VERIFY
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        for failure in check.failures:
            print(f"       {failure}")
    print(report.summary_line())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _unique_keys(pairs: list) -> dict:
    """json object_pairs_hook: an object, or ValueError on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r} in priors file")
        obj[key] = value
    return obj


def _load_priors(value: str) -> dict:
    if value == "uniform":
        return uniform_priors()
    if not value.startswith("@"):
        raise ValueError(f"priors must be 'uniform' or @file, got {value!r}")
    raw = documents.load_document(value[1:], object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise ValueError("priors file must hold an object of \"Ua,Ub\": probability")
    by_name = {key: pair for pair, key in _PAIR_KEYS.items()}
    priors = {}
    for key, p in raw.items():
        if key not in by_name:
            raise ValueError(f"unknown operation pair {key!r} in priors file")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValueError(f"prior for {key} is not a number: {p!r}")
        try:
            priors[by_name[key]] = float(p)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"prior for {key} is out of range") from None
    return priors


def _cmd_analyze(args) -> int:
    doc = documents.load_document(args.input)
    try:
        transcript = documents.transcript_from_document(doc)
    except FrameError as exc:
        raise ValueError(f"corrupt transcript in {args.input}: {exc}") from exc
    priors = _load_priors(args.priors)
    report = eve_posterior(transcript, priors)
    summary = information_summary(report)

    # One row per distinct view, spliced per block, so that documents.render_json
    # renders each view's block body once.
    view_rows = [
        {
            "index": 0,
            "pattern": view.pattern,
            "announced_a": view.announced_a.value if view.announced_a else None,
            "announced_b": view.announced_b.value if view.announced_b else None,
            "consistent": view.consistent,
            "posterior": {
                _PAIR_KEYS[pair]: p for pair, p in view.posterior.items() if p > 0.0
            },
            "prior_entropy_bits": view.prior_entropy_bits,
            "posterior_entropy_bits": view.posterior_entropy_bits,
            "mi_alice_bits": view.mi_alice_bits,
            "mi_bob_bits": view.mi_bob_bits,
            "mi_joint_bits": view.mi_joint_bits,
        }
        for view in report.views
    ]
    out_doc = {
        "tool": dict(documents.TOOL),
        "kind": "posterior-report",
        "session": {
            "id": transcript.session_id,
            "n_pairs": transcript.n_pairs,
            "mode": transcript.mode.value,
            "fallback": transcript.fallback.value,
        },
        "priors": args.priors,
        "blocks": jsontext.KeyedItems(view_rows, report.which.tolist()),
        "session_totals": summary["session"],
    }
    if args.mc_blocks:
        patterns = {view.pattern for view in report.views}
        out_doc["monte_carlo"] = {
            pattern: estimate_mi_monte_carlo(
                priors, pattern, n_blocks=args.mc_blocks, seed=args.seed
            )
            for pattern in sorted(patterns)
        }
    _emit(out_doc, args.out)
    return EXIT_OK


def _listen(args):
    """Print the bound address, then accept one peer's two connections."""
    listener = SessionListener(*args.listen, timeout=args.timeout)
    host, port = listener.address
    print(f"listening {host}:{port}", flush=True)
    try:
        return listener.accept()
    finally:
        listener.close()


def _dial(args):
    return dial_session(*args.peer, timeout=args.timeout)


def _cmd_party(args) -> int:
    """serve (side A, _listen) and connect (side B, _dial)."""
    config = _config_from_args(args)
    substrate, endpoint = (_listen if args.side == "A" else _dial)(args)
    try:
        result = run_remote_party(args.side, config, substrate, endpoint)
    finally:
        substrate.close()
        endpoint.close()
    del endpoint  # free its tap, a second copy of the peer's lines, before rendering
    doc = documents.run_document(config, result)
    doc["session"]["party"] = args.side
    _emit(doc, args.out, args.format)
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """The command line's parser. It is built on the first main call, not at
    import, and kept: building it costs about a millisecond, which every
    in-process call would pay again."""
    parser = _Parser(prog="swapcomm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run a full session in one process")
    _session_flags(p_sim)
    p_sim.add_argument("--trials", type=_at_least(1, MAX_TRIALS), default=1,
                       help="run this many sessions with derived seeds (at most 2^32)")

    p_table = sub.add_parser("table", help="emit the decode table and audit report")
    p_table.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the full identity-check suite")
    p_verify.add_argument("--format", choices=["json", "text"], default="text",
                          help="json: one record per check (name, passed, detail, failures)")

    p_an = sub.add_parser("analyze", help="eavesdropper analysis of a transcript document")
    p_an.add_argument("input", help="path to a session-run or transcript document")
    p_an.add_argument("--priors", default="uniform", metavar="uniform|@FILE")
    p_an.add_argument("--mc-blocks", type=_at_least(0, MAX_MC_BLOCKS), default=0,
                      help="add Monte Carlo MI estimates over this many blocks")
    p_an.add_argument("--seed", type=_at_least(0), default=0, help="Monte Carlo seed")
    p_an.add_argument("--out", default=None)

    p_serve = sub.add_parser("serve", help="host side A of a two-process session")
    p_serve.add_argument("--listen", type=_host_port, required=True, metavar="HOST:PORT")
    p_serve.add_argument("--timeout", type=_seconds, default=30.0)
    _session_flags(p_serve, bob=False)
    p_serve.set_defaults(side="A")

    p_conn = sub.add_parser("connect", help="join as side B of a two-process session")
    p_conn.add_argument("--peer", type=_host_port, required=True, metavar="HOST:PORT")
    p_conn.add_argument("--timeout", type=_seconds, default=30.0)
    _session_flags(p_conn, alice=False)
    p_conn.set_defaults(side="B")
    return parser


def _size(args) -> str:
    """What sets the size of a parsed command's work, as its flags say it:
    the analyzed document, the pairs, the trials and the Monte Carlo blocks."""
    parts = [args.input] if args.command == "analyze" else []
    parts += [f"--{name.replace('_', '-')} {getattr(args, name)}"
              for name in ("pairs", "trials", "mc_blocks") if hasattr(args, name)]
    return " ".join([args.command, *parts])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up by name on each call, so a replaced _cmd_* function is the one run.
    command = {
        "simulate": _cmd_simulate, "table": _cmd_table, "verify": _cmd_verify,
        "analyze": _cmd_analyze, "serve": _cmd_party, "connect": _cmd_party,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except CapacityError as exc:
        print(f"swapcomm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ChannelError, SessionError) as exc:
        print(f"swapcomm: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except BrokenPipeError:  # stdout's: a socket's is a TransportError
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"swapcomm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        detail = f": {exc}" if str(exc) else ""
        print(f"swapcomm: out of memory in {_size(args)}{detail}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry of `swapcomm` and `python -m swapcomm`. The import-time
    heap is frozen first, so the collections of interpreter teardown skip
    it; `main` is the in-process API and leaves the host's GC alone."""
    gc.freeze()
    code = main()
    if code == EXIT_PIPE:
        # What stdout still buffers goes to devnull, so the flush at exit
        # does not fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
