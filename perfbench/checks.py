"""Output checks for the benchmark's operations.

Every check reads only what the CLI gives its user: the exit code, the
documents written with --out and standard output. Each returns the reasons
an op failed, an empty list when it passed. The checks are semantic, not
byte digests, so a sampling change that is versioned on purpose (a new
stream, new outcomes) still passes as long as decoding stays exact.
"""
from __future__ import annotations


def judge(exit_code: int, check, *args) -> list[str]:
    """Failures of one op: a non-zero exit, else whatever `check` finds.

    A document that is missing or too malformed to read is a failure too.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return check(*args)
    except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def announcements_expected(blocks: int) -> int:
    """Bidirectional session: start and end per side plus one per side per block."""
    return 4 + 2 * blocks


def session_failures(doc: dict, alice_bits: str, bob_bits: str, blocks: int) -> list[str]:
    """A bidirectional session-run document from `simulate`."""
    failures = []
    if doc["kind"] != "session-run":
        failures.append(f"kind {doc['kind']!r}, wanted 'session-run'")
    summary, private = doc["summary"], doc["private"]
    for flag in ("decode_ok_alice", "decode_ok_bob"):
        if summary[flag] is not True:
            failures.append(f"{flag} is {summary[flag]!r}")
    failures += _decode_failures(private, alice_bits, bob_bits)
    failures += _count_failures(doc, blocks)
    return failures


def _decode_failures(private: dict, alice_bits: str | None, bob_bits: str | None) -> list[str]:
    failures = []
    if bob_bits is not None and private["decoded_by_alice"] != bob_bits:
        failures.append("Alice's decode differs from Bob's message")
    if alice_bits is not None and private["decoded_by_bob"] != alice_bits:
        failures.append("Bob's decode differs from Alice's message")
    return failures


def _count_failures(doc: dict, blocks: int) -> list[str]:
    expected = announcements_expected(blocks)
    failures = []
    if len(doc["transcript"]) != expected:
        failures.append(f"transcript has {len(doc['transcript'])} lines, wanted {expected}")
    if doc["summary"]["announcements"] != expected:
        failures.append(
            f"summary counts {doc['summary']['announcements']} announcements, wanted {expected}"
        )
    return failures


def trials_failures(doc: dict, trials: int) -> list[str]:
    """A `simulate --trials` document: every trial present and exact."""
    failures = []
    rows = doc["trials"]
    if len(rows) != trials or doc["summary"]["trials"] != trials:
        failures.append(f"{len(rows)} trial rows, wanted {trials}")
    if doc["summary"]["all_decodes_exact"] is not True:
        failures.append("all_decodes_exact is not true")
    bad = [r["trial"] for r in rows
           if r["decode_ok_alice"] is not True or r["decode_ok_bob"] is not True]
    if bad:
        failures.append(f"{len(bad)} trials decode inexactly, first {bad[0]}")
    return failures


# Exact session totals (alice, bob, joint) per announcement pattern under
# uniform priors: one side's announcement carries nothing, both together
# reveal the 2-bit composite label.
MI_BITS_PER_BLOCK = {"both": (0.0, 0.0, 2.0), "a-only": (0.0, 0.0, 0.0)}


def analysis_failures(doc: dict, pattern: str, blocks: int) -> list[str]:
    """An `analyze` posterior report of a run with one announcement pattern."""
    failures = []
    totals = doc["session_totals"]
    if totals["blocks"] != blocks or len(doc["blocks"]) != blocks:
        failures.append(f"{totals['blocks']} blocks analysed, wanted {blocks}")
    got = (totals["mi_alice_bits"], totals["mi_bob_bits"], totals["mi_joint_bits"])
    want = tuple(blocks * bits for bits in MI_BITS_PER_BLOCK[pattern])
    if got != want:
        failures.append(f"session MI totals {got}, wanted {want}")
    if totals["inconsistent_blocks"]:
        failures.append(f"{len(totals['inconsistent_blocks'])} inconsistent blocks")
    odd = [b["index"] for b in doc["blocks"]
           if b["pattern"] != pattern or b["consistent"] is not True]
    if odd:
        failures.append(f"{len(odd)} blocks off pattern {pattern!r}, first {odd[0]}")
    if pattern not in doc["monte_carlo"]:
        failures.append(f"no Monte Carlo estimate for pattern {pattern!r}")
    return failures


def loopback_failures(
    doc_a: dict, doc_b: dict, alice_bits: str, bob_bits: str, blocks: int
) -> list[str]:
    """The two halves of a networked session: each side decodes its
    partner exactly and both saw the same transcript."""
    failures = []
    for side, doc in (("A", doc_a), ("B", doc_b)):
        if doc["session"]["party"] != side:
            failures.append(f"side {side} document names party {doc['session']['party']!r}")
        failures += [f"side {side}: {f}" for f in _count_failures(doc, blocks)]
    failures += _decode_failures(doc_a["private"], None, bob_bits)
    failures += _decode_failures(doc_b["private"], alice_bits, None)
    failures += transcript_failures(doc_a, doc_b)
    return failures


def transcript_failures(doc: dict, other: dict) -> list[str]:
    """Two documents of one session must carry byte-identical transcripts."""
    if doc["transcript"] == other["transcript"]:
        return []
    ours, theirs = doc["transcript"], other["transcript"]
    line = next(
        (i for i, (x, y) in enumerate(zip(ours, theirs)) if x != y),
        min(len(ours), len(theirs)),
    )
    return [f"transcripts differ from line {line + 1}"]


def replay_failures(doc: dict, alice_bits: str, bob_bits: str) -> list[str]:
    """Replaying a stored run must reproduce both decodes."""
    from swapcomm.documents import replay_document

    result = replay_document(doc)
    failures = []
    if result.decoded_by_alice is None or result.decoded_by_alice.declared_bits != bob_bits:
        failures.append("replay does not reproduce Alice's decode")
    if result.decoded_by_bob is None or result.decoded_by_bob.declared_bits != alice_bits:
        failures.append("replay does not reproduce Bob's decode")
    return failures


def verify_failures(stdout: str) -> list[str]:
    """`swapcomm verify` output: at least one check and every check ok."""
    statuses = [line.split("]", 1)[0] + "]" for line in stdout.splitlines()
                if line.startswith("[")]
    failed = [s for s in statuses if s != "[ok]"]
    if not statuses:
        return ["verify reported no checks"]
    if failed:
        return [f"{len(failed)} of {len(statuses)} verify checks failed"]
    return []
