"""Serialized session documents.

JSON is the machine-normative format; csv holds the per-block table and
text prints a block-by-block trace. Documents carry no timestamps, so the
same flags and seed always produce byte-identical output. The private
section (operations, outcomes, messages, decodes) is clearly segregated
from the public transcript; an analyzer must only ever read the public
parts. A stored transcript's lines are read back by
channel.CodedLines.from_wire_lines; this module checks the document
around them.
"""
from __future__ import annotations

import csv
import json
from types import SimpleNamespace

import numpy as np

from . import __version__, jsontext
from .channel import (
    MAX_FRAME_BYTES,
    AnnouncementKind,
    CodedLines,
    FrameError,
    _wire_template,
)
from .protocol import (
    STREAM,
    BlockColumns,
    MessageBits,
    SessionConfig,
    SessionMode,
    SessionResult,
    SilentFallback,
    Transcript,
    replay,
)
from .quantum import PauliCode
from .swap import ENCODING_ORDER

TOOL = {"name": "swapcomm", "version": __version__}

# The public session fields a transcript is rebuilt from, with their types.
_SESSION_TYPES = {
    "id": str,
    "n_pairs": int,
    "mode": str,
    "fallback": str,
    "alice_declared_length": (int, type(None)),
    "bob_declared_length": (int, type(None)),
}


def _message_field(message: MessageBits | None) -> str | None:
    return message.declared_bits if message is not None else None


def _session_section(config: SessionConfig, transcript: Transcript) -> dict:
    return {
        "id": transcript.session_id,
        "n_pairs": transcript.n_pairs,
        "usable_blocks": transcript.usable_blocks,
        "idle_final_pair": transcript.n_pairs % 2 == 1,
        "mode": transcript.mode.value,
        "fallback": transcript.fallback.value,
        "seed": config.seed,
        "stream": STREAM,
        "alice_declared_length": transcript.alice_declared_length,
        "bob_declared_length": transcript.bob_declared_length,
    }


# The private block table of a format 2 run document: per field, in this
# order, one string with a character per block, block k's at position
# k - 1. The character is the block's code in BlockColumns.rows(), "-"
# for -1 (no operation) and otherwise its digit. A field has its lowest
# code and the values that its codes stand for, from that code up.
_OPS = (None, *(op.name for op in PauliCode))
_LABELS = tuple(label.value for label in ENCODING_ORDER)
_ROW_FIELDS = {
    "op_a": (-1, _OPS), "op_b": (-1, _OPS),
    "outcome_a": (0, _LABELS), "outcome_b": (0, _LABELS),
    "announced_a": (0, (False, True)), "announced_b": (0, (False, True)),
}
_CODE_CHARS = np.frombuffer(b"-0123", np.uint8)  # code c's character is at c + 1
_CHAR_CODES = np.full(256, 9, np.intp)  # each byte's code; 9 is no code
_CHAR_CODES[_CODE_CHARS] = np.arange(-1, 4)


def _block_table(blocks: BlockColumns) -> dict:
    """The block table's six columns, each one gather of _CODE_CHARS."""
    return {field: _CODE_CHARS[code + 1].tobytes().decode("ascii")
            for field, code in zip(_ROW_FIELDS, blocks.rows())}


def _transcript_lines(lines: CodedLines) -> jsontext.KeyedItems:
    """The wire lines of coded lines, as a column over the session's
    wire template."""
    prefix, suffixes = _wire_template(lines.session_id)
    return jsontext.KeyedItems(
        suffixes.tolist(), lines.codes.tolist(), lines.blocks.tolist(), prefix
    )


def decode_ok(decoded: MessageBits | None, sent: MessageBits | None) -> bool | None:
    """Whether a decode reproduces the sent message; None if either is absent."""
    if decoded is None or sent is None:
        return None
    return decoded.declared_bits == sent.declared_bits


def run_document(config: SessionConfig, result: SessionResult) -> dict:
    """The session-run document, in format 2. Its transcript is a
    jsontext.KeyedItems column, and its private blocks are the block
    table: a dict of six strings."""
    t = result.transcript
    lines = t.lines
    return {
        "tool": dict(TOOL),
        "kind": "session-run",
        "format": 2,
        "session": _session_section(config, t),
        "transcript": _transcript_lines(lines),
        "private": {
            "alice_message": _message_field(config.alice_message),
            "bob_message": _message_field(config.bob_message),
            "blocks": _block_table(result.blocks),
            "decoded_by_alice": _message_field(result.decoded_by_alice),
            "decoded_by_bob": _message_field(result.decoded_by_bob),
        },
        "summary": {
            "announcements": len(lines),
            "measurement_announcements": lines.count(AnnouncementKind.MEASUREMENT),
            "decode_ok_alice": decode_ok(result.decoded_by_alice, config.bob_message),
            "decode_ok_bob": decode_ok(result.decoded_by_bob, config.alice_message),
        },
    }


def transcript_from_document(doc: dict) -> Transcript:
    """Rebuild the public transcript; reads only the public sections."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if not isinstance(doc.get("session", {}), dict):
        raise ValueError("session must be a JSON object")
    try:
        session = doc["session"]
        lines = doc["transcript"]
        fields = {key: session[key] for key in _SESSION_TYPES}
    except KeyError as exc:
        raise ValueError(f"not a transcript document: missing {exc}") from exc
    for key, types in _SESSION_TYPES.items():
        if isinstance(fields[key], bool) or not isinstance(fields[key], types):
            raise ValueError(f"session {key} has the wrong type: {fields[key]!r}")
    if not isinstance(lines, list) or (
        set(map(type, lines)) != {str}  # a str subclass takes the generator
        and not all(isinstance(line, str) for line in lines)
    ):
        raise ValueError("transcript must be a list of wire lines")
    for key in ("n_pairs", "alice_declared_length", "bob_declared_length"):
        if fields[key] is not None and fields[key] < 0:
            raise ValueError(f"session {key} must be non-negative, got {fields[key]}")
    # A session announces at least one line per block; this also bounds the
    # per-block work of an analysis by the document's size.
    if fields["n_pairs"] // 2 > len(lines):
        raise ValueError(
            f"session n_pairs {fields['n_pairs']} needs {fields['n_pairs'] // 2} "
            f"blocks but the transcript has only {len(lines)} lines"
        )
    # The wire's frame cap, which counts the newline a document line lacks.
    # No character takes more than 4 bytes, so short lines need no encoding.
    if 4 * max(map(len, lines), default=0) >= MAX_FRAME_BYTES:
        for number, line in enumerate(lines):
            if len(line.encode("utf-8", "surrogatepass")) >= MAX_FRAME_BYTES:
                raise FrameError(
                    f"transcript line {number} is longer than {MAX_FRAME_BYTES - 1} bytes",
                    MAX_FRAME_BYTES - 1,
                )
    mode = SessionMode(fields["mode"])
    fallback = SilentFallback(fields["fallback"])
    transcript = Transcript(
        session_id=fields["id"],
        n_pairs=fields["n_pairs"],
        mode=mode,
        fallback=fallback,
        alice_declared_length=fields["alice_declared_length"],
        bob_declared_length=fields["bob_declared_length"],
        lines=CodedLines.from_wire_lines(fields["id"], lines),
    )
    transcript.check_measured_blocks()
    return transcript


def _table_fault(field: str, block: int, problem: str) -> ValueError:
    return ValueError(f"private blocks {field} at block {block}: {problem}")


def _read_block_table(doc: dict, n: int) -> np.ndarray:
    """The six code rows of BlockColumns.rows() from the block table of
    a format 2 run document of n blocks. An n that is no count is a
    ValueError, and so is any column fault, named by column and block."""
    private = doc.get("private")
    table = private.get("blocks") if isinstance(private, dict) else None
    if doc.get("format") != 2 or not isinstance(table, dict):
        s = doc["session"] if isinstance(doc.get("session"), dict) else {}
        raise ValueError(
            "private blocks are not a format 2 block table: regenerate the document with "
            f"`swapcomm simulate --pairs {s.get('n_pairs')} --seed {s.get('seed')} "
            f"--mode {s.get('mode')} --fallback {s.get('fallback')}`, and its private "
            "alice_message and bob_message, where not null, as --alice-msg and --bob-msg"
        )
    unknown = [field for field in table if field not in _ROW_FIELDS]
    if unknown:
        raise _table_fault(repr(unknown[0]), 1, "not a column of the block table")
    if type(n) is not int or n < 0:
        raise ValueError(f"private blocks: usable_blocks {n!r} is not a count of blocks")
    codes = []  # each row made only once its column is n characters long
    for field, (low, values) in _ROW_FIELDS.items():
        text = table.get(field)
        if not isinstance(text, str):
            raise _table_fault(field, 1, "missing" if field not in table
                               else f"a {type(text).__name__}, not a string")
        if len(text) != n:
            raise _table_fault(field, min(len(text), n) + 1,
                               f"{len(text)} characters for {n} blocks")
        # Each character outside ASCII becomes one "?", which has no code.
        row = _CHAR_CODES[np.frombuffer(text.encode("ascii", "replace"), np.uint8)]
        bad = np.flatnonzero((row < low) | (row >= low + len(values)))
        if bad.size:
            alphabet = _CODE_CHARS[low + 1:low + 1 + len(values)].tobytes().decode()
            raise _table_fault(field, int(bad[0]) + 1,
                               f"{text[bad[0]]!r} is not one of {alphabet!r}")
        codes.append(row)
    return np.array(codes)


def _section(doc: dict, name: str, fields) -> dict:
    """doc[name], a JSON object that must hold every one of `fields`."""
    section = doc.get(name)
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object")
    for field in fields:
        if field not in section:
            raise ValueError(f"{name} has no field {field!r}")
    return section


def replay_document(doc: dict) -> SessionResult:
    """Re-derive the decoded messages recorded in a session document."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("kind") != "session-run":
        raise ValueError(f"cannot replay a {doc.get('kind')!r} document")
    transcript = transcript_from_document(doc)
    rows = _read_block_table(doc, transcript.usable_blocks)
    return replay(transcript, BlockColumns(rows[:4], rows[4:]))


def render_json(doc: dict, write) -> None:
    """Pass `write` exactly `json.dumps(doc, indent=2) + "\\n"`, the pinned
    document format, in slices as it renders."""
    jsontext.stream(doc, write)


def _block_kinds(doc: dict, fmt: str) -> tuple[list, list]:
    """A session-run document's distinct kinds of block, each a tuple of
    its six fields' values, in the order of their numbers (a digit per
    field in the range of its values), and each block's kind."""
    if not isinstance(doc, dict) or doc.get("kind") != "session-run":
        raise ValueError(f"{fmt} format applies to session-run documents only")
    lows, values = zip(*_ROW_FIELDS.values())
    ranges = list(map(len, values))
    codes = _read_block_table(doc, _section(doc, "session", ["usable_blocks"])["usable_blocks"])
    kind = np.ravel_multi_index(tuple(codes - np.array(lows)[:, None]), ranges)
    seen = np.bincount(kind, minlength=1) > 0
    digits = np.unravel_index(np.flatnonzero(seen), ranges)
    kinds = zip(*(map(field.__getitem__, digit.tolist()) for field, digit in zip(values, digits)))
    return list(kinds), (np.cumsum(seen) - 1)[kind].tolist()


def render_csv(doc: dict, write) -> None:
    """Per-block table; private columns, so only for session-run documents.
    Each kind of row is one csv line, written with the index 0 and cut
    after it; every block's index is spliced in by jsontext.write_rows."""
    kinds, which = _block_kinds(doc, "csv")
    # writerow returns what its file's write returns: here the csv line.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    write(line(["index", *_ROW_FIELDS]))
    tails = [line([0, *kind])[1:] for kind in kinds]
    jsontext.write_rows(write, "%d%s", len(which), tails, which, range(1, len(which) + 1))


def render_text(doc: dict, write) -> None:
    """Block-by-block trace of a session run: each kind of block line is
    made once, and block k's numbers, k, 2k-1 and 2k, are spliced in by
    jsontext.write_rows."""
    kinds, which = _block_kinds(doc, "text")
    s = _section(doc, "session", ["id", "mode", "fallback", "n_pairs", "seed", "idle_final_pair"])
    p = _section(doc, "private", ["alice_message", "bob_message",
                                  "decoded_by_alice", "decoded_by_bob"])
    write(f"session {s['id']}  mode={s['mode']}  fallback={s['fallback']}  "
          f"pairs={s['n_pairs']}  seed={s['seed']}\n")
    write(f"blocks: {s['usable_blocks']}"
          + ("  (final odd pair idle)\n" if s["idle_final_pair"] else "\n"))
    if p["alice_message"] is not None:
        write(f"alice sends: {p['alice_message'] or '(empty)'}\n")
    if p["bob_message"] is not None:
        write(f"bob sends:   {p['bob_message'] or '(empty)'}\n")
    tails = []
    for op_a, op_b, outcome_a, outcome_b, announced_a, announced_b in kinds:
        ops = f"ops A={op_a or '--'} B={op_b or '--'}".lower()
        announced = ",".join(
            side for side, on in (("A", announced_a), ("B", announced_b)) if on
        ) or "none"
        tails.append(f"  {ops}  measured A={outcome_a} B={outcome_b}  announced {announced}\n")
    n = len(which)
    jsontext.write_rows(write, "block %d: pairs (%d,%d)%s", n, tails, which,
                        range(1, n + 1), range(1, 2 * n, 2), range(2, 2 * n + 1, 2))
    if p["decoded_by_alice"] is not None:
        write(f"decoded by alice: {p['decoded_by_alice'] or '(empty)'}\n")
    if p["decoded_by_bob"] is not None:
        write(f"decoded by bob:   {p['decoded_by_bob'] or '(empty)'}\n")


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def render(doc: dict, fmt: str) -> str:
    """What RENDERERS[fmt] writes of `doc`, as one string."""
    if fmt not in RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    out: list = []
    RENDERERS[fmt](doc, out.append)
    return "".join(out)


def load_document(path: str, object_pairs_hook=None):
    """The JSON in the file `path`; a file that is not UTF-8 JSON is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=object_pairs_hook)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from exc
