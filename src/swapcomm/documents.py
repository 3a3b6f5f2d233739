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
import operator
from types import SimpleNamespace

import numpy as np

from . import __version__, jsontext
from .channel import (
    _MEASURED_SIDE,
    MAX_FRAME_BYTES,
    AnnouncementKind,
    CodedLines,
    FrameError,
    _wire_template,
)
from .protocol import (
    BlockColumns,
    MessageBits,
    SessionConfig,
    SessionMode,
    SessionResult,
    SilentFallback,
    Transcript,
    _flag_code,
    _replay_codes,
)
from .quantum import BellLabel, PauliCode
from .swap import ENCODING_ORDER, LABEL_CODES

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
        "alice_declared_length": transcript.alice_declared_length,
        "bob_declared_length": transcript.bob_declared_length,
    }


# The values that op, label and flag codes stand for, at their codes, and
# the parse of a value to its code. Op code c is at c + 1, so -1 is None.
_OP = ((None, *(op.name for op in PauliCode)),
       lambda name: -1 if name is None else PauliCode[name].code)
_LABEL = (tuple(label.value for label in ENCODING_ORDER),
          lambda value: LABEL_CODES[BellLabel(value)])
_FLAG = ((False, True), _flag_code)
# The block-row fields after the index, in row order. A block's kind is its
# codes as one number, a digit per field in the range of its values.
_ROW_FIELDS = {
    "op_a": _OP, "op_b": _OP,
    "outcome_a": _LABEL, "outcome_b": _LABEL,
    "announced_a": _FLAG, "announced_b": _FLAG,
}
_ROW_KIND = operator.itemgetter(*_ROW_FIELDS)
_ROW_INDEX = operator.itemgetter("index")


def _block_rows(blocks: BlockColumns) -> jsontext.KeyedItems:
    """One row per block, its "index" from 1: a column over one row per
    distinct kind of block, which each renderer reads once. The kinds are
    in the order of their numbers, found by a count over every block."""
    codes = (blocks.op_a + 1, blocks.op_b + 1, blocks.label_a, blocks.label_b, *blocks.announced)
    ranges = [len(values) for values, _ in _ROW_FIELDS.values()]
    kind = 0
    for code, size in zip(codes, ranges):
        kind = kind * size + code
    seen = np.bincount(kind, minlength=1) > 0
    which = (np.cumsum(seen) - 1)[kind]
    digits = np.unravel_index(np.flatnonzero(seen), ranges)
    columns = ([values[d] for d in digit.tolist()]
               for digit, (values, _) in zip(digits, _ROW_FIELDS.values()))
    kinds = [{"index": 0, **dict(zip(_ROW_FIELDS, row))} for row in zip(*columns)]
    return jsontext.KeyedItems(kinds, which.tolist())


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
    """The session-run document. Its transcript and block rows are
    jsontext.KeyedItems columns."""
    t = result.transcript
    lines = t.lines
    return {
        "tool": dict(TOOL),
        "kind": "session-run",
        "session": _session_section(config, t),
        "transcript": _transcript_lines(lines),
        "private": {
            "alice_message": _message_field(config.alice_message),
            "bob_message": _message_field(config.bob_message),
            "blocks": _block_rows(result.block_columns),
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
    usable_blocks = fields["n_pairs"] // 2
    coded = CodedLines.from_wire_lines(fields["id"], lines)
    measured = _MEASURED_SIDE[coded.codes] >= 0
    outside = np.flatnonzero(measured & ((coded.blocks < 1) | (coded.blocks > usable_blocks)))
    if outside.size:
        raise ValueError(
            f"measurement for block {coded.blocks[outside[0]]} outside 1..{usable_blocks}"
        )
    return Transcript(
        session_id=fields["id"],
        n_pairs=fields["n_pairs"],
        mode=mode,
        fallback=fallback,
        alice_declared_length=fields["alice_declared_length"],
        bob_declared_length=fields["bob_declared_length"],
        announcements=coded,
    )


def _row_codes(number: int, row: dict) -> list[int]:
    """Block row `number` as the codes of protocol._record_codes, each
    field read in turn after the index. A missing, mistyped or unknown
    value is a ValueError."""
    try:
        row["index"]  # a row without an index fails here first
        return [parse(row[field]) for field, (_, parse) in _ROW_FIELDS.items()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"block row {number} is malformed: {type(exc).__name__}: {exc}"
        ) from exc


def _blocks_from_document(doc: dict) -> tuple[list, np.ndarray]:
    """The index values of a run document's block rows, and the rows as
    the six code rows of protocol._record_codes. Each distinct kind of row
    is read once; the first malformed row is a ValueError."""
    private = doc.get("private")
    rows = private.get("blocks") if isinstance(private, dict) else None
    if not isinstance(rows, list):
        raise ValueError("private blocks must be a list of block rows")
    try:
        first = {}  # a kind of row -> the first row of that kind
        which = [first.setdefault(kind, i) for i, kind in enumerate(map(_ROW_KIND, rows))]
        indices = list(map(_ROW_INDEX, rows))
    except (KeyError, TypeError):  # a row that is not an object, lacks a field or is unhashable
        which, indices = range(len(rows)), None  # read every row
    numbers, kind = np.unique(which, return_inverse=True)
    codes = [_row_codes(number, rows[number]) for number in numbers.tolist()]
    if indices is None:
        indices = list(map(_ROW_INDEX, rows))
    return indices, np.array(codes, dtype=np.intp).reshape(-1, len(_ROW_FIELDS))[kind].T


def replay_document(doc: dict) -> SessionResult:
    """Re-derive the decoded messages recorded in a session document."""
    if doc.get("kind") != "session-run":
        raise ValueError(f"cannot replay a {doc.get('kind')!r} document")
    return _replay_codes(transcript_from_document(doc), *_blocks_from_document(doc))


def render_json(doc: dict, write) -> None:
    """Pass `write` exactly `json.dumps(doc, indent=2) + "\\n"`, the pinned
    document format, in slices as it renders."""
    jsontext.stream(doc, write)


def _block_items(doc: dict, fmt: str) -> jsontext.KeyedItems:
    """A session-run document's block rows as a KeyedItems. Rows read
    from a file, a plain list, are one kind each; an index that is not an
    int is a ValueError."""
    if doc.get("kind") != "session-run":
        raise ValueError(f"{fmt} format applies to session-run documents only")
    rows = doc["private"]["blocks"]
    if not isinstance(rows, jsontext.KeyedItems):
        rows = jsontext.KeyedItems(rows, range(len(rows)), list(map(_ROW_INDEX, rows)))
    if set(map(type, rows.keys)) - {int}:
        raise ValueError("block row index must be an int")
    return rows


def render_csv(doc: dict, write) -> None:
    """Per-block table; private columns, so only for session-run documents.
    Each kind of row is one csv line, written with the index 0 and cut
    after it; every block's index is spliced in by jsontext.write_rows."""
    blocks = _block_items(doc, "csv")
    # writerow returns what its file's write returns: here the csv line.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    write(line(["index", *_ROW_FIELDS]))
    tails = [line([0, *_ROW_KIND(kind)])[1:] for kind in blocks.kinds]
    jsontext.write_rows(write, "%d%s", len(blocks), tails, blocks.which, blocks.keys)


def render_text(doc: dict, write) -> None:
    """Block-by-block trace of a session run: each kind of block line is
    made once, and block k's numbers, k, 2k-1 and 2k, are spliced in by
    jsontext.write_rows."""
    blocks = _block_items(doc, "text")
    s = doc["session"]
    p = doc["private"]
    write(f"session {s['id']}  mode={s['mode']}  fallback={s['fallback']}  "
          f"pairs={s['n_pairs']}  seed={s['seed']}\n")
    write(f"blocks: {s['usable_blocks']}"
          + ("  (final odd pair idle)\n" if s["idle_final_pair"] else "\n"))
    if p["alice_message"] is not None:
        write(f"alice sends: {p['alice_message'] or '(empty)'}\n")
    if p["bob_message"] is not None:
        write(f"bob sends:   {p['bob_message'] or '(empty)'}\n")
    tails = []
    for kind in blocks.kinds:
        ops = f"ops A={kind['op_a'] or '--'} B={kind['op_b'] or '--'}".lower()
        announced = ",".join(
            side for side, on in (("A", kind["announced_a"]), ("B", kind["announced_b"]))
            if on
        ) or "none"
        tails.append(f"  {ops}  measured A={kind['outcome_a']} B={kind['outcome_b']}"
                     f"  announced {announced}\n")
    seconds = [2 * k for k in blocks.keys]
    jsontext.write_rows(write, "block %d: pairs (%d,%d)%s", len(blocks), tails, blocks.which,
                        blocks.keys, [k - 1 for k in seconds], seconds)
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


def load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc
