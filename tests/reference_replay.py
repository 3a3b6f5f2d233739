"""The per-record replay path, kept as a test reference.

Copies of documents.replay_document, documents._blocks_from_document,
protocol.replay, BlockColumns.from_records and Transcript.measurements as
they were before replay ran on code columns: one BlockRecord built per
block row, and replay's checks walked record by record. The only edits
are the names, the imports, and that from_records and measurements are
functions. The column path must give an equal SessionResult, or the same
error with the same message and block.
"""
from __future__ import annotations

import numpy as np

from swapcomm.channel import SIDES, AnnouncementKind
from swapcomm.documents import transcript_from_document
from swapcomm.protocol import (
    BlockColumns,
    BlockRecord,
    ReplayError,
    SessionConfig,
    SessionResult,
    Transcript,
    _decode,
)
from swapcomm.quantum import BellLabel, PauliCode
from swapcomm.swap import ENCODING_ORDER, LABEL_CODES, SwapOutcome, generate_decode_table


def replay_document(doc: dict) -> SessionResult:
    """Re-derive the decoded messages recorded in a session document."""
    if doc.get("kind") != "session-run":
        raise ValueError(f"cannot replay a {doc.get('kind')!r} document")
    return replay(transcript_from_document(doc), blocks_from_document(doc))


def blocks_from_document(doc: dict) -> tuple[BlockRecord, ...]:
    private = doc.get("private")
    rows = private.get("blocks") if isinstance(private, dict) else None
    if not isinstance(rows, list):
        raise ValueError("private blocks must be a list of block rows")
    records = []
    for number, row in enumerate(rows):
        try:
            records.append(BlockRecord(
                index=row["index"],
                op_a=PauliCode[row["op_a"]] if row["op_a"] is not None else None,
                op_b=PauliCode[row["op_b"]] if row["op_b"] is not None else None,
                outcome=SwapOutcome(
                    BellLabel(row["outcome_a"]), BellLabel(row["outcome_b"])
                ),
                announced_a=row["announced_a"],
                announced_b=row["announced_b"],
            ))
        except (KeyError, TypeError, ValueError) as exc:  # a missing, mistyped or unknown value
            raise ValueError(
                f"block row {number} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
    return tuple(records)


def columns_from_records(records: tuple[BlockRecord, ...]) -> BlockColumns:
    codes = np.array(
        [(-1 if rec.op_a is None else rec.op_a.code,
          -1 if rec.op_b is None else rec.op_b.code,
          LABEL_CODES[rec.outcome.a_side],
          LABEL_CODES[rec.outcome.b_side]) for rec in records],
        dtype=np.intp,
    ).reshape(-1, 4).T
    flags = np.array(
        [(rec.announced_a, rec.announced_b) for rec in records], dtype=bool
    ).reshape(-1, 2).T
    columns = BlockColumns(tuple(codes), tuple(flags))
    columns._records = records
    return columns


def measurements(transcript: Transcript, side: str) -> dict[int, BellLabel]:
    """Announced measurement labels for one side, keyed by block."""
    out: dict[int, BellLabel] = {}
    for ann in transcript.announcements:
        if ann.kind is AnnouncementKind.MEASUREMENT and ann.side == side:
            if ann.block in out:
                raise ValueError(
                    f"side {side} announced block {ann.block} twice"
                )
            out[ann.block] = ann.label
    return out


def replay(transcript: Transcript, blocks) -> SessionResult:
    """Re-derive decoded messages from a transcript plus the parties'
    private block records, without re-sampling anything.

    Every cross-check failure raises ReplayError naming the block: announced
    labels must match the recorded outcomes, the announcement pattern must
    match the session mode, and each recorded outcome must lie in the
    outcome column of the recorded operations.
    """
    blocks = tuple(blocks)
    table = generate_decode_table()
    if len(blocks) != transcript.usable_blocks:
        raise ReplayError(
            f"{len(blocks)} records for {transcript.usable_blocks} blocks", 0
        )
    announced = {side: measurements(transcript, side) for side in SIDES}
    pattern = SessionConfig(
        transcript.n_pairs, transcript.mode, transcript.fallback
    ).announce_pattern()
    for side, announces in zip(SIDES, pattern):
        expected = set(range(1, transcript.usable_blocks + 1)) if announces else set()
        got = set(announced[side])
        if got != expected:
            odd = min(got.symmetric_difference(expected), default=0)
            raise ReplayError(f"side {side} announcement pattern is inconsistent", odd)

    columns = columns_from_records(blocks)
    composite = table.composite_codes[np.maximum(columns.op_a, 0), np.maximum(columns.op_b, 0)]
    outside = np.flatnonzero(table.infer_codes[columns.label_a, columns.label_b] != composite)
    first_outside = int(outside[0]) + 1 if outside.size else 0

    for pos, rec in enumerate(blocks, start=1):
        if rec.index != pos:
            raise ReplayError(f"record index {rec.index} out of order", pos)
        if (rec.announced_a, rec.announced_b) != pattern:
            raise ReplayError("announced flags disagree with the session mode", pos)
        for side, announces, label in zip(SIDES, pattern, rec.outcome):
            if announces and announced[side][rec.index] is not label:
                raise ReplayError(
                    f"side {side} announced "
                    f"{announced[side][rec.index].value}, record says {label.value}",
                    rec.index,
                )
        if pos == first_outside:
            raise ReplayError(
                f"outcome {rec.outcome!r} is outside the "
                f"{ENCODING_ORDER[composite[pos - 1]].value} column of the recorded operations",
                rec.index,
            )

    return SessionResult(*_decode(transcript, columns, table), blocks, transcript)
