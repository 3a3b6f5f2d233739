"""The per-block csv and text renderers, kept as test references.

render_csv and render_text as they were while each walked a document's
private.blocks row by row: one dict per block, written by csv.DictWriter
or formatted into one line of the trace, and the whole text returned as
one string. The functions are verbatim. The renderers that write each kind
of block row once, with every block's numbers spliced in, must give the
same bytes.

write_rows is jsontext.write_rows as it was while each slice's arguments
were zipped row by row, verbatim; the one that lays them out a column at
a time must write the same slices.

as_lists expands every column of a value into the list it renders as,
from the column's public fields alone, so that json.dumps of the result
is the text jsontext must write.
"""
from __future__ import annotations

import csv
import io
from itertools import chain

from swapcomm.jsontext import _CHUNK, KeyedItems, RowColumns


def render_csv(doc: dict) -> str:
    """Per-block table; private columns, so only for session-run documents."""
    if doc.get("kind") != "session-run":
        raise ValueError("csv format applies to session-run documents only")
    out = io.StringIO()
    fields = ["index", "op_a", "op_b", "outcome_a", "outcome_b",
              "announced_a", "announced_b"]
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in doc["private"]["blocks"]:
        writer.writerow(row)
    return out.getvalue()


def render_text(doc: dict) -> str:
    """Block-by-block trace of a session run."""
    if doc.get("kind") != "session-run":
        raise ValueError("text format applies to session-run documents only")
    s = doc["session"]
    p = doc["private"]
    lines = [
        f"session {s['id']}  mode={s['mode']}  fallback={s['fallback']}  "
        f"pairs={s['n_pairs']}  seed={s['seed']}",
        f"blocks: {s['usable_blocks']}"
        + ("  (final odd pair idle)" if s["idle_final_pair"] else ""),
    ]
    if p["alice_message"] is not None:
        lines.append(f"alice sends: {p['alice_message'] or '(empty)'}")
    if p["bob_message"] is not None:
        lines.append(f"bob sends:   {p['bob_message'] or '(empty)'}")
    for row in p["blocks"]:
        k = row["index"]
        ops = (f"ops A={row['op_a'] or '--'} B={row['op_b'] or '--'}").lower()
        announced = ",".join(
            side for side, on in (("A", row["announced_a"]), ("B", row["announced_b"]))
            if on
        ) or "none"
        lines.append(
            f"block {k}: pairs ({2 * k - 1},{2 * k})  {ops}  "
            f"measured A={row['outcome_a']} B={row['outcome_b']}  announced {announced}"
        )
    if p["decoded_by_alice"] is not None:
        lines.append(f"decoded by alice: {p['decoded_by_alice'] or '(empty)'}")
    if p["decoded_by_bob"] is not None:
        lines.append(f"decoded by bob:   {p['decoded_by_bob'] or '(empty)'}")
    return "\n".join(lines) + "\n"



def write_rows(write, row: str, n: int, tails: list, which, *columns) -> None:
    """Pass `write` row % (columns[0][i], ..., tails[which[i]]) for i in
    0..n-1, one C-level % per slice of _CHUNK rows. "%d" writes an int as
    str() does. Keep a row's separator in its tail: % scans the format's
    literal text once per row."""
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        pieces = chain.from_iterable(zip(
            *(column[start:stop] for column in columns),
            map(tails.__getitem__, which[start:stop]),
        ))
        write(row * (stop - start) % tuple(pieces))


def as_lists(value):
    """`value` with each column, at any depth of dicts and lists, as the
    list of its items: a KeyedItems item is prefix + str(key) + kind, or
    its dict kind with the key in its first field; a RowColumns row is a
    dict of one value from each column."""
    if isinstance(value, KeyedItems):
        if value.prefix is not None:
            return [f"{value.prefix}{key}{value.kinds[kind]}"
                    for kind, key in zip(value.which, value.keys)]
        return [{**value.kinds[kind], next(iter(value.kinds[kind])): key}
                for kind, key in zip(value.which, value.keys)]
    if isinstance(value, RowColumns):
        return [dict(zip(value.columns, row)) for row in zip(*value.columns.values())]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value
