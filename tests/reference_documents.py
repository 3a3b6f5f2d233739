"""The per-block csv and text renderers, kept as test references.

render_csv and render_text as they were while each walked a document's
private.blocks row by row: one dict per block, written by csv.DictWriter
or formatted into one line of the trace, and the whole text returned as
one string. The functions are verbatim. The renderers that write each kind
of block row once, with every block's numbers spliced in, must give the
same bytes.
"""
from __future__ import annotations

import csv
import io


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

