"""Indented JSON text, exactly as `json.dumps(value, indent=2)` writes it.

CPython writes indented JSON with its pure-Python encoder, one value at a
time. `render` produces the same bytes with less work: it walks only dicts
in Python, escapes a list of strings, such as a transcript, in one C-level
join, and renders a list of rows that repeat, such as block rows, once per
distinct row. Everything else goes to `json.dumps` itself, and a value with
nothing to gain is one `json.dumps` call.
"""
from __future__ import annotations

import json
from itertools import chain


def render(value) -> str:
    """Exactly `json.dumps(value, indent=2) + "\\n"`."""
    out: list = []
    later: list[int] = []
    if not _render(value, "", out, later):
        # Nothing in `value` renders faster than json.dumps does it whole.
        return json.dumps(value, indent=2) + "\n"
    for i in later:
        part, pad = out[i]
        out[i] = json.dumps(part, indent=2).replace("\n", "\n" + pad)
    out.append("\n")
    return "".join(out)


def indexed_rows(kinds: list[dict], which: list[int]) -> list[dict]:
    """A copy of kinds[w] for each w of `which`, its "index" set to its
    position from 1. The copies of a kind share its value objects, so
    `render` renders that kind's body once."""
    rows = list(map(dict.copy, map(kinds.__getitem__, which)))
    for index, row in enumerate(rows, start=1):
        row["index"] = index
    return rows


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, pad: str, out: list, later: list[int]) -> bool:
    """Append `value` as json.dumps(indent=2) renders it on a line indented
    by `pad`; True if some part of it took a faster path than json.dumps.

    A container that takes none is appended as (value, pad), its index
    noted in `later`, and rendered only if the document as a whole gains.
    """
    if isinstance(value, dict):
        if value and all(type(key) is str for key in value):
            inner = pad + "  "
            sep = "{\n" + inner
            gained = False
            for key, item in value.items():
                out.append(f"{sep}{_encode_str(key)}: ")
                gained = _render(item, inner, out, later) or gained
                sep = ",\n" + inner
            out.append(f"\n{pad}}}")
            return gained
    elif isinstance(value, (list, tuple)):
        if value and (_render_strings(value, pad, out) or _render_rows(value, pad, out)):
            return True
    else:
        out.append(json.dumps(value))  # a scalar renders the same without indent, in C
        return False
    later.append(len(out))
    out.append((value, pad))
    return False


def _render_strings(items, pad: str, out: list) -> bool:
    """Append a list of strings, such as a transcript; False if it is not one."""
    inner = pad + "  "
    try:
        lines = f",\n{inner}".join(map(_encode_str, items))
    except TypeError:  # an item is not a string
        return False
    out.append(f"[\n{inner}")
    out.append(lines)
    out.append(f"\n{pad}]")
    return True


def _render_rows(rows, pad: str, out: list) -> bool:
    """Append dicts with the same str keys and an int first field; False if
    `rows` are not such dicts or mostly differ.

    Rows like these, block rows for one, repeat: the rest of a row, its
    tail, is rendered once per distinct tail and each row's first field
    spliced in. Tails are told apart by the identities of their values,
    since equal values may render differently (1, True and 1.0; 0.0 and
    -0.0) while one object always renders the same; the rows keep every
    object alive for the call. Rows that mostly differ are left to one
    json.dumps of the list, which is cheaper then. Every per-row step
    iterates in C.
    """
    if set(map(type, rows)) != {dict}:
        return False
    keys = tuple(rows[0])
    width = len(keys)
    if not keys or not all(type(key) is str for key in keys):
        return False
    if list(chain.from_iterable(rows)) != [*keys] * len(rows):
        return False
    values = list(chain.from_iterable(map(dict.values, rows)))
    firsts = values[::width]
    if set(map(type, firsts)) != {int}:
        return False
    ids = list(map(id, values))
    ids[::width] = [0] * len(rows)  # a tail does not depend on the first field
    tail_ids = list(zip(*[iter(ids)] * width))
    distinct = dict(zip(tail_ids, rows))
    if 2 * len(distinct) > len(rows):
        return False

    inner = pad + "  "
    head = f"{{\n{inner}  {_encode_str(keys[0])}: "
    sep = f",\n{inner}{head}"
    tails = {}
    for tail_id, row in distinct.items():
        text = json.dumps(row, indent=2).replace("\n", "\n" + inner)
        tails[tail_id] = text[len(head) + len(str(row[keys[0]])):] + sep
    out.append(f"[\n{inner}{head}")
    out.extend(chain.from_iterable(zip(map(str, firsts), map(tails.__getitem__, tail_ids))))
    out[-1] = out[-1][:-len(sep)]
    out.append(f"\n{pad}]")
    return True
