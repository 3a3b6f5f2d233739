"""Indented JSON text, exactly as `json.dumps(value, indent=2)` writes it.

CPython writes indented JSON with its pure-Python encoder, one value at a
time. `stream` produces the same bytes with less work, in one walk of the
value: it walks only dicts in Python, and writes two kinds of column from
row text with each row's values spliced in. A `KeyedItems`, such as a
session's transcript or an analysis's rows, is one `json.dumps` rendering per
kind of item with each item's int key spliced in. A `RowColumns`, such as
a trials document's rows, is one row text with every field's value
spliced in, ints through %d, so its rows never pass through `json.dumps`.
Every other value, a list or a scalar, is one `json.dumps` call where the
walk meets it. The text goes to a write callable as the walk makes it, a
column in slices of _CHUNK rows by `write_rows`, so no whole-document
string is ever built. `write_rows` is the one splice of code columns
into text: it writes the csv and text documents and the wire windows of
channel.CodedLines too.

A column is not a list, and has no other use than to be rendered. `stream`
renders it where the walk meets it: as the value streamed, or as a value
in a dict with str keys. Anywhere else, in a list for example, and in
`json.dumps` of a value that holds one, it raises json.dumps's own
TypeError rather than write other text.
"""
from __future__ import annotations

import json
from operator import itemgetter

# Rows formatted per write by write_rows: each write then holds one
# slice's text, not the whole list's.
_CHUNK = 4096

_encode_str = json.encoder.encode_basestring_ascii


class KeyedItems:
    """A column of items that differ only in one int key.

    Item i is the kind kinds[which[i]] with the int keys[i] spliced in. A
    kind is a dict, whose first field takes the key, or a string: the item
    is then prefix + str(key) + kind. Dict kinds must name their first
    field alike. `which` is a list of kind indexes and `keys` a list or
    range of ints, by default each item's position from 1. Items are built
    only when rendered.
    """

    __slots__ = ("kinds", "which", "keys", "prefix")

    def __init__(self, kinds: list, which: list[int], keys=None, prefix: str | None = None):
        if keys is None:
            keys = range(1, len(which) + 1)
        if len(which) != len(keys):
            raise ValueError(f"{len(which)} kinds for {len(keys)} keys")
        if prefix is None and len({next(iter(kind)) for kind in kinds}) > 1:
            raise ValueError("KeyedItems dict kinds must share their first field's name")
        self.kinds, self.which, self.keys, self.prefix = kinds, which, keys, prefix

    def _item(self, kind: int, key: int):
        if self.prefix is not None:
            return f"{self.prefix}{key}{self.kinds[kind]}"
        item = self.kinds[kind].copy()
        item[next(iter(item))] = key
        return item

    def __len__(self) -> int:
        return len(self.which)

    def _render(self, pad: str, write) -> None:
        """Pass `write` the list of the items as json.dumps(indent=2) renders
        it on a line indented by `pad`, in slices of at most _CHUNK items.

        Each kind is rendered once by json.dumps, with the key 0. The text
        before the key, its head, is where the renderings of the first kind
        with the keys 0 and 1 differ; it names the first field, or holds the
        prefix, so the key follows it in every kind. Every item but the last
        is then its key and its kind's tail, which ends in the separator and
        the next item's head, written by write_rows.
        """
        n = len(self.which)
        if not n:
            write("[]")
            return
        if set(map(type, self.keys)) != {int}:  # str(True) is not JSON
            raise TypeError("KeyedItems keys must be ints")
        inner = pad + "  "
        zero = [_dumps(self._item(kind, 0), inner) for kind in range(len(self.kinds))]
        one = _dumps(self._item(0, 1), inner)
        cut = next(i for i, (x, y) in enumerate(zip(zero[0], one)) if x != y)
        tails = [text[cut + 1:] for text in zero]
        sep = f",\n{inner}{zero[0][:cut]}"
        write(f"[\n{inner}{zero[0][:cut]}")
        write_rows(write, "%d%s", n - 1, [tail + sep for tail in tails], self.which, self.keys)
        write(f"{self.keys[-1]}{tails[self.which[-1]]}\n{pad}]")


# JSON's literals, by the values json.dumps writes as them.
_LITERALS = {True: "true", False: "false", None: "null"}


class RowColumns:
    """A column of dicts with the same fields, held as one column per
    field. `columns` maps each field, in order, to a list, tuple or range
    of the rows' values.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        if not columns or set(map(type, columns)) != {str}:
            raise ValueError("RowColumns needs one or more str fields")
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("RowColumns columns must be of one length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def _render(self, pad: str, write) -> None:
        """Pass `write` the list of the rows as json.dumps(indent=2) renders
        it on a line indented by `pad`, in slices of at most _CHUNK rows.

        Every row is one row text with each field's value spliced in by
        write_rows: a column of ints through %d, of bools and None as
        JSON's literals, of strs as encode_basestring_ascii escapes them,
        and of any other values one json.dumps call per value.
        """
        n = len(self)
        if not n:
            write("[]")
            return
        inner, field_pad = pad + "  ", pad + "    "
        fields, cells = [], []
        for field, column in self.columns.items():
            types = set(map(type, column))
            if types == {int}:
                spec, cell = "%d", column
            elif types <= {bool, type(None)}:
                spec, cell = "%s", list(map(_LITERALS.__getitem__, column))
            elif types == {str}:
                spec, cell = "%s", list(map(_encode_str, column))
            else:
                spec, cell = "%s", [_dumps(value, field_pad) for value in column]
            fields.append(f"{_encode_str(field).replace('%', '%%')}: {spec}")
            cells.append(cell)
        row = f"{{\n{field_pad}" + f",\n{field_pad}".join(fields) + f"\n{inner}}}%s"
        write(f"[\n{inner}")
        write_rows(write, row, n, [f",\n{inner}", ""], [0] * (n - 1) + [1], *cells)
        write(f"\n{pad}]")


def write_rows(write, row: str, n: int, tails: list, which, *columns) -> None:
    """Pass `write` row % (columns[0][i], ..., tails[which[i]]) for i in
    0..n-1, one C-level % per slice of _CHUNK rows. "%d" writes an int as
    str() does. Keep a row's separator in its tail: % scans the format's
    literal text once per row. Each slice's arguments are laid out by
    slice assignment, a column at a time, so no row builds a tuple."""
    width = len(columns) + 1
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        pieces = [None] * (width * (stop - start))
        for j, column in enumerate(columns):
            pieces[j::width] = column[start:stop]
        kinds = which[start:stop]
        # itemgetter of one index gives that item, not a 1-tuple.
        tail = itemgetter(*kinds)(tails)
        pieces[width - 1::width] = tail if len(kinds) > 1 else [tail]
        write(row * (stop - start) % tuple(pieces))


def stream(value, write) -> None:
    """Pass `write` exactly `json.dumps(value, indent=2) + "\\n"`, a column
    written as the list of its items, in pieces as the walk makes them: a
    column one slice of _CHUNK rows at a time, any other value but a dict
    in one json.dumps call. A value json.dumps cannot write raises its
    TypeError after the pieces before it were passed on."""
    _render(value, "", write)
    write("\n")


def _dumps(value, pad: str) -> str:
    """json.dumps(indent=2) of `value` on a line indented by `pad`."""
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _render(value, pad: str, write) -> None:
    """Pass `value` to `write` as json.dumps(indent=2) renders it on a line
    indented by `pad`: a column in slices, a non-empty dict with str keys
    field by field, and anything else as one json.dumps call."""
    if isinstance(value, (KeyedItems, RowColumns)):
        value._render(pad, write)
    elif isinstance(value, dict) and value and all(type(key) is str for key in value):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            write(f"{sep}{_encode_str(key)}: ")
            _render(item, inner, write)
            sep = ",\n" + inner
        write(f"\n{pad}}}")
    else:
        write(_dumps(value, pad))
