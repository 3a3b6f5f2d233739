"""Indented JSON text, exactly as `json.dumps(value, indent=2)` writes it.

CPython writes indented JSON with its pure-Python encoder, one value at a
time. `stream` produces the same bytes with less work, in one walk of the
value: it walks only dicts in Python, and writes a `KeyedItems` column,
such as a session's transcript or block rows, from one `json.dumps`
rendering per kind of item with each item's key spliced in. Every other
value, a list or a scalar, is one `json.dumps` call where the walk meets
it. The text goes to a write callable as the walk makes it, a `KeyedItems`
in slices of _CHUNK items by `write_rows`, so no whole-document string is
ever built. `write_rows` splices keys into per-kind text for the csv and
text documents too.

A `KeyedItems` reads like the list it stands for, but it is not a list:
`json.dumps` of a value that holds one raises TypeError rather than write
other text. Pass `default=list` to render it the slow way.
"""
from __future__ import annotations

import json
from itertools import chain

# Rows formatted per write by write_rows: each write then holds one
# slice's text, not the whole list's.
_CHUNK = 4096


class KeyedItems:
    """A read-only list whose items differ only in one int key.

    Item i is the kind kinds[which[i]] with the int keys[i] spliced in. A
    kind is a dict, whose first field takes the key, or a string: the item
    is then prefix + str(key) + kind. Dict kinds must name their first
    field alike. `which` is a list of kind indexes and `keys` a list or
    range of ints, by default each item's position from 1. Items are built
    only when read, and each read builds a new one.
    """

    __slots__ = ("kinds", "which", "keys", "_prefix")

    def __init__(self, kinds: list, which: list[int], keys=None, prefix: str | None = None):
        if keys is None:
            keys = range(1, len(which) + 1)
        if len(which) != len(keys):
            raise ValueError(f"{len(which)} kinds for {len(keys)} keys")
        if prefix is None and len({next(iter(kind)) for kind in kinds}) > 1:
            raise ValueError("KeyedItems dict kinds must share their first field's name")
        self.kinds, self.which, self.keys, self._prefix = kinds, which, keys, prefix

    def _item(self, kind: int, key: int):
        if self._prefix is not None:
            return f"{self._prefix}{key}{self.kinds[kind]}"
        item = self.kinds[kind].copy()
        item[next(iter(item))] = key
        return item

    def __len__(self) -> int:
        return len(self.which)

    def __iter__(self):
        return map(self._item, self.which, self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._item, self.which[index], self.keys[index]))
        return self._item(self.which[index], self.keys[index])

    def __eq__(self, other):
        if isinstance(other, (KeyedItems, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # like a list

    def __repr__(self) -> str:
        return repr(list(self))

    def _render(self, pad: str, write) -> None:
        """Pass the list to `write` as json.dumps(indent=2) renders it on a
        line indented by `pad`, in slices of at most _CHUNK items.

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


def stream(value, write) -> None:
    """Pass `write` exactly `json.dumps(value, indent=2) + "\\n"`, with a
    KeyedItems written as its list, in pieces as the walk makes them: a
    KeyedItems one slice of _CHUNK items at a time, any other value but a
    dict in one json.dumps call. A value json.dumps cannot write raises
    its TypeError after the pieces before it were passed on."""
    _render(value, "", write)
    write("\n")


def _keyed_list(value) -> list:
    """json.dumps's default: a KeyedItems as its list, and nothing else."""
    if isinstance(value, KeyedItems):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value, pad: str) -> str:
    """json.dumps(indent=2) of `value` on a line indented by `pad`."""
    return json.dumps(value, indent=2, default=_keyed_list).replace("\n", "\n" + pad)


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, pad: str, write) -> None:
    """Pass `value` to `write` as json.dumps(indent=2) renders it on a line
    indented by `pad`: a KeyedItems from its kinds, a non-empty dict with
    str keys field by field, and anything else as one json.dumps call."""
    if isinstance(value, KeyedItems):
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
