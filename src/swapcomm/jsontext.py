"""Indented JSON text, exactly as `json.dumps(value, indent=2)` writes it.

CPython writes indented JSON with its pure-Python encoder, one value at a
time. `render` produces the same bytes with less work, in one walk of the
value: it walks only dicts in Python, and writes a `KeyedItems` column,
such as a session's transcript or block rows, from one `json.dumps`
rendering per kind of item with each item's key spliced in. Every other
value, a list or a scalar, is one `json.dumps` call where the walk meets
it. `stream` passes that text to a write callable as the walk makes it,
a `KeyedItems` in slices of _CHUNK items, so no whole-document string is
ever built; `render` is the same walk, joined.

A `KeyedItems` reads like the list it stands for, but it is not a list:
`json.dumps` of a value that holds one raises TypeError rather than write
other text. Pass `default=list` to render it the slow way.
"""
from __future__ import annotations

import json
from itertools import chain

# Items of a KeyedItems rendered per write: each write then holds one
# slice's text, not the whole list's.
_CHUNK = 4096


class KeyedItems:
    """A read-only list whose items differ only in one int key.

    Item i is the kind kinds[which[i]] with the int keys[i] spliced in. A
    kind is a dict, whose first field takes the key, or a string: the item
    is then prefix + str(key) + kind. `which` is a list of kind indexes and
    `keys` a list or range of ints, by default each item's position from 1.
    Items are built only when read, and each read builds a new one.
    """

    __slots__ = ("_kinds", "_which", "_keys", "_prefix")

    def __init__(self, kinds: list, which: list[int], keys=None, prefix: str | None = None):
        if keys is None:
            keys = range(1, len(which) + 1)
        if len(which) != len(keys):
            raise ValueError(f"{len(which)} kinds for {len(keys)} keys")
        self._kinds, self._which, self._keys, self._prefix = kinds, which, keys, prefix

    def _item(self, kind: int, key: int):
        if self._prefix is not None:
            return f"{self._prefix}{key}{self._kinds[kind]}"
        item = self._kinds[kind].copy()
        item[next(iter(item))] = key
        return item

    def __len__(self) -> int:
        return len(self._which)

    def __iter__(self):
        return map(self._item, self._which, self._keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._item, self._which[index], self._keys[index]))
        return self._item(self._which[index], self._keys[index])

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
        prefix, so the key follows it in every kind that starts with it.
        Every item is then str(key) and its kind's tail, joined in C. Kinds
        whose heads differ leave each slice to json.dumps.
        """
        n = len(self._which)
        if not n:
            write("[]")
            return
        if set(map(type, self._keys)) != {int}:  # str(True) is not JSON
            raise TypeError("KeyedItems keys must be ints")
        inner = pad + "  "
        zero = [_dumps(self._item(kind, 0), inner) for kind in range(len(self._kinds))]
        one = _dumps(self._item(0, 1), inner)
        cut = next(i for i, (x, y) in enumerate(zip(zero[0], one)) if x != y)
        head = zero[0][:cut]
        if not all(text.startswith(head) for text in zero):
            # A slice's items are the text between the brackets of its list.
            sep = "["
            for start in range(0, n, _CHUNK):
                write(sep)
                write(_dumps(self[start:start + _CHUNK], pad)[1:-len(pad) - 2])
                sep = ","
            write(f"\n{pad}]")
            return
        sep = f",\n{inner}{head}"
        tails = [text[cut + 1:] + sep for text in zero]
        write(f"[\n{inner}{head}")
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            # "%d" writes an int as str() does, without a str object per key.
            pieces = list(chain.from_iterable(
                zip(self._keys[start:stop], map(tails.__getitem__, self._which[start:stop]))
            ))
            if stop == n:
                pieces[-1] = pieces[-1][:-len(sep)]
            write("%d%s" * (stop - start) % tuple(pieces))
        write(f"\n{pad}]")


def render(value) -> str:
    """Exactly `json.dumps(value, indent=2) + "\\n"`, with a KeyedItems
    written as its list: the text `stream` writes, joined. Any other value
    json.dumps cannot write raises its TypeError."""
    out: list = []
    stream(value, out.append)
    return "".join(out)


def stream(value, write) -> None:
    """Pass the text of `render(value)` to `write` in pieces as the walk
    makes them: a KeyedItems one slice of _CHUNK items at a time, any other
    value but a dict in one json.dumps call. A value json.dumps cannot
    write raises its TypeError after the pieces before it were passed on."""
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
