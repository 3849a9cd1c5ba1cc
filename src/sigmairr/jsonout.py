"""``dump(obj, fh)``: how the package writes a JSON document.

The package writes one JSON format, the bytes of ``json.dump(obj, fh,
sort_keys=True, indent=2)``: sorted keys, a two-space indent, ASCII-only
text, ``","`` and ``": "`` as separators, and NaN and the infinities spelled
``NaN``, ``Infinity`` and ``-Infinity``.  Its documents hold seven value
types, each exactly: ``dict`` with ``str`` keys, ``list``, ``str``, ``int``,
``float``, ``bool`` and ``None``.  Any other value, a subclass of one of
these included, raises ``TypeError``, as does a key that is not a ``str``;
a container that holds itself raises ``ValueError``.

The stock ``json.dump`` yields one chunk per token.  This encoder renders
each list with one ``join`` (an edge list with one ``%d`` format) and each
dict with one ``%`` format into the template of its keys and level, built
once per pass.  Only the containers above ``STREAM_DEPTH`` stream their
items, so each record is one chunk, and the document is never one string.

A list of records may also be written from text: a value of the
top-level dict may be ``Items(pieces)``, its items' text as this module
writes them (``sigmairr.records`` makes it from templates, so that the text
that many records share is made once), in pieces cut anywhere.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

from .streams import chunks

# Containers at a depth below this stream their items; deeper ones are one chunk.
STREAM_DEPTH = 2


def dump(obj, fh) -> None:
    """Write ``obj`` into ``fh`` in the package's one JSON format."""
    json.dump(obj, fh, cls=_Encoder, sort_keys=True, indent=2)


class Items(NamedTuple):
    """A list, a value of the top-level dict, as ``pieces`` whose
    concatenation is its items' text, split anywhere: each item as ``,``,
    a line break and four spaces, then the item as ``dump`` writes it at
    that level.  ``dump`` takes the pieces only when it writes the list."""

    pieces: Iterable[str]


class _Encoder(json.JSONEncoder):
    def iterencode(self, o, _one_shot=False):
        return _Renderer().stream(o, 0)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floatstr(o) -> str:
    text = float.__repr__(o)
    return _NON_FINITE.get(text, text)


# The scalar types, matched exactly.
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, float: _floatstr,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


class _Renderer:
    """One encoding pass: the containers it is inside (circular-reference
    check), and the templates of the dict shapes and pair-list lengths it
    has met."""

    def __init__(self) -> None:
        self.markers: dict = {}
        self.shapes: dict = {}

    def mark(self, o) -> None:
        if id(o) in self.markers:
            raise ValueError("Circular reference detected")
        self.markers[id(o)] = o

    def value(self, o, level: int) -> str:
        """``o`` at ``level`` as one string."""
        kind = type(o)
        convert = _SCALAR.get(kind)
        if convert is not None:
            return convert(o)
        if kind is dict:
            return self.obj(o, level)
        if kind is list:
            return self.array(o, level)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def array(self, lst: list, level: int) -> str:
        if not lst:
            return "[]"
        self.mark(lst)
        outer = "\n" + "  " * level
        inner = outer + "  "
        sep = "," + inner
        kinds = set(map(type, lst))
        kind = kinds.pop() if len(kinds) == 1 else None
        flat = list(chain.from_iterable(lst)) if kind is list and set(map(len, lst)) == {2} else ()
        if kind in _SCALAR:
            body = sep.join(map(_SCALAR[kind], lst))
        elif flat and set(map(type, flat)) == {int}:
            template = self.shapes.get((len(lst), level))
            if template is None:
                # The layout strings hold no "%", so they need no escaping.
                pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
                template = self.shapes[len(lst), level] = sep.join([pair] * len(lst))
            body = template % tuple(flat)
        else:
            body = sep.join([self.value(v, level + 1) for v in lst])
        del self.markers[id(lst)]
        return "[" + inner + body + outer + "]"

    def obj(self, dct: dict, level: int) -> str:
        if not dct:
            return "{}"
        self.mark(dct)
        keys = tuple(dct)
        shape = self.shapes.get((keys, level))
        if shape is None:
            shape = self.shapes[keys, level] = _shape(keys, level)
        order, template = shape
        values = list(dct.values())
        scalar, value = _SCALAR.get, self.value
        texts = []
        for i in order:
            v = values[i]
            convert = scalar(type(v))
            texts.append(value(v, level + 1) if convert is None else convert(v))
        del self.markers[id(dct)]
        return template % tuple(texts)

    def stream(self, o, level: int):
        """Yield ``o`` at ``level``: a non-empty container above ``STREAM_DEPTH``
        item by item, anything else as one chunk."""
        kind = type(o)
        if kind is Items and level == 1:  # its items are at level 2; elsewhere it raises
            opened = False
            for text in chunks(o.pieces):
                yield text if opened else "[" + text[1:]
                opened = True
            yield "\n  ]" if opened else "[]"
            return
        if level >= STREAM_DEPTH or kind not in (list, dict) or not o:
            yield self.value(o, level)
            return
        self.mark(o)
        outer = "\n" + "  " * level
        if kind is dict:
            ends, items = "{}", [(_key(k), v) for k, v in sorted(o.items())]
        else:
            ends, items = "[]", [("", v) for v in o]
        head = ends[0] + outer + "  "
        for key, v in items:
            yield head + key
            yield from self.stream(v, level + 1)
            head = "," + outer + "  "
        yield outer + ends[1]
        del self.markers[id(o)]


def _key(key) -> str:
    """A dict key and the separator after it."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {key.__class__.__name__}")
    return encode_basestring_ascii(key) + ": "


def _shape(keys: tuple, level: int) -> tuple[list[int], str]:
    """The positions of ``keys`` in sorted order, and the text of a dict
    with these keys at ``level``, its values left as ``%s``."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    outer = "\n" + "  " * level
    around = [("," if k else "{") + outer + "  " + _key(keys[i]) for k, i in enumerate(order)] + [outer + "}"]
    return order, "%s".join([text.replace("%", "%%") for text in around])
