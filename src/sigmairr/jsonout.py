"""``dump(obj, fh)``: the one way the package writes a JSON document.

The package writes one JSON format, the bytes of ``json.dump(obj, fh,
sort_keys=True, indent=2)``: sorted keys, a two-space indent, ASCII-only
text, ``","`` and ``": "`` as separators, and NaN and the infinities spelled
``NaN``, ``Infinity`` and ``-Infinity``.  Its documents hold seven value
types, each exactly: ``dict`` with ``str`` keys, ``list``, ``str``, ``int``,
``float``, ``bool`` and ``None``.  Any other value, a subclass of one of
these included, raises ``TypeError``, as does a key that is not a ``str``;
a container that holds itself raises ``ValueError``.

The stock ``json.dump`` yields one chunk per token.  This encoder renders
each list with one ``join``, and a list of ``[int, int]`` pairs (the edge
lists of a counterexample dump) as one ``%d`` format of its flattened
items, into a template built once per pass for its length and level.  A
dict is one ``%`` format of its converted values into its shape's
template: the shape is its keys in insertion order and its level, and its
template, built once per pass, holds the sorted keys and indents, with
each value a ``%s``.  Deeper than ``STREAM_DEPTH``, a dict or pair list
met again at the same level reuses the text of its first rendering: the
records of one tree share its edge list, and records with equal reports
share one report dict, so each is rendered once.  Only the containers
above ``STREAM_DEPTH`` stream their items, so each record is one chunk,
its text is never kept, and ``json.dump`` never holds the whole document
as one string.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

# Containers at a depth below this stream their items; deeper ones are one chunk.
STREAM_DEPTH = 2


def dump(obj, fh) -> None:
    """Write ``obj`` into ``fh`` in the package's one JSON format."""
    json.dump(obj, fh, cls=_Encoder, sort_keys=True, indent=2)


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
    """One encoding pass, the containers it is inside (circular-reference
    check), the dicts and ``[int, int]``-pair lists it has rendered deeper
    than ``STREAM_DEPTH``, and the templates of the dict shapes and pair-list
    lengths it has met.

    A pass does not mutate the document, so such a container met again at
    the same level renders to the same text: it is reused, keyed on the
    container's identity and level.  The renderer holds each such
    container, so no other can take its id during the pass, and it is
    dropped with the pass.  A record, at ``STREAM_DEPTH``, is never held.
    """

    def __init__(self) -> None:
        self.markers: dict = {}
        self.rendered: dict = {}  # (id, level) -> (container, text)
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
        if kind is list or kind is dict:
            seen = self.rendered.get((id(o), level))
            if seen is not None:
                return seen[1]
            return self.array(o, level) if kind is list else self.obj(o, level)
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
        pairs = bool(flat) and set(map(type, flat)) == {int}
        if kind in _SCALAR:
            body = sep.join(map(_SCALAR[kind], lst))
        elif pairs:
            template = self.shapes.get((len(lst), level))
            if template is None:
                # The layout strings hold no "%", so they need no escaping.
                pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
                template = self.shapes[len(lst), level] = sep.join([pair] * len(lst))
            body = template % tuple(flat)
        else:
            body = sep.join([self.value(v, level + 1) for v in lst])
        del self.markers[id(lst)]
        text = "[" + inner + body + outer + "]"
        if pairs and level > STREAM_DEPTH:
            self.rendered[id(lst), level] = (lst, text)
        return text

    def obj(self, dct: dict, level: int) -> str:
        if not dct:
            return "{}"
        self.mark(dct)
        keys, values = tuple(dct), list(dct.values())
        shape = self.shapes.get((keys, level))
        if shape is None:
            shape = self.shapes[keys, level] = _shape(keys, level)
        order, template = shape
        scalar, value = _SCALAR.get, self.value
        texts = []
        for i in order:
            v = values[i]
            convert = scalar(type(v))
            texts.append(value(v, level + 1) if convert is None else convert(v))
        del self.markers[id(dct)]
        text = template % tuple(texts)
        if level > STREAM_DEPTH:
            self.rendered[id(dct), level] = (dct, text)
        return text

    def stream(self, o, level: int):
        """Yield ``o`` at ``level``: a non-empty container above ``STREAM_DEPTH``
        item by item, anything else as one chunk."""
        kind = type(o)
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
    """The positions of ``keys`` in sorted order, and the text of a dict with
    these keys at ``level``, its values left as ``%s``."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    outer = "\n" + "  " * level
    inner = outer + "  "
    body = ("," + inner).join([_key(keys[i]).replace("%", "%%") + "%s" for i in order])
    return order, "{" + inner + body + outer + "}"

