"""``dump(obj, fh)`` and ``dump_lists(lists, fh)``: how the package writes
a JSON document.

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
each value a ``%s``.  Deeper than ``STREAM_DEPTH``, a dict met again at the
same level reuses the text of its first rendering, and so does the pair
list rendered last: records with equal reports share one report dict, and
the records of one tree, which come one after another, share its edge
list, so each is rendered once.  No other pair list's text is kept.  Only
the containers above ``STREAM_DEPTH`` stream their items, so each record is
one chunk, its text is never kept, and ``json.dump`` never holds the whole
document as one string.

A document too large to hold as objects, a dict of record lists such as
the falsification campaign's, can be written from text instead:
``item_renderer()`` renders one record at a time, at the depth where
``dump`` would write it, with the separator that goes before it, as pieces
that share the text of the report and edge list the record shares, so the
caller keeps only text and drops each record; ``dump_lists`` then writes the
dict from each list's item texts, which may come in pieces split anywhere
(several processes' parts, or a pipe's reads), as the same bytes that
``dump`` writes for the dict of the records themselves.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable

# Containers at a depth below this stream their items; deeper ones are one chunk.
STREAM_DEPTH = 2


# In a dict of lists, the level of a list's items, and what goes before each.
_ITEM_LEVEL = 2
_ITEM = ",\n    "


def dump(obj, fh) -> None:
    """Write ``obj`` into ``fh`` in the package's one JSON format."""
    json.dump(obj, fh, cls=_Encoder, sort_keys=True, indent=2)


def item_renderer() -> Callable[[object], list[str]]:
    """A function that gives the text of a value as an item of a list that
    ``dump_lists`` writes, with the separator that goes before it, as
    pieces: in a dict, each dict or list value is a piece of its own.  It
    keeps what one pass of ``dump`` keeps, so the text of a value shared by
    the items it renders (a report dict, one tree's edge list) is made
    once, and the pieces of those items share it."""
    renderer = _Renderer()

    def item(o) -> list[str]:
        if type(o) is dict:
            return renderer.pieces(o, _ITEM_LEVEL, _ITEM)
        return [_ITEM + renderer.value(o, _ITEM_LEVEL)]

    return item


def dump_lists(lists: dict, fh) -> None:
    """Write ``lists``, a dict whose every value is a list given as its
    items' ``item_renderer`` texts: an iterable of pieces whose
    concatenation is those texts in order, split anywhere.  The bytes equal
    ``dump`` of the dict of the items themselves.  The keys are written in
    sorted order, each list's pieces taken only when its key is written."""
    json.dump(lists, fh, cls=_ListsEncoder)  # as ``dump`` writes, so one wrapper of json.dump sees both


class _Encoder(json.JSONEncoder):
    def iterencode(self, o, _one_shot=False):
        return _Renderer().stream(o, 0)


class _ListsEncoder(json.JSONEncoder):
    def iterencode(self, o, _one_shot=False):
        return _lists(o)


def _lists(lists: dict):
    """The chunks of ``dump_lists``: the layout of the dict and its lists
    around the pieces, joined into chunks of about 64 KiB, each list's
    first chunk without its leading comma."""
    head = "{\n  "
    for key in sorted(lists):
        yield head + _key(key)
        opened = False
        for text in _joined(lists[key]):
            yield text if opened else "[" + text[1:]
            opened = True
        yield "\n  ]" if opened else "[]"
        head = ",\n  "
    yield "\n}" if lists else "{}"


def _joined(pieces):
    """``pieces`` joined, in order, into non-empty strings that each reach
    64 KiB only with their last piece: one write for many small pieces."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            yield "".join(batch)
            batch, size = [], 0
    if size:
        yield "".join(batch)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floatstr(o) -> str:
    text = float.__repr__(o)
    return _NON_FINITE.get(text, text)


# The scalar types, matched exactly.
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, float: _floatstr,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


class _Renderer:
    """One encoding pass, the containers it is inside (circular-reference
    check), the dicts and the last ``[int, int]``-pair list it has rendered
    deeper than ``STREAM_DEPTH``, and the templates of the dict shapes and
    pair-list lengths it has met.

    A pass does not mutate the document, so such a container met again at
    the same level renders to the same text: it is reused, keyed on the
    container's identity and level.  The renderer holds each such
    container, so no other can take its id while it is kept, and it is
    dropped with the pass.  A pair list is kept only until the next one is
    rendered: each tree's edge list is met again only in that tree's
    records, which come one after another, and a dump of many trees (the
    ``enumerate`` document) meets each edge list once.  A record, at
    ``STREAM_DEPTH``, is never held.
    """

    def __init__(self) -> None:
        self.markers: dict = {}
        self.rendered: dict = {}  # dicts: (id, level) -> (dict, text)
        self.pairs: tuple = (None, 0, "")  # the last pair list: (list, level, text)
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
            seen = self.rendered.get((id(o), level))
            return self.obj(o, level) if seen is None else seen[1]
        if kind is list:
            last, at, text = self.pairs
            return text if last is o and at == level else self.array(o, level)
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
            self.pairs = (lst, level, text)
        return text

    def opened(self, dct: dict, level: int) -> tuple[list, tuple]:
        """Mark ``dct``, and give its values and its shape at ``level``."""
        self.mark(dct)
        keys = tuple(dct)
        shape = self.shapes.get((keys, level))
        if shape is None:
            shape = self.shapes[keys, level] = _shape(keys, level)
        return list(dct.values()), shape

    def obj(self, dct: dict, level: int) -> str:
        if not dct:
            return "{}"
        values, (order, template, _) = self.opened(dct, level)
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

    def pieces(self, dct: dict, level: int, head: str) -> list[str]:
        """``head`` and ``dct`` at ``level`` as strings whose concatenation is
        their text: each container value's text as ``value`` gives it, so a
        text it reuses is shared, not copied, and the text between them."""
        if not dct:
            return [head + "{}"]
        values, (order, _, around) = self.opened(dct, level)
        pieces = []
        for i, text in zip(order, around):
            v = values[i]
            convert = _SCALAR.get(type(v))
            if convert is None:
                pieces += (head + text, self.value(v, level + 1))
                head = ""
            else:
                head += text + convert(v)
        pieces.append(head + around[-1])
        del self.markers[id(dct)]
        return pieces

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


def _shape(keys: tuple, level: int) -> tuple[list[int], str, list[str]]:
    """The positions of ``keys`` in sorted order, the text of a dict with
    these keys at ``level``, its values left as ``%s``, and the texts around
    its values: before each one, and after the last."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    outer = "\n" + "  " * level
    inner = outer + "  "
    around = [("," if k else "{") + inner + _key(keys[i]) for k, i in enumerate(order)] + [outer + "}"]
    return order, "%s".join([text.replace("%", "%%") for text in around]), around

