"""The JSON encoder behind every JSON document the package writes.

``StreamingEncoder`` is a ``json.JSONEncoder`` whose output equals the stock
encoder's for the same options, byte for byte:
``json.dumps(x, sort_keys=True, indent=2, cls=StreamingEncoder)`` is
``json.dumps(x, sort_keys=True, indent=2)``, and bad input raises the same
exceptions.  ``json.dump`` always takes the stock encoder's pure-Python
path, and so does ``json.dumps`` with an indent before Python 3.13; that
path yields one chunk per token.  This one renders each container with one
``join``, and a list of ``[int, int]`` pairs (the edge lists that make up
most of a counterexample dump) from one ``%d`` template.

``iterencode`` still streams: the containers above ``STREAM_DEPTH`` yield
their items one at a time, and each item at that depth (one record, such as
a counterexample) is one chunk, so ``json.dump`` never holds the whole
document as one string.
"""

from __future__ import annotations

import json
from json.encoder import INFINITY, encode_basestring, encode_basestring_ascii

# Containers at a depth below this stream their items; deeper ones are one chunk.
STREAM_DEPTH = 2


class StreamingEncoder(json.JSONEncoder):
    """The stock encoder's output, one chunk per record; pass it as ``cls=``."""

    def iterencode(self, o, _one_shot=False):
        return _Renderer(self).stream(o, 0)


class _Indents(dict):
    """Level -> the text that starts a line at that level ('' without indent)."""

    def __init__(self, indent) -> None:
        super().__init__()
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        self.indent = indent

    def __missing__(self, level: int) -> str:
        text = self[level] = "" if self.indent is None else "\n" + self.indent * level
        return text


def _escape(text: str) -> str:
    return text.replace("%", "%%")


class _Renderer:
    """One encoding pass: the encoder's options, bound once, and the markers
    of the containers being rendered, for the circular-reference check."""

    def __init__(self, enc: json.JSONEncoder) -> None:
        self.markers = {} if enc.check_circular else None
        self.default = enc.default
        self.sort_keys = enc.sort_keys
        self.skipkeys = enc.skipkeys
        self.allow_nan = enc.allow_nan
        self.item_sep = enc.item_separator
        self.key_sep = enc.key_separator
        self.nl = _Indents(enc.indent)
        self.string = encode_basestring_ascii if enc.ensure_ascii else encode_basestring
        # Exact types only: a subclass takes the isinstance chain in ``value``.
        self.scalar = {
            str: self.string,
            int: int.__repr__,
            float: self.floatstr,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null",
        }
        self.container = {list: self.array, tuple: self.array, dict: self.obj}

    def floatstr(self, o) -> str:
        if o != o:
            text = "NaN"
        elif o == INFINITY:
            text = "Infinity"
        elif o == -INFINITY:
            text = "-Infinity"
        else:
            return float.__repr__(o)
        if not self.allow_nan:
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        return text

    def mark(self, o) -> None:
        if self.markers is not None:
            if id(o) in self.markers:
                raise ValueError("Circular reference detected")
            self.markers[id(o)] = o

    def unmark(self, o) -> None:
        if self.markers is not None:
            del self.markers[id(o)]

    def value(self, o, level: int) -> str:
        """``o`` at ``level`` as one string."""
        convert = self.scalar.get(type(o))
        if convert is not None:
            return convert(o)
        render = self.container.get(type(o))
        if render is not None:
            return render(o, level)
        if isinstance(o, str):
            return self.string(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return self.floatstr(o)
        if isinstance(o, (list, tuple)):
            return self.array(o, level)
        if isinstance(o, dict):
            return self.obj(o, level)
        self.mark(o)
        text = self.value(self.default(o), level)
        self.unmark(o)
        return text

    def array(self, lst, level: int) -> str:
        if not lst:
            return "[]"
        self.mark(lst)
        inner = self.nl[level + 1]
        sep = self.item_sep + inner
        kinds = set(map(type, lst))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind in self.scalar:
            body = sep.join(map(self.scalar[kind], lst))
        elif (kind is list or kind is tuple) and _int_pairs(lst):
            body = self.pairs(lst, level + 1, sep)
        else:
            body = sep.join([self.value(v, level + 1) for v in lst])
        self.unmark(lst)
        return "[" + inner + body + self.nl[level] + "]"

    def pairs(self, lst, level: int, sep: str) -> str:
        """The items, joined by ``sep``, of a list of [int, int] pairs at ``level``."""
        inner = _escape(self.nl[level + 1])
        pair = "[" + inner + "%d" + _escape(self.item_sep) + inner + "%d" + _escape(self.nl[level]) + "]"
        return _escape(sep).join([pair] * len(lst)) % tuple([x for p in lst for x in p])

    def obj(self, dct, level: int) -> str:
        if not dct:
            return "{}"
        self.mark(dct)
        inner = self.nl[level + 1]
        string, key_sep, scalar, value = self.string, self.key_sep, self.scalar.get, self.value
        parts = []
        append = parts.append
        for key, v in sorted(dct.items()) if self.sort_keys else dct.items():
            if type(key) is not str:
                key = self.key(key)
                if key is None:
                    continue
            convert = scalar(type(v))
            append(string(key) + key_sep + (value(v, level + 1) if convert is None else convert(v)))
        self.unmark(dct)
        return "{" + inner + (self.item_sep + inner).join(parts) + self.nl[level] + "}"

    def key(self, key):
        """A dict key as text, or None where ``skipkeys`` drops it."""
        if isinstance(key, str):
            return key
        if isinstance(key, float):
            return self.floatstr(key)
        if key is True:
            return "true"
        if key is False:
            return "false"
        if key is None:
            return "null"
        if isinstance(key, int):
            return int.__repr__(key)
        if self.skipkeys:
            return None
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")

    def stream(self, o, level: int):
        """Yield ``o`` at ``level``: a container above ``STREAM_DEPTH`` item by
        item, anything else as one chunk."""
        if level >= STREAM_DEPTH or not isinstance(o, (list, tuple, dict)) or not o:
            yield self.value(o, level)
            return
        self.mark(o)
        inner = self.nl[level + 1]
        sep = self.item_sep + inner
        head = ""
        if isinstance(o, dict):
            yield "{" + inner
            for key, v in sorted(o.items()) if self.sort_keys else o.items():
                key = self.key(key)
                if key is None:
                    continue
                yield from self._item(head + self.string(key) + self.key_sep, v, level + 1)
                head = sep
            yield self.nl[level] + "}"
        else:
            yield "[" + inner
            for v in o:
                yield from self._item(head, v, level + 1)
                head = sep
            yield self.nl[level] + "]"
        self.unmark(o)

    def _item(self, head: str, v, level: int):
        if level < STREAM_DEPTH and isinstance(v, (list, tuple, dict)) and v:
            yield head
            yield from self.stream(v, level)
        else:
            yield head + self.value(v, level)


def _int_pairs(lst) -> bool:
    """Whether every item of ``lst`` (a list of lists or tuples) is two exact ints."""
    return set(map(len, lst)) == {2} and set(map(type, [x for p in lst for x in p])) == {int}
