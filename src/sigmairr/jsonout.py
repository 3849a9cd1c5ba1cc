"""``dump(obj, fh)``: how the package writes a JSON document.

The package writes one JSON format, the bytes of ``json.dump(obj, fh,
sort_keys=True, indent=2)``: sorted keys, a two-space indent, ASCII-only
text, ``","`` and ``": "`` as separators, and NaN and the infinities spelled
``NaN``, ``Infinity`` and ``-Infinity``.  Its documents hold seven value
types, each exactly: ``dict`` with ``str`` keys, ``list``, ``str``, ``int``,
``float``, ``bool`` and ``None``.  Any other value, a subclass of one of
these included, raises ``TypeError``, as does a key that is not a ``str``;
a container that holds itself raises ``ValueError``.  The whole document
is checked before its first byte is written.

Each value of the top-level dict is the stock encoder's text but a long
list, which may be given as ``Items(pieces)``: its items' text, cut
anywhere, written as it is drawn.  ``sigmairr.records`` and the CLI's
``enumerate`` make it from templates, their edge lists from ``_pair_list``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

from .streams import chunks


def dump(obj, fh) -> None:
    """Write ``obj`` into ``fh`` in the package's one JSON format."""
    json.dump(obj, fh, cls=_Encoder)


class Items(NamedTuple):
    """A list, a value of the top-level dict, as ``pieces`` whose
    concatenation is its items' text, split anywhere: each item as ``,``,
    a line break and four spaces, then the item as ``dump`` writes it at
    that level.  ``dump`` takes the pieces only when it writes the list."""

    pieces: Iterable[str]


def _pair_list(count: int) -> str:
    """A list of ``count`` ``[u, v]`` pairs as a field of an ``Items`` item
    writes it (its pairs at level 4), each end left as ``%d``."""
    if not count:
        return "[]"
    pair = "\n        [\n          %d,\n          %d\n        ]"
    return "[" + ",".join([pair] * count) + "\n      ]"


_SCALARS = {str, int, float, bool, type(None)}
_encode = json.JSONEncoder(sort_keys=True, indent=2).encode


def _check(o, inside: set, top: bool = False) -> None:
    """Raise what the package's format refuses in ``o``, in the order the
    stock encoder meets it; ``inside`` holds the ids of the containers
    around ``o``, and only a value of the top-level dict may be ``Items``."""
    kind = type(o)
    if kind in _SCALARS:
        return
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not o:
        return
    if id(o) in inside:
        raise ValueError("Circular reference detected")
    inside.add(id(o))
    for key, value in sorted(o.items()) if kind is dict else enumerate(o):
        if kind is dict and type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        if not (top and type(value) is Items):
            _check(value, inside)
    inside.discard(id(o))


class _Encoder(json.JSONEncoder):
    def iterencode(self, o, _one_shot=False):
        """The text of ``o``, checked whole first, a value of the top-level dict at a time."""
        _check(o, set(), type(o) is dict)
        if type(o) is not dict or not o:
            yield _encode(o)
            return
        head = "{\n  "
        for key, value in sorted(o.items()):
            yield head + encode_basestring_ascii(key) + ": "
            head = ",\n  "
            if type(value) is not Items:
                yield _encode(value).replace("\n", "\n  ")  # an encoded string holds no line break
                continue
            opened = False
            for text in chunks(value.pieces):  # its items are at level 2
                yield text if opened else "[" + text[1:]
                opened = True
            yield "\n  ]" if opened else "[]"
        yield "\n}"
