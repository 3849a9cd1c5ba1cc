"""The shared JSON encoder writes exactly the stock encoder's bytes, and
streams them one record at a time.

The reference is the standard library's own ``json`` output; the real
documents are checked against a re-encoding of their parsed form, which
needs nothing from the package."""

import enum
import io
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmairr.cli import main
from sigmairr.jsonout import StreamingEncoder

ROOT = Path(__file__).resolve().parents[1]
CANONICAL = {"sort_keys": True, "indent": 2}


def outcome(encode, *args, **kwargs):
    """What an encoding call gives: ("ok", text) or (exception type, message)."""
    try:
        return "ok", encode(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def dump_text(obj, **kwargs) -> str:
    buf = io.StringIO()
    json.dump(obj, buf, **kwargs)
    return buf.getvalue()


def assert_same_as_stock(obj, **kwargs):
    expected = outcome(json.dumps, obj, **kwargs)
    assert outcome(json.dumps, obj, cls=StreamingEncoder, **kwargs) == expected
    # json.dump takes the chunked path of both encoders.
    assert outcome(dump_text, obj, cls=StreamingEncoder, **kwargs) == outcome(dump_text, obj, **kwargs)
    return expected


# -- generated values ---------------------------------------------------------

SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf)
texts = st.text(
    st.one_of(
        st.characters(),
        st.characters(max_codepoint=0x1F),  # control characters
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),  # lone surrogates
        st.sampled_from('"\\/ é\U0001f600'),
    ),
    max_size=8,
)
ints = st.one_of(st.integers(-1000, 1000), st.integers(-(2**80), 2**80), st.sampled_from((2**64, -(2**64) - 1)))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
pair_items = st.one_of(ints, st.booleans())
pairs = st.lists(st.tuples(pair_items, pair_items).map(list), max_size=4)
keys = st.one_of(texts, ints, floats, st.booleans(), st.none())
values = st.recursive(
    st.one_of(scalars, pairs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=3),
    ),
    max_leaves=20,
)


class TestAgainstStock:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_canonical_options(self, value):
        assert_same_as_stock(value, **CANONICAL)

    @settings(max_examples=150, deadline=None)
    @given(values, st.sampled_from([
        {},
        {"indent": 0},
        {"indent": "\t", "sort_keys": True},
        {"indent": "%", "separators": ("%,", ":%")},
        {"indent": 2, "ensure_ascii": False, "sort_keys": True},
        {"indent": 2, "skipkeys": True},
        {"indent": 2, "sort_keys": True, "check_circular": False},
    ]))
    def test_other_options(self, value, options):
        # json.dump is the pure-Python path of the stock encoder for every option.
        assert outcome(dump_text, value, cls=StreamingEncoder, **options) == outcome(dump_text, value, **options)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, [[], {}, ()], {"a": [[], [{}]]},
        "top", 7, None, True, -0.0,
        [[True, 0], [1, False]], [[0, 1], [2, 3]], [(0, 1), [2, 3]], [[0, 1], [2, 3.0]], [[0, 1], [2]],
        {"edges": [[0, 1], [1, 2]], "deep": {"x": {"y": [[2**70, -1]]}}},
        {1: "a", 2.5: "b", True: "c"}, {None: 1}, {math.nan: 0}, {-math.inf: [1]},
    ])
    def test_edge_cases(self, value):
        assert assert_same_as_stock(value, **CANONICAL)[0] == "ok"

    def test_subclasses_encode_as_their_base(self):
        class Colour(enum.IntEnum):
            RED = 1

        class Text(str):
            pass

        class Real(float):
            def __repr__(self):
                return "Real"

        Point = namedtuple("Point", "x y")
        value = {"e": [Colour.RED, Colour.RED], "t": Text("x"), "r": [Real(1.5)], "p": [Point(1, 2)],
                 "o": OrderedDict(b=1, a=[Colour.RED, 2]), Text("k"): Colour.RED}
        assert assert_same_as_stock(value, **CANONICAL)[0] == "ok"

    def test_unserialisable_object(self):
        for value in ([1, {"a": object()}], object(), {"a": [[{"b": {1, 2}}]]}):
            kind, message = assert_same_as_stock(value, **CANONICAL)
            assert kind is TypeError and "is not JSON serializable" in message

    def test_default_hook(self):
        value = {"a": [{1, 2}, {"b": complex(1, 2)}], "c": object}
        assert assert_same_as_stock(value, default=repr, **CANONICAL)[0] == "ok"

    def test_circular_reference(self):
        looped_list: list = [1]
        looped_list.append(looped_list)
        looped_dict: dict = {}
        looped_dict["x"] = [{"y": [looped_dict]}]
        deep: list = []
        deep.append([[[deep]]])
        for value in (looped_list, looped_dict, {"a": deep}):
            assert assert_same_as_stock(value, **CANONICAL) == (ValueError, "Circular reference detected")

    def test_circular_through_default(self):
        holder = []

        class Wrapper:
            pass

        wrapped = Wrapper()
        holder.append(wrapped)
        value = assert_same_as_stock(holder, default=lambda o: holder, **CANONICAL)
        assert value == (ValueError, "Circular reference detected")

    def test_bad_keys(self):
        for value in ({(1, 2): 3}, {"a": {"b": {frozenset(): 1}}}, {"a": 1, 2: "b"}):
            assert assert_same_as_stock(value, **CANONICAL)[0] is TypeError
        # Every key skipped, at a streamed level and below it.
        for value in ({(3,): 1, (4,): [2]}, {"a": {(1,): 2}, "b": [{(1,): 2, (0,): 1}]}):
            assert assert_same_as_stock(value, skipkeys=True, **CANONICAL)[0] == "ok"
        assert assert_same_as_stock({"a": 1, (3,): {}}, skipkeys=True, indent=2)[0] == "ok"

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
    def test_allow_nan_false(self, special):
        for value in ([special], {"a": [[{"b": special}]]}, {special: 1}, special):
            kind, message = assert_same_as_stock(value, allow_nan=False, **CANONICAL)
            assert kind is ValueError and "Out of range float values" in message


class TestStreaming:
    def test_one_chunk_per_record(self):
        record = {"edges": [[0, 1], [1, 2]], "report": {"lhs": "3/2", "notes": ["a"]}}
        document = {"B1": [record] * 50, "B2": [], "B3": [record] * 30}
        chunks = list(StreamingEncoder(**CANONICAL).iterencode(document))
        whole = json.dumps(record, **CANONICAL).replace("\n", "\n    ")
        assert "".join(chunks) == json.dumps(document, **CANONICAL)
        assert sum(whole in chunk for chunk in chunks) == 80
        assert max(map(len, chunks)) < len(whole) + 16


# -- the real documents -------------------------------------------------------

CLI_OUTPUTS = [
    ["enumerate", "--n", "9"],
    *[["extremal", "--n", "10", "--objective", o, "--direction", d]
      for o in ("sigma", "albertson") for d in ("max", "min")],
    *[["bounds", "check", "--bound", "all", "--family", f] for f in ("path:7", "star:6", "double_star:3:4")],
    ["bounds", "falsify", "--bound", "all", "--nmax", "7"],
    ["bounds", "falsify", "--bound", "B6", "--n", "12", "--samples", "5", "--seed", "3"],
    ["tables", "export", "--table", "1"],
    ["tables", "export", "--table", "2"],
]


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", CLI_OUTPUTS, ids=" ".join)
def test_cli_json_is_canonical(capsys, argv):
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 100 and out == canonical(out) + "\n"


def test_campaign_json_is_canonical(tmp_path):
    target = tmp_path / "campaign.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "falsification_campaign.py"), "--nmax", "7", "--json", str(target)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    text = target.read_text(encoding="utf-8")
    assert text == canonical(text)
    assert sum(map(len, json.loads(text).values())) > 0
