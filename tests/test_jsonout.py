"""``jsonout.dump`` writes exactly the stock encoder's ``sort_keys=True,
indent=2`` bytes for documents of the seven value types the package writes,
streams them one record at a time, and refuses every other type and every
key that is not a ``str``.

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

from sigmairr import jsonout
from sigmairr.cli import main

ROOT = Path(__file__).resolve().parents[1]


def outcome(dump, obj):
    """What writing ``obj`` with ``dump`` gives: ("ok", text) or (exception type, message)."""
    buf = io.StringIO()
    try:
        dump(obj, buf)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok", buf.getvalue()


def stock_dump(obj, fh):
    json.dump(obj, fh, sort_keys=True, indent=2)


def assert_same_as_stock(obj):
    expected = outcome(stock_dump, obj)
    assert outcome(jsonout.dump, obj) == expected
    return expected


def shared_edges(where: str):
    """One edge list met twice in a document: twice at one level, or at two."""
    edges = [[0, 1], [1, 2], [1, 3]]
    if where == "same level":
        return {"B3": [{"edges": edges, "n": 4}, {"edges": edges, "n": 4}], "B8": [{"edges": edges}]}
    return {"B3": [{"edges": edges}], "top": edges, "deeper": [[{"e": [edges]}]], "again": edges}


def shared_report(where: str):
    """One report dict met several times in a document: twice at one level,
    at two levels, or inside a shared dict."""
    report = {"lhs": "3/2", "lhs_decimal": 1.5, "notes": ["a"], "params": {"k": "1"}}
    if where == "same level":
        return {"B3": [{"report": report, "n": 4}, {"report": report, "n": 4}], "B8": [{"report": report}]}
    if where == "two levels":
        return {"B3": [{"report": report}], "top": report, "deeper": [[{"r": [report]}]], "again": report}
    holder = {"report": report, "n": 4}
    return {"B3": [{"x": holder}, {"x": holder}], "B8": [{"report": report}, [holder]]}


SHARED_REPORTS = ("same level", "two levels", "inside a shared dict")


def nested(depth: int):
    value = {"leaf": [[0, 1]]}
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


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
values = st.recursive(
    st.one_of(scalars, pairs),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20,
)


class TestAgainstStock:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_canonical_options(self, value):
        assert_same_as_stock(value)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], {"a": {}}, [[], {}], {"a": [[], [{}]]},
        "top", 7, None, True, -0.0,
        [[True, 0], [1, False]], [[0, 1], [2, 3]], [[0, 1], [2, 3.0]], [[0, 1], [2]],
        {"edges": [[0, 1], [1, 2]], "deep": {"x": {"y": [[2**70, -1]]}}},
        math.nan, [math.inf, -math.inf], {"%d": ["%s", "100%"], "b%%": [[1, 2]]}, nested(40),
        shared_edges("same level"), shared_edges("two levels"), *map(shared_report, SHARED_REPORTS),
    ])
    def test_edge_cases(self, value):
        assert assert_same_as_stock(value)[0] == "ok"

    def test_unserialisable_object(self):
        for value in ([1, {"a": object()}], object(), {"a": [[{"b": {1, 2}}]]}):
            kind, message = assert_same_as_stock(value)
            assert kind is TypeError and "is not JSON serializable" in message

    def test_circular_reference(self):
        looped_list: list = [1]
        looped_list.append(looped_list)
        looped_dict: dict = {}
        looped_dict["x"] = [{"y": [looped_dict]}]
        deep: list = []
        deep.append([[[deep]]])
        edges = [[0, 1], [1, 2]]
        looped_records: list = [{"edges": edges}, {"edges": edges}]  # a reused edge list, then a loop
        looped_records.append([looped_records])
        for value in (looped_list, looped_dict, {"a": deep}, {"r": looped_records}):
            assert assert_same_as_stock(value) == (ValueError, "Circular reference detected")


class TestShapes:
    """Dicts with the same keys in the same order at the same level share one
    template per pass; every case is compared with the stock encoder.  The
    dicts sit at ``STREAM_DEPTH`` or deeper, where they render as one chunk."""

    def test_one_key_set_in_two_orders(self):
        first, second = {"b": 1, "a": [2], "c": {"x": 3}}, {"c": {"x": 4}, "a": [5], "b": 6}
        assert assert_same_as_stock({"r": [first, second, first, second]})[0] == "ok"

    def test_keys_with_percent_signs(self):
        record = {"%s": 1, "100%": "%d", "%%": [[1, 2]], "a%(b)s": {"%": None}}
        assert assert_same_as_stock({"r": [record, dict(record), {"x": record}]})[0] == "ok"

    def test_one_shape_at_two_levels(self):
        shape = {"edges": [[0, 1]], "n": 2}
        deeper = {"edges": [[0, 1], [1, 2]], "n": 3}
        assert assert_same_as_stock({"n": 1, "edges": [shape, [deeper, {"in": shape}]]})[0] == "ok"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(["a", "b", "%s", "c%", "é"]), st.one_of(scalars, pairs)),
                             max_size=5), min_size=1, max_size=20))
    def test_many_dicts_sharing_key_sets(self, items):
        document = [dict(pairs) for pairs in items]
        assert assert_same_as_stock({"top": document, "nested": [[d] for d in document]})[0] == "ok"


class TestSharedDicts:
    """A dict met again at the same level, deeper than ``STREAM_DEPTH``,
    reuses the text of its first rendering."""

    @pytest.mark.parametrize("where", SHARED_REPORTS)
    def test_rendered_once_per_level(self, monkeypatch, where):
        calls: dict = {}
        obj = jsonout._Renderer.obj

        def counted(self, dct, level):
            calls[id(dct), level] = calls.get((id(dct), level), 0) + 1
            return obj(self, dct, level)

        monkeypatch.setattr(jsonout._Renderer, "obj", counted)
        assert_same_as_stock(shared_report(where))
        deep = [count for (_, level), count in calls.items() if level > jsonout.STREAM_DEPTH]
        assert deep and set(deep) == {1}


class TestPairLists:
    """A list of ``[int, int]`` pairs renders from a template kept per
    (length, level) for the pass; each case puts lists that share or miss
    that key into one document, below ``STREAM_DEPTH``, and compares the
    whole document with the stock encoder."""

    def test_one_length_at_two_levels(self):
        document = {"r": [[[0, 1], [2, 3]], {"x": [[4, 5], [6, 7]]}, [[8, 9], [10, 11]], [[[12, 13], [14, 15]]]]}
        assert assert_same_as_stock(document)[0] == "ok"

    def test_two_lengths_at_one_level(self):
        document = {"r": [[[0, 1]], [[2, 3], [4, 5]], [[6, 7]], [[8, 9], [10, 11], [12, 13]]]}
        assert assert_same_as_stock(document)[0] == "ok"

    @pytest.mark.parametrize("odd", [True, 2.0], ids=["bool", "float"])
    def test_a_pair_holding_a_bool_or_float(self, odd):
        document = {"r": [[[0, 1], [2, 3]], [[odd, 1], [2, 3]], [[0, 1], [2, odd]], [[0, 1], [2, 3]]]}
        assert assert_same_as_stock(document)[0] == "ok"

    def test_a_three_item_inner_list(self):
        document = {"r": [[[0, 1], [2, 3]], [[0, 1], [2, 3, 4]], [[0, 1, 2], [3, 4, 5]], [[0, 1], [2, 3]]]}
        assert assert_same_as_stock(document)[0] == "ok"

    def test_an_empty_inner_list(self):
        document = {"r": [[[0, 1], [2, 3]], [[0, 1], []], [[], []], [[]], [[0, 1], [2, 3]]]}
        assert assert_same_as_stock(document)[0] == "ok"


class TestOneFormat:
    """Only the seven types, matched exactly, are written: any other value,
    a subclass of one of them included, and every key that is not a
    ``str``, raises ``TypeError`` instead of printing other bytes."""

    def test_other_types_raise(self):
        class Colour(enum.IntEnum):
            RED = 1

        class Text(str):
            pass

        class Real(float):
            pass

        Point = namedtuple("Point", "x y")
        others = [(1, 2), Point(1, 2), Colour.RED, Text("x"), Real(1.5), OrderedDict(a=1)]
        for other in others:
            # at the top, streamed, and deep in a record, in a list and in a dict
            for document in (other, {"r": [other]}, {"r": [{"a": [[0, 1], other]}]}, {"r": [[{"b": other}]]}):
                with pytest.raises(TypeError, match=f"Object of type {type(other).__name__} is not JSON"):
                    jsonout.dump(document, io.StringIO())
        with pytest.raises(TypeError, match="Object of type tuple"):  # a tuple among edge pairs
            jsonout.dump({"r": [{"edges": [[0, 1], (1, 2)]}]}, io.StringIO())

    @pytest.mark.parametrize("value", [
        {1: "a"}, {2.5: "b"}, {True: "c"}, {None: 1}, {math.nan: 0}, {-math.inf: [1]}, {(1, 2): 3},
        {"a": {"b": {frozenset(): 1}}}, {"a": [{"b": {(1,): 2}}]}, {"a": [[{"b": {7: [1]}}]]},
    ], ids=repr)
    def test_non_str_keys_raise(self, value):
        with pytest.raises(TypeError, match="keys must be str, not"):
            jsonout.dump(value, io.StringIO())

    def test_mixed_keys_raise(self):
        # The sort meets the int key before the key check does.
        with pytest.raises(TypeError):
            jsonout.dump({"a": 1, 2: "b"}, io.StringIO())


class Chunks(list):
    """A file that keeps each chunk ``json.dump`` writes."""

    write = list.append


class TestStreaming:
    def test_one_chunk_per_record(self):
        record = {"edges": [[0, 1], [1, 2]], "report": {"lhs": "3/2", "notes": ["a"]}}
        document = {"B1": [record] * 50, "B2": [], "B3": [record] * 30}
        chunks = Chunks()
        jsonout.dump(document, chunks)
        whole = json.dumps(record, sort_keys=True, indent=2).replace("\n", "\n    ")
        assert "".join(chunks) == json.dumps(document, sort_keys=True, indent=2)
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


@pytest.mark.parametrize("argv", [
    ["-m", "sigmairr", "bounds", "falsify", "--bound", "all", "--nmax", "7", "--format", "json", "--out"],
    ["-m", "sigmairr", "enumerate", "--n", "8", "--format", "json", "--out"],
    [str(ROOT / "scripts" / "falsification_campaign.py"), "--nmax", "7", "--json"],
], ids=["falsify", "enumerate", "campaign"])
def test_json_is_the_same_across_hash_seeds(tmp_path, argv):
    # A set of strings iterates in an order that PYTHONHASHSEED changes from
    # one process to the next; the documents must not change with it.
    documents = []
    for seed in ("0", "1"):
        target = tmp_path / f"seed{seed}.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, *argv, str(target)], capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        documents.append(target.read_bytes())
    assert len(documents[0]) > 100 and documents[0] == documents[1]
