"""``jsonout.dump`` writes exactly the stock encoder's ``sort_keys=True,
indent=2`` bytes for documents of the seven value types the package writes,
and refuses every other type and every key that is not a ``str`` before it
writes a byte; it writes the same bytes for a list given as
``jsonout.Items``, its items' text pre-rendered, as ``sigmairr.records``
renders it from its templates, and writes that list as its pieces are
drawn.

The reference is the standard library's own ``json`` output; the real
documents are checked against a re-encoding of their parsed form, which
needs nothing from the package."""

import enum
import functools
import io
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict, namedtuple
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmairr import jsonout, records
from sigmairr.cli import main
from sigmairr.search import ExhaustiveMode, falsify

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
    """Dicts that share their keys, in one order or two, at one level or two,
    below the top-level dict; every case is compared with the stock encoder."""

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


class TestPairLists:
    """Lists of ``[int, int]`` pairs, of one length or two, at one level or
    two, beside pairs that hold a bool, a float, a third item or none, below
    the top-level dict; each whole document is compared with the stock
    encoder."""

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


# -- documents written from pre-rendered items --------------------------------


def pieces_of(texts: list, cuts: list) -> list:
    """The concatenation of ``texts`` cut at ``cuts``, as a pipe's reads might give it."""
    whole = "".join(texts)
    ends = sorted({cut % (len(whole) + 1) for cut in cuts} | {0, len(whole)})
    return [whole[a:b] for a, b in zip(ends, ends[1:])]


def item_text(item: dict) -> str:
    """An ``Items`` item's text: a comma, a line break and four spaces, then
    the item as the stock encoder writes it in a list in the top-level dict."""
    return ",\n    " + json.dumps(item, sort_keys=True, indent=2).replace("\n", "\n    ")


record_lists = st.dictionaries(
    st.one_of(texts, st.sampled_from(["B1a", "B10", "%s", "100%", "a\"b", "\u00e9", ""])),
    # each list of items, the index where the list is split, and where its
    # first part's text is cut
    st.tuples(st.lists(st.dictionaries(texts, values, min_size=1, max_size=3), max_size=4),
              st.integers(0, 4), st.lists(st.integers(0, 10**6), max_size=3)),
    max_size=4,
)


@functools.cache
def falsify_records() -> tuple[list, list]:
    """The records of ``bounds falsify --bound all --nmax 7``: their text
    as ``records`` writes it from its templates, and their dicts."""
    texts = ["".join(pieces) for *_, pieces in records.counterexample_texts("all", ExhaustiveMode(7))]
    return texts, [c.record for c in falsify("all", ExhaustiveMode(7))]


class TestPreRenderedLists:
    """A top-level list given as ``Items``, its items' text cut anywhere, is
    written as the stock encoder writes the list."""

    @settings(max_examples=150, deadline=None)
    @given(record_lists)
    def test_two_parts_split_anywhere(self, drawn):
        # Each list is split between two parts (two processes); the first
        # part's text then comes in pieces cut anywhere, as it comes out of
        # a pipe, and the second part's item by item.
        lists = {}
        for key, (items, split, cuts) in drawn.items():
            head, tail = [item_text(item) for item in items[:split]], [item_text(item) for item in items[split:]]
            lists[key] = jsonout.Items(chain(pieces_of(head, cuts), tail))
        buf = io.StringIO()
        jsonout.dump(lists, buf)
        document = {key: items for key, (items, _, _) in drawn.items()}
        assert buf.getvalue() == json.dumps(document, sort_keys=True, indent=2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**4), st.lists(st.integers(0, 10**7), max_size=4))
    def test_record_templates_split_anywhere(self, split, cuts):
        # The records' template text, split and cut as in a forked campaign.
        texts, dicts = falsify_records()
        split %= len(texts) + 1
        buf = io.StringIO()
        jsonout.dump({"n": 7, "records": jsonout.Items(chain(pieces_of(texts[:split], cuts), texts[split:]))}, buf)
        assert buf.getvalue() == json.dumps({"n": 7, "records": dicts}, sort_keys=True, indent=2)

    @pytest.mark.parametrize("document", [
        {}, {"a": []}, {"b": [], "a": [{"x": 1}]}, {"%d": [{"%s": [[0, 1]]}], "\n": [{"": {}}, {"a": []}]},
        {"r": [{"edges": [[0, 1]], "report": {"x": 1.5, "notes": []}}] * 3, "e": []},
    ])
    def test_edge_cases(self, document):
        buf = io.StringIO()
        jsonout.dump({"n": 1, **{key: jsonout.Items(map(item_text, items)) for key, items in document.items()}}, buf)
        assert buf.getvalue() == json.dumps({"n": 1, **document}, sort_keys=True, indent=2)

    def test_items_deeper_than_the_top_level_dict_raise(self):
        with pytest.raises(TypeError, match="Items"):
            jsonout.dump({"a": {"b": jsonout.Items([])}}, io.StringIO())


class TestStreaming:
    def test_items_are_written_as_they_are_drawn(self):
        # Each item's text is over 64 KiB, so ``streams.chunks`` passes it on
        # alone: when the last piece is drawn, the file already holds the
        # document's head and every piece before it.
        items = [{"i": i, "s": "x" * (1 << 16)} for i in range(3)]
        texts = [item_text(item) for item in items]
        buf, written = io.StringIO(), []

        def pieces():
            yield from texts[:-1]
            written.append(buf.getvalue())
            yield texts[-1]

        jsonout.dump({"n": 3, "trees": jsonout.Items(pieces())}, buf)
        whole = json.dumps({"n": 3, "trees": items}, sort_keys=True, indent=2)
        assert buf.getvalue() == whole
        assert whole.startswith(written[0]) and written[0].endswith(texts[-2])

    @pytest.mark.parametrize("refused", [object(), {1: 2}], ids=["value", "key"])
    def test_nothing_is_written_before_a_refusal(self, refused):
        buf = io.StringIO()
        with pytest.raises(TypeError):
            jsonout.dump({"a": 1, "b": jsonout.Items(["x"]), "z": [refused]}, buf)
        assert buf.getvalue() == ""


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
