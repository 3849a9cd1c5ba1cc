"""The benchmark's layer tracer must find every name it patches and restore
each one: a refactor that renames or removes a traced function fails here
rather than only in a traced benchmark run."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import sigmairr
from sigmairr import bounds, cli, graphs, indices, search, sequences, stats_tables

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PATCHED_CLASSES = (
    search.TreeClass,
    search.Counterexample,
    search.SearchResult,
    graphs.Graph,
    bounds.BoundInput,
    bounds.BoundReport,
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    modules = (sigmairr, bounds, cli, graphs, indices, search, sequences, stats_tables)
    namespaces = {m.__name__: vars(m) for m in modules}
    namespaces.update({c.__qualname__: c.__dict__ for c in PATCHED_CLASSES})
    namespaces["search.OBJECTIVES"] = search.OBJECTIVES
    namespaces["json"] = {"dump": json.dump}
    return {(ns, key): value for ns, items in namespaces.items() for key, value in list(items.items())}


def test_install_patches_and_uninstall_restores():
    tracer_module = _load_tracer()
    before = _snapshot()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert search.free_tree_level_sequences is not before[("sigmairr.search", "free_tree_level_sequences")]
        assert json.dump is not before[("json", "dump")]
        assert search.OBJECTIVES["sigma"] is not before[("search.OBJECTIVES", "sigma")]
        assert sum(1 for _ in search.free_tree_level_sequences(6)) == 6
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = sorted(key for key, value in before.items() if after[key] is not value)
    assert changed == []
    assert tracer.to_json()["counters"]["search.select.yields"] == 6


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
def test_render_layer_sees_every_output_byte(fmt):
    # The benchmark's cli.render.* metrics read 0 if a command stops going
    # through cli._render and cli._emit; every format must still do so.
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    out = io.StringIO()
    try:
        tracer_module.install(tracer)
        with contextlib.redirect_stdout(out):
            assert cli.main(["bounds", "falsify", "--bound", "B8", "--nmax", "6", "--format", fmt]) == 0
    finally:
        tracer.uninstall()
    traced = tracer.to_json()
    assert traced["layers"]["cli.render.render"]["count"] == 1
    assert out.getvalue() and traced["counters"]["cli.render.bytes"] == len(out.getvalue().encode("utf-8"))


def test_resolve_layer_counts_one_call_per_input():
    # resolve_parameters is memoised beneath its module name: the tracer
    # still sees one bounds.resolve call per BoundInput, also for inputs that
    # share their order, size and max degree.
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    trees = [g for n in range(2, 8) for g in search.enumerate_free_trees(n)]
    try:
        tracer_module.install(tracer)
        inputs = [bounds.BoundInput.from_graph(g) for g in trees * 2]
        search.falsify("all", search.ExhaustiveMode(7))
    finally:
        tracer.uninstall()
    assert len({(b.n, b.max_degree) for b in inputs}) < len(trees)
    assert tracer.to_json()["layers"]["bounds.resolve"]["count"] == 3 * len(trees)


def test_walk_layer_counts_one_yield_per_tree():
    # extremal_goals and exhaustive falsify read each tree and its signature
    # from the walk, so the traced search.select layer sees every tree they
    # walk: the 106 trees of order 10, then the 47 of orders 2 to 8.
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        (result,) = search.extremal_goals(search.TreeClass.all_trees(10), [("sigma", "max")])
        after_extremal = tracer.counters["search.select.yields"]
        search.falsify("all", search.ExhaustiveMode(8))
    finally:
        tracer.uninstall()
    assert result.trees_examined == after_extremal == 106
    assert tracer.to_json()["counters"]["search.select.yields"] == 106 + 47
