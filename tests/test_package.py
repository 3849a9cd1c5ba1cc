"""The package namespace is lazy: each entry point imports only the modules
it runs, and the public surface is the same names, bound to the same objects,
as when every module was imported eagerly."""

import ast
import contextlib
import graphlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sigmairr

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# The public names of the package, by the module that defines them.
PUBLIC = {
    "bounds": (
        "BOUND_IDS", "BoundInput", "BoundParams", "BoundReport", "evaluate_all", "evaluate_bound",
        "expand_bound_id",
    ),
    "errors": ("DomainError", "InputError", "ResourceLimitError"),
    "graphs": (
        "Graph", "build_family", "cartesian_product", "complement", "complete_bipartite", "cycle",
        "double_star", "format_edge_list", "is_connected", "is_tree", "monogenic", "parse_edge_list",
        "path", "star",
    ),
    "indices": (
        "albertson", "albertson_closed_form_len4", "albertson_monogenic", "compare_known_forms",
        "sigma", "sigma_closed_form", "sigma_double_star", "sigma_t", "zagreb_m1",
    ),
    "search": (
        "Counterexample", "ExhaustiveMode", "RandomMode", "SearchResult", "TreeClass",
        "canonical_form", "enumerate_free_trees", "extremal", "extremal_goals", "falsify",
    ),
    "sequences": (
        "Convention", "DegreeSequenceView", "DerivedSequences", "derive", "is_graphical",
        "is_tree_sequence", "random_tree", "realize_graph_hakimi", "realize_tree",
    ),
    "stats_tables": (
        "correlation_matrix", "ols_fit", "predict", "regression_reproduction", "reproduce_table",
        "table_correlation",
    ),
}


def _loaded_after(code: str) -> set[str]:
    """The modules, sigmairr's and the standard library's, that ``code``
    loads when it runs in a fresh interpreter."""
    probe = (
        "import sys\n_before = set(sys.modules)\n" + code
        + "\n_loaded = sorted(set(sys.modules) - _before)\nimport json\nprint(json.dumps(_loaded))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        check=True, capture_output=True, text=True, cwd=ROOT, env=ENV,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


SURVEY = ROOT / "scripts" / "extremal_survey.py"
RUN_SURVEY = (
    "import runpy, sys\n"
    f"sys.argv = [{str(SURVEY)!r}, '--min-n', '4', '--max-n', '6']\n"
    "try:\n"
    f"    runpy.run_path({str(SURVEY)!r}, run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert not exc.code, exc.code\n"
)
RUN_FALSIFY = (
    "import contextlib, io, sigmairr.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert sigmairr.cli.main(['bounds', 'falsify', '--bound', 'all', '--nmax', '6']) == 0\n"
)


class TestImportFootprint:
    def test_bare_package_loads_no_submodule(self):
        assert not any(m.startswith("sigmairr.") for m in _loaded_after("import sigmairr"))

    def test_search_loads_neither_bounds_nor_tables(self):
        loaded = _loaded_after("import sigmairr.search")
        assert "sigmairr.search" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.stats_tables", "sigmairr.jsonout", "json"}

    def test_cli_loads_neither_bounds_nor_tables(self):
        # A subcommand imports bounds or stats_tables when it runs.
        loaded = _loaded_after("import sigmairr.cli")
        assert "sigmairr.cli" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.stats_tables"}

    def test_bounds_subcommand_loads_bounds_but_not_tables(self):
        loaded = _loaded_after(
            "import contextlib, io, sigmairr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert sigmairr.cli.main(['bounds', 'check', '--family', 'path:4']) == 0\n"
        )
        assert "sigmairr.bounds" in loaded and "sigmairr.stats_tables" not in loaded

    def test_enumerate_subcommand_loads_neither_bounds_nor_records(self):
        loaded = _loaded_after(
            "import contextlib, io, sigmairr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert sigmairr.cli.main(['enumerate', '--n', '5', '--format', 'json']) == 0\n"
        )
        assert "sigmairr.jsonout" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.records", "sigmairr.stats_tables"}

    def test_tables_subcommand_loads_tables_and_bounds(self):
        # stats_tables imports bounds at its top, so tables, stats and plots load both
        loaded = _loaded_after(
            "import contextlib, io, sigmairr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert sigmairr.cli.main(['tables', 'export', '--table', '1']) == 0\n"
        )
        assert {"sigmairr.stats_tables", "sigmairr.bounds"} <= loaded

    @pytest.mark.parametrize("module", ["sigmairr.cli", "sigmairr.bounds"])
    def test_cli_and_bounds_load_no_tables(self, module):
        loaded = _loaded_after(f"import {module}")
        assert module in loaded and "sigmairr.stats_tables" not in loaded

    def test_survey_loads_neither_bounds_nor_tables(self):
        loaded = _loaded_after(RUN_SURVEY)
        assert "sigmairr.search" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.stats_tables"}

    @pytest.mark.parametrize(
        "code",
        [
            *(f"import sigmairr.{m}" for m in ("search", "cli", "bounds", "stats_tables")),
            RUN_SURVEY,
            RUN_FALSIFY,
        ],
        ids=["search", "cli", "bounds", "stats_tables", "survey", "falsify"],
    )
    def test_no_entry_point_loads_dataclasses(self, code):
        # the records are NamedTuples; ``dataclasses`` would pull in ``inspect``, ``ast`` and ``dis``
        loaded = _loaded_after(code)
        assert any(m.startswith("sigmairr.") for m in loaded)
        assert not loaded & {"dataclasses", "inspect"}


def _relative_imports() -> dict[str, set[str]]:
    """Each module of the package, mapped to the modules it imports relatively:
    at module level, inside a function or under ``TYPE_CHECKING``."""
    graph = {}
    for path in sorted((ROOT / "src" / "sigmairr").glob("*.py")):
        graph[path.stem] = targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    return graph


def test_import_graph_has_no_cycle():
    graph = _relative_imports()
    # the walk sees the imports inside functions and under TYPE_CHECKING
    assert {"bounds", "stats_tables"} <= graph["cli"] and "bounds" in graph["search"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle


class TestPublicSurface:
    @pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
    def test_name_is_its_module_object(self, module, name):
        assert getattr(sigmairr, name) is getattr(importlib.import_module(f"sigmairr.{module}"), name)

    def test_all_and_dir(self):
        names = {n for names in PUBLIC.values() for n in names}
        assert len(names) == 58 and set(sigmairr.__all__) == names
        assert names <= set(dir(sigmairr))
        assert sigmairr.__version__ == "0.1.0"

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from sigmairr import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(sigmairr.__all__)

    def test_submodule_after_bare_import(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sigmairr; print(sigmairr.bounds.__name__, sigmairr.stats_tables.__name__)"],
            check=True, capture_output=True, text=True, cwd=ROOT, env=ENV,
        )
        assert done.stdout.split() == ["sigmairr.bounds", "sigmairr.stats_tables"]

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sigmairr.no_such_name
        assert not hasattr(sigmairr, "no_such_name")


# Each public record, with a factory of fresh field values: two records built
# from two calls are equal fields in distinct objects.
RECORDS = {
    "BoundParams": lambda: (1, None, 3, None, Fraction(3), False),
    "BoundReport": lambda: (
        "B9", "graph n=5 m=4", (), "<=", (2, 1, True), (42, 1, True), (40, 1), True, (("p", "2"),), (), False,
    ),
    "TreeClass": lambda: (5, 0, 1 << 40, "all trees of order 5"),
    "SearchResult": lambda: ("all trees of order 3", "sigma", "max", 2, sigmairr.path(3), (1, 2, 2), 1),
    "ExhaustiveMode": lambda: (7, 3),
    "RandomMode": lambda: (40, 30, 0),
    "Counterexample": lambda: ({"bound_id": "B8", "n": 2},),
    "DegreeSequenceView": lambda: ((3, 1, 1, 1), sigmairr.Convention.STANDARD),
    "DerivedSequences": lambda: (
        (Fraction(1, 2), Fraction(0), Fraction(-1, 2)), (Fraction(3, 2), Fraction(2), Fraction(3, 2)),
        Fraction(1, 2), Fraction(2), Fraction(0), Fraction(5, 2),
    ),
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_immutable_and_compared_by_fields(self, name):
        cls, values = getattr(sigmairr, name), RECORDS[name]
        a, b = cls(*values()), cls(*values())
        assert a is not b and a == b and tuple(a) == values()
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            a.not_a_field = 0
        try:
            hash(values())
        except TypeError:  # a dict field: neither has a hash
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    @pytest.mark.parametrize("build,message", [
        (lambda: sigmairr.BoundParams(p=4), "p must be prime, got 4"),
        (lambda: sigmairr.BoundParams(eta1=2), "eta1 must lie in (2, 4]"),
        (lambda: sigmairr.BoundParams(eta1=Fraction(401, 100)), "eta1 must lie in (2, 4]"),
        (lambda: sigmairr.BoundParams()._replace(p=4), "p must be prime, got 4"),
        (lambda: sigmairr.DegreeSequenceView(()), "degree sequence must be non-empty"),
        (lambda: sigmairr.DegreeSequenceView([0]), "degree entries must be integers >= 1, got 0"),
        (lambda: sigmairr.DegreeSequenceView([1])._replace(entries=[0]), "degree entries must be integers >= 1, got 0"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises((sigmairr.InputError, sigmairr.DomainError)) as raised:
            build()
        assert str(raised.value) == message

    def test_normalised_on_every_construction(self):
        view = sigmairr.DegreeSequenceView([1, 2, 1])
        assert view.entries == (1, 2, 1) and view._replace(entries=[2, 2])[0] == (2, 2)
        params = sigmairr.BoundParams(eta1="5/2")
        assert params.eta1 == Fraction(5, 2) and type(params._replace(eta1=3).eta1) is Fraction


def test_readme_library_example_prints_its_comments():
    # The README's one Python block, run as written: its two commented
    # outputs are what it prints, and then one line per evaluated report.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert "# 392, star degrees" in block and "# 24 6 36" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == [f"392 {[1] * 8 + [8]}", "24 6 36"]
    reports = sigmairr.evaluate_all(sigmairr.BoundInput.from_graph(sigmairr.star(9)))
    assert lines[2:] == [f"{r.bound_id} {r.hypotheses_met} {r.holds} {r.to_json_dict()['margin']}" for r in reports]
