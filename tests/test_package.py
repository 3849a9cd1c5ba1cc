"""The package namespace is lazy: each entry point imports only the modules
it runs, and the public surface is the same names, bound to the same objects,
as when every module was imported eagerly."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
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
    """The sigmairr submodules loaded once ``code`` has run in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('sigmairr.'))))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        check=True, capture_output=True, text=True, cwd=ROOT, env=ENV,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportFootprint:
    def test_bare_package_loads_no_submodule(self):
        assert _loaded_after("import sigmairr") == set()

    def test_search_loads_neither_bounds_nor_tables(self):
        loaded = _loaded_after("import sigmairr.search")
        assert "sigmairr.search" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.stats_tables"}

    def test_cli_loads_neither_bounds_nor_tables(self):
        # Only the bounds subcommands import bounds, when they run.
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

    @pytest.mark.parametrize("module", ["sigmairr.cli", "sigmairr.bounds"])
    def test_cli_and_bounds_load_no_tables(self, module):
        loaded = _loaded_after(f"import {module}")
        assert module in loaded and "sigmairr.stats_tables" not in loaded

    def test_survey_loads_neither_bounds_nor_tables(self):
        script = ROOT / "scripts" / "extremal_survey.py"
        loaded = _loaded_after(
            "import runpy, sys\n"
            f"sys.argv = [{str(script)!r}, '--min-n', '4', '--max-n', '6']\n"
            "try:\n"
            f"    runpy.run_path({str(script)!r}, run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
        )
        assert "sigmairr.search" in loaded
        assert not loaded & {"sigmairr.bounds", "sigmairr.stats_tables"}


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
    assert lines[2:] == [f"{r.bound_id} {r.hypotheses_met} {r.holds} {r.margin}" for r in reports]
