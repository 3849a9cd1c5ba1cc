"""Command-line surface.

Subcommands: indices, sequence analyze, bounds check, bounds falsify,
enumerate, extremal, tables reproduce, tables export, stats correlate,
stats regress, plots emit.  Machine formats are canonical (sorted JSON
keys, fixed CSV column order), so identical invocations produce
byte-identical output.  JSON is written by ``jsonout.dump``, the
package's one JSON writer: its bytes equal ``json.dumps(payload,
sort_keys=True, indent=2)``, and it is written into stdout or the
``--out`` file as it is rendered, one record at a time.

Each command builds one JSON record; its CSV and human tables are views of
that record, each cell written by one rule (``_cell``): null is empty, a
bool is ``true``/``false``, a list of lists is ``u-v;...``, any other list
is ``a,b,...``, an object is ``k=v;...`` in key order, and anything else
is its ``str``.  Two tables print something other than the JSON value:
``tables export --table 2`` prints lambda and eta1 as ``%g`` floats, and
``sequence analyze`` prints its non-string cells as JSON.

Exit codes: 0 success; 1 domain/input error; 2 when ``bounds check`` runs
with ``--expect-hold`` and any probative report fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, TextIO

from . import graphs, indices, jsonout, search
from .errors import DomainError, InputError, ResourceLimitError
from .sequences import (
    Convention,
    DegreeSequenceView,
    derive,
    is_graphical,
    is_tree_sequence,
    parse_sequence_literal,
    realize_graph_hakimi,
    realize_tree,
)

if TYPE_CHECKING:
    from . import bounds

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse failures to exit code 1
        raise InputError(message)


# ---------------------------------------------------------------------------
# Rendering helpers

@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """Stdout, or the file at ``out`` opened for writing."""
    if out is None:
        yield sys.stdout
        return
    with open(out, "w", encoding="utf-8") as fh:
        yield fh


def _emit(text: str, fh: TextIO) -> None:
    fh.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return ";".join("-".join(map(str, pair)) for pair in value)
        return ",".join(map(str, value))
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    return str(value)


def _human_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render(fmt: str, header, rows, payload, out: Optional[str]) -> None:
    """Emit ``payload`` as JSON, or ``rows`` as a CSV or human table.

    ``rows`` holds JSON values taken from ``payload`` (``plots emit``, CSV
    only, passes none); it is iterated only for csv and human, and each
    value is written by ``_cell``."""
    if fmt == "json":
        with _output(out) as fh:  # written record by record, never held whole
            jsonout.dump(payload, fh)
            _emit("\n", fh)
        return
    cells = ([_cell(v) for v in row] for row in rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        text = buf.getvalue()
    else:
        text = _human_table(header, list(cells))
    with _output(out) as fh:
        _emit(text, fh)


# ---------------------------------------------------------------------------
# Shared argument groups

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "csv", "json"), default="human")
    p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=int, help="exponent for the lower branch of B2")
    p.add_argument("--beta", type=int, help="exponent for the upper branch of B2")
    p.add_argument("--p", type=int, default=2, help="prime for B9 (default 2)")
    p.add_argument("--eta", type=int, help="override eta (default ceil(2*n*max_degree/m))")
    p.add_argument("--eta1", help="override eta1, a rational in (2,4], e.g. 2.5 or 5/2")
    p.add_argument(
        "--strict-max-degree-window",
        action="store_true",
        help="gate B10 with 4 <= max_degree-3 <= n/4 instead of max_degree >= 4",
    )


def _params_from_args(args) -> bounds.BoundParams:
    from . import bounds

    eta1 = None
    if args.eta1 is not None:
        try:
            eta1 = Fraction(args.eta1)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"--eta1 must be a rational literal, got {args.eta1!r}") from None
    return bounds.BoundParams(
        alpha=args.alpha,
        beta=args.beta,
        p=args.p,
        eta=args.eta,
        eta1=eta1,
        strict_max_degree_window=args.strict_max_degree_window,
    )


def _parse_family_spec(spec: str) -> graphs.Graph:
    name, _, rest = spec.partition(":")
    if not rest:
        raise InputError(f"family spec must look like 'path:5', got {spec!r}")
    try:
        params = tuple(int(x) for x in rest.split(":"))
    except ValueError:
        raise InputError(f"non-integer family parameter in {spec!r}") from None
    return graphs.build_family(name, *params)


def _load_graph(args) -> tuple[graphs.Graph, str]:
    if args.sequence:
        if args.family or args.graph_file:
            raise InputError("--sequence excludes --family and --graph-file")
        entries = parse_sequence_literal(args.sequence)
        if is_tree_sequence(entries):
            return realize_tree(entries), f"sequence {args.sequence} (caterpillar realization)"
        if is_graphical(entries):
            return realize_graph_hakimi(entries), f"sequence {args.sequence} (Havel-Hakimi realization)"
        raise InputError(f"sequence {entries} is neither a tree sequence nor graphical")
    if args.family and args.graph_file:
        raise InputError("--family and --graph-file exclude each other")
    if args.family:
        return _parse_family_spec(args.family), args.family
    if args.graph_file:
        try:
            with open(args.graph_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from None
        return graphs.parse_edge_list(text), args.graph_file
    raise InputError("no graph input given (use --family or --graph-file)")


# ---------------------------------------------------------------------------
# Subcommand: indices

def _cmd_indices(args) -> int:
    g, label = _load_graph(args)
    values = {
        "albertson": indices.albertson(g),
        "sigma": indices.sigma(g),
        "sigma_t": indices.sigma_t(g),
        "zagreb_m1": indices.zagreb_m1(g),
    }
    payload = {"input": label, "n": g.vertex_count, "m": g.edge_count, **values}
    _render(args.format, ["index", "value"], values.items(), payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: sequence analyze

def _cmd_sequence_analyze(args) -> int:
    entries = parse_sequence_literal(args.sequence)
    view = DegreeSequenceView(entries, Convention(args.convention))
    try:
        mean_decimal = float(view.mean_entry)
    except OverflowError:  # beyond float range: null, as bounds._decimal writes lhs_decimal
        mean_decimal = None
    # str() and json.dumps refuse an int past the interpreter's int-to-str digit
    # limit, and so would json.loads: refuse the sequence before writing a byte.
    try:
        payload = {
            "entries": list(entries),
            "convention": view.convention.value,
            "k": view.k,
            "n": view.n,
            "m": str(view.m),
            "max_entry": view.max_entry,
            "min_entry": view.min_entry,
            "mean_entry": str(view.mean_entry),
            "mean_entry_decimal": mean_decimal,
            "cube_sum": view.cube_sum,
            "is_graphical": is_graphical(entries),
            "is_tree_sequence": is_tree_sequence(entries),
        }
        if view.k >= 2:
            der = derive(view)
            payload.update(
                {
                    "half_diffs": [str(t) for t in der.half_diffs],
                    "half_sums": [str(a) for a in der.half_sums],
                    "max_half_diff": str(der.max_half_diff),
                    "max_half_sum": str(der.max_half_sum),
                    "mean_half_diff": str(der.mean_half_diff),
                    "mean_half_sum": str(der.mean_half_sum),
                }
            )
        header = ["property", "value"]
        rows = [[k, v if isinstance(v, str) else json.dumps(v)] for k, v in payload.items()]
    except ValueError as exc:
        raise InputError(f"a value of this sequence cannot be written: {exc}") from None
    _render(args.format, header, rows, payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: bounds check / falsify

def _bound_input_from_args(args, params: bounds.BoundParams) -> bounds.BoundInput:
    from . import bounds

    sources = [
        bool(args.sequence),
        bool(args.family or args.graph_file),
        args.table is not None,
        args.class_trees is not None,
    ]
    if sum(sources) != 1:
        raise InputError(
            "exactly one input source: --sequence, --family/--graph-file, "
            "--table/--row, or --class-trees/--class-mode"
        )
    # A flag that the chosen source does not read is a mistyped input, not a no-op.
    paper_table = args.convention == Convention.PAPER_TABLE.value
    if args.row is not None and args.table is None:
        raise InputError("--row needs --table")
    if args.class_mode is not None and args.class_trees is None:
        raise InputError("--class-mode needs --class-trees")
    if args.allow_over_cap and args.class_trees is None:
        raise InputError("--allow-over-cap needs --class-trees")
    if paper_table and not args.sequence:
        raise InputError("--convention paper-table needs --sequence")
    if args.irr is not None and not (paper_table and args.sequence):
        raise InputError("--irr needs --sequence with --convention paper-table")
    if args.irr is not None and args.irr < 0:  # an Albertson value is a sum of absolute values
        raise InputError(f"--irr must be at least 0, got {args.irr}")
    if args.table is not None:
        from .stats_tables import _table

        if args.row is None:
            raise InputError("--table needs --row (1-based)")
        size = len(_table(args.table))
        if not 1 <= args.row <= size:
            raise InputError(f"--row must be in 1..{size}, got {args.row}")
        return bounds.BoundInput.from_table_row(args.table, args.row - 1, params)
    if args.class_trees is not None:
        if args.class_mode is None:
            raise InputError("--class-trees needs --class-mode min|max")
        if args.class_trees < 2:  # the tree of order 1 has an isolated vertex
            raise InputError(f"--class-trees must be at least 2, got {args.class_trees}")
        base = args.bound.rstrip("ab")
        objective = "albertson" if base in ("B1", "B2") else "sigma"
        tree_class = search.TreeClass.all_trees(args.class_trees)
        result = search.extremal(tree_class, objective, args.class_mode, allow_over_cap=args.allow_over_cap)
        label = f"{args.class_mode} {objective} witness over {tree_class.description}"
        return bounds.BoundInput.from_graph(result.witness, params, label=label)
    if paper_table:
        view = DegreeSequenceView(parse_sequence_literal(args.sequence), Convention.PAPER_TABLE)
        return bounds.BoundInput.from_view(view, irr_value=args.irr, params=params)
    g, label = _load_graph(args)
    return bounds.BoundInput.from_graph(g, params, label=label)


def _cmd_bounds_check(args) -> int:
    from . import bounds

    params = _params_from_args(args)
    binput = _bound_input_from_args(args, params)
    if args.bound == "all":
        reports = bounds.evaluate_all(binput)
    else:
        reports = [bounds.evaluate_bound(bid, binput) for bid in bounds.expand_bound_id(args.bound)]
    payload = {"input": binput.label, "reports": [r.to_json_dict() for r in reports]}
    rows = ([r[k] for k in bounds.CSV_HEADER] for r in payload["reports"])
    _render(args.format, bounds.CSV_HEADER, rows, payload, args.out)
    if args.expect_hold and any(r.hypotheses_met and r.holds is False for r in reports):
        return 2
    return 0


def _cmd_bounds_falsify(args) -> int:
    params = _params_from_args(args)
    if args.n is not None and args.nmax is not None:
        raise InputError("--n (random mode) and --nmax (exhaustive mode) exclude each other")
    if args.samples is not None:
        if args.n is None:
            raise InputError("random mode needs --n together with --samples")
        if args.allow_over_cap:
            raise InputError("--allow-over-cap needs exhaustive mode (--nmax)")
        seed = 0 if args.seed is None else args.seed
        mode: search.ExhaustiveMode | search.RandomMode = search.RandomMode(
            n=args.n, samples=args.samples, seed=seed
        )
        mode_desc = {"mode": "random", "n": args.n, "samples": args.samples, "seed": seed}
    else:
        if args.nmax is None:
            raise InputError("exhaustive mode needs --nmax (or pass --samples for random mode)")
        if args.seed is not None:
            raise InputError("--seed needs random mode (--n with --samples)")
        mode = search.ExhaustiveMode(args.nmax)
        mode_desc = {"mode": "exhaustive", "nmax": args.nmax}
    found = search.falsify(args.bound, mode, params, allow_over_cap=args.allow_over_cap)
    payload = {
        "bound": args.bound,
        **mode_desc,
        "params": params.to_json_dict(),
        "counterexamples": [c.to_json_dict() for c in found],
    }
    header = ["bound_id", "n", "edges", "lhs", "rhs", "relation", "margin"]
    rows = (
        [c["bound_id"], c["n"], c["edges"], *(c["report"][k] for k in header[3:])]
        for c in payload["counterexamples"]
    )
    _render(args.format, header, rows, payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: enumerate / extremal

def _cmd_enumerate(args) -> int:
    search.check_tree_order(args.n, args.allow_over_cap)
    # Each streamed level sequence is already its tree's canonical form.
    stream = search.free_tree_level_sequences(args.n)
    if args.count_only:
        payload = {"n": args.n, "count": sum(1 for _ in stream)}
        _render(args.format, ["n", "count"], [payload.values()], payload, args.out)
        return 0
    items = [
        {
            "encoding": list(enc),
            "edges": sorted([p, c] for p, c in search._tree_of_levels(enc)[1]),
        }
        for enc in stream
    ]
    payload = {"n": args.n, "count": len(items), "trees": items}
    _render(args.format, ["encoding", "edges"], (t.values() for t in items), payload, args.out)
    return 0


def _cmd_extremal(args) -> int:
    if args.degree_multiset:
        if args.n is not None or args.max_degree is not None:
            raise InputError("--degree-multiset excludes --n and --max-degree")
        entries = parse_sequence_literal(args.degree_multiset)
        tree_class = search.TreeClass.with_degree_multiset(entries)
    elif args.max_degree is not None:
        if args.n is None:
            raise InputError("--max-degree needs --n")
        tree_class = search.TreeClass.with_max_degree(args.n, args.max_degree)
    else:
        if args.n is None:
            raise InputError("give --n, --degree-multiset, or --max-degree with --n")
        tree_class = search.TreeClass.all_trees(args.n)
    result = search.extremal(tree_class, args.objective, args.direction, allow_over_cap=args.allow_over_cap)
    payload = result.to_json_dict()
    rows = (item for item in payload.items() if item[0] != "witness_edge_list")
    _render(args.format, ["field", "value"], rows, payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: tables

def _cmd_tables_reproduce(args) -> int:
    from . import stats_tables

    report = stats_tables.reproduce_table(args.table)
    payload = {
        "table": report.table_id,
        "cells": [asdict(c) for c in report.cells],
        "mismatched_cells": [asdict(c) for c in report.mismatches()],
    }
    header = ["row", "column", "printed", "recomputed", "match", "rule"]
    rows = ([c["row"] + 1, *list(c.values())[1:]] for c in payload["cells"])
    _render(args.format, header, rows, payload, args.out)
    return 0


def _cmd_tables_export(args) -> int:
    from . import stats_tables

    if args.table == 1:
        header = ["degree_sequence", "T1", "T2", "irr", "sigma"]
        payload = {
            "table": 1,
            "rows": [
                {"entries": list(r.entries), "T1": r.t1, "T2": r.t2, "irr": r.irr, "sigma": r.sigma}
                for r in stats_tables.TABLE1
            ],
        }
        rows = (r.values() for r in payload["rows"])
    else:
        header = ["degree_sequence", "n", "irr", "sigma", "lambda", "eta", "eta1"]
        # lambda and eta1 print as %g floats; the JSON holds them exact.
        rows = (
            [list(r.entries), r.n, r.irr, r.sigma, f"{float(r.lam):g}", r.eta, f"{float(r.eta1):g}"]
            for r in stats_tables.TABLE2
        )
        payload = {
            "table": 2,
            "rows": [
                {"entries": list(r.entries), "n": r.n, "irr": r.irr, "sigma": r.sigma,
                 "lambda": str(r.lam), "eta": r.eta, "eta1": str(r.eta1)}
                for r in stats_tables.TABLE2
            ],
        }
    _render(args.format, header, rows, payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: stats

def _cmd_stats_correlate(args) -> int:
    from . import stats_tables

    report, comparisons = stats_tables.table_correlation(args.table)
    payload = {
        "table": args.table,
        "variables": list(report.variables),
        "matrix": [[None if v is None else f"{v:.12g}" for v in row] for row in report.matrix],
        "comparisons": [
            {
                "var_a": report.variables[c.row],
                "var_b": report.variables[c.col],
                "computed": None if c.computed is None else f"{c.computed:.12g}",
                "printed": f"{c.printed:.6f}",
                "abs_diff": None if c.abs_diff is None else f"{c.abs_diff:.12g}",
                "within_tolerance": c.within_tolerance,
            }
            for c in comparisons
        ],
    }
    header = ["var_a", "var_b", "computed", "printed", "abs_diff", "within_5e-3"]
    rows = (c.values() for c in payload["comparisons"])
    _render(args.format, header, rows, payload, args.out)
    return 0


def _cmd_stats_regress(args) -> int:
    from . import stats_tables

    repro = stats_tables.regression_reproduction(args.table)
    payload = repro.to_json_dict()
    if args.predict is not None:
        try:
            point = tuple(float(x) for x in args.predict.split(","))
        except ValueError:
            raise InputError(f"--predict expects comma-separated numbers, got {args.predict!r}") from None
        values = {"printed_model": stats_tables.printed_model_value(args.table, point)}
        for name, fit in repro.fits.items():
            values[name] = stats_tables.predict(fit, point)
        payload["predictions_at"] = list(point)
        # null beyond float range, as lhs_decimal is written
        payload["predictions"] = {k: None if v is None else f"{v:.12g}" for k, v in values.items()}

    def rows():
        for k in ("printed_model_at_point", "printed_predicted", "abs_prediction_gap"):
            yield k, payload[k]
        for name, fit in payload["fits"].items():
            for k in ("r_squared", "condition_number", "rank_deficient"):
                yield f"{name}.{k}", fit[k]
            yield f"{name}.matches_printed_r2", payload["r2_match_flags"][name]
        for k, v in sorted(payload.get("predictions", {}).items()):
            yield f"predict.{k}", v

    _render(args.format, ["field", "value"], rows(), payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand: plots emit (raw CSV series only)

# The largest order figure 1 plots: its series to 200 takes about a second.
_FIGURE1_MAX_N = 200


def _cmd_plots_emit(args) -> int:
    from . import stats_tables

    if args.max_n is not None and args.figure != 1:
        raise InputError("--max-n needs --figure 1")
    if args.figure == 1:
        max_n = 20 if args.max_n is None else args.max_n
        if max_n < 3:  # the series starts where the cycle does
            raise InputError(f"--max-n must be at least 3 for figure 1, got {max_n}")
        if max_n > _FIGURE1_MAX_N:  # the monogenic graph of order n has about n^2/4 edges
            raise InputError(f"--max-n must be at most {_FIGURE1_MAX_N} for figure 1, got {max_n}")
        header = [
            "n",
            "sigma_path", "irr_path",
            "sigma_cycle", "irr_cycle",
            "sigma_star", "irr_star",
            "sigma_monogenic", "irr_monogenic",
        ]
        rows = []
        for n in range(3, max_n + 1):
            row = [n]
            for g in (graphs.path(n), graphs.cycle(n), graphs.star(n), graphs.monogenic(n)):
                row += [indices.sigma(g), indices.albertson(g)]  # sigma then irr, as in the header
            rows.append(row)
    elif args.figure == 2:
        header = ["n", "T1", "T2", "irr", "sigma"]
        rows = [[sum(r.entries), r.t1, r.t2, r.irr, r.sigma] for r in stats_tables.TABLE1]
    else:  # argparse admits figures 1 to 3 only
        header = ["n", "irr", "sigma", "lambda", "eta_printed", "eta_computed", "eta1_printed"]
        rows = [
            [r.n, r.irr, r.sigma, f"{float(r.lam):g}", r.eta, c_eta.recomputed, f"{float(r.eta1):g}"]
            for c_eta, r in zip(stats_tables.reproduce_table(2).column("eta"), stats_tables.TABLE2)
        ]
    _render("csv", header, rows, None, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    leaves it as it was, so every ``main`` call in a process shares it."""
    parser = _Parser(prog="sigmairr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="compute albertson/sigma/sigma_t/zagreb_m1")
    p.add_argument("--family", help="family spec like path:5 or double_star:3:4")
    p.add_argument("--graph-file", help="edge-list file ('# n=<int>' header, 'u v' lines)")
    p.add_argument("--sequence", help="degree sequence literal; realized before computing")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("sequence", help="degree-sequence operations")
    seq_sub = p.add_subparsers(dest="subcommand", required=True)
    pa = seq_sub.add_parser("analyze", help="derived sequences, averages, realizability")
    pa.add_argument("--sequence", required=True)
    pa.add_argument("--convention", choices=("standard", "paper-table"), default="standard")
    _add_output_flags(pa)
    pa.set_defaults(func=_cmd_sequence_analyze)

    p = sub.add_parser("bounds", help="evaluate or falsify catalogued claims")
    b_sub = p.add_subparsers(dest="subcommand", required=True)

    pc = b_sub.add_parser("check", help="evaluate catalogued claims on one input")
    pc.add_argument("--bound", default="all", help="catalog id (B1..B15b) or 'all'")
    pc.add_argument("--sequence")
    pc.add_argument("--convention", choices=("standard", "paper-table"), default="standard")
    pc.add_argument("--irr", type=int, help="Albertson value for summary-convention input")
    pc.add_argument("--family")
    pc.add_argument("--graph-file")
    pc.add_argument("--table", type=int, choices=(1, 2))
    pc.add_argument("--row", type=int, help="1-based row of the embedded table")
    pc.add_argument("--class-trees", type=int, help="evaluate on a class extremum witness: order")
    pc.add_argument("--class-mode", choices=("min", "max"))
    pc.add_argument("--allow-over-cap", action="store_true")
    pc.add_argument("--expect-hold", action="store_true", help="exit 2 if a probative report fails")
    _add_param_flags(pc)
    _add_output_flags(pc)
    pc.set_defaults(func=_cmd_bounds_check)

    pf = b_sub.add_parser("falsify", help="search trees for counterexamples")
    pf.add_argument("--bound", required=True)
    pf.add_argument("--nmax", type=int, help="exhaustive mode: cover all trees with n <= nmax")
    pf.add_argument("--n", type=int, help="random mode: tree order")
    pf.add_argument("--samples", type=int, help="random mode: number of seeded samples")
    pf.add_argument("--seed", type=int, help="random mode: seed of the sampled trees (default 0)")
    pf.add_argument("--allow-over-cap", action="store_true")
    _add_param_flags(pf)
    _add_output_flags(pf)
    pf.set_defaults(func=_cmd_bounds_falsify)

    p = sub.add_parser("enumerate", help="stream non-isomorphic trees of a given order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--allow-over-cap", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("extremal", help="exact extremal index over a tree class")
    p.add_argument("--objective", choices=tuple(sorted(search.OBJECTIVES)), default="sigma")
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--n", type=int)
    p.add_argument("--degree-multiset", help="sequence literal selecting trees by degree multiset")
    p.add_argument("--max-degree", type=int, help="with --n: trees whose maximum degree equals this")
    p.add_argument("--allow-over-cap", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("tables", help="embedded published tables")
    t_sub = p.add_subparsers(dest="subcommand", required=True)
    pr = t_sub.add_parser("reproduce", help="recompute every derivable column")
    pr.add_argument("--table", type=int, choices=(1, 2), required=True)
    _add_output_flags(pr)
    pr.set_defaults(func=_cmd_tables_reproduce)
    pe = t_sub.add_parser("export", help="emit the printed cells")
    pe.add_argument("--table", type=int, choices=(1, 2), required=True)
    _add_output_flags(pe)
    pe.set_defaults(func=_cmd_tables_export)

    p = sub.add_parser("stats", help="correlation and regression reproduction")
    s_sub = p.add_subparsers(dest="subcommand", required=True)
    pcor = s_sub.add_parser("correlate", help="correlation matrix vs the printed one")
    pcor.add_argument("--table", type=int, choices=(1, 2), required=True)
    _add_output_flags(pcor)
    pcor.set_defaults(func=_cmd_stats_correlate)
    preg = s_sub.add_parser("regress", help="printed-model check and own fits")
    preg.add_argument("--table", type=int, choices=(1, 2), required=True)
    preg.add_argument("--predict", help="comma-separated point, e.g. 350,50")
    _add_output_flags(preg)
    preg.set_defaults(func=_cmd_stats_regress)

    p = sub.add_parser("plots", help="emit plot data series")
    pl_sub = p.add_subparsers(dest="subcommand", required=True)
    pp = pl_sub.add_parser("emit", help="raw CSV series for one figure")
    pp.add_argument("--figure", type=int, choices=(1, 2, 3), required=True)
    pp.add_argument(
        "--max-n", type=int, help=f"figure 1: largest family order, 3 to {_FIGURE1_MAX_N} (default 20)"
    )
    pp.add_argument("--out", metavar="PATH")
    pp.set_defaults(func=_cmd_plots_emit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DomainError, InputError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
