"""Command-line surface.

Subcommands: indices, sequence analyze, bounds check, bounds falsify,
enumerate, extremal, tables reproduce, tables export, stats correlate,
stats regress, plots emit.  Machine formats are canonical (sorted JSON
keys, fixed CSV column order), so identical invocations produce
byte-identical output.  JSON is written by ``jsonout.dump``, in the
package's one JSON format: its bytes equal ``json.dumps(payload,
sort_keys=True, indent=2)``.  The long lists, ``bounds falsify``'s records
and ``enumerate``'s trees, are ``jsonout.Items`` text made from templates,
written into stdout or the ``--out`` file one record at a time.

Each command builds one JSON record; its CSV and human tables are views of
that record (``bounds falsify`` and ``enumerate`` make their rows from the
numbers their JSON text is made from), each cell written by one rule
(``_cell``): null is empty, a bool is ``true``/``false``, a list of lists
is ``u-v;...``, any other list is ``a,b,...``, an object is ``k=v;...`` in
key order, and anything else is its ``str``.  Two tables print something
other than the JSON value: ``tables export --table 2`` prints lambda and
eta1 as ``%g`` floats, and ``sequence analyze`` prints its non-string cells
as JSON.

Exit codes: 0 success; 1, with one ``error:`` line, for any error that
``errors.exit_code`` maps; 2 when ``bounds check`` runs with
``--expect-hold`` and any probative report fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from . import errors, graphs, indices, jsonout, search, streams
from .errors import InputError
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


# ---------------------------------------------------------------------------
# Rendering helpers

def _output(out) -> contextlib.AbstractContextManager[TextIO]:
    """Stdout for None, the file ``out``, or the file at the path ``out``."""
    return streams.output_file(out) if isinstance(out, str) else contextlib.nullcontext(out or sys.stdout)


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


def _render(fmt: str, header, rows, payload, out) -> None:
    """Emit ``payload`` as JSON, or ``rows`` as a CSV or human table, into
    ``out`` as ``_output`` opens it.

    ``rows`` holds the cells' JSON values, most of them taken from
    ``payload`` (``plots emit``, CSV only, passes none; ``enumerate``
    passes its cells' text); it is iterated only for csv and human, and
    each value is written by ``_cell``."""
    if fmt == "json":
        with _output(out) as fh:  # an Items list is written record by record, never held whole
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
    irr, sig = indices.albertson_and_sigma(g.degrees, g.edges)
    values = {
        "albertson": irr,
        "sigma": sig,
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
    view = DegreeSequenceView(entries, args.convention)
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
            for name, value in derive(view)._asdict().items():
                payload[name] = list(map(str, value)) if isinstance(value, tuple) else str(value)
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
        from .stats_tables import _table, table_input

        if args.row is None:
            raise InputError("--table needs --row (1-based)")
        size = len(_table(args.table))
        if not 1 <= args.row <= size:
            raise InputError(f"--row must be in 1..{size}, got {args.row}")
        return table_input(args.table, args.row - 1, params)
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
    from . import records

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
    fmt = "json" if args.format == "json" else "csv"  # the human table is laid out from the CSV text

    def texts(mode) -> Iterator[str]:  # its records' pieces; the arguments are checked at the call
        found = records.counterexample_texts(args.bound, mode, params, fmt, allow_over_cap=args.allow_over_cap)
        return (piece for _, _, _, pieces in found for piece in pieces)

    def write(pieces: Iterable[str], fh: TextIO) -> None:
        header = records.COUNTEREXAMPLE_HEADER
        if args.format == "json":
            payload = {"bound": args.bound, **mode_desc, "params": params.to_json_dict(),
                       "counterexamples": jsonout.Items(pieces)}
            _render("json", header, (), payload, fh)
        elif args.format == "csv":  # the header as every table writes it, then the records' text
            _render("csv", header, (), None, fh)
            for chunk in streams.chunks(pieces):
                _emit(chunk, fh)
        else:
            _render("human", header, csv.reader(io.StringIO("".join(pieces))), None, fh)

    found = texts(mode)  # which checks the arguments before --out is opened
    with _output(args.out) as fh:
        if isinstance(mode, search.RandomMode):
            write(found, fh)
        else:  # a forked worker may decide orders 2..nmax-1 while this process decides nmax; its text goes first
            streams.split_orders(range(2, mode.n_max + 1),
                                 lambda orders: [texts(search.ExhaustiveMode(orders[-1], orders[0]))],
                                 lambda first, last: write(chain.from_iterable(chain(first, last)), fh))
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
    n, levels = args.n, [enc for enc, _ in stream]
    # each tree's sorted edges, flat, and its levels, made as it is written
    trees = ((tuple(chain.from_iterable(sorted(search._tree_of_levels(enc)[1]))), enc) for enc in levels)
    if args.format == "json":  # each tree as one % format into a template made once for the order
        template = (',\n    {\n      "edges": ' + jsonout._pair_list(n - 1) + ',\n      "encoding": ['
                    + ",".join(["\n        %d"] * n) + "\n      ]\n    }")
        items = jsonout.Items(template % (*edges, *enc) for edges, enc in trees)
        _render("json", [], (), {"n": n, "count": len(levels), "trees": items}, args.out)
    else:
        cell = ";".join(["%d-%d"] * (n - 1))
        rows = ((",".join(map(str, enc)), cell % edges) for edges, enc in trees)
        _render(args.format, ["encoding", "edges"], rows, None, args.out)
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
        "cells": [c._asdict() for c in report.cells],
        "mismatched_cells": [c._asdict() for c in report.mismatches()],
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
                irr, sig = indices.albertson_and_sigma(g.degrees, g.edges)
                row += [sig, irr]  # sigma then irr, as in the header
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
    parser = errors.ArgumentParser(prog="sigmairr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    family_help = (
        f"family spec like path:5 or double_star:3:4, of at most {graphs.MAX_VERTICES} vertices "
        f"and {graphs.MAX_FAMILY_EDGES} edges"
    )
    graph_file_help = f"edge-list file ('# n=<int>' header, 'u v' lines), of at most {graphs.MAX_VERTICES} vertices"

    p = sub.add_parser("indices", help="compute albertson/sigma/sigma_t/zagreb_m1")
    p.add_argument("--family", help=family_help)
    p.add_argument("--graph-file", help=graph_file_help)
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
    pc.add_argument("--family", help=family_help)
    pc.add_argument("--graph-file", help=graph_file_help)
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
    pf.add_argument("--n", type=int, help=f"random mode: tree order, at most {graphs.MAX_VERTICES}")
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


def _run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return errors.exit_code(_run, argv)


def entrypoint() -> None:
    errors.exit_process(_run)


if __name__ == "__main__":
    entrypoint()
