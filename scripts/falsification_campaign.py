#!/usr/bin/env python3
"""Sweep the whole claim catalog for counterexamples over small trees.

Exhaustively evaluates every catalog entry on every isomorphism class of
trees with 2 <= n <= --nmax, in one pass over the trees, and reports per
entry how many probative failures exist, plus the smallest witness for
each failing claim.  Optionally dumps the full counterexample set as JSON,
through the package's shared encoder (``sigmairr.jsonout``), in the
package's one JSON format: it writes one counterexample at a time, its
bytes equal ``json.dumps(everything, sort_keys=True, indent=2)``, and any
other encoder option raises ``ValueError``.
An --nmax outside 2..18 (18 is the enumeration cap), or a --json path that
cannot be opened, is rejected with a one-line message on stderr and exit
code 1 before any output is written.

Usage:
    python scripts/falsification_campaign.py [--nmax 9] [--json PATH]
"""

import argparse
import contextlib
import json
import sys
import time

from sigmairr.bounds import BOUND_IDS, BoundInput, evaluate_bound
from sigmairr.jsonout import StreamingEncoder
from sigmairr.search import DEFAULT_TREE_CAP, ExhaustiveMode, falsify


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=9)
    parser.add_argument("--json", metavar="PATH", help="write all counterexamples as JSON")
    args = parser.parse_args()
    if not 2 <= args.nmax <= DEFAULT_TREE_CAP:
        return _fail(f"--nmax must lie in 2..{DEFAULT_TREE_CAP}, got {args.nmax}")
    try:
        sink = open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext()
    except OSError as exc:
        return _fail(str(exc))

    with sink:
        everything = _campaign(args.nmax)
        if args.json:
            json.dump(everything, sink, sort_keys=True, indent=2, cls=StreamingEncoder)
    if args.json:
        print(f"wrote {args.json}")
    return 0


def _campaign(nmax: int) -> dict:
    """Print the per-entry summary and return every counterexample's JSON
    form, grouped per entry.  The records come from ``falsify`` as they were
    found; only the summary line of an entry with a counterexample builds a
    ``BoundReport``, for its smallest witness's exact sides."""
    print(f"exhaustive falsification over all trees with 2 <= n <= {nmax}")
    start = time.perf_counter()
    by_bound = {bound_id: [] for bound_id in BOUND_IDS}
    for c in falsify("all", ExhaustiveMode(nmax)):
        by_bound[c.bound_id].append(c)
    elapsed = time.perf_counter() - start
    everything = {}
    for bound_id in BOUND_IDS:
        found = by_bound.pop(bound_id)  # freed once converted, which bounds peak memory
        everything[bound_id] = [c.to_json_dict() for c in found]
        if not found:
            print(f"  {bound_id:5s}: no counterexamples")
            continue
        smallest = min(found, key=lambda c: c.graph.vertex_count)
        orders = sorted({c.graph.vertex_count for c in found})
        report = evaluate_bound(bound_id, BoundInput.from_graph(smallest.graph))  # its exact sides
        print(
            f"  {bound_id:5s}: {len(found):5d} counterexamples, orders {orders[0]}..{orders[-1]}, "
            f"smallest witness n={smallest.graph.vertex_count} "
            f"lhs={report.lhs} {report.relation} rhs={report.rhs}"
        )
    print(f"evaluated in {elapsed:.1f}s")
    return everything


if __name__ == "__main__":
    sys.exit(main())
