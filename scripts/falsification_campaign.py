#!/usr/bin/env python3
"""Sweep the whole claim catalog for counterexamples over small trees.

Exhaustively evaluates every catalog entry on every isomorphism class of
trees with 2 <= n <= --nmax, in one pass over the trees, and reports per
entry how many probative failures exist, plus the smallest witness for
each failing claim.  Optionally dumps the full counterexample set as JSON
with ``sigmairr.jsonout.dump``, the package's one JSON writer: it writes
one counterexample at a time, and its bytes equal
``json.dumps(everything, sort_keys=True, indent=2)``.
Any failure gives one ``error:`` line on stderr and exit code 1: a bad
argument, an --nmax outside 2..18 (18 is the enumeration cap) or a --json
path that cannot be opened, before any output is written; an output that
cannot be written (a full device, a reader that left early) when it fails.

The orders are independent: a tree's signature holds its order, and each
report's label holds n, so no decision is shared across orders.  When
--nmax is at least 3, ``os.fork`` exists and the process may run on at
least two CPUs, one forked worker decides every order but the largest and
sends its records back as one ``marshal`` blob while this process decides
the largest (``sigmairr.errors.fork_orders``); otherwise every order is
decided in this process.  The summary and the JSON are the same either
way, apart from the time on the ``evaluated in`` line.  The largest order
holds most of the work (551 of 986 trees at --nmax 12).

Usage:
    python scripts/falsification_campaign.py [--nmax 9] [--json PATH]
"""

import contextlib
import marshal
import time

from sigmairr import jsonout
from sigmairr.bounds import BOUND_IDS
from sigmairr.errors import ArgumentParser, InputError, exit_process, fork_orders
from sigmairr.search import DEFAULT_TREE_CAP, ExhaustiveMode, falsify


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=9)
    parser.add_argument("--json", metavar="PATH", help="write all counterexamples as JSON")
    args = parser.parse_args()
    if not 2 <= args.nmax <= DEFAULT_TREE_CAP:
        raise InputError(f"--nmax must lie in 2..{DEFAULT_TREE_CAP}, got {args.nmax}")
    with open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext() as sink:
        everything = _campaign(args.nmax)
        if args.json:
            jsonout.dump(everything, sink)
    if args.json:
        print(f"wrote {args.json}")
    return 0


def _campaign(nmax: int) -> dict:
    """Print the per-entry summary and return every counterexample's JSON
    form, grouped per entry.  The records come from ``falsify`` as they were
    found, and an entry's summary line prints the sides of its smallest
    witness as that record's report holds them."""
    print(f"exhaustive falsification over all trees with 2 <= n <= {nmax}")
    start = time.perf_counter()
    orders = range(2, nmax + 1)
    split = fork_orders(orders, lambda part: marshal.dumps(_records(part)), _records)
    if split is None:
        everything = _records(orders)
    else:
        everything, own = marshal.loads(split[0]), split[1]
        del split  # the blob, before the document is rendered
        for bound_id, records in own.items():  # the worker's orders come first
            everything[bound_id] += records
    elapsed = time.perf_counter() - start
    for bound_id, records in everything.items():
        if not records:
            print(f"  {bound_id:5s}: no counterexamples")
            continue
        # The trees come by increasing order, so the first record is a smallest witness.
        smallest, largest = records[0], records[-1]
        report = smallest["report"]
        print(
            f"  {bound_id:5s}: {len(records):5d} counterexamples, orders {smallest['n']}..{largest['n']}, "
            f"smallest witness n={smallest['n']} "
            f"lhs={report['lhs']} {report['relation']} rhs={report['rhs']}"
        )
    print(f"evaluated in {elapsed:.1f}s")
    return everything


def _records(orders: range) -> dict:
    """Every counterexample's JSON form over the trees of ``orders``, grouped
    per entry as ``falsify`` found them."""
    everything = {bound_id: [] for bound_id in BOUND_IDS}
    for c in falsify("all", ExhaustiveMode(orders[-1], orders[0])):
        everything[c.bound_id].append(c.to_json_dict())
    return everything


if __name__ == "__main__":
    exit_process(main)
