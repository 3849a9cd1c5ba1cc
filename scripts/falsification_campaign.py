#!/usr/bin/env python3
"""Sweep the whole claim catalog for counterexamples over small trees.

Exhaustively evaluates every catalog entry on every isomorphism class of
trees with 2 <= n <= --nmax, in one pass over the trees, and reports per
entry how many probative failures exist, plus the smallest witness for
each failing claim.  Optionally dumps the full counterexample set as JSON
in the package's one JSON format (``sigmairr.jsonout``), written whole or
not at all.  Any failure gives one ``error:`` line on stderr and exit code
1: a bad argument, an --nmax outside 2..18 (18 is the enumeration cap) or
a --json path that cannot be opened, before any output is written; an
output that cannot be written when it fails.

The records are tallied per entry (``sigmairr.records.tally_counterexamples``),
rendered only with --json.  As in the survey, the orders take one path
(``sigmairr.streams.split_orders``): every order but the largest, decided
in one forked worker where one may run, and the largest.  Each part gives
the JSON of its entries' tallies, then each entry's text in the document's
key order, and the first part's goes ahead of the last's.  The output is
the same either way, apart from the ``evaluated in`` time, which covers
deciding and rendering, not writing the JSON.

Usage:
    python scripts/falsification_campaign.py [--nmax 9] [--json PATH]
"""

import contextlib
import json
import time
from itertools import chain, islice

from sigmairr import jsonout
from sigmairr.errors import ArgumentParser, InputError, exit_process
from sigmairr.records import tally_counterexamples  # which loads sigmairr.bounds here, not after the fork
from sigmairr.search import DEFAULT_TREE_CAP
from sigmairr.streams import output_file, split_orders


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=9)
    parser.add_argument("--json", metavar="PATH", help="write all counterexamples as JSON")
    args = parser.parse_args()
    if not 2 <= args.nmax <= DEFAULT_TREE_CAP:
        raise InputError(f"--nmax must lie in 2..{DEFAULT_TREE_CAP}, got {args.nmax}")
    with output_file(args.json) if args.json else contextlib.nullcontext() as sink:
        _campaign(args.nmax, sink)
    if args.json:
        print(f"wrote {args.json}")
    return 0


def _campaign(nmax: int, sink) -> None:
    """Print the per-entry summary, and write every counterexample's record,
    grouped per entry, into ``sink`` unless it is None.  An entry's summary
    line prints the sides of its smallest witness as that record's report
    prints them."""
    print(f"exhaustive falsification over all trees with 2 <= n <= {nmax}")
    start = time.perf_counter()

    def texts(orders: range) -> list:
        """The JSON of each entry's tally (count, smallest order, its first
        record's printed sides, largest order), then each entry's records'
        text, in the document's key order."""
        entries = tally_counterexamples(orders, render=sink is not None)
        return [[json.dumps({bound_id: entry[:4] for bound_id, entry in entries.items()})],
                *(entries[bound_id][4] for bound_id in sorted(entries))]

    def finish(*parts) -> None:  # every order but the largest, then the largest
        parts = [iter(part) for part in parts]
        tallies = [(json.loads("".join(text)), part) for part in parts for text in islice(part, 1)]
        elapsed = time.perf_counter() - start
        lists = {}
        for bound_id in tallies[-1][0]:
            found = [tally[bound_id] for tally, _ in tallies if tally[bound_id][0]]
            # each part's next text, taken as the document reaches this entry; none from a worker that died
            lists[bound_id] = jsonout.Items(chain.from_iterable(next(part, ()) for _, part in tallies))
            if not found:
                print(f"  {bound_id:5s}: no counterexamples")
                continue
            first, (lhs, relation, rhs) = found[0][1:3]
            print(f"  {bound_id:5s}: {sum(entry[0] for entry in found):5d} counterexamples, orders {first}.."
                  f"{found[-1][3]}, smallest witness n={first} lhs={lhs} {relation} rhs={rhs}")
        print(f"evaluated in {elapsed:.1f}s")
        if sink is not None:
            jsonout.dump(lists, sink)

    split_orders(range(2, nmax + 1), texts, finish)


if __name__ == "__main__":
    exit_process(main)
