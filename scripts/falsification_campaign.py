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
rendered only with --json.  As in the survey, one forked worker decides
every order but the largest (``sigmairr.streams.fork_orders``) and sends
each entry's tally and text, which goes ahead of this process's own.  The
output is the same either way, apart from the ``evaluated in`` time, which
covers deciding and rendering, not writing the JSON.

Usage:
    python scripts/falsification_campaign.py [--nmax 9] [--json PATH]
"""

import contextlib
import marshal
import time
from functools import partial
from itertools import chain

from sigmairr import jsonout
from sigmairr.errors import ArgumentParser, InputError, exit_process
from sigmairr.records import tally_counterexamples  # which loads sigmairr.bounds here, not after the fork
from sigmairr.search import DEFAULT_TREE_CAP
from sigmairr.streams import fork_orders, output_file, sized


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
    holds them."""
    print(f"exhaustive falsification over all trees with 2 <= n <= {nmax}")
    start = time.perf_counter()
    orders = range(2, nmax + 1)

    def finish(*parts: dict) -> None:  # the worker's orders come first
        elapsed = time.perf_counter() - start
        lists = {}
        for bound_id in parts[-1]:
            found = [part[bound_id] for part in parts if part[bound_id][0]]
            lists[bound_id] = jsonout.Items(chain.from_iterable([part[bound_id][4] for part in parts]))
            if not found:
                print(f"  {bound_id:5s}: no counterexamples")
                continue
            first, report = found[0][1:3]
            print(f"  {bound_id:5s}: {sum(entry[0] for entry in found):5d} counterexamples, orders {first}.."
                  f"{found[-1][3]}, smallest witness n={first} lhs={report['lhs']} {report['relation']} "
                  f"rhs={report['rhs']}")
        print(f"evaluated in {elapsed:.1f}s")
        if sink is not None:
            jsonout.dump(lists, sink)

    entries = partial(tally_counterexamples, render=sink is not None)
    if not fork_orders(orders, lambda part: _sent(entries(part)), entries,
                       lambda sent, own: finish(_worker_entries(sent), own)):
        finish(entries(orders))


def _sent(entries: dict):
    """What the worker sends of ``entries``: the ``marshal`` blob of their
    tallies, then each one's text, in the document's key order."""
    head = marshal.dumps({bound_id: entry[:4] for bound_id, entry in entries.items()})
    yield len(head).to_bytes(8, "little") + head
    for bound_id in sorted(entries):
        yield from sized(entries.pop(bound_id)[4])


def _worker_entries(sent) -> dict:
    """``entries`` as ``_sent`` sent them, each entry's text read from the
    pipe as it is taken, in key order."""
    head = marshal.loads(sent.read(int.from_bytes(sent.read(8), "little")))
    return {bound_id: (*tally, sent.text()) for bound_id, tally in head.items()}


if __name__ == "__main__":
    exit_process(main)
