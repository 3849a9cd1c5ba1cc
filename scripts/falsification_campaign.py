#!/usr/bin/env python3
"""Sweep the whole claim catalog for counterexamples over small trees.

Exhaustively evaluates every catalog entry on every isomorphism class of
trees with 2 <= n <= --nmax, in one pass over the trees, and reports per
entry how many probative failures exist, plus the smallest witness for
each failing claim.  Optionally dumps the full counterexample set as JSON
in the package's one JSON format (``sigmairr.jsonout``): its bytes equal
``json.dumps(everything, sort_keys=True, indent=2)``.
Any failure gives one ``error:`` line on stderr and exit code 1: a bad
argument, an --nmax outside 2..18 (18 is the enumeration cap) or a --json
path that cannot be opened, before any output is written; an output that
cannot be written (a full device, a reader that left early) when it fails.

The orders are independent: a tree's signature holds its order, and each
report's label holds n, so no decision is shared across orders.  Each
order is decided on its own, and with --json each counterexample is
rendered into its entry's JSON text as it is found and then dropped, so a
process holds the text of its orders, not their records (without --json
nothing is rendered).  When --nmax is at least 3,
``os.fork`` exists and the process may run on at least two CPUs, one
forked worker decides every order but the largest and then sends, through
a pipe, each entry's summary and then each entry's text in the document's
key order, while this process decides the largest
(``sigmairr.errors.fork_orders``); the JSON is then written entry by
entry, the worker's text copied from the pipe ahead of this process's own.
Otherwise every order is decided in this process.  The summary and the
JSON are the same either way, apart from the time on the ``evaluated in``
line, which covers deciding and rendering every order, not writing the
JSON.  The largest order holds most of the work (551 of 986 trees at
--nmax 12).

Usage:
    python scripts/falsification_campaign.py [--nmax 9] [--json PATH]
"""

import contextlib
import marshal
import time
from itertools import chain

from sigmairr import jsonout
from sigmairr.bounds import BOUND_IDS
from sigmairr.errors import ArgumentParser, InputError, exit_process, fork_orders
from sigmairr.search import DEFAULT_TREE_CAP, ExhaustiveMode, counterexamples


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=9)
    parser.add_argument("--json", metavar="PATH", help="write all counterexamples as JSON")
    args = parser.parse_args()
    if not 2 <= args.nmax <= DEFAULT_TREE_CAP:
        raise InputError(f"--nmax must lie in 2..{DEFAULT_TREE_CAP}, got {args.nmax}")
    with open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext() as sink:
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

    def finish(worker: dict, own: dict) -> None:
        elapsed = time.perf_counter() - start
        lists = {}
        for bound_id, (own_count, own_first, own_sides, own_last, own_texts) in own.items():
            count, first, sides, last, texts = worker.get(bound_id, _NONE)  # the worker's orders come first
            if own_count:
                if not count:
                    first, sides = own_first, own_sides
                count, last = count + own_count, own_last
            lists[bound_id] = chain(texts, own_texts)
            if not count:
                print(f"  {bound_id:5s}: no counterexamples")
                continue
            # The trees come by increasing order, so the first record is a smallest witness.
            print(f"  {bound_id:5s}: {count:5d} counterexamples, orders {first}..{last}, "
                  f"smallest witness n={first} {sides}")
        print(f"evaluated in {elapsed:.1f}s")
        if sink is not None:
            jsonout.dump_lists(lists, sink)

    def entries(part: range) -> dict:
        return _entries(part, sink is not None)

    if not fork_orders(orders, lambda part: _sent(entries(part)), entries,
                       lambda sent, own: finish(_worker_entries(sent), own)):
        finish({}, entries(orders))


# An entry with no counterexample: its count, smallest order and that
# witness's sides, largest order, and texts.
_NONE = (0, 0, "", 0, ())


def _entries(orders: range, render: bool) -> dict:
    """Each entry's counterexamples over the trees of ``orders``, in catalog
    order, as a list ``[count, smallest order, the sides of its first
    witness, largest order, texts]``, each record's text as
    ``jsonout.item_renderer`` gives it, or no text unless ``render``.  Each
    record is rendered as it is found, and only its text is kept."""
    entries = {bound_id: [0, 0, "", 0, []] for bound_id in BOUND_IDS}
    for n in orders:
        # One renderer per order: no report is shared across orders.
        item = jsonout.item_renderer() if render else (lambda record: ())
        for c in counterexamples("all", ExhaustiveMode(n, n)):
            record = c.to_json_dict()
            entry = entries[record["bound_id"]]
            if not entry[0]:
                report = record["report"]
                entry[1], entry[2] = n, f"lhs={report['lhs']} {report['relation']} rhs={report['rhs']}"
            entry[0] += 1
            entry[3] = n
            entry[4] += item(record)
    return entries


def _sent(entries: dict):
    """What the worker sends of ``entries``: a length and the ``marshal``
    blob of each entry's summary and text size, then the texts, entry by
    entry in the document's key order, each dropped once it is sent, in
    chunks of a bounded number of pieces."""
    head = marshal.dumps({bound_id: (entry[:4], sum(map(len, entry[4]))) for bound_id, entry in entries.items()})
    yield len(head).to_bytes(8, "little") + head
    for bound_id in sorted(entries):
        texts = entries.pop(bound_id)[4]
        for start in range(0, len(texts), 4096):
            yield "".join(texts[start:start + 4096]).encode("ascii")


def _worker_entries(sent) -> dict:
    """Each entry's counterexamples as ``_entries`` gives them, from what
    ``_sent`` wrote; each entry's texts are read from the pipe as they are
    taken, which must be in key order."""
    head = marshal.loads(sent.read(int.from_bytes(sent.read(8), "little")))
    return {bound_id: (*summary, _pieces(sent, size)) for bound_id, (summary, size) in head.items()}


def _pieces(sent, size: int):
    """The next ``size`` bytes of ``sent`` as text, a bounded piece at a time."""
    while size:
        piece = sent.read(min(size, 1 << 16))
        size -= len(piece)
        yield piece.decode("ascii")


if __name__ == "__main__":
    exit_process(main)
