#!/usr/bin/env python3
"""Survey extremal Sigma and Albertson values over all trees of each order.

Emits one CSV row per order with the exact optima and their witnesses'
degree multisets.  The star/path pattern (max at the star, minimum Sigma 2
at the path) is visible directly in the output.  The four optima of an
order come from one walk of its trees (``extremal_goals``).  Orders must
lie in 1..18, the enumeration cap, with --min-n at most --max-n.  Any
failure gives one ``error:`` line on stderr and exit code 1: a bad
argument or order, or an --out path that cannot be opened, before any
output is written; an output that cannot be written (a full device, a
reader that left early) when it fails.  The --out file is written whole or
not at all (``sigmairr.streams.output_file``).

The orders' walks are independent, and their rows take one path
(``sigmairr.streams.split_orders``): every order but the largest, then the
largest.  When the run covers at least two orders, ``os.fork`` exists and
the process may run on at least two CPUs, one forked worker walks the
first part while this process walks the largest order; otherwise both
parts are walked here, each row written as its walk ends.  The output is
the same either way, apart from the ``seconds`` column, which times each
order's own walk.  The largest order holds most of the trees (7,741 of
13,185 at n = 4..15), so its walk bounds the survey's time on any number
of CPUs.

Usage:
    python scripts/extremal_survey.py [--min-n 4] [--max-n 14] [--out PATH]
"""

import contextlib
import sys
import time
from itertools import chain
from typing import Iterator

from sigmairr.errors import ArgumentParser, InputError, exit_process
from sigmairr.search import DEFAULT_TREE_CAP, TreeClass, extremal_goals
from sigmairr.streams import output_file, split_orders

GOALS = (("sigma", "max"), ("sigma", "min"), ("albertson", "max"), ("albertson", "min"))


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    args = parser.parse_args()
    if args.min_n < 1:
        raise InputError(f"--min-n must be at least 1, got {args.min_n}")
    if args.max_n > DEFAULT_TREE_CAP:
        raise InputError(f"--max-n {args.max_n} exceeds the enumeration cap {DEFAULT_TREE_CAP}")
    if args.min_n > args.max_n:
        raise InputError(f"--min-n {args.min_n} exceeds --max-n {args.max_n}")

    sink = output_file(args.out, newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        fh.write("n,trees,sigma_max,sigma_max_degrees,sigma_min,sigma_min_degrees,albertson_max,albertson_min,"
                 "seconds\n")
        split_orders(range(args.min_n, args.max_n + 1), lambda part: [_rows(part)],
                     lambda first, last: fh.writelines(chain.from_iterable(chain(first, last))))
    return 0


def _rows(orders: range) -> Iterator[str]:
    """The CSV row of each order in ``orders``; ``seconds`` times that order's walk."""
    for n in orders:
        start = time.perf_counter()
        smax, smin, amax, amin = extremal_goals(TreeClass.all_trees(n), GOALS)
        yield (f"{n},{smax.trees_examined},{smax.optimum},{' '.join(map(str, sorted(smax.witness.degrees)))},"
               f"{smin.optimum},{' '.join(map(str, sorted(smin.witness.degrees)))},{amax.optimum},{amin.optimum},"
               f"{time.perf_counter() - start:.2f}\n")


if __name__ == "__main__":
    exit_process(main)
