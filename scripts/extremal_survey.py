#!/usr/bin/env python3
"""Survey extremal Sigma and Albertson values over all trees of each order.

Emits one CSV row per order with the exact optima and their witnesses'
degree multisets.  The star/path pattern (max at the star, minimum Sigma 2
at the path) is visible directly in the output.  The four optima of an
order come from one walk of its trees (``extremal_goals``).  Orders must
lie in 1..18, the enumeration cap, with --min-n at most --max-n; anything
else, or an --out path that cannot be opened, is rejected with a one-line message on stderr and exit
code 1 before any output is written.

Usage:
    python scripts/extremal_survey.py [--min-n 4] [--max-n 14] [--out PATH]
"""

import argparse
import csv
import sys
import time

from sigmairr.search import DEFAULT_TREE_CAP, TreeClass, extremal_goals

GOALS = (("sigma", "max"), ("sigma", "min"), ("albertson", "max"), ("albertson", "min"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    args = parser.parse_args()
    if args.min_n < 1:
        return _fail(f"--min-n must be at least 1, got {args.min_n}")
    if args.max_n > DEFAULT_TREE_CAP:
        return _fail(f"--max-n {args.max_n} exceeds the enumeration cap {DEFAULT_TREE_CAP}")
    if args.min_n > args.max_n:
        return _fail(f"--min-n {args.min_n} exceeds --max-n {args.max_n}")

    try:
        sink = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        return _fail(str(exc))
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(
        ["n", "trees", "sigma_max", "sigma_max_degrees", "sigma_min", "sigma_min_degrees",
         "albertson_max", "albertson_min", "seconds"]
    )
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        smax, smin, amax, amin = extremal_goals(TreeClass.all_trees(n), GOALS)
        writer.writerow(
            [
                n,
                smax.trees_examined,
                smax.optimum,
                " ".join(map(str, sorted(smax.witness.degrees))),
                smin.optimum,
                " ".join(map(str, sorted(smin.witness.degrees))),
                amax.optimum,
                amin.optimum,
                f"{time.perf_counter() - start:.2f}",
            ]
        )
    if args.out:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
