#!/usr/bin/env python3
"""Reproduce every derivable published number in one pass.

Recomputes both embedded tables, compares correlation matrices entry by
entry, checks the printed regression models at their prediction points, and
runs the closed-form audit battery.  Exits 1 if any column that is supposed
to reproduce exactly fails to do so (known deviations such as the eta
column are reported, not failed).  Any other failure, a bad argument or an
output that cannot be written (a full device, a reader that left early),
gives one ``error:`` line on stderr and exit code 1.

Usage:
    python scripts/reproduce_published_numbers.py [--verbose]
"""

from sigmairr.errors import ArgumentParser, exit_process
from sigmairr.indices import compare_known_forms
from sigmairr.stats_tables import (
    regression_reproduction,
    reproduce_table,
    table_correlation,
)

EXPECTED_EXACT = {1: ("T1", "T2", "sigma"), 2: ("n", "sigma", "lambda")}
KNOWN_DEVIATIONS = {1: (), 2: ("eta",)}


def report_tables(verbose: bool) -> bool:
    ok = True
    for table_id in (1, 2):
        report = reproduce_table(table_id)
        for column in EXPECTED_EXACT[table_id]:
            matched = report.column_matches(column)
            ok &= matched
            print(f"table {table_id} column {column:6s}: {'reproduced' if matched else 'MISMATCH'}")
        for column in KNOWN_DEVIATIONS[table_id]:
            cells = report.column(column)
            pairs = ", ".join(f"{c.printed}->{c.recomputed}" for c in cells)
            print(f"table {table_id} column {column:6s}: deviates as expected ({pairs})")
        if verbose:
            for cell in report.cells:
                print(f"    row {cell.row + 1} {cell.column}: printed={cell.printed} "
                      f"recomputed={cell.recomputed} match={cell.match}")
    return ok


def report_correlations(verbose: bool) -> None:
    for table_id in (1, 2):
        report, comparisons = table_correlation(table_id)
        off = [c for c in comparisons if not c.within_tolerance]
        print(f"correlation matrix {table_id}: {len(comparisons)} entries, "
              f"{len(off)} beyond 5e-3 of the printed matrix")
        if verbose:
            for c in off:
                print(f"    {report.variables[c.row]} vs {report.variables[c.col]}: "
                      f"computed {c.computed:.6f}, printed {c.printed:.6f}")


def report_regressions() -> None:
    for table_id in (1, 2):
        repro = regression_reproduction(table_id)
        print(f"regression {table_id}: printed model at {repro.printed.prediction_point} "
              f"gives {repro.printed_model_at_point:.6f} "
              f"(printed {repro.printed.predicted:.6f}, gap {repro.abs_prediction_gap:.2e})")
        for name, fit in sorted(repro.fits.items()):
            flag = repro.r2_match_flags[name]
            print(f"    fit {name}: R^2={fit.r_squared:.6f} "
                  f"cond={fit.condition_number:.4g} "
                  f"{'matches' if flag else 'deviates from'} printed R^2 within 0.02")


def report_known_forms() -> None:
    print("closed-form audit:")
    for check in compare_known_forms():
        verdict = "agrees" if check.agree else "DISAGREES"
        print(f"    {check.claim_id:28s} on {check.instance}: "
              f"claimed {check.claimed}, actual {check.actual} -> {verdict}")


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    ok = report_tables(args.verbose)
    report_correlations(args.verbose)
    report_regressions()
    report_known_forms()
    return 0 if ok else 1


if __name__ == "__main__":
    exit_process(main)
