"""Embedded published tables, each row's catalog input (``table_input``), and
reproduction of everything derivable from them: recomputed columns (n, Sigma
and eta read off that input), correlation matrices, and regression checks.

Cells are stored exactly as printed.  Recomputation notes:

* The printed T1/eta columns treat the FINAL sequence entry as the maximum
  degree.  Rows 4-8 of the first table are not sorted, so their true maxima
  differ; recomputing with the final entry reproduces every printed T1 cell
  exactly, recomputing with the true maximum does not (row 4: 520 vs 519).
* The printed T2 values carry a 1/3 factor that the displayed definition
  of T2 omits; floor(mean^2 * T1 / 3) reproduces all eight cells.
* The printed eta column disagrees with eta = ceil(2*n*max/m) on every row
  (computed 41, 55, 69, 91 vs printed 21, 31, 41, 51); the reproduction
  report records the deviation rather than adopting the printed values.
* The irr and eta1 columns have no derivable generator and are consumed
  as given data.

Correlation uses exact integer accumulation with a single final rounding,
the diagonal included.  Least squares solves one exact rational system for
every design rank, whose solution is the minimum-norm one, and the condition
number is read from that system's exact Gram matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .bounds import BoundInput, BoundParams, _decimal, t1_staircase
from .errors import DomainError, InputError
from .sequences import Convention, DegreeSequenceView


class Table1Row(NamedTuple):
    entries: tuple[int, ...]
    t1: int
    t2: int
    irr: int
    sigma: int


class Table2Row(NamedTuple):
    entries: tuple[int, ...]
    n: int
    irr: int
    sigma: int
    lam: Fraction
    eta: int
    eta1: Fraction


TABLE1: tuple[Table1Row, ...] = (
    Table1Row((3, 5, 7, 5, 6, 8, 10), 160, 2107, 260, 2248),
    Table1Row((7, 8, 10, 11, 12, 14, 15), 280, 11293, 810, 10747),
    Table1Row((11, 11, 13, 17, 18, 20, 20), 399, 32842, 1694, 31070),
    Table1Row((15, 14, 16, 23, 24, 26, 25), 519, 72197, 2912, 68563),
    Table1Row((19, 17, 19, 29, 30, 32, 30), 637, 134229, 4464, 128572),
    Table1Row((23, 20, 22, 35, 36, 38, 35), 757, 224942, 6350, 216443),
    Table1Row((27, 23, 25, 41, 42, 44, 40), 876, 348993, 8570, 337522),
    Table1Row((31, 26, 28, 47, 48, 50, 45), 996, 512397, 11124, 497155),
)

TABLE2: tuple[Table2Row, ...] = (
    Table2Row((3, 6, 8, 10, 14, 16, 20), 77, 980, 16209, Fraction("11"), 21, Fraction("2.12")),
    Table2Row((7, 9, 12, 14, 20, 24, 27), 113, 2050, 46312, Fraction("16.14"), 31, Fraction("2.18")),
    Table2Row((11, 12, 16, 23, 26, 32, 34), 154, 3732, 107753, Fraction("22"), 41, Fraction("1")),
    Table2Row((15, 15, 20, 32, 32, 40, 45), 199, 6296, 233350, Fraction("28.42"), 51, Fraction("3.1")),
)

# Printed correlation matrices; variable orders as published.
MATRIX1_VARIABLES = ("n", "sigma", "irr", "T1", "T2")
PRINTED_MATRIX_1 = (
    (1.000000, 0.929672, 0.974594, 0.999999, 0.894803),
    (0.929672, 1.000000, 0.987695, 0.929695, 0.993202),
    (0.974594, 0.987695, 1.000000, 0.974594, 0.966635),
    (0.999999, 0.929695, 0.974594, 1.000000, 0.894845),
    (0.894803, 0.993202, 0.966635, 0.894845, 1.000000),
)

MATRIX2_VARIABLES = ("n", "eta", "eta1", "sigma", "irr")
PRINTED_MATRIX_2 = (
    (1.00000, 0.998777, 0.314881, 0.969896, 0.990360),
    (0.998777, 1.00000, 0.282990, 0.957017, 0.982405),
    (0.314881, 0.282990, 1.00000, 0.497029, 0.415811),
    (0.969896, 0.957017, 0.497029, 1.00000, 0.994206),
    (0.990360, 0.982405, 0.415811, 0.994206, 1.00000),
)


class PrintedRegression(NamedTuple):
    coefficients: tuple[float, ...]
    intercept: float
    r_squared: float
    prediction_point: tuple[float, ...]
    predicted: float


PRINTED_REGRESSION_1 = PrintedRegression(
    coefficients=(-94764.10761811, 27387.84112146),
    intercept=-506577.67445476603,
    r_squared=0.864810869832136,
    prediction_point=(350.0, 50.0),
    predicted=-32304623.284719232,
)

PRINTED_REGRESSION_2 = PrintedRegression(
    coefficients=(-1402.91893491, 72.8168638),
    intercept=53643.804983904585,
    r_squared=0.9997469414194662,
    prediction_point=(400.0, 200.0),
    predicted=-492960.5317043649,
)


def _table(table_id: int):
    """Table 1's or 2's rows, read at call time: the one check of a table id."""
    if table_id not in (1, 2):
        raise InputError(f"table_id must be 1 or 2, got {table_id}")
    return TABLE1 if table_id == 1 else TABLE2


def table_input(table_id: int, row_index: int, params: BoundParams = BoundParams()) -> BoundInput:
    """The catalog input of one printed row (0-based): its entries in the
    paper-table convention (n = sum of the entries, m = n - 1), its printed
    irr, and Sigma from the closed form."""
    rows = _table(table_id)
    if not 0 <= row_index < len(rows):
        raise InputError(f"table {table_id} has rows 0..{len(rows) - 1}, got {row_index}")
    row = rows[row_index]
    view = DegreeSequenceView(row.entries, Convention.PAPER_TABLE)
    return BoundInput.from_view(view, irr_value=row.irr, params=params, label=f"table {table_id} row {row_index + 1}")


# ---------------------------------------------------------------------------
# Column reproduction

class CellCheck(NamedTuple):
    row: int
    column: str
    printed: str
    recomputed: Optional[str]
    match: Optional[bool]  # None: no generator exists for this column
    rule: str


class ReproductionReport(NamedTuple):
    table_id: int
    cells: tuple[CellCheck, ...]

    def column(self, name: str) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.cells if c.column == name)

    def column_matches(self, name: str) -> bool:
        cells = self.column(name)
        return bool(cells) and all(c.match for c in cells)

    def mismatches(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.cells if c.match is False)


_RULE_T1 = (
    "floor((3n+1)/2) + ceil((3m+1)/2) + floor((3*d_last+2n)/4) with n=sum(entries), "
    "m=n-1, d_last=final entry (printed rows use the final entry as the max term)"
)
_RULE_T2 = "floor(mean^2 * T1 / 3), mean=sum(entries)/k (printed values carry the 1/3)"
_RULE_SIGMA = "degree-sequence closed form in printed order, n=sum(entries)"
_RULE_N = "sum(entries)"
_RULE_LAM = (
    "sum(entries)/k truncated to 2 decimals (printed cells truncate rather than "
    "round: row 4 prints 28.42 for 199/7 = 28.4286), then |diff| <= 0.005"
)
_RULE_ETA = "ceil(2*n*max_degree/m) with n=sum(entries), m=n-1"
_RULE_NONE = "no generator; stored as printed"


def reproduce_table(table_id: int) -> ReproductionReport:
    cells: list[CellCheck] = []
    for i, row in enumerate(_table(table_id)):
        binput = table_input(table_id, i)
        n, sig, eta = binput.n, binput.sigma_value, binput.eta
        mean = Fraction(n, binput.k)
        sigma_cell = CellCheck(i, "sigma", str(row.sigma), str(sig), sig == row.sigma, _RULE_SIGMA)
        irr_cell = CellCheck(i, "irr", str(row.irr), None, None, _RULE_NONE)
        if table_id == 1:
            t1 = t1_staircase(n, binput.two_m, row.entries[-1])
            t2 = math.floor(mean**2 * row.t1 / 3)
            cells.append(CellCheck(i, "T1", str(row.t1), str(t1), t1 == row.t1, _RULE_T1))
            cells.append(CellCheck(i, "T2", str(row.t2), str(t2), t2 == row.t2, _RULE_T2))
            cells.extend((sigma_cell, irr_cell))
        else:
            mean_truncated = Fraction(math.floor(mean * 100), 100)
            lam_ok = abs(mean_truncated - row.lam) <= Fraction(5, 1000)
            cells.append(CellCheck(i, "n", str(row.n), str(n), n == row.n, _RULE_N))
            cells.extend((irr_cell, sigma_cell))
            cells.append(
                CellCheck(i, "lambda", f"{float(row.lam):g}", f"{float(mean_truncated):g}", lam_ok, _RULE_LAM)
            )
            cells.append(CellCheck(i, "eta", str(row.eta), str(eta), eta == row.eta, _RULE_ETA))
            cells.append(CellCheck(i, "eta1", f"{float(row.eta1):g}", None, None, _RULE_NONE))
    return ReproductionReport(table_id, tuple(cells))


# ---------------------------------------------------------------------------
# Correlation

class CorrelationReport(NamedTuple):
    variables: tuple[str, ...]
    matrix: tuple[tuple[Optional[float], ...], ...]

    def entry(self, a: str, b: str) -> Optional[float]:
        i = self.variables.index(a)
        j = self.variables.index(b)
        return self.matrix[i][j]


def _pearson(x: Sequence[Fraction], y: Sequence[Fraction]) -> Optional[float]:
    # Exact integer/rational sums; one final sqrt is the only rounding step.
    k = len(x)
    sx = sum(x, Fraction(0))
    sy = sum(y, Fraction(0))
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    sxy = sum(a * b for a, b in zip(x, y))
    num = k * sxy - sx * sy
    vx = k * sxx - sx * sx
    vy = k * syy - sy * sy
    if vx == 0 or vy == 0:
        return None
    ratio = Fraction(num * num, vx * vy)
    value = math.sqrt(float(ratio))
    return value if num >= 0 else -value


def correlation_matrix(variables: Sequence[str], columns: Sequence[Sequence]) -> CorrelationReport:
    """Pairwise Pearson correlations; zero-variance pairs become None."""
    if len(variables) != len(columns) or len(columns) < 2:
        raise InputError("need at least two named columns of equal length")
    width = len(columns[0])
    if width < 3 or any(len(col) != width for col in columns):
        raise InputError("columns must share one length >= 3")
    cols = [[Fraction(v) for v in col] for col in columns]
    matrix = tuple(tuple(_pearson(a, b) for b in cols) for a in cols)
    return CorrelationReport(tuple(variables), matrix)


class MatrixEntryComparison(NamedTuple):
    row: int
    col: int
    computed: Optional[float]
    printed: float
    abs_diff: Optional[float]
    within_tolerance: bool


_MATRIX_TOLERANCE = 5e-3


def table_correlation(table_id: int) -> tuple[CorrelationReport, tuple[MatrixEntryComparison, ...]]:
    """The published matrix's variables, read off the rows; table 1's n is sum(entries)."""
    rows = _table(table_id)
    if table_id == 1:
        names, printed = MATRIX1_VARIABLES, PRINTED_MATRIX_1
        values = [(sum(r.entries), r.sigma, r.irr, r.t1, r.t2) for r in rows]
    else:
        names, printed = MATRIX2_VARIABLES, PRINTED_MATRIX_2
        values = [(r.n, r.eta, r.eta1, r.sigma, r.irr) for r in rows]
    report = correlation_matrix(names, list(zip(*values)))
    checks = []
    for i, row in enumerate(report.matrix):
        for j, value in enumerate(row):
            diff = None if value is None else abs(value - printed[i][j])
            ok = diff is not None and diff <= _MATRIX_TOLERANCE
            checks.append(MatrixEntryComparison(i, j, value, printed[i][j], diff, ok))
    return report, tuple(checks)


# ---------------------------------------------------------------------------
# Exact least squares

def _rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (matrix, pivot columns)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][c]
        matrix[r] = [v / inv for v in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix, pivots


def _lstsq_exact(x: list[list[Fraction]], y: list[Fraction]) -> tuple[list[Fraction], int, list[list[Fraction]]]:
    """Minimum-norm exact least squares: (beta, rank, Gram matrix G = X^T X).

    One system for every rank: G^2 w = X^T y is consistent, because X^T y
    lies in range(G) = range(G^2), and beta = G w is the one solution of
    the normal equations G beta = X^T y in the row space of X, which is the
    minimum-norm one.
    """
    p = len(x[0])
    gram = [[sum(row[i] * row[j] for row in x) for j in range(p)] for i in range(p)]
    rhs = [sum(row[i] * yi for row, yi in zip(x, y)) for i in range(p)]
    square = [[sum(gi[t] * gram[t][j] for t in range(p)) for j in range(p)] + [ci] for gi, ci in zip(gram, rhs)]
    reduced, pivots = _rref(square)
    w = [Fraction(0)] * p
    for r, c in enumerate(pivots):
        w[c] = reduced[r][p]
    beta = [sum(gi[t] * w[t] for t in range(p)) for gi in gram]
    return beta, len(pivots), gram


class OlsReport(NamedTuple):
    r_squared: Optional[float]
    rank: int
    rank_deficient: bool
    condition_number: Optional[float]
    coefficients_exact: tuple[Fraction, ...]
    intercept_exact: Fraction
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        cond = self.condition_number
        return {
            "coefficients": [f"{float(c):.12g}" for c in self.coefficients_exact],
            "intercept": f"{float(self.intercept_exact):.12g}",
            "r_squared": None if self.r_squared is None else f"{self.r_squared:.12g}",
            "rank": self.rank,
            "rank_deficient": self.rank_deficient,
            "condition_number": None if cond is None else ("inf" if math.isinf(cond) else f"{cond:.12g}"),
            "notes": list(self.notes),
        }


def ols_fit(features: Sequence[Sequence], target: Sequence) -> OlsReport:
    """Least squares with column centering and one exact minimum-norm solve
    for every design rank."""
    if not features or not target:
        raise DomainError("empty regression input")
    rows = [[Fraction(v) for v in row] for row in features]
    y = [Fraction(v) for v in target]
    p = len(rows[0])
    if any(len(r) != p for r in rows) or len(rows) != len(y):
        raise InputError("ragged regression input")
    if len(rows) < p + 1:
        raise InputError(f"need at least {p + 1} rows for {p} feature(s)")
    k = len(rows)
    means = [sum(r[j] for r in rows) / k for j in range(p)]
    ybar = sum(y, Fraction(0)) / k
    xc = [[r[j] - means[j] for j in range(p)] for r in rows]
    yc = [v - ybar for v in y]

    beta, rank, gram = _lstsq_exact(xc, yc)
    intercept = ybar - sum(means[j] * beta[j] for j in range(p))
    sse = sum((yv - sum(row[j] * beta[j] for j in range(p))) ** 2 for row, yv in zip(xc, yc))
    sst = sum(v * v for v in yc)
    notes: list[str] = []
    if sst == 0:
        r2 = 1.0 if sse == 0 else None
        if r2 is None:
            notes.append("target has zero variance; R^2 undefined")
    else:
        r2 = float(1 - sse / sst)
    deficient = rank < p
    if deficient:
        notes.append("rank-deficient design; minimum-norm solution reported")
    return OlsReport(
        r_squared=r2,
        rank=rank,
        rank_deficient=deficient,
        condition_number=_condition_number(gram, deficient),
        coefficients_exact=tuple(beta),
        intercept_exact=intercept,
        notes=tuple(notes),
    )


def _condition_number(gram: list[list[Fraction]], deficient: bool) -> Optional[float]:
    """2-norm condition of the centered design from its exact Gram matrix.

    For two features the Gram eigenvalues are hi = (a + d + sqrt((a-d)^2 +
    4b^2))/2 and det/hi with det = ad - b^2 exact, so the condition
    sqrt(hi/lo) is hi/sqrt(det) and no nearly equal floats are subtracted.
    """
    if deficient:
        return math.inf
    if len(gram) == 1:
        return 1.0
    if len(gram) != 2:
        return None
    (a, b), (_, d) = gram
    hi = (float(a + d) + math.sqrt(float((a - d) ** 2 + 4 * b * b))) / 2
    return hi / math.sqrt(float(a * d - b * b))


def _prediction_point(point: Sequence[float], dimension: int) -> tuple[float, ...]:
    """``point`` as a tuple, rejected unless it has ``dimension`` finite coordinates."""
    pt = tuple(point)
    if len(pt) != dimension:
        raise InputError(f"prediction point has {len(pt)} coordinates, model has {dimension}")
    if not all(math.isfinite(v) for v in pt):
        raise InputError(f"prediction point {pt} has a non-finite coordinate")
    return pt


def predict(report: OlsReport, point: Sequence[float]) -> Optional[float]:
    """The fit's value at ``point``, or None beyond float range."""
    pt = _prediction_point(point, len(report.coefficients_exact))
    exact = sum(c * Fraction(str(v)) for c, v in zip(report.coefficients_exact, pt)) + report.intercept_exact
    return _decimal(exact.numerator, exact.denominator)


def printed_model_value(table_id: int, point: Optional[Sequence[float]] = None) -> Optional[float]:
    """The printed model's float dot product at ``point`` (its own point by
    default); if that sum is not finite, its exact value, or None beyond
    float range."""
    _table(table_id)
    printed = PRINTED_REGRESSION_1 if table_id == 1 else PRINTED_REGRESSION_2
    pt = printed.prediction_point if point is None else _prediction_point(point, len(printed.coefficients))
    value = sum(c * v for c, v in zip(printed.coefficients, pt)) + printed.intercept
    if math.isfinite(value):
        return value
    products = (Fraction(c) * Fraction(v) for c, v in zip(printed.coefficients, pt))
    exact = sum(products, Fraction(printed.intercept))
    return _decimal(exact.numerator, exact.denominator)


class RegressionReproduction(NamedTuple):
    table_id: int
    printed: PrintedRegression
    printed_model_at_point: float
    abs_prediction_gap: float
    fits: dict
    r2_match_flags: dict
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "table_id": self.table_id,
            "printed_coefficients": [f"{c:.12g}" for c in self.printed.coefficients],
            "printed_intercept": f"{self.printed.intercept:.12g}",
            "printed_r_squared": f"{self.printed.r_squared:.12g}",
            "prediction_point": list(self.printed.prediction_point),
            "printed_predicted": f"{self.printed.predicted:.12g}",
            "printed_model_at_point": f"{self.printed_model_at_point:.12g}",
            "abs_prediction_gap": f"{self.abs_prediction_gap:.12g}",
            "fits": {name: fit.to_json_dict() for name, fit in sorted(self.fits.items())},
            "r2_match_flags": {k: v for k, v in sorted(self.r2_match_flags.items())},
            "notes": list(self.notes),
        }


_R2_MATCH_TOLERANCE = 0.02


def regression_reproduction(table_id: int) -> RegressionReproduction:
    """Check the printed model's dot product and, for the first table, fit
    the identified features both ways (exact mean, 2-decimal mean)."""
    rows = _table(table_id)
    printed = PRINTED_REGRESSION_1 if table_id == 1 else PRINTED_REGRESSION_2
    value = printed_model_value(table_id)
    gap = abs(value - printed.predicted)
    fits: dict[str, OlsReport] = {}
    flags: dict[str, bool] = {}
    notes: list[str] = []
    if table_id == 1:
        ns = [Fraction(sum(r.entries)) for r in rows]
        target = [Fraction(r.sigma) for r in rows]
        exact_rows = [[n, n / 7] for n in ns]
        rounded_rows = [[n, Fraction(round(n * 100 / 7), 100)] for n in ns]
        fits["exact_mean"] = ols_fit(exact_rows, target)
        fits["rounded_mean"] = ols_fit(rounded_rows, target)
        for name, fit in fits.items():
            flags[name] = (
                fit.r_squared is not None
                and abs(fit.r_squared - printed.r_squared) <= _R2_MATCH_TOLERANCE
            )
        notes.append(
            "features identified as (n, mean degree); the exact-mean design is "
            "perfectly collinear (mean = n/7) and reported via minimum norm"
        )
    else:
        notes.append(
            "second regression feature not identifiable from the printed data; "
            "only the printed-model dot product is checked"
        )
    return RegressionReproduction(
        table_id=table_id,
        printed=printed,
        printed_model_at_point=value,
        abs_prediction_gap=gap,
        fits=fits,
        r2_match_flags=flags,
        notes=tuple(notes),
    )
