import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greville_pinv
from sigmairr.errors import DomainError, InputError
from sigmairr.stats_tables import (
    MATRIX1_VARIABLES,
    PRINTED_MATRIX_1,
    PRINTED_REGRESSION_1,
    PRINTED_REGRESSION_2,
    TABLE1,
    TABLE2,
    correlation_matrix,
    ols_fit,
    predict,
    printed_model_value,
    regression_reproduction,
    reproduce_table,
    table_correlation,
    table_row_view,
)

T1_PRINTED = (160, 280, 399, 519, 637, 757, 876, 996)
T2_PRINTED = (2107, 11293, 32842, 72197, 134229, 224942, 348993, 512397)
SIGMA1_PRINTED = (2248, 10747, 31070, 68563, 128572, 216443, 337522, 497155)
SIGMA2_PRINTED = (16209, 46312, 107753, 233350)
ETA_COMPUTED = (41, 55, 69, 91)


class TestEmbeddedData:
    def test_shapes(self):
        assert len(TABLE1) == 8 and len(TABLE2) == 4
        assert all(len(r.entries) == 7 for r in TABLE1 + TABLE2)

    def test_printed_columns(self):
        assert tuple(r.t1 for r in TABLE1) == T1_PRINTED
        assert tuple(r.t2 for r in TABLE1) == T2_PRINTED
        assert tuple(r.sigma for r in TABLE1) == SIGMA1_PRINTED
        assert tuple(r.sigma for r in TABLE2) == SIGMA2_PRINTED
        assert tuple(r.eta for r in TABLE2) == (21, 31, 41, 51)

    def test_table_row_view(self):
        view, irr = table_row_view(1, 0)
        assert view.n == 44 and irr == 260
        with pytest.raises(InputError):
            table_row_view(1, 8)
        with pytest.raises(InputError):
            table_row_view(3, 0)


class TestReproduction:
    def test_table1_all_derivable_columns_match(self):
        report = reproduce_table(1)
        for column, expected in (("T1", T1_PRINTED), ("T2", T2_PRINTED), ("sigma", SIGMA1_PRINTED)):
            cells = report.column(column)
            assert report.column_matches(column)
            assert tuple(int(c.recomputed) for c in cells) == expected

    def test_table1_irr_not_derivable(self):
        report = reproduce_table(1)
        assert all(c.match is None for c in report.column("irr"))

    def test_table2(self):
        report = reproduce_table(2)
        assert report.column_matches("n")
        assert report.column_matches("sigma")
        assert report.column_matches("lambda")
        eta_cells = report.column("eta")
        assert all(c.match is False for c in eta_cells)
        assert tuple(int(c.recomputed) for c in eta_cells) == ETA_COMPUTED
        assert all(c.match is None for c in report.column("eta1"))
        assert {c.column for c in report.mismatches()} == {"eta"}

    def test_bad_table_id(self):
        with pytest.raises(InputError):
            reproduce_table(3)


class TestCorrelation:
    def test_diagonal_and_symmetry(self):
        for table_id in (1, 2):
            report, _ = table_correlation(table_id)
            size = len(report.variables)
            for i in range(size):
                assert report.matrix[i][i] == 1.0
                for j in range(size):
                    assert abs(report.matrix[i][j] - report.matrix[j][i]) <= 1e-12

    def test_corr_n_t1(self):
        report, _ = table_correlation(1)
        value = report.entry("n", "T1")
        assert value >= 0.99999
        assert abs(value - 0.999999) <= 5e-3

    def test_comparison_mechanism(self):
        report, comparisons = table_correlation(1)
        assert len(comparisons) == 25
        assert all(c.abs_diff is not None for c in comparisons)
        # the printed matrix is not reproducible from the printed columns;
        # the deviations are the report's content, not an error
        assert any(not c.within_tolerance for c in comparisons)
        by_pos = {(c.row, c.col): c for c in comparisons}
        assert by_pos[(0, 3)].within_tolerance  # corr(n, T1)

    def test_zero_variance_marker(self):
        report = correlation_matrix(("a", "b"), [[1, 1, 1], [1, 2, 3]])
        assert report.matrix[0][1] is None and report.matrix[0][0] is None
        assert report.matrix[1][1] == 1.0

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=5, max_size=5), min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_diagonal_is_one_or_none(self, columns):
        report = correlation_matrix([f"c{i}" for i in range(len(columns))], columns)
        for i, col in enumerate(columns):
            assert report.matrix[i][i] == (None if len(set(col)) == 1 else 1.0)

    def test_input_validation(self):
        with pytest.raises(InputError):
            correlation_matrix(("a",), [[1, 2, 3]])
        with pytest.raises(InputError):
            correlation_matrix(("a", "b"), [[1, 2], [1, 2]])
        with pytest.raises(InputError):
            correlation_matrix(("a", "b"), [[1, 2, 3], [1, 2]])

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
            min_size=3,
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_matches_float_formula(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        report = correlation_matrix(("x", "y"), [xs, ys])
        value = report.matrix[0][1]
        k = len(xs)
        mx = sum(xs) / k
        my = sum(ys) / k
        vx = sum((a - mx) ** 2 for a in xs)
        vy = sum((b - my) ** 2 for b in ys)
        if vx == 0 or vy == 0:
            assert value is None
        else:
            naive = sum((a - mx) * (b - my) for a, b in pairs) / math.sqrt(vx * vy)
            assert value == pytest.approx(naive, abs=1e-11)


class TestOls:
    def test_exact_line(self):
        fit = ols_fit([[x] for x in range(1, 6)], [2 * x + 1 for x in range(1, 6)])
        assert fit.coefficients_exact == (Fraction(2),)
        assert fit.intercept_exact == 1 and fit.r_squared == 1.0
        assert predict(fit, [10]) == pytest.approx(21.0, abs=1e-9)

    def test_two_features_exact(self):
        rows = [[1, 2], [2, 1], [3, 5], [4, 2], [5, 7]]
        target = [3 * a - 2 * b + 4 for a, b in rows]
        fit = ols_fit(rows, target)
        assert fit.coefficients_exact == (Fraction(3), Fraction(-2))
        assert fit.intercept_exact == 4 and fit.rank == 2 and not fit.rank_deficient

    def test_rank_deficient_minimum_norm(self):
        fit = ols_fit([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
        assert fit.rank_deficient and fit.rank == 1
        assert fit.coefficients_exact == (Fraction(1, 5), Fraction(2, 5))
        assert fit.intercept_exact == 0
        assert fit.condition_number == math.inf
        assert fit.r_squared == 1.0

    def test_condition_number_orthogonal(self):
        fit = ols_fit([[1, 1], [-1, 1], [1, -1], [-1, -1]], [1, 2, 3, 4])
        assert fit.condition_number == pytest.approx(1.0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_greville_pseudo_inverse(self, data):
        # Full-rank and rank-deficient designs: a column may copy a multiple
        # of another, or be all zero.
        p = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(p + 1, 7))
        rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=p, max_size=p), min_size=k, max_size=k))
        for j in range(p):
            kind = data.draw(st.sampled_from(("free", "free", "multiple", "zero")))
            if kind == "zero":
                for row in rows:
                    row[j] = 0
            elif kind == "multiple" and j > 0:
                src, factor = data.draw(st.integers(0, j - 1)), Fraction(data.draw(st.integers(-3, 3)), 2)
                for row in rows:
                    row[j] = factor * row[src]
        target = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
        means = [sum(Fraction(row[j]) for row in rows) / k for j in range(p)]
        ybar = Fraction(sum(target), k)
        pinv = greville_pinv([[row[j] - means[j] for row in rows] for j in range(p)])
        beta = tuple(sum(w * (y - ybar) for w, y in zip(prow, target)) for prow in pinv)
        fit = ols_fit(rows, target)
        assert fit.coefficients_exact == beta
        assert fit.intercept_exact == ybar - sum(m * b for m, b in zip(means, beta))

    @given(
        st.lists(st.integers(-10**4, 10**4), min_size=3, max_size=8, unique=True),
        st.integers(2, 50),
        st.lists(st.integers(-1, 1), min_size=8, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_condition_number_of_nearly_collinear_designs(self, xs, slope, noise):
        rows = [[x, slope * x + e] for x, e in zip(xs, noise)]
        k = len(rows)
        centered = [[Fraction(row[j]) - Fraction(sum(r[j] for r in rows), k) for j in range(2)] for row in rows]
        a, b, d = (sum(r[i] * r[j] for r in centered) for i, j in ((0, 0), (0, 1), (1, 1)))
        if a * d == b * b:
            return  # rank-deficient: the condition number is inf
        with localcontext() as ctx:
            ctx.prec = 50
            a, b, d = (Decimal(v.numerator) / v.denominator for v in (a, b, d))
            disc = ((a - d) ** 2 + 4 * b * b).sqrt()
            reference = ((a + d + disc) / (a + d - disc)).sqrt()
        assert ols_fit(rows, [1] * k).condition_number == pytest.approx(float(reference), rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            ols_fit([], [])
        with pytest.raises(InputError):
            ols_fit([[1, 2], [3, 4]], [1, 2])  # too few rows for 2 features
        with pytest.raises(InputError):
            ols_fit([[1], [2, 3]], [1, 2])
        fit = ols_fit([[1], [2], [3]], [5, 5, 5])
        assert fit.r_squared == 1.0  # zero residual on constant target
        with pytest.raises(InputError):
            predict(fit, [1, 2])
        with pytest.raises(InputError):
            predict(fit, [float("inf")])
        with pytest.raises(InputError):
            printed_model_value(2, [350.0])


class TestRegressionReproduction:
    def test_printed_model_dot_products(self):
        assert printed_model_value(1) == pytest.approx(PRINTED_REGRESSION_1.predicted, abs=1e-5)
        assert printed_model_value(2) == pytest.approx(PRINTED_REGRESSION_2.predicted, abs=1.0)

    def test_table1_report(self):
        repro = regression_reproduction(1)
        assert repro.abs_prediction_gap < 1e-5
        assert set(repro.fits) == {"exact_mean", "rounded_mean"}
        assert repro.fits["exact_mean"].rank_deficient
        assert not repro.fits["rounded_mean"].rank_deficient
        assert repro.fits["rounded_mean"].condition_number > 1e3  # nearly collinear
        assert set(repro.r2_match_flags) == {"exact_mean", "rounded_mean"}
        for fit in repro.fits.values():
            assert fit.r_squared is not None and -math.inf < fit.r_squared <= 1.0

    def test_table2_report(self):
        repro = regression_reproduction(2)
        assert repro.abs_prediction_gap <= 1.0
        assert repro.fits == {}
        assert any("not identifiable" in n for n in repro.notes)

    def test_json_serialization(self):
        payload = regression_reproduction(1).to_json_dict()
        assert payload["table_id"] == 1
        assert "exact_mean" in payload["fits"]
        assert payload["fits"]["exact_mean"]["condition_number"] == "inf"
