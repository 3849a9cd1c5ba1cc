import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    NON_DEFAULT_PARAMS,
    RVal,
    _compare,
    b15b_lhs_pairwise,
    evaluate_bound_by_intervals,
    fraction_decision,
    is_prime_by_trial_division,
    sqrt_rval,
)

from sigmairr import bounds, sequences
from sigmairr.bounds import (
    BOUND_IDS,
    CATALOG,
    BoundInput,
    BoundParams,
    ceil_log2,
    evaluate_all,
    evaluate_bound,
    expand_bound_id,
    missing_fields,
    resolve_parameters,
)
from sigmairr.cli import main
from sigmairr.errors import DomainError, InputError
from sigmairr.graphs import Graph, complete_bipartite, cycle, double_star, path, star
from sigmairr.indices import albertson, sigma
from sigmairr.search import (
    ExhaustiveMode,
    RandomMode,
    _tree_of_levels,
    enumerate_free_trees,
    falsify,
    free_tree_level_sequences,
    levels_to_graph,
)
from sigmairr.sequences import (
    Convention,
    DegreeSequenceView,
    derive,
    prufer_degrees_and_edges,
    random_prufer_word,
    random_tree,
)
from sigmairr.stats_tables import TABLE1, TABLE2, table_row_view

fraction_st = st.fractions(min_value=0, max_value=10**6)


def refuted(bound_id: str, binput: BoundInput) -> bool:
    """Whether ``falsify`` counts the pair as a counterexample."""
    return bounds.counterexample_report(bound_id, CATALOG[bound_id], binput) is not None


class TestRootIntervals:
    @given(fraction_st, st.sampled_from([16, 64, 128]))
    def test_sqrt_brackets(self, x, bits):
        lo, hi, den = bounds.sqrt_rval(x, bits)
        assert den == x.denominator << bits
        assert lo * lo <= x * den * den <= hi * hi
        assert hi - lo == (lo * lo != x * den * den)  # one step wide, or exact

    def test_sqrt_perfect_square_exact(self):
        lo, hi, den = bounds.sqrt_rval(Fraction(49, 4), 64)
        assert lo == hi and Fraction(lo, den) == Fraction(7, 2)
        assert bounds.sqrt_rval(Fraction(0), 64)[:2] == (0, 0)

    @given(st.integers(0, 10**9), st.integers(2, 5))
    def test_nth_root_brackets(self, value, degree):
        lo, hi, den = bounds.nth_root_rval(Fraction(value), degree, 64)
        assert lo**degree <= value * den**degree
        assert value * den**degree <= hi**degree

    def test_nth_root_perfect_power(self):
        lo, hi, den = bounds.nth_root_rval(Fraction(32), 5, 64)
        assert lo == hi and Fraction(lo, den) == 2

    @given(
        st.one_of(
            st.integers(0, 2**70),
            st.integers(0, 2**3000),
            st.tuples(st.integers(1, 2**40), st.integers(2, 300), st.integers(-1, 1))
            .map(lambda t: max(t[0] ** t[1] + t[2], 0)),
        ),
        st.integers(2, 300),
    )
    @example(2**555 + 7, 280)  # a float estimate of its root, 3.96..., truncates below the root
    @settings(max_examples=200, deadline=None)
    def test_integer_nth_root_matches_newton_from_a_power_of_two(self, value, degree):
        assert bounds._integer_nth_root(value, degree) == oracles.integer_nth_root_from_power_of_two(value, degree)

    def test_integer_nth_root_of_a_small_root_of_high_degree(self):
        assert bounds._integer_nth_root(2**555 + 7, 280) == 3

    def test_ceil_log2(self):
        assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


class TestParams:
    def test_validation(self):
        with pytest.raises(InputError):
            BoundParams(p=4)
        with pytest.raises(InputError):
            BoundParams(eta1=Fraction(5))
        with pytest.raises(InputError):
            BoundParams(eta1=Fraction(2))
        with pytest.raises(InputError):
            BoundParams(alpha=-1)

    def test_primality_matches_trial_division(self):
        assert all(bounds._is_prime(x) == is_prime_by_trial_division(x) for x in range(300_000))

    # strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37, a Carmichael number, and 3 * 768614336404564651
    @pytest.mark.parametrize("x", [2047, 3_215_031_751, 3_825_123_056_546_413_051,
                                   318_665_857_834_031_151_167_461, 561, 2**61 + 1])
    def test_pseudoprimes_rejected(self, x):
        assert not bounds._is_prime(x)
        with pytest.raises(InputError, match="must be prime"):
            BoundParams(p=x)

    def test_eta_default_from_view(self):
        view = DegreeSequenceView((3, 6, 8, 10, 14, 16, 20), Convention.PAPER_TABLE)
        values, _ = resolve_parameters(BoundParams(), view.n, view.two_m, view.max_entry)
        assert values["eta"] == 41

    def test_eta1_clamp_note(self):
        values, notes = resolve_parameters(BoundParams(), 77, 152, 20)  # table 2 row 1
        assert values["eta1"] == Fraction(201, 100)
        assert any("clamped" in n for n in notes.get("eta1", []))

    def test_alpha_beta_default(self):
        values, _ = resolve_parameters(BoundParams(), 4, 6, 3)  # star(4)
        assert values["alpha"] == values["beta"] == ceil_log2(4) == 2

    @pytest.mark.parametrize("params", [BoundParams(), *NON_DEFAULT_PARAMS.values()], ids=["default", *NON_DEFAULT_PARAMS])
    def test_equal_order_size_and_max_degree_share_a_resolution(self, params):
        # n = 7, m = 6 and max degree 4 for both; the entries differ.
        first = DegreeSequenceView((4, 2, 2, 1, 1, 1, 1))
        second = DegreeSequenceView((1, 1, 3, 1, 1, 1, 4))
        records = [BoundInput.from_view(view, irr_value=20, sigma_value=30, params=params) for view in (first, second)]
        assert [(b.n, b.two_m, b.max_degree) for b in records] == [(7, 12, 4)] * 2
        assert records[0].param_notes is records[1].param_notes
        reports = [evaluate_all(binput) for binput in records]
        for one, other in zip(*reports):
            assert (one.params_used, one.notes) == (other.params_used, other.notes), one.bound_id

    def test_resolution_cannot_be_mutated_by_a_caller(self):
        binput = BoundInput.from_table_row(1, 0)
        before = [r.to_json_dict() for r in evaluate_all(binput)]
        values, notes = resolve_parameters(BoundParams(), binput.n, binput.two_m, binput.max_degree)
        assert notes["eta1"] and notes["alpha"]
        with pytest.raises(TypeError):
            values["eta"] = 1
        with pytest.raises(TypeError):
            notes["eta1"] = ["changed"]
        with pytest.raises(TypeError):
            del notes["alpha"]
        with pytest.raises(AttributeError):
            notes["alpha"].append("changed")
        copied = dict(notes)
        copied["eta1"] = ("changed",)
        after = [r.to_json_dict() for r in evaluate_all(BoundInput.from_table_row(1, 0))]
        resolved = resolve_parameters(BoundParams(), binput.n, binput.two_m, binput.max_degree)
        assert after == before and resolved[1]["eta1"] != ("changed",)


class TestCatalogArithmetic:
    def test_b7_table1_row1_exact(self):
        report = evaluate_bound("B7", BoundInput.from_table_row(1, 0))
        assert report.rhs == Fraction(1, 3) * Fraction(1936, 49) * 160 - 2348 + 260
        assert report.rhs == Fraction(2824, 147)
        assert report.lhs == 2248 and report.holds is True

    def test_b4_is_a_theorem(self):
        # sigma = sum d^3 - 2*M2 <= cube_sum, and B4's right side only adds
        # nonnegative terms to cube_sum, so B4 holds on every graph it reads.
        graphs = [g for n in range(2, 11) for g in enumerate_free_trees(n)]
        graphs += [path(n) for n in (2, 3, 7)] + [star(n) for n in (3, 8)] + [cycle(n) for n in (3, 6)]
        graphs += [double_star(2, 3), double_star(4, 4)]
        graphs += [complete_bipartite(a, b) for a, b in ((1, 1), (2, 5), (3, 3))]
        for g in graphs:
            degrees = g.degrees
            m2 = sum(degrees[u] * degrees[v] for u, v in g.edges)
            binput = BoundInput.from_graph(g)
            assert sigma(g) == sum(d**3 for d in degrees) - 2 * m2 == binput.cube_sum - 2 * m2, g.edges
            assert evaluate_bound("B4", binput).holds is True, g.edges
        assert len(graphs) == 200 + 12  # 200 free trees with 2 <= n <= 10

    def test_b8_path6(self):
        report = evaluate_bound("B8", BoundInput.from_graph(path(6)))
        assert report.lhs == 2 and report.rhs == Fraction(336, 5)
        assert report.holds is False and report.hypotheses_met

    def test_b14_small_trees(self):
        for seed in range(10):
            report = evaluate_bound("B14", BoundInput.from_graph(random_tree(7, seed)))
            assert report.holds is True and report.margin == 0

    def test_b9_monotone_in_p(self):
        binput = BoundInput.from_graph(star(6))
        rhs_values = [
            evaluate_bound("B9", BoundInput.from_graph(star(6), BoundParams(p=p))).rhs
            for p in (2, 3, 5, 7, 11)
        ]
        assert rhs_values == sorted(rhs_values)
        assert len(set(rhs_values)) == len(rhs_values)

    def test_b2_params_recorded(self):
        report = evaluate_bound("B2a", BoundInput.from_graph(star(6), BoundParams(alpha=3)))
        assert report.params_used["alpha"] == 3
        report = evaluate_bound("B2b", BoundInput.from_graph(star(6)))
        assert report.params_used["beta"] == ceil_log2(6)

    def test_b10_statement_vs_strict_gate(self):
        g = star(8)  # max degree 7; n = 8
        statement = evaluate_bound("B10", BoundInput.from_graph(g))
        assert statement.hypotheses_met  # max degree >= 4
        strict = evaluate_bound(
            "B10", BoundInput.from_graph(g, BoundParams(strict_max_degree_window=True))
        )
        assert not strict.hypotheses_met  # needs max_degree-3 <= n/4
        assert strict.holds is not None  # still computable, non-probative

    def test_b10_divide_by_zero_gated(self):
        g = star(4)  # max degree exactly 3
        report = evaluate_bound("B10", BoundInput.from_graph(g))
        assert not report.hypotheses_met and report.holds is None

    def test_regular_sequence_gating(self):
        reports = {r.bound_id: r for r in evaluate_all(BoundInput.from_graph(cycle(4)))}
        assert len(reports) == len(BOUND_IDS)
        assert not reports["B5"].hypotheses_met  # half-sums coincide
        assert not reports["B6"].hypotheses_met  # mean half-difference zero
        assert not reports["B12"].hypotheses_met  # eta == n
        assert reports["B3"].holds is not None  # a_last != t_last on regular sequences
        assert reports["B15b"].holds is True and reports["B15b"].lhs == 0

    def test_missing_irr_is_input_error(self):
        view = DegreeSequenceView((3, 5, 7, 5, 6, 8, 10), Convention.PAPER_TABLE)
        binput = BoundInput.from_view(view)  # no irr supplied
        with pytest.raises(InputError, match="irr"):
            evaluate_bound("B3", binput)

    def test_evaluate_all_skips_unavailable(self):
        view = DegreeSequenceView((3, 5, 7, 5, 6, 8, 10), Convention.PAPER_TABLE)
        reports = evaluate_all(BoundInput.from_view(view))
        ids = {r.bound_id for r in reports}
        assert "B3" not in ids and "B14" not in ids  # need irr / graph
        assert "B8" in ids and "B15a" in ids

    def test_expand_bound_id(self):
        assert expand_bound_id("B1") == ("B1a", "B1b")
        assert expand_bound_id("B15") == ("B15a", "B15b")
        assert expand_bound_id("B7") == ("B7",)
        assert expand_bound_id("all") == BOUND_IDS == (
            "B1a", "B1b", "B2a", "B2b", "B3", "B4", "B5", "B6", "B7",
            "B8", "B9", "B10", "B11", "B12", "B13", "B14", "B15a", "B15b",
        )
        with pytest.raises(InputError):
            expand_bound_id("B99")

    def test_evaluate_all_resolves_parameters_once_per_input(self, monkeypatch):
        calls = []

        def counting(params, n, two_m, max_degree):
            calls.append((n, two_m, max_degree))
            return resolve_parameters(params, n, two_m, max_degree)

        monkeypatch.setattr(bounds, "resolve_parameters", counting)
        for make in (lambda: BoundInput.from_graph(path(7)), lambda: BoundInput.from_table_row(1, 0)):
            calls.clear()
            binput = make()
            reports = evaluate_all(binput)
            assert len(reports) > 1 and calls == [(binput.n, binput.two_m, binput.max_degree)]

    def test_catalog_builds_no_derived_sequences(self, monkeypatch):
        calls = []

        def counting(view):
            calls.append(view)
            return derive(view)

        monkeypatch.setattr(sequences, "derive", counting)
        binput = BoundInput.from_graph(random_tree(12, 3))
        needs_derived = [b for b in BOUND_IDS if "derived" in CATALOG[b].requires]
        assert needs_derived == ["B3", "B4", "B5", "B6"]
        for bound_id in BOUND_IDS:  # the catalog reads the summaries off integers
            evaluate_bound(bound_id, binput)
            refuted(bound_id, binput)
        assert calls == []
        single = BoundInput.from_view(DegreeSequenceView((2,)), irr_value=0, sigma_value=0)
        assert missing_fields(CATALOG["B3"], single) == ["derived"]

    def test_near_tie_stays_undecided(self, monkeypatch, capsys):
        # sqrt(2) < sqrt(2): the intervals overlap at every precision
        tie = replace(
            CATALOG["B1b"],
            hypothesis=lambda b: ([], True),
            lhs=lambda b, bits: bounds.sqrt_rval(Fraction(2), bits),
            rhs=lambda b, bits: bounds.sqrt_rval(Fraction(2), bits),
        )
        monkeypatch.setitem(CATALOG, "B1b", tie)
        report = evaluate_bound("B1b", BoundInput.from_graph(path(4)))
        assert report.indeterminate and report.hypotheses_met and report.holds is None
        assert report.relation == "<" and report.lhs == report.rhs
        assert falsify("B1b", ExhaustiveMode(4)) == []
        code = main(["bounds", "check", "--family", "path:4", "--bound", "B1b", "--expect-hold"])
        capsys.readouterr()
        assert code == 0

    def test_b15_hypothesis_requires_non_increasing(self):
        asc = evaluate_bound("B15a", BoundInput.from_graph(star(5)))
        assert not asc.hypotheses_met  # from_graph sorts ascending
        view = DegreeSequenceView((4, 1, 1, 1, 1))
        desc = evaluate_bound("B15a", BoundInput.from_view(view))
        assert desc.hypotheses_met and desc.holds is True


class TestB15bDegreeGrouping:
    @staticmethod
    def assert_matches_pairwise(binput):
        entries = binput.entries
        for bits in (64, 128):
            lo, hi, den = bounds._b15b_lhs(binput, bits)
            assert RVal(Fraction(lo, den), Fraction(hi, den)) == b15b_lhs_pairwise(entries, bits)

    @given(
        st.one_of(
            st.lists(st.integers(1, 500), min_size=1, max_size=40),
            st.lists(st.integers(1, 5), min_size=1, max_size=40),
            st.tuples(st.integers(1, 500), st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_multisets_match_pairwise_sum(self, entries):
        self.assert_matches_pairwise(BoundInput.from_view(DegreeSequenceView(tuple(entries))))

    def test_small_trees_match_pairwise_sum(self):
        for n in range(2, 11):  # n = 1 has no degree sequence
            for g in enumerate_free_trees(n):
                self.assert_matches_pairwise(BoundInput.from_graph(g))

    def test_one_root_per_distinct_degree_pair(self, monkeypatch):
        calls = Counter()
        scaled_root = bounds._scaled_root

        def counting(value, degree, bits):
            if degree == 2:
                calls[bits] += 1
            return scaled_root(value, degree, bits)

        monkeypatch.setattr(bounds, "_scaled_root", counting)
        g = random_tree(1000, 0)
        distinct = len(set(g.degrees))
        evaluate_bound("B15b", BoundInput.from_graph(g))
        assert calls[64] > 0
        assert all(count <= distinct * (distinct - 1) // 2 for count in calls.values())


class TestReportContracts:
    def test_deterministic_reports(self):
        binput = BoundInput.from_table_row(2, 2)
        first = [r.to_json_dict() for r in evaluate_all(binput)]
        second = [r.to_json_dict() for r in evaluate_all(binput)]
        assert first == second

    def test_report_order(self):
        binput = BoundInput.from_graph(path(5))
        ids = [r.bound_id for r in evaluate_all(binput)]
        assert ids == list(BOUND_IDS)
        assert ids.index("B2b") < ids.index("B3") < ids.index("B10")

    @given(
        st.one_of(
            st.lists(st.integers(1, 30), min_size=2, max_size=12),
            st.lists(st.integers(1, 400), min_size=2, max_size=12),
        ),
        st.sampled_from([Convention.STANDARD, Convention.PAPER_TABLE]),
        st.one_of(st.none(), st.integers(0, 500)),
    )
    @settings(max_examples=120, deadline=None)
    def test_evaluator_totality(self, entries, convention, irr):
        view = DegreeSequenceView(tuple(entries), convention)
        binput = BoundInput.from_view(view, irr_value=irr, sigma_value=0 if irr is None else irr)
        for report in evaluate_all(binput):
            assert report.bound_id in CATALOG
            json.dumps(report.to_json_dict())
            if report.holds is not None and report.lhs_exact and report.rhs_exact and not report.indeterminate:
                lhs, rhs, rel = report.lhs, report.rhs, report.relation
                expected = {
                    "<=": lhs <= rhs,
                    "<": lhs < rhs,
                    ">=": lhs >= rhs,
                    ">": lhs > rhs,
                    "==": lhs == rhs,
                }[rel]
                assert report.holds == expected
                if rel in ("<=", "<"):
                    assert report.margin == rhs - lhs
                elif rel in (">=", ">"):
                    assert report.margin == lhs - rhs

    def test_margin_sign_agrees_with_holds(self):
        for report in evaluate_all(BoundInput.from_graph(path(7))):
            if report.holds is None or report.margin is None:
                continue
            if report.relation in ("<=", ">=", "=="):
                assert report.holds == (report.margin >= 0)
            else:
                assert report.holds == (report.margin > 0)

    def test_missing_fields_helper(self):
        view = DegreeSequenceView((2, 3, 4))
        binput = BoundInput.from_view(view)
        assert missing_fields(CATALOG["B14"], binput) == ["graph"]
        # standard-convention views get no automatic sigma either
        assert missing_fields(CATALOG["B3"], binput) == ["irr", "sigma"]
        with pytest.raises(InputError, match=r"^B3 needs input field\(s\): irr, sigma$"):
            evaluate_bound("B3", binput)

    def test_evaluate_all_checks_fields_once_per_entry(self, monkeypatch):
        assert all(list(spec.requires) == sorted(spec.requires) for spec in CATALOG.values())
        binput = BoundInput.from_graph(star(6))
        expected = [evaluate_bound(bound_id, binput) for bound_id in BOUND_IDS]
        calls = []

        def counted(spec, b):
            calls.append(spec.bound_id)
            return missing_fields(spec, b)

        monkeypatch.setattr(bounds, "missing_fields", counted)
        assert evaluate_all(binput) == expected
        assert calls == list(BOUND_IDS)


def _reference_inputs_match(binput):
    for bound_id in BOUND_IDS:
        if missing_fields(CATALOG[bound_id], binput):
            continue
        ours = evaluate_bound(bound_id, binput)
        reference = evaluate_bound_by_intervals(bound_id, binput)
        assert ours.to_json_dict() == reference.to_json_dict(), bound_id


@st.composite
def side_pairs(draw):
    """Two sides, each a ratio (num, den), an exact box (lo, lo, den) or a box
    (lo, hi, den), with ends a few steps of one grid 1/unit apart or one
    numerator step off it: so they touch, nest, overlap and separate, over
    shared and different denominators."""
    unit = draw(st.sampled_from((1, 3, 2**64, 2**128 + 7)))

    def side():
        scale = draw(st.sampled_from((1, 2, 5, 2**64 + 1)))
        lo, hi = sorted(draw(st.integers(-3, 3)) * scale + draw(st.integers(-1, 1)) for _ in range(2))
        kind = draw(st.sampled_from(("ratio", "exact", "box")))
        return (lo, unit * scale) if kind == "ratio" else (lo, lo if kind == "exact" else hi, unit * scale)

    return side(), side()


class TestExactFirst:
    @given(side_pairs())
    @settings(max_examples=400, deadline=None)
    def test_boxes_decide_as_the_fraction_reference(self, sides):
        # _decide's one rule on integer ends against the reference's Fraction
        # boxes and _compare, under each of the five relations
        lhs, rhs = sides
        binput = BoundInput.from_graph(path(4))
        boxed = [RVal(Fraction(side[0], side[-1]), Fraction(side[-2], side[-1])) for side in sides]
        for relation in bounds._HOLDS:
            spec = replace(CATALOG["B1b"], relation=relation, lhs=lambda b, bits: lhs, rhs=lambda b, bits: rhs)
            assert bounds._decide(spec, binput) == (lhs, rhs, _compare(*boxed, relation)), relation

    def test_only_roots_are_boxed(self):
        boxed = set()
        for g in (path(6), star(7), random_tree(40, 1)):
            binput = BoundInput.from_graph(g)
            for bound_id in BOUND_IDS:
                spec = CATALOG[bound_id]
                assert spec.hypothesis(binput)[1], bound_id
                for side in ("lhs", "rhs"):
                    value = getattr(spec, side)(binput, 64)
                    if len(value) == 3:  # a box: lo <= hi over a positive denominator
                        boxed.add((bound_id, side))
                        assert value[0] <= value[1], (bound_id, side)
                    # each end a numerator over a positive denominator
                    assert all(type(x) is int for x in value) and value[-1] > 0, (bound_id, side)
        assert boxed == {("B6", "rhs"), ("B15b", "lhs"), ("B15b", "rhs")}

    def test_reports_match_interval_reference_on_trees(self):
        for n in range(2, 11):
            for g in enumerate_free_trees(n):
                _reference_inputs_match(BoundInput.from_graph(g))
        for seed in range(50):
            _reference_inputs_match(BoundInput.from_graph(random_tree(40, seed)))

    def test_reports_match_interval_reference_on_table_rows(self):
        variants = (BoundParams(), BoundParams(alpha=3, p=5, eta=7, eta1=Fraction(5, 2), strict_max_degree_window=True))
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            for row_index in range(len(rows)):
                for params in variants:
                    _reference_inputs_match(BoundInput.from_table_row(table_id, row_index, params))

    @given(
        st.one_of(
            st.lists(st.integers(1, 30), min_size=1, max_size=12),
            st.lists(st.integers(1, 400), min_size=2, max_size=12),
            st.tuples(st.integers(1, 50), st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
        ),
        st.sampled_from([Convention.STANDARD, Convention.PAPER_TABLE]),
        st.one_of(st.none(), st.integers(0, 500)),
        st.integers(-50, 5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_reports_match_interval_reference_on_sequences(self, entries, convention, irr, sig):
        view = DegreeSequenceView(tuple(entries), convention)
        if convention is Convention.PAPER_TABLE and sum(entries) == 1:
            return  # m = 0: the default eta is undefined
        _reference_inputs_match(BoundInput.from_view(view, irr_value=irr, sigma_value=sig))

    @given(st.integers(-5, 10**6), st.integers(-(10**6), 10**6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_b6_exact_verdict_matches_intervals(self, gap, shift, data):
        # sigma - s = gap, and X anywhere, or near gap^2: exactly, off by a
        # small integer or by 2^-e, or a perfect rational square.
        near = gap * gap
        radicand = data.draw(
            st.one_of(
                st.fractions(min_value=0, max_value=10**12),
                st.integers(-3, 3).map(lambda d: Fraction(near + d)),
                st.integers(1, 400).map(lambda e: near + Fraction(1, 2**e)),
                st.integers(1, 400).map(lambda e: near - Fraction(1, 2**e)),
                st.fractions(min_value=-1, max_value=1, max_denominator=10**6).map(lambda f: (abs(gap) + f) ** 2),
            )
        )
        assume(radicand >= 0)
        exact = bounds._at_least_root_plus(shift + gap, radicand.numerator, radicand.denominator, shift)
        for bits in (64, 128):
            interval = _compare(RVal.of(shift + gap), sqrt_rval(radicand, bits) + RVal.of(shift), ">=")
            assert interval is None or interval == exact

    def test_b6_decided_where_intervals_cannot_separate(self, monkeypatch):
        # X = g^2 + 1 and sigma - s = g: sqrt(X) - g < 1/(2g) = 2^-131
        g = 2**130
        binput = BoundInput.from_graph(path(6))
        monkeypatch.setattr(bounds, "_b6_terms", lambda b: (g * g + 1, 1, b.sigma_value - g))
        monkeypatch.setattr(oracles, "_b6_terms", lambda c: (Fraction(g * g + 1), c.sig - g))
        reference = evaluate_bound_by_intervals("B6", binput)
        assert reference.indeterminate and reference.holds is None
        report = evaluate_bound("B6", binput)
        assert report.holds is False and not report.indeterminate
        assert report.rhs == reference.rhs and report.notes == ()
        monkeypatch.setattr(bounds, "_b6_terms", lambda b: (g * g, 1, b.sigma_value - g))
        report = evaluate_bound("B6", binput)
        assert report.holds is True and report.margin == 0 and report.rhs_exact


def _audit_pairs():
    """(entry, input) for every catalog entry whose fields are present, on
    every tree with 2 <= n <= 9 and every table row, under default and
    non-default parameters (B10's window and the eta guards of B12/B13
    move with them)."""
    variants = (
        BoundParams(),
        BoundParams(strict_max_degree_window=True, eta=6),
        BoundParams(alpha=0, beta=4, p=3, eta=2, eta1=Fraction(3)),
    )
    for params in variants:
        inputs = [BoundInput.from_graph(g, params) for n in range(2, 10) for g in enumerate_free_trees(n)]
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            inputs += [BoundInput.from_table_row(table_id, row_index, params) for row_index in range(len(rows))]
        for binput in inputs:
            for bound_id in BOUND_IDS:
                if not missing_fields(CATALOG[bound_id], binput):
                    yield bound_id, binput


class TestRefutes:
    def test_not_computable_has_a_failed_hypothesis(self):
        # counterexample_report returns at once on a failed hypothesis or a
        # non-computable entry; a non-computable result always names a failed
        # hypothesis.
        not_computable = Counter()
        for bound_id, binput in _audit_pairs():
            failed, computable = CATALOG[bound_id].hypothesis(binput)
            if not computable:
                assert failed, (bound_id, binput.label)
                not_computable[bound_id] += 1
        assert set(not_computable) == {"B1a", "B1b", "B5", "B6", "B10", "B12", "B13"}

    def test_agrees_with_reports(self):
        decided = Counter()
        for bound_id, binput in _audit_pairs():
            report = evaluate_bound(bound_id, binput)
            expected = report.hypotheses_met and report.holds is False
            assert refuted(bound_id, binput) == expected, (bound_id, binput.label)
            decided[expected] += 1
        assert decided[True] > 1000 and decided[False] > 4000

    def test_skips_sides_unless_computable_and_met(self):
        def unreachable(b, bits):
            raise AssertionError("side evaluated")

        binput = BoundInput.from_graph(path(5))
        for hypothesis in (lambda b: ([], False), lambda b: (["unmet"], True), lambda b: (["unmet"], False)):
            spec = replace(CATALOG["B8"], hypothesis=hypothesis, lhs=unreachable, rhs=unreachable)
            assert bounds.counterexample_report("B8", spec, binput) is None

    def test_exact_verdict_builds_no_interval(self, monkeypatch):
        roots = []
        monkeypatch.setattr(bounds, "sqrt_rval", lambda *args: roots.append(args))
        spec = CATALOG["B6"]
        for n in range(3, 9):
            for g in enumerate_free_trees(n):
                binput = BoundInput.from_graph(g)
                assert refuted("B6", binput) is (not bounds._b6_holds(binput) and not spec.hypothesis(binput)[0])
        assert roots == []

    def test_decides_where_only_the_verdict_separates(self, monkeypatch):
        # As in test_b6_decided_where_intervals_cannot_separate: B6 fails by
        # less than 2^-128, so only its exact verdict refutes it.
        g = 2**130
        binput = BoundInput.from_graph(path(6))
        monkeypatch.setattr(bounds, "_b6_terms", lambda b: (g * g + 1, 1, b.sigma_value - g))
        assert refuted("B6", binput) is True
        monkeypatch.setattr(bounds, "_b6_terms", lambda b: (g * g, 1, b.sigma_value - g))
        assert refuted("B6", binput) is False


# ---------------------------------------------------------------------------
# Printed sides and margins against Fraction formatting

def fraction_printed(value: Fraction, exact: bool):
    """(text, decimal) of a side as ``str`` and ``float`` of a Fraction
    print it; where an inexact side has no float, the text is its value's
    12 significant digits, as ``.12g`` writes them."""
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    if exact:
        return str(value), decimal
    return (f"{decimal:.12g}" if decimal is not None else twelve_digits(value)), decimal


def twelve_digits(value: Fraction) -> str:
    """A value of magnitude 10^12 or more to 12 significant digits, rounded
    half to even from the value itself, with no trailing zeros: d.ddde+N."""
    size = abs(value)
    exponent = len(str(size.numerator // size.denominator)) - 1
    digits = round(size / 10 ** (exponent - 11))
    if digits == 10**12:
        digits, exponent = digits // 10, exponent + 1
    head, tail = str(digits)[0], str(digits)[1:].rstrip("0")
    return f"{'-' if value < 0 else ''}{head}{'.' if tail else ''}{tail}e+{exponent}"


def integer_printed(num: int, den: int, exact: bool):
    """(text, decimal) of a side as the package prints num/den."""
    return bounds._side_text(num, den, exact), bounds._decimal(num, den)


def fraction_margin(relation: str, lhs: Fraction, rhs: Fraction) -> Fraction:
    if relation in ("<=", "<"):
        return rhs - lhs
    if relation in (">=", ">"):
        return lhs - rhs
    return -abs(lhs - rhs)


# Numerators and denominators with a common factor, some beyond float range:
# 2^1024 - 2^970 is where rounding turns from the largest float to overflow,
# and 1/2^1074 is the smallest subnormal.
numerators_st = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from((0, 1, 2**1024 - 2**970, 2**1024 - 2**970 - 1, -(2**1024 - 2**970), 2**1024)),
)
denominators_st = st.one_of(st.integers(1, 10**6), st.integers(1, 2**1100), st.sampled_from((2**1074, 2**1075)))
ratios_st = st.tuples(numerators_st, denominators_st, st.integers(1, 10**4)).map(lambda t: (t[0] * t[2], t[1] * t[2]))


def _printed_inputs():
    """Family, table and sequence inputs under every parameter set; the
    sequences are listed non-increasing, so B15a and B15b meet their
    hypotheses, and in both conventions."""
    for params in ALL_PARAMS:
        for g in (path(2), path(6), star(7), cycle(5), random_tree(12, 3), random_tree(40, 3)):
            yield BoundInput.from_graph(g, params)
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            for row_index in range(len(rows)):
                yield BoundInput.from_table_row(table_id, row_index, params)
        for entries in ((4, 3, 2, 1, 1, 1), (9, 7, 3, 1), (6, 6, 1, 1, 1, 1), (2, 2, 2)):
            for convention in (Convention.STANDARD, Convention.PAPER_TABLE):
                view = DegreeSequenceView(entries, convention)
                yield BoundInput.from_view(view, irr_value=40, sigma_value=300, params=params)


class TestPrintedSides:
    @given(ratios_st, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_side_as_fraction_prints_it(self, ratio, exact):
        num, den = ratio
        assert integer_printed(num, den, exact) == fraction_printed(Fraction(num, den), exact)

    @given(ratios_st, ratios_st, st.sampled_from(sorted(bounds._HOLDS)))
    @settings(max_examples=300, deadline=None)
    def test_margin_as_fraction_subtracts(self, lhs, rhs, relation):
        num, den = bounds._margin(relation, lhs, rhs)
        assert den > 0 and Fraction(num, den) == fraction_margin(relation, Fraction(*lhs), Fraction(*rhs))

    def test_exact_digits_beyond_the_int_to_str_limit(self):
        # 2^20000 has 6,021 digits; str() of it fails under the default limit
        # of 4,300 digits, and under 640 so do the smaller values here.
        cases = [(2**20000, 1), (-(3**1400), 1), (10**700 + 1, 3), (7, 10**650 * 3 + 1), (2**3000 * 6, 2**2500 * 4)]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(Fraction(num, den)) for num, den in cases]
            sys.set_int_max_str_digits(640)
            assert [bounds._side_text(num, den, True) for num, den in cases] == expected
        finally:
            sys.set_int_max_str_digits(limit)

    def test_catalog_sides(self):
        # Every computable entry's sides, decided as reports decide them, print
        # as their Fraction values do; a counterexample's report is its full
        # report's JSON form, and any other pair has none.
        inexact, relations, refuted = set(), set(), 0
        for binput in _printed_inputs():
            for bound_id in BOUND_IDS:
                spec = CATALOG[bound_id]
                if missing_fields(spec, binput):
                    continue
                report = evaluate_bound(bound_id, binput)
                written = bounds.counterexample_report(bound_id, spec, binput)
                if report.hypotheses_met and report.holds is False:
                    assert written == report.to_json_dict(), (bound_id, binput.label)
                    refuted += 1
                else:
                    assert written is None, (bound_id, binput.label)
                if not spec.hypothesis(binput)[1]:
                    continue
                printed = []
                for side in bounds._decide(spec, binput)[:2]:
                    lo, hi, den = side if len(side) == 3 else (side[0], *side)
                    value, exact = Fraction(lo + hi, 2 * den), lo == hi
                    num, den, printed_exact = bounds._printed(side)
                    assert (Fraction(num, den), printed_exact) == (value, exact)
                    assert integer_printed(num, den, exact) == fraction_printed(value, exact), (bound_id, binput.label)
                    printed.append((num, den, value, exact))
                    if not exact:
                        inexact.add(bound_id)
                (ln, ld, lhs, lhs_exact), (rn, rd, rhs, rhs_exact) = printed
                num, den = bounds._margin(spec.relation, (ln, ld), (rn, rd))
                margin = fraction_margin(spec.relation, lhs, rhs)
                assert Fraction(num, den) == margin == report.margin, (bound_id, binput.label)
                exact = lhs_exact and rhs_exact
                assert integer_printed(num, den, exact)[0] == fraction_printed(margin, exact)[0]
                relations.add(spec.relation)
        assert inexact == {"B6", "B15b"} and relations == set(bounds._HOLDS) and refuted > 100


# ---------------------------------------------------------------------------
# Integer decisions against the Fraction reference

ALL_PARAMS = (BoundParams(), *NON_DEFAULT_PARAMS.values())
PARAM_IDS = ("default", *NON_DEFAULT_PARAMS)


def integer_decision(bound_id, binput):
    """(failed hypotheses, computable, holds, refuted) as the package decides."""
    spec = CATALOG[bound_id]
    failed, computable = spec.hypothesis(binput)
    holds = None
    if computable:
        holds = spec.verdict(binput) if spec.verdict is not None else bounds._decide(spec, binput)[2]
    return failed, computable, holds, refuted(bound_id, binput)


def _decisions_agree(binput, bound_ids=BOUND_IDS):
    for bound_id in bound_ids:
        if not missing_fields(CATALOG[bound_id], binput):
            assert integer_decision(bound_id, binput) == fraction_decision(bound_id, binput), (bound_id, binput.label)


def _near_ties(view, irr, sig, params):
    """(entry, input) pairs on which the entry's sides are equal or nearly so:
    the input its left side reads (irr for B1 and B2, sigma otherwise) set to
    the floor and ceiling of the value that balances the Fraction sides, and
    one beyond each; so the cross products are equal or differ by little.
    The third item says whether the Fraction sides are equal."""
    base = BoundInput.from_view(view, irr_value=irr, sigma_value=sig, params=params)
    c = oracles.fraction_ctx(base)
    for bound_id in BOUND_IDS:
        if bound_id in ("B14", "B15a", "B15b") or missing_fields(CATALOG[bound_id], base):
            continue
        if not oracles.fraction_hypothesis(bound_id, base, c)[1]:
            continue
        rhs = oracles.FRACTION_FORMULAS[bound_id][2](c, 64)
        target = rhs.mid if isinstance(rhs, RVal) else Fraction(rhs)
        if bound_id in ("B1a", "B1b"):  # lhs = 2*irr / (D(D-1)^2)
            target *= Fraction(c.max_degree * (c.max_degree - 1) ** 2, 2)
        low, high = math.floor(target), math.ceil(target)
        for value in sorted({low - 1, low, high, high + 1}):
            if bound_id[:2] in ("B1", "B2"):
                binput = BoundInput.from_view(view, irr_value=value, sigma_value=sig, params=params)
            else:
                binput = BoundInput.from_view(view, irr_value=irr, sigma_value=value, params=params)
            yield bound_id, binput, value == target


views_st = st.tuples(
    st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=10),
        st.lists(st.integers(1, 300), min_size=2, max_size=8),
        st.tuples(st.integers(1, 30), st.integers(1, 8)).map(lambda t: [t[0]] * t[1]),
    ),
    st.sampled_from([Convention.STANDARD, Convention.PAPER_TABLE]),
).filter(lambda t: not (t[1] is Convention.PAPER_TABLE and sum(t[0]) == 1))  # m = 0: no default eta


class TestIntegerDecisions:
    """Every entry's hypotheses and verdict, decided on integers, equal the
    same decision over Fractions, on every tree with n <= 10, every table
    row and drawn sequences (unsorted, odd degree sums), under the default
    and six other parameter sets, and at near-ties."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_trees(self, params):
        for n in range(2, 11):
            for g in enumerate_free_trees(n):
                _decisions_agree(BoundInput.from_graph(g, params))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_table_rows(self, params):
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            for row_index in range(len(rows)):
                _decisions_agree(BoundInput.from_table_row(table_id, row_index, params))

    @given(views_st, st.one_of(st.none(), st.integers(-5, 3000)), st.integers(-50, 10**5), st.sampled_from(ALL_PARAMS))
    @settings(max_examples=300, deadline=None)
    def test_sequences(self, view_args, irr, sig, params):
        view = DegreeSequenceView(tuple(view_args[0]), view_args[1])
        _decisions_agree(BoundInput.from_view(view, irr_value=irr, sigma_value=sig, params=params))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_near_ties_on_trees_and_table_rows(self, params):
        ties = Counter()
        bases = [(DegreeSequenceView(tuple(sorted(g.degrees))), albertson(g), sigma(g))
                 for n in range(2, 9) for g in enumerate_free_trees(n)]
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            for row_index in range(len(rows)):
                binput = BoundInput.from_table_row(table_id, row_index)
                bases.append((table_row_view(table_id, row_index)[0], binput.irr_value, binput.sigma_value))
        for view, irr, sig in bases:
            for bound_id, binput, tie in _near_ties(view, irr, sig, params):
                _decisions_agree(binput, (bound_id,))
                ties[bound_id] += tie
        # exact ties happen on every entry whose sides can be equal integers
        assert {"B1b", "B2a", "B2b", "B3", "B8", "B9", "B12"} <= {b for b, count in ties.items() if count}

    @given(views_st, st.integers(0, 3000), st.sampled_from(ALL_PARAMS))
    @settings(max_examples=150, deadline=None)
    def test_near_ties_on_sequences(self, view_args, irr, params):
        view = DegreeSequenceView(tuple(view_args[0]), view_args[1])
        for bound_id, binput, _ in _near_ties(view, irr, 0, params):
            _decisions_agree(binput, (bound_id,))


def _inputs_agree(edges_input: BoundInput, graph_input: BoundInput) -> None:
    assert edges_input.entries == graph_input.entries and edges_input.label == graph_input.label
    assert (edges_input.irr_value, edges_input.sigma_value) == (graph_input.irr_value, graph_input.sigma_value)
    assert sorted(edges_input.edges) == sorted(graph_input.edges)
    assert_record_symbols(edges_input)
    assert_record_symbols(graph_input)
    assert missing_fields(CATALOG["B14"], edges_input) == []
    for bound_id in BOUND_IDS:
        spec = CATALOG[bound_id]
        assert bounds.counterexample_report(bound_id, spec, edges_input) == bounds.counterexample_report(
            bound_id, spec, graph_input
        ), bound_id
        assert evaluate_bound(bound_id, edges_input) == evaluate_bound(bound_id, graph_input), bound_id


# The attributes a record keeps besides the symbols below, and the two it
# builds on first read; nothing else.
_PROVENANCE = {"irr_value", "sigma_value", "params", "label", "edges", "param_notes"}
_ON_FIRST_READ = {"max_adjacent_sum", "max_adjacent_diff"}


def assert_record_symbols(binput: BoundInput, convention: Convention = Convention.STANDARD) -> None:
    """Every symbol of the record equals its recomputation from the entries
    and the convention they were read by, and the record holds no attribute
    beyond them."""
    entries = binput.entries
    k, total = len(entries), sum(entries)
    paper_table = convention is Convention.PAPER_TABLE
    expected = {
        "entries": entries,
        "n": total if paper_table else k,
        "two_m": 2 * (total - 1) if paper_table else total,
        "max_degree": max(entries),
        "k": k,
        "degree_sum": total,
        "cube_sum": sum(d**3 for d in entries),
    }
    resolved, notes = resolve_parameters(binput.params, expected["n"], expected["two_m"], expected["max_degree"])
    expected.update(resolved)
    assert set(vars(binput)) - _ON_FIRST_READ == _PROVENANCE | set(expected), binput.label
    for name, value in expected.items():
        assert getattr(binput, name) == value, (name, binput.label)
    assert binput.param_notes == notes
    if k >= 2:
        assert binput.max_adjacent_sum == max(a + b for a, b in zip(entries, entries[1:]))
        assert binput.max_adjacent_diff == max(b - a for a, b in zip(entries, entries[1:]))


class TestRecord:
    """Each factory's record, symbol by symbol, against the entries."""

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_graph_factories(self, params):
        for g in (path(2), path(6), star(7), cycle(5), random_tree(40, 3)):
            assert_record_symbols(BoundInput.from_graph(g, params))
            assert_record_symbols(BoundInput.from_edges(g.degrees, g.edges, params))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_table_rows(self, params):
        for table_id, rows in ((1, TABLE1), (2, TABLE2)):
            for row_index in range(len(rows)):
                assert_record_symbols(BoundInput.from_table_row(table_id, row_index, params), Convention.PAPER_TABLE)

    @given(views_st, st.sampled_from(ALL_PARAMS))
    @settings(max_examples=100, deadline=None)
    def test_views_in_both_conventions(self, view_args, params):
        entries, convention = view_args
        view = DegreeSequenceView(tuple(entries), convention)
        assert_record_symbols(BoundInput.from_view(view, params=params), convention)


class TestFromEdges:
    """``BoundInput.from_edges`` on a tree's degrees and edges, as falsify
    builds them, is ``from_graph`` on the tree's ``Graph``."""

    def test_every_free_tree_up_to_order_ten(self):
        for n in range(2, 11):
            for levels in free_tree_level_sequences(n):
                _inputs_agree(BoundInput.from_edges(*_tree_of_levels(levels)),
                              BoundInput.from_graph(levels_to_graph(levels)))

    def test_random_trees_of_order_forty(self):
        for seed in range(200):
            degrees, edges, _, _ = prufer_degrees_and_edges(random_prufer_word(40, seed), 40)
            _inputs_agree(BoundInput.from_edges(degrees, edges), BoundInput.from_graph(random_tree(40, seed)))

    @pytest.mark.parametrize("params", NON_DEFAULT_PARAMS.values(), ids=NON_DEFAULT_PARAMS.keys())
    def test_params_and_label_pass_through(self, params):
        degrees, edges, _, _ = prufer_degrees_and_edges(random_prufer_word(12, 5), 12)
        _inputs_agree(BoundInput.from_edges(degrees, edges, params, label="tree"),
                      BoundInput.from_graph(random_tree(12, 5), params, label="tree"))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=PARAM_IDS)
    def test_random_falsify_builds_the_from_edges_input(self, monkeypatch, params):
        # Random mode builds each input from its decode's numbers: no
        # from_edges, no albertson_and_sigma, and one decode per sample.
        from sigmairr import search

        decoded, decided, calls = [], {}, []
        decode, report = search.prufer_degrees_and_edges, bounds.counterexample_report
        monkeypatch.setattr(search, "prufer_degrees_and_edges", lambda *args: decoded.append(decode(*args)) or decoded[-1])
        monkeypatch.setattr(bounds, "counterexample_report",
                            lambda bid, spec, b: decided.setdefault(id(b), b) and report(bid, spec, b))
        monkeypatch.setattr(BoundInput, "from_edges", lambda *args: calls.append("from_edges"))
        monkeypatch.setattr(bounds, "albertson_and_sigma", lambda *args: calls.append("albertson_and_sigma"))
        falsify("all", RandomMode(n=40, samples=30, seed=0), params)
        monkeypatch.undo()
        assert calls == [] and len(decoded) == len(decided) == 30
        for (degrees, edges, _, _), binput in zip(decoded, decided.values()):
            assert binput.params is params and binput.edges is edges
            _inputs_agree(binput, BoundInput.from_edges(degrees, edges, params))

    def test_rejects_what_from_graph_rejects(self):
        for n, degrees, edges, message in (
            (0, [], [], "graph has no vertices"),
            (1, [0], [], "graph has an isolated vertex: vertex 0 has no edge"),
            (3, [1, 1, 0], [(0, 1)], "graph has an isolated vertex: vertex 2 has no edge"),
            (4, [0, 1, 0, 1], [(1, 3)], "graph has an isolated vertex: vertex 0 has no edge"),
        ):
            with pytest.raises(DomainError) as by_edges:
                BoundInput.from_edges(degrees, edges)
            with pytest.raises(DomainError) as by_graph:
                BoundInput.from_graph(Graph(n, edges))
            assert str(by_edges.value) == str(by_graph.value) == message

    def test_entries_are_the_sorted_degrees(self):
        binput = BoundInput.from_graph(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert (binput.entries, binput.n, binput.two_m) == ((1, 1, 1, 3), 4, 6)

    @pytest.mark.parametrize("mode", [ExhaustiveMode(7), RandomMode(n=40, samples=30, seed=0)], ids=repr)
    def test_falsify_builds_no_degree_sequence_view(self, monkeypatch, mode):
        views = []
        post_init = DegreeSequenceView.__post_init__
        monkeypatch.setattr(DegreeSequenceView, "__post_init__", lambda view: views.append(view) or post_init(view))
        assert falsify("all", mode)
        assert views == []
        BoundInput.from_table_row(1, 0)  # the counter sees the one factory that reads a view
        assert len(views) == 1

    def test_label_names_the_order_of_the_degrees(self):
        assert BoundInput.from_edges([1, 1], [(0, 1)]).label == "graph n=2 m=1"
        assert BoundInput.from_edges(*_tree_of_levels((1, 2, 3, 2))).label == "graph n=4 m=3"

    def test_b14_needs_the_graph(self):
        view_only = BoundInput.from_view(DegreeSequenceView((1, 1, 2)), irr_value=2, sigma_value=2)
        paper_table = BoundInput.from_view(DegreeSequenceView((1, 1, 2), Convention.PAPER_TABLE))
        for binput in (view_only, paper_table, BoundInput.from_table_row(1, 0), BoundInput.from_table_row(2, 0)):
            assert missing_fields(CATALOG["B14"], binput) == ["graph"], binput.label
        with_graph = BoundInput.from_graph(path(3))
        assert with_graph.entries == view_only.entries and missing_fields(CATALOG["B14"], with_graph) == []
        assert evaluate_bound("B14", with_graph).holds is True
