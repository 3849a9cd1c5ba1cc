import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmairr.errors import DomainError
from sigmairr.graphs import (
    Graph,
    cartesian_product,
    complement,
    complete_bipartite,
    cycle,
    double_star,
    monogenic,
    path,
    star,
)
from sigmairr.indices import (
    albertson,
    albertson_closed_form_len4,
    albertson_monogenic,
    check_albertson_len4_form,
    check_bipartite_sigma_form,
    check_complement_identity,
    check_product_sigma_forms,
    compare_known_forms,
    sigma,
    sigma_closed_form,
    sigma_double_star,
    sigma_t,
    zagreb_m1,
)
from sigmairr.sequences import Convention, DegreeSequenceView


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(rng, max_n=12):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph(n, edges)


class TestDirectIndices:
    def test_albertson_examples(self):
        assert albertson(path(4)) == 2
        assert albertson(star(5)) == 12
        assert albertson(cycle(7)) == 0

    def test_sigma_examples(self):
        assert all(sigma(path(n)) == 2 for n in range(3, 51))
        assert all(sigma(cycle(n)) == 0 for n in range(3, 51))
        assert sigma(complete_bipartite(2, 3)) == 6

    def test_sigma_t_examples(self):
        assert sigma_t(path(3)) == 2
        assert sigma_t(cycle(5)) == 0
        assert sigma_t(star(4)) == 12

    def test_zagreb_examples(self):
        assert zagreb_m1(path(3)) == 6
        assert zagreb_m1(path(4)) == 10
        assert all(zagreb_m1(cycle(n)) == 4 * n for n in range(3, 12))

    def test_sigma_dominates_albertson_exhaustive(self):
        for g in all_graphs(4):
            s, a = sigma(g), albertson(g)
            assert s >= a
            diffs = {abs(g.degrees[u] - g.degrees[v]) for u, v in g.edges}
            assert (s == a) == diffs.issubset({0, 1})

    def test_sigma_t_is_the_pairwise_sum(self):
        rng = random.Random(11)
        graphs = [*all_graphs(5), *(random_graph(rng) for _ in range(100))]
        for g in graphs:
            degs = g.degrees
            assert sigma_t(g) == sum((a - b) ** 2 for a, b in combinations(degs, 2))

    def test_sigma_t_pair_identity_exhaustive(self):
        # total irregularity over pairs equals n*M1 - 4m^2 for every graph
        for g in all_graphs(4):
            n, m = g.vertex_count, g.edge_count
            assert sigma_t(g) == n * zagreb_m1(g) - 4 * m * m


class TestComplementIdentity:
    def test_path4(self):
        g = path(4)
        assert sigma(g) + sigma(complement(g)) == 4 == 4 * zagreb_m1(g) - 4 * 9

    def test_seeded_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(250):
            g = random_graph(rng)
            assert check_complement_identity(g).agree


class TestClosedForms:
    def test_sigma_closed_form_tables(self):
        from sigmairr.stats_tables import TABLE1, TABLE2

        for row in TABLE1:
            view = DegreeSequenceView(row.entries, Convention.PAPER_TABLE)
            assert sigma_closed_form(view) == row.sigma
        for row in TABLE2:
            view = DegreeSequenceView(row.entries, Convention.PAPER_TABLE)
            assert sigma_closed_form(view) == row.sigma

    def test_sigma_closed_form_differs_from_direct_on_star(self):
        view = DegreeSequenceView((1, 1, 1, 3), Convention.STANDARD)
        assert sigma_closed_form(view) == 26
        from sigmairr.sequences import realize_tree

        assert sigma(realize_tree((1, 1, 1, 3))) == 12

    def test_sigma_closed_form_needs_two_entries(self):
        with pytest.raises(DomainError):
            sigma_closed_form(DegreeSequenceView((3,)))

    def test_len4_closed_form(self):
        assert albertson_closed_form_len4((1, 1, 1, 3)) == 10
        assert albertson_closed_form_len4((1, 2, 2, 3)) == 18
        assert albertson_closed_form_len4((2, 2, 2, 2)) == 14
        with pytest.raises(DomainError):
            albertson_closed_form_len4((1, 2, 3))

    def test_len4_check_reports_disagreement(self):
        # the four-entry formula does not match realized trees
        check = check_albertson_len4_form((1, 1, 1, 3))
        assert check.claimed == 10 and check.actual == 6 and not check.agree
        assert "truncated" in check.note

    @pytest.mark.parametrize("n", range(3, 31))
    def test_monogenic_closed_form(self, n):
        assert albertson_monogenic(n) == albertson(monogenic(n))

    def test_monogenic_even_branch(self):
        assert albertson_monogenic(6) == 16

    def test_monogenic_minimum(self):
        with pytest.raises(DomainError):
            albertson_monogenic(2)

    @pytest.mark.parametrize("r,k", [(2, 2), (3, 4), (1, 5), (7, 7), (2, 10)])
    def test_double_star_closed_form(self, r, k):
        assert sigma_double_star(r, k) == sigma(double_star(r, k))

    def test_double_star_symmetric(self):
        assert all(sigma_double_star(k, k) == 2 * (k - 1) ** 3 for k in range(1, 12))


class TestProductRule:
    def test_published_form_fails_on_ladder(self):
        printed, swapped = check_product_sigma_forms(path(3), path(2))
        assert printed.claimed == 6 and printed.actual == 4 and not printed.agree
        assert swapped.claimed == 4 and swapped.agree

    @given(st.integers(2, 6), st.integers(3, 6))
    @settings(max_examples=30)
    def test_swapped_form_on_families(self, a, b):
        for g, h in [(path(a), cycle(b)), (star(a), path(b)), (cycle(b), star(a))]:
            assert sigma(cartesian_product(g, h)) == (
                h.vertex_count * sigma(g) + g.vertex_count * sigma(h)
            )

    def test_swapped_form_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            g, h = random_graph(rng, 6), random_graph(rng, 6)
            if g.vertex_count and h.vertex_count:
                assert sigma(cartesian_product(g, h)) == (
                    h.vertex_count * sigma(g) + g.vertex_count * sigma(h)
                )


class TestKnownFormBattery:
    def test_bipartite_claim_disagrees(self):
        check = check_bipartite_sigma_form(2, 3)
        assert check.claimed == 3 and check.actual == 6 and not check.agree

    def test_battery_flags(self):
        by_id = {c.claim_id: c for c in compare_known_forms()}
        assert not by_id["bipartite_sigma"].agree
        assert not by_id["product_sigma_as_printed"].agree
        assert by_id["product_sigma_swapped"].agree
        assert by_id["complement_zagreb_identity"].agree
        assert by_id["path_sigma_constant"].agree
        assert by_id["cycle_sigma_zero"].agree
        assert by_id["double_star_sigma"].agree
        assert by_id["monogenic_albertson"].agree
