from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmairr.errors import DomainError, InputError, ResourceLimitError
from sigmairr.graphs import (
    FAMILY_BUILDERS,
    MAX_FAMILY_EDGES,
    MAX_VERTICES,
    Graph,
    build_family,
    cartesian_product,
    complement,
    complete_bipartite,
    cycle,
    double_star,
    format_edge_list,
    is_connected,
    is_tree,
    monogenic,
    parse_edge_list,
    path,
    star,
)


@st.composite
def graphs_st(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(DomainError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError, match="outside vertex range"):
            Graph(3, [(0, 3)])

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(4, [(0, 1)])


class TestFamilies:
    def test_path(self):
        g = path(5)
        assert g.vertex_count == 5 and g.edge_count == 4
        assert sorted(g.degrees) == [1, 1, 2, 2, 2]

    def test_cycle_regular(self):
        assert cycle(6).degrees == (2,) * 6

    def test_cycle_minimum(self):
        with pytest.raises(DomainError, match="cycle"):
            cycle(2)

    def test_star(self):
        g = star(5)
        assert max(g.degrees) == 4 and min(g.degrees) == 1 and g.edge_count == 4

    def test_double_star(self):
        g = double_star(3, 4)
        assert g.vertex_count == 7
        assert g.degrees[0] == 3 and g.degrees[1] == 4
        assert sorted(g.degrees)[:5] == [1] * 5

    def test_double_star_degenerate_is_single_edge(self):
        assert double_star(1, 1) == Graph(2, [(0, 1)])

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert sorted(g.degrees) == [2, 2, 2, 3, 3]

    def test_monogenic_small(self):
        g = monogenic(4)
        # labels 1..4, edge iff label sum >= 5
        assert g.sorted_edges() == [(0, 3), (1, 2), (1, 3), (2, 3)]
        assert sorted(g.degrees) == [1, 2, 2, 3]
        assert sorted(monogenic(5).degrees) == [1, 2, 2, 3, 4]

    @pytest.mark.parametrize("n", range(3, 61))
    def test_monogenic_degree_multiset(self, n):
        expected = sorted(list(range(1, n)) + [n // 2])
        assert sorted(monogenic(n).degrees) == expected

    def test_build_family_dispatch(self):
        assert build_family("path", 4) == path(4)
        assert build_family("double_star", 2, 3) == double_star(2, 3)
        with pytest.raises(InputError, match="unknown family"):
            build_family("wheel", 5)
        with pytest.raises(InputError, match="parameter"):
            build_family("path", 3, 4)

    @pytest.mark.parametrize("name", FAMILY_BUILDERS)
    def test_size_read_off_the_parameters(self, name):
        # the order and edge count the limits are checked on are the built graph's
        _, arity, edge_count = FAMILY_BUILDERS[name]
        for params in product(range(3, 10), repeat=arity):
            g = build_family(name, *params)
            assert (g.vertex_count, g.edge_count) == (sum(params), edge_count(*params))

    def test_size_limits(self):
        assert build_family("star", MAX_VERTICES).vertex_count == MAX_VERTICES
        assert FAMILY_BUILDERS["monogenic"][2](2000) == MAX_FAMILY_EDGES
        with pytest.raises(ResourceLimitError, match=f"n={MAX_VERTICES + 1} exceeds the vertex limit {MAX_VERTICES}"):
            build_family("double_star", MAX_VERTICES, 1)
        for name, params in (("monogenic", (2001,)), ("complete_bipartite", (1001, 1000))):
            with pytest.raises(ResourceLimitError, match=f"over the family edge limit {MAX_FAMILY_EDGES}"):
                build_family(name, *params)
        with pytest.raises(DomainError, match="a >= 1"):  # the domain, not a limit, is what is wrong
            build_family("complete_bipartite", -1, -10**12)


class TestComplement:
    def test_complete_graph(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert complement(k3).edge_count == 0

    def test_path4(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert complement(p4).sorted_edges() == [(0, 2), (0, 3), (1, 3)]

    @given(graphs_st())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs_st())
    def test_edge_partition(self, g):
        n = g.vertex_count
        assert g.edge_count + complement(g).edge_count == n * (n - 1) // 2


class TestCartesianProduct:
    def test_ladder(self):
        g = cartesian_product(path(3), path(2))
        assert sorted(g.degrees) == [2, 2, 2, 2, 3, 3]

    def test_single_vertex_identity(self):
        h = cycle(4)
        assert cartesian_product(Graph(1), h) == h

    def test_torus_regular(self):
        g = cartesian_product(cycle(3), cycle(3))
        assert g.vertex_count == 9 and set(g.degrees) == {4}

    def test_empty_factor_rejected(self):
        with pytest.raises(DomainError):
            cartesian_product(Graph(0), path(2))

    @given(graphs_st(max_n=5), graphs_st(max_n=5))
    @settings(max_examples=50)
    def test_degree_law(self, g, h):
        prod = cartesian_product(g, h)
        hn = h.vertex_count
        for u in range(g.vertex_count):
            for v in range(hn):
                assert prod.degrees[u * hn + v] == g.degrees[u] + h.degrees[v]


class TestProfileAndPredicates:
    @given(graphs_st())
    def test_handshake(self, g):
        assert sum(g.degrees) == 2 * g.edge_count

    def test_connectivity(self):
        assert is_connected(path(6))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))

    def test_is_tree(self):
        assert is_tree(path(5)) and is_tree(star(7)) and is_tree(Graph(1))
        assert not is_tree(cycle(4))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = double_star(3, 4)
        assert parse_edge_list(format_edge_list(g.vertex_count, g.sorted_edges())) == g

    def test_header_fixes_order(self):
        g = parse_edge_list("# n=5\n0 1\n")
        assert g.vertex_count == 5 and g.edge_count == 1

    def test_no_header_infers_order(self):
        g = parse_edge_list("0 1\n1 4\n")
        assert g.vertex_count == 5

    def test_duplicate_edge_line_number(self):
        with pytest.raises(InputError, match="line 3: duplicate edge 0 1"):
            parse_edge_list("# n=3\n0 1\n1 0\n")

    def test_self_loop_line_number(self):
        with pytest.raises(InputError, match="line 2: self-loop"):
            parse_edge_list("0 1\n2 2\n")

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 1"):
            parse_edge_list("0 1 2\n")
        with pytest.raises(InputError, match="non-integer"):
            parse_edge_list("a b\n")

    def test_vertex_limit(self):
        assert parse_edge_list(f"# n={MAX_VERTICES}\n0 1\n").vertex_count == MAX_VERTICES
        for text in (f"# n={MAX_VERTICES + 1}\n0 1\n", f"0 {MAX_VERTICES}\n"):
            with pytest.raises(ResourceLimitError, match=f"n={MAX_VERTICES + 1} exceeds the vertex limit"):
                parse_edge_list(text)

    def test_edge_beyond_declared_order(self):
        with pytest.raises(InputError, match="exceeds declared"):
            parse_edge_list("# n=2\n0 3\n")
