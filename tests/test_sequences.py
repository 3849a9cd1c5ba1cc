import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    derived_summaries_by_summation,
    is_graphical_by_prefixes,
    prufer_decode,
    prufer_decode_heap,
    randrange_word,
    realize_graph_hakimi_by_sorting,
)
from sigmairr.errors import DomainError, InputError
from sigmairr.graphs import Graph, is_tree
from sigmairr.sequences import (
    Convention,
    DegreeSequenceView,
    derive,
    is_graphical,
    is_tree_sequence,
    parse_sequence_literal,
    prufer_degrees_and_edges,
    random_prufer_word,
    random_tree,
    realize_graph_hakimi,
    realize_tree,
)

entries_st = st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=12).map(tuple)


def havel_hakimi_succeeds(entries) -> bool:
    """Independent greedy feasibility check (no package code)."""
    seq = sorted(entries, reverse=True)
    if any(d < 0 for d in seq):
        return False
    while seq and seq[0] > 0:
        d = seq.pop(0)
        if d > len(seq):
            return False
        for i in range(d):
            seq[i] -= 1
            if seq[i] < 0:
                return False
        seq.sort(reverse=True)
    return True


def partitions(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


class TestView:
    def test_standard_reading(self):
        v = DegreeSequenceView((1, 1, 2, 2), Convention.STANDARD)
        assert v.n == 4 and v.m == 3 and v.k == 4
        assert v.max_entry == 2 and v.min_entry == 1
        assert v.mean_entry == Fraction(3, 2)

    def test_paper_table_reading(self):
        v = DegreeSequenceView((3, 6, 8, 10, 14, 16, 20), Convention.PAPER_TABLE)
        assert v.n == 77 and v.m == 76
        assert v.mean_entry == Fraction(11)

    def test_order_preserved(self):
        v = DegreeSequenceView((3, 1, 2))
        assert v.entries == (3, 1, 2)

    @pytest.mark.parametrize("build", [
        lambda: DegreeSequenceView((3, 5, 7), "paper-table"),
        lambda: DegreeSequenceView((3, 5, 7))._replace(convention="paper-table"),
    ])
    def test_convention_string_is_read_as_its_member(self, build):
        v = build()
        assert v.n == 15 and v.two_m == 28 and v.convention is Convention.PAPER_TABLE

    def test_rejects_unknown_convention(self):
        for build in (lambda: DegreeSequenceView((1, 1), "nonsense"),
                      lambda: DegreeSequenceView((1, 1))._replace(convention="nonsense")):
            with pytest.raises(DomainError, match="'standard', 'paper-table'"):
                build()

    def test_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            DegreeSequenceView(())
        with pytest.raises(DomainError):
            DegreeSequenceView((1, 0, 2))

    def test_max_entry_in_any_order(self):
        assert DegreeSequenceView((1, 3, 1, 1)).max_entry == 3


# The oracle's first and last terms, as read off the derived sequences.
_SUMMARY_READS = {
    "first_half_diff": lambda d: d.half_diffs[0],
    "last_half_diff": lambda d: d.half_diffs[-1],
    "first_half_sum": lambda d: d.half_sums[0],
    "last_half_sum": lambda d: d.half_sums[-1],
}


class TestDerived:
    def test_half_sequences(self):
        d = derive(DegreeSequenceView((1, 1, 2, 3)))
        assert d.half_diffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
        assert d.half_sums == (Fraction(1), Fraction(3, 2), Fraction(5, 2))

    def test_printed_row_order(self):
        d = derive(DegreeSequenceView((3, 5, 7, 5, 6, 8, 10), Convention.PAPER_TABLE))
        assert d.half_diffs[-1] == 1 and d.half_sums[-1] == 9
        # unsorted rows produce negative half-differences
        assert min(d.half_diffs) == Fraction(-1)

    def test_regular(self):
        d = derive(DegreeSequenceView((4, 4, 4)))
        assert set(d.half_diffs) == {Fraction(0)} and set(d.half_sums) == {Fraction(4)}

    def test_needs_two_entries(self):
        with pytest.raises(DomainError):
            derive(DegreeSequenceView((2,)))

    @given(entries_st)
    def test_reconstruction_identity(self, entries):
        d = derive(DegreeSequenceView(entries))
        for i, (t, a) in enumerate(zip(d.half_diffs, d.half_sums)):
            assert a + t == entries[i + 1] and a - t == entries[i]

    def test_sorted_implies_monotone(self):
        d = derive(DegreeSequenceView((1, 2, 2, 5, 9)))
        assert all(t >= 0 for t in d.half_diffs)
        assert d.max_half_sum == d.half_sums[-1]

    @given(entries_st)
    def test_summaries_match_term_by_term_sums(self, entries):
        d = derive(DegreeSequenceView(entries))
        for name, expected in derived_summaries_by_summation(entries).items():
            got = _SUMMARY_READS[name](d) if name in _SUMMARY_READS else getattr(d, name)
            assert got == expected, name
            values = got if isinstance(got, tuple) else (got,)
            assert all(type(v) is Fraction for v in values), name

    def test_record_holds_six_plain_fields(self):
        d = derive(DegreeSequenceView((5, 1, 3)))
        assert d._fields == (
            "half_diffs", "half_sums", "max_half_diff", "max_half_sum", "mean_half_diff", "mean_half_sum",
        )
        assert d == ((-2, 1), (3, 2), 1, 3, Fraction(-1, 2), Fraction(5, 2))


class TestRealizability:
    @pytest.mark.parametrize(
        "entries,graphical,tree",
        [
            ((3, 3, 3, 3), True, False),
            ((3, 1, 1, 1), True, True),
            ((2, 2, 2), True, False),
            ((1, 1, 2, 2), True, True),
            ((5, 1), False, False),
            ((1,), False, False),
        ],
    )
    def test_examples(self, entries, graphical, tree):
        assert is_graphical(entries) is graphical
        assert is_tree_sequence(entries) is tree

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            is_graphical(())
        with pytest.raises(InputError):
            is_tree_sequence(())

    @given(st.one_of(
        st.lists(st.integers(-2, 12), min_size=1, max_size=14),
        st.lists(st.integers(0, 60), min_size=1, max_size=60),
        st.tuples(st.integers(0, 40), st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
    ))
    @settings(max_examples=400, deadline=None)
    def test_matches_prefix_by_prefix_reference(self, entries):
        assert is_graphical(entries) is is_graphical_by_prefixes(entries)

    def test_twenty_thousand_entries_in_under_a_second(self):
        cycle_like = [2] * 20_000
        mixed = [1 + i % 150 for i in range(20_000)]  # even sum, max 150
        start = time.perf_counter()
        assert is_graphical(cycle_like) and is_graphical(mixed)
        assert time.perf_counter() - start < 1.0

    def test_erdos_gallai_vs_havel_hakimi_all_partitions_to_24(self):
        for total in range(1, 25):
            for part in partitions(total):
                expected = total % 2 == 0 and havel_hakimi_succeeds(part)
                assert is_graphical(part) is expected, part

    def test_realization_matches_test(self):
        for total in range(2, 17, 2):
            for part in partitions(total):
                if is_graphical(part):
                    g = realize_graph_hakimi(part)
                    assert sorted(g.degrees) == sorted(part)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=25))
    def test_realization_matches_sorting_reference(self, entries):
        if not is_graphical(entries):
            with pytest.raises(DomainError, match="not graphical"):
                realize_graph_hakimi(entries)
            return
        assert realize_graph_hakimi(entries) == realize_graph_hakimi_by_sorting(entries)

    def test_realization_of_all_partitions_matches_sorting_reference(self):
        for total in range(2, 21, 2):
            for part in partitions(total):
                if is_graphical(part):
                    for entries in (part, part[::-1]):
                        assert realize_graph_hakimi(entries) == realize_graph_hakimi_by_sorting(entries), entries

    def test_six_thousand_entries_in_under_a_second(self):
        start = time.perf_counter()
        cycle_like = realize_graph_hakimi([2] * 6_000)
        mixed = realize_graph_hakimi([1 + i % 40 for i in range(6_000)])  # even sum, max 40
        assert time.perf_counter() - start < 1.0
        assert cycle_like.degrees == (2,) * 6_000 and mixed.degrees == tuple(1 + i % 40 for i in range(6_000))


class TestRealizeTree:
    def test_forced_small(self):
        assert sorted(realize_tree((1, 1, 1, 3)).degrees) == [1, 1, 1, 3]
        assert sorted(realize_tree((1, 1, 2, 2)).degrees) == [1, 1, 2, 2]
        assert realize_tree((1, 1)) == Graph(2, [(0, 1)])

    def test_caterpillar_spine(self):
        g = realize_tree((1, 1, 1, 1, 2, 2, 2, 3, 3))
        assert is_tree(g)
        assert sorted(g.degrees) == [1, 1, 1, 1, 2, 2, 2, 3, 3]
        assert [g.degrees[i] for i in range(5)] == [2, 2, 2, 3, 3]

    def test_rejects_non_tree_sequence(self):
        with pytest.raises(DomainError, match="tree sequence"):
            realize_tree((2, 2, 2))

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7))
    def test_multiset_preserved(self, parents):
        # degrees of a random parent-array tree form a valid tree sequence
        n = len(parents) + 1
        degs = [0] * n
        for i, p in enumerate(parents):
            parent = p % (i + 1)
            degs[parent] += 1
            degs[i + 1] += 1
        assert is_tree_sequence(degs)
        g = realize_tree(degs)
        assert is_tree(g) and sorted(g.degrees) == sorted(degs)


class TestRandomTree:
    def test_tiny_orders(self):
        assert random_tree(1, 0) == Graph(1)
        assert random_tree(2, 0) == Graph(2, [(0, 1)])
        assert sorted(random_tree(3, 123).degrees) == [1, 1, 2]

    def test_deterministic(self):
        assert random_tree(8, 42) == random_tree(8, 42)

    def test_word_is_the_randrange_stream(self):
        # every n = 2^k - 1, 2^k and 2^k + 1 up to 129, where the bit width
        # and the rejection rate of the draw change
        for n in range(1, 131):
            for seed in range(50):
                assert random_prufer_word(n, seed) == randrange_word(n, seed), (n, seed)

    @given(st.integers(1, 2000), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_word_is_the_randrange_stream_at_large(self, n, seed):
        assert random_prufer_word(n, seed) == randrange_word(n, seed)

    def test_random_tree_decodes_the_randrange_word(self):
        for n in (2, 3, 4, 5, 8, 9, 17, 40, 64, 65):
            for seed in range(20):
                expected = Graph(n, prufer_decode_heap(randrange_word(n, seed), n))
                assert random_tree(n, seed) == expected, (n, seed)

    def test_degrees_are_symbol_counts_plus_one(self):
        for n in (2, 3, 7, 40):
            for seed in range(20):
                word = random_prufer_word(n, seed)
                degrees, edges, _, _ = prufer_degrees_and_edges(word, n)
                g = Graph(n, edges)
                assert len(edges) == n - 1 and all(u < v for u, v in edges)
                assert degrees == list(g.degrees) == [1 + word.count(v) for v in range(n)]

    def test_decode_scores_match_the_textbook_oracle(self):
        # every word for n <= 7, then 200 random words each for n = 8, 40 and 200;
        # irr and sigma are summed here over the oracle's edges and degree counts
        words = [(word, n) for n in range(2, 8) for word in product(range(n), repeat=n - 2)]
        assert len(words) == 1 + 3 + 16 + 125 + 1296 + 16807
        words += [(random_prufer_word(n, seed), n) for n in (8, 40, 200) for seed in range(200)]
        for word, n in words:
            expected = prufer_decode(tuple(word), n)
            counts = [0] * n
            for u, v in expected:
                counts[u] += 1
                counts[v] += 1
            gaps = [abs(counts[u] - counts[v]) for u, v in expected]
            degrees, edges, irr, sig = prufer_degrees_and_edges(word, n)
            assert degrees == counts and sorted(edges) == sorted(expected), (word, n)
            assert (irr, sig) == (sum(gaps), sum(g * g for g in gaps)), (word, n)

    def test_decode_validation(self):
        for word, n in (((), 1), ((0,), 2), ((0, 1), 3), ((3,), 3), ((-1,), 3)):
            with pytest.raises(DomainError):
                prufer_degrees_and_edges(word, n)
        with pytest.raises(DomainError):
            random_tree(0, 0)

    def test_always_tree(self):
        for seed in range(25):
            assert is_tree(random_tree(11, seed))

    def test_prufer_decode_is_bijective_n6(self):
        seen = set()
        for word in product(range(6), repeat=4):
            g = Graph(6, prufer_degrees_and_edges(word, 6)[1])
            assert is_tree(g)
            seen.add(g.edges)
        assert len(seen) == 6**4  # Cayley: every labeled tree exactly once

    def test_prufer_decode_matches_textbook_oracle(self):
        for word in product(range(5), repeat=3):
            ours = sorted(prufer_degrees_and_edges(word, 5)[1])
            assert ours == sorted(prufer_decode(word, 5)) == sorted(prufer_decode_heap(word, 5)), word


class TestLiteral:
    def test_parse(self):
        assert parse_sequence_literal("3,5,7") == (3, 5, 7)
        assert parse_sequence_literal(" 1 , 2 ") == (1, 2)

    def test_errors(self):
        with pytest.raises(InputError):
            parse_sequence_literal("")
        with pytest.raises(InputError):
            parse_sequence_literal("1,x")
