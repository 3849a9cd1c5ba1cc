import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import sigmairr
from oracles import (
    NON_DEFAULT_PARAMS,
    extremal_by_graphs,
    falsify_by_reports,
    free_tree_counts_otter,
    free_tree_level_sequences_by_filter,
    greedy_min_sigma,
    rooted_level_sequences_by_list,
    tree_degree_multisets,
)
from sigmairr import records
from sigmairr.bounds import BOUND_IDS, BoundParams, BoundReport
from sigmairr.errors import DomainError, InputError, ResourceLimitError
from sigmairr.graphs import Graph, cycle, is_tree, path, star
from sigmairr.indices import albertson, albertson_and_sigma, sigma
from sigmairr.search import (
    ExhaustiveMode,
    RandomMode,
    TreeClass,
    canonical_form,
    enumerate_free_trees,
    extremal,
    extremal_goals,
    falsify,
    free_tree_level_sequences,
    levels_to_graph,
    rooted_level_sequences,
    tree_centers,
    _block,
    _canonical_rooted_levels,
    _degree_counts,
    _join,
    _tree_of_levels,
)
from sigmairr.sequences import random_tree


class TestRootedStream:
    def test_small_counts(self):
        # rooted trees on n vertices: 1, 1, 2, 4, 9, 20, 48, 115
        got = [sum(1 for _ in rooted_level_sequences(n)) for n in range(1, 9)]
        assert got == [1, 1, 2, 4, 9, 20, 48, 115]

    def test_stream_is_canonical(self):
        # every emitted sequence equals the canonical re-encoding of its tree;
        # this pins the tie-break re-encoder to the stream's canonical form
        for n in range(1, 9):
            for levels in rooted_level_sequences(n):
                g = levels_to_graph(levels)
                assert _canonical_rooted_levels(g.adjacency(), 0) == levels

    def test_first_and_last(self):
        seqs = list(rooted_level_sequences(5))
        assert seqs[0] == (1, 2, 3, 4, 5)  # path
        assert seqs[-1] == (1, 2, 2, 2, 2)  # star

    def test_matches_list_step(self):
        for n in range(1, 13):
            assert list(rooted_level_sequences(n)) == list(rooted_level_sequences_by_list(n)), n


class TestFreeTreeStream:
    def test_counts_match_arithmetic_oracle(self):
        expected = free_tree_counts_otter(17)
        for n in range(1, 18):
            got = sum(1 for _ in free_tree_level_sequences(n))
            assert got == expected[n - 1], n

    def test_matches_reference_filter(self):
        # the skips over runs that cannot be centre-rooted keep every
        # sequence of the filtered rooted walk, in the same order
        for n in range(1, 16):
            stream = [tuple(levels) for levels, _ in free_tree_level_sequences(n)]
            assert stream == list(free_tree_level_sequences_by_filter(n)), n

    def test_first_sequences_over_the_default_cap(self):
        deep = tuple(range(1, 11))
        assert next(free_tree_level_sequences(18))[0] == bytes((*deep, *range(2, 10)))
        assert next(free_tree_level_sequences(19))[0] == bytes((*deep, 10, *range(2, 10)))
        assert next(free_tree_level_sequences(255))[0] == bytes((*range(1, 129), 128, *range(2, 128)))

    def test_center_test_at_the_smallest_orders(self):
        # n = 1 is kept; K2's empty rest reads as depth 1, so it is bicentral
        # and its two center rootings are the same; P3's root has a leaf on
        # each side (gap 0).  Each element is (level bytes, (degree counts,
        # Albertson, Sigma)), the counts a byte per degree.
        assert list(free_tree_level_sequences(1)) == [(b"\x01", (1, 0, 0))]
        assert list(free_tree_level_sequences(2)) == [(b"\x01\x02", (2 << 8, 0, 0))]
        assert list(free_tree_level_sequences(3)) == [(b"\x01\x02\x02", ((1 << 16) + (2 << 8), 2, 2))]

    # Count and sha256 of the stream, each sequence one byte a level: a faster
    # walk must keep every tree and their order.
    @pytest.mark.parametrize("n, count, digest", [
        (16, 19320, "a240e5316cc584ffa61227b7b96505865c680aab6c56a9dc6e2774d94f0eef52"),
        (17, 48629, "fa14deb566d58ce1f15c833b75dba53b28ae2383492bca265ba6dfd0f2ceaa1d"),
        (18, 123867, "86ae6e7b9733bff36afbf0394f0a8a4959740a4d84627a3047fb37752cb924eb"),
    ], ids=["n16", "n17", "n18"])
    def test_pinned_stream(self, n, count, digest):
        stream = [levels for levels, _ in free_tree_level_sequences(n)]
        assert len(stream) == count
        assert hashlib.sha256(b"".join(stream)).hexdigest() == digest

    # Count and sha256 of the scored stream: each tree's level bytes, then
    # its degree counts, Albertson and Sigma as b"%d %d %d\n".
    @pytest.mark.parametrize("n, count, digest", [
        (15, 7741, "f605af4868c4694311ac49c5ad2ed17987077ec83616c2e9432e0f7692796cf1"),
        (16, 19320, "74ddbc151b4717aee9b05be7007e4a599c4c3f45869847a221af71dadac19620"),
    ], ids=["n15", "n16"])
    def test_pinned_scored_stream(self, n, count, digest):
        h = hashlib.sha256()
        for levels, signature in free_tree_level_sequences(n):
            assert type(levels) is bytes
            h.update(levels + b"%d %d %d\n" % signature)
            count -= 1
        assert (count, h.hexdigest()) == (0, digest)

    def test_order_limit(self):
        for walk in (free_tree_level_sequences, rooted_level_sequences):
            with pytest.raises(ResourceLimitError, match="255"):
                next(walk(256))
        with pytest.raises(ResourceLimitError, match="255"):
            next(enumerate_free_trees(256, allow_over_cap=True))
        # A class checks its order before it builds its count range, here a
        # 256^(10^30) that Python would refuse with an OverflowError.
        huge = 10**30
        for make in (TreeClass.all_trees, lambda n: TreeClass.with_max_degree(n, 3)):
            with pytest.raises(ResourceLimitError, match="255"):
                make(huge)
        with pytest.raises(ResourceLimitError, match="255"):
            TreeClass.with_degree_multiset([1] * 255 + [255])

    def test_all_trees_and_distinct(self):
        for n in range(1, 11):
            encodings = set()
            for g in enumerate_free_trees(n):
                assert is_tree(g) and g.vertex_count == n
                enc = canonical_form(g)
                assert enc not in encodings
                encodings.add(enc)

    def test_stream_elements_are_canonical_forms(self):
        for n in range(2, 14):
            for levels, _ in free_tree_level_sequences(n):
                assert canonical_form(levels_to_graph(levels)) == tuple(levels)

    def test_n4(self):
        trees = list(enumerate_free_trees(4))
        assert len(trees) == 2
        assert {tuple(sorted(t.degrees)) for t in trees} == {(1, 1, 2, 2), (1, 1, 1, 3)}

    def test_cap(self, monkeypatch):
        import sigmairr.search as search_module

        gen = enumerate_free_trees(19)
        with pytest.raises(ResourceLimitError, match="cap.*--allow-over-cap"):
            next(gen)
        assert next(enumerate_free_trees(19, allow_over_cap=True)) is not None
        monkeypatch.setattr(search_module, "DEFAULT_TREE_CAP", 20)
        assert next(enumerate_free_trees(19)) is not None

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            next(enumerate_free_trees(0))
        with pytest.raises(DomainError):
            next(free_tree_level_sequences(0))


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(2, 12)
            t = random_tree(n, trial)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Graph(n, [(perm[u], perm[v]) for u, v in t.edges])
            assert canonical_form(t) == canonical_form(relabeled)

    def test_distinguishes_non_isomorphic(self):
        assert canonical_form(path(4)) != canonical_form(star(4))

    def test_single_vertex(self):
        assert canonical_form(Graph(1)) == (1,)

    def test_rejects_non_tree(self):
        with pytest.raises(DomainError):
            canonical_form(cycle(4))

    def test_centers_match_eccentricity_oracle(self):
        from oracles import centers_by_eccentricity

        rng = random.Random(5)
        for trial in range(40):
            n = rng.randint(1, 12)
            t = random_tree(n, 1000 + trial)
            ours = list(tree_centers(t))
            oracle = centers_by_eccentricity(t.sorted_edges(), n)
            assert ours == sorted(oracle)

    def test_diameter_centers_match_eccentricity_oracle(self):
        from oracles import _adjacency, all_labeled_trees_prufer, centers_by_diameter, centers_by_eccentricity

        for n in range(1, 8):
            for edges in all_labeled_trees_prufer(n):
                assert centers_by_diameter(_adjacency(edges, n)) == centers_by_eccentricity(edges, n)


ALL_GOALS = (("sigma", "max"), ("sigma", "min"), ("albertson", "max"), ("albertson", "min"))


def _classes_of_order(n: int):
    """Every all-trees, max-degree and degree-multiset class of order n, with
    the degree predicate that admits its members."""
    classes = [(TreeClass.all_trees(n), lambda degrees: True)]
    for delta in range(1, n):  # the tree of order 1 has no max-degree class
        classes.append((TreeClass.with_max_degree(n, delta), lambda degrees, d=delta: max(degrees) == d))
    for multiset in tree_degree_multisets(n) if n >= 2 else ():
        classes.append(
            (TreeClass.with_degree_multiset(multiset), lambda degrees, m=multiset: tuple(sorted(degrees)) == m)
        )
    return classes


class TestExtremal:
    def test_all_trees_5(self):
        best = extremal(TreeClass.all_trees(5), "sigma", "max")
        assert best.optimum == 36 and sorted(best.witness.degrees) == [1, 1, 1, 1, 4]
        assert best.trees_examined == 3
        worst = extremal(TreeClass.all_trees(5), "sigma", "min")
        assert worst.optimum == 2 and sorted(worst.witness.degrees) == [1, 1, 2, 2, 2]

    def test_star_path_laws(self):
        for n in range(4, 11):
            assert extremal(TreeClass.all_trees(n), "sigma", "max").optimum == (n - 1) * (n - 2) ** 2
            assert extremal(TreeClass.all_trees(n), "sigma", "min").optimum == 2

    def test_degree_multiset_class(self):
        result = extremal(TreeClass.with_degree_multiset((1, 1, 1, 1, 2, 3, 3)), "sigma", "max")
        assert result.trees_examined == 2
        assert sorted(result.witness.degrees) == [1, 1, 1, 1, 2, 3, 3]
        assert result.optimum == max(
            sigma(g)
            for g in enumerate_free_trees(7)
            if sorted(g.degrees) == [1, 1, 1, 1, 2, 3, 3]
        )

    def test_max_degree_class(self):
        result = extremal(TreeClass.with_max_degree(6, 3), "albertson", "min")
        assert max(result.witness.degrees) == 3
        assert result.optimum == min(
            albertson(g) for g in enumerate_free_trees(6) if max(g.degrees) == 3
        )

    def test_empty_class(self):
        with pytest.raises(DomainError, match="empty class"):
            extremal(TreeClass.with_max_degree(3, 1), "sigma", "max")

    def test_max_degree_impossible_at_order_one(self):
        # The one tree of order 1 has maximum degree 0, which no class admits.
        for delta in (0, 1, 2):
            with pytest.raises(DomainError, match=f"max degree {delta} impossible for trees of order 1"):
                TreeClass.with_max_degree(1, delta)
        assert TreeClass.with_max_degree(2, 1).low == 1 << 8

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            extremal(TreeClass.all_trees(4), "wiener", "max")
        with pytest.raises(InputError):
            extremal(TreeClass.all_trees(4), "sigma", "upward")
        with pytest.raises(DomainError):
            TreeClass.with_degree_multiset((2, 2, 2))

    @pytest.mark.parametrize("objective", ["sigma", "albertson"])
    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_matches_graph_reference(self, objective, direction):
        # All four goals in one walk, starting with the parametrized one, so
        # the four runs cover four goal orders; the single-goal wrapper must
        # give the same result as the first goal.
        first = ALL_GOALS.index((objective, direction))
        goals = ALL_GOALS[first:] + ALL_GOALS[:first]
        for n in range(1, 13):
            for tree_class, admitted in _classes_of_order(n):
                try:
                    expected = extremal_by_graphs(n, admitted, goals)
                except DomainError:
                    with pytest.raises(DomainError, match="empty class"):
                        extremal_goals(tree_class, goals)
                    with pytest.raises(DomainError, match="empty class"):
                        extremal(tree_class, objective, direction)
                    continue
                results = extremal_goals(tree_class, goals)
                got = [
                    (r.optimum, r.witness.sorted_edges(), r.witness_encoding, r.trees_examined) for r in results
                ]
                assert got == expected, tree_class
                assert [(r.objective, r.direction) for r in results] == list(goals)
                assert extremal(tree_class, objective, direction) == results[0]

    def test_goals_keep_their_order_and_repeats(self):
        tree_class = TreeClass.all_trees(8)
        goals = [("sigma", "max"), ("albertson", "min"), ("sigma", "max"), ("sigma", "min"), ("albertson", "min")]
        results = extremal_goals(tree_class, iter(goals))
        assert isinstance(results, tuple) and len(results) == 5
        assert results == tuple(extremal(tree_class, *goal) for goal in goals)
        assert results[0] == results[2] and results[1] == results[4]
        # one witness Graph per distinct witness sequence
        witnesses = {r.witness_encoding: r.witness for r in results}
        assert all(r.witness is witnesses[r.witness_encoding] for r in results)
        assert results[1].witness is results[3].witness  # the path attains both minima

    def test_single_goal(self):
        tree_class = TreeClass.with_max_degree(9, 4)
        (result,) = extremal_goals(tree_class, [("albertson", "max")])
        assert result == extremal(tree_class, "albertson", "max")
        assert result.to_json_dict() == extremal(tree_class, "albertson", "max").to_json_dict()

    def test_goal_validation(self):
        tree_class = TreeClass.all_trees(5)
        with pytest.raises(InputError, match="at least one"):
            extremal_goals(tree_class, [])
        with pytest.raises(InputError, match="objective"):
            extremal_goals(tree_class, [("sigma", "max"), ("wiener", "max")])
        with pytest.raises(InputError, match="direction"):
            extremal_goals(tree_class, [("albertson", "min"), ("sigma", "upward")])
        with pytest.raises(DomainError, match="empty class"):
            extremal_goals(TreeClass.with_max_degree(3, 1), ALL_GOALS)
        with pytest.raises(ResourceLimitError, match="cap"):
            extremal_goals(TreeClass.all_trees(19), ALL_GOALS)

    def test_min_sigma_matches_greedy_tree(self):
        # 271 degree multisets with 3 <= n <= 14: the greedy tree's Sigma is
        # the exhaustive minimum over the class
        checked = 0
        for n in range(3, 15):
            for multiset in tree_degree_multisets(n):
                (result,) = extremal_goals(TreeClass.with_degree_multiset(multiset), [("sigma", "min")])
                assert result.optimum == greedy_min_sigma(multiset), multiset
                checked += 1
        assert checked == 271

    def test_witness_rescore_catches_a_wrong_table_score(self, monkeypatch):
        # A leaf scored with a Sigma of 1 below it makes the star's Sigma 40,
        # not 36; the re-score on the witness Graph must refuse it.
        import sigmairr.search as search_module

        monkeypatch.setattr(search_module, "_BLOCKS", {b"": (1, 0, 1, 256)})
        with pytest.raises(AssertionError, match="sigma 40"):
            extremal(TreeClass.all_trees(5), "sigma", "max")

    def test_witness_rescore_survives_optimisation(self):
        # The same check, and falsify's check of its memo key, under
        # ``python -O``, which strips assert statements.
        code = (
            "import sigmairr.search as s\n"
            "s._BLOCKS[b''] = (1, 0, 1, 256)\n"
            "for run in (lambda: s.extremal(s.TreeClass.all_trees(5), 'sigma', 'max'),\n"
            "            lambda: s.falsify('all', s.ExhaustiveMode(6))):\n"
            "    try:\n"
            "        run()\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        first, second = done.stdout.splitlines()
        assert first.startswith("scored sigma 40 disagrees")
        assert second == "scored signature (512, 0, 1) disagrees with tree (1, 2)"


def _sorted_degrees(counts: int, n: int) -> list[int]:
    """The degrees that degree counts hold, a byte per degree, ascending."""
    return [d for d, c in enumerate(counts.to_bytes(n + 1, "little")) for _ in range(c)]


class TestBlockScores:
    def assert_scored(self, levels, signature):
        degrees, edges = _tree_of_levels(levels)
        counts, irr, sig = signature
        assert (irr, sig) == albertson_and_sigma(degrees, edges), levels
        assert _sorted_degrees(counts, len(levels)) == sorted(degrees), levels
        assert counts == _degree_counts(degrees)

    def test_free_trees_match_the_edge_pass(self):
        # The signature the walk reads at each tree's root.
        for n in range(1, 15):
            for levels, signature in free_tree_level_sequences(n):
                self.assert_scored(levels, signature)

    def test_rooted_trees_and_their_blocks_match_the_edge_pass(self):
        # Each rooted tree, joined at its root from its children's pieces as
        # the walk joins a free tree, and the same tree planted below a new
        # root, where it is the one block: its score leaves out the new
        # root's edge.
        for n in range(1, 11):
            for levels in rooted_level_sequences(n):
                pieces = bytes(levels).split(b"\x02")
                _, irr, sig, counts = _join(len(pieces) - 1, pieces[1:])
                self.assert_scored(levels, (counts, irr, sig))
                planted = (1, *(x + 1 for x in levels))
                degrees, edges = _tree_of_levels(planted)
                irr, sig = albertson_and_sigma(degrees, edges)
                top = degrees[1] - degrees[0]
                expected = (degrees[1], irr - abs(top), sig - top * top, _degree_counts(degrees[1:]))
                assert _block(bytes(planted[2:])) == expected, levels

    def test_a_table_that_fills_and_clears_gives_the_same_results(self, monkeypatch):
        import sigmairr.search as search_module

        classes = [tree_class for tree_class, _ in _classes_of_order(12)]
        expected = []
        for tree_class in classes:
            try:
                expected.append(extremal_goals(tree_class, ALL_GOALS))
            except DomainError as exc:
                expected.append(str(exc))
        monkeypatch.setattr(search_module, "_BLOCKS", {})
        monkeypatch.setattr(search_module, "_BLOCK_TABLE_SIZE", 7)  # order 12 has 155 blocks
        for tree_class, results in zip(classes, expected):
            try:
                assert extremal_goals(tree_class, ALL_GOALS) == results, tree_class
            except DomainError as exc:
                assert str(exc) == results
            assert len(search_module._BLOCKS) <= 7

    def test_the_table_holds_every_block_of_order_15(self, monkeypatch):
        import sigmairr.search as search_module

        monkeypatch.setattr(search_module, "_BLOCKS", {})
        extremal_goals(TreeClass.all_trees(15), ALL_GOALS)
        assert len(search_module._BLOCKS) == 1229 < search_module._BLOCK_TABLE_SIZE


def assert_records_match(found, reference):
    """``falsify``'s counterexamples against ``falsify_by_reports``': the
    entry and every record field."""
    assert found == reference


def witness_graph(c) -> Graph:
    return Graph(c.record["n"], c.record["edges"])


def assert_texts_are_records(bound_id: str, mode, params=None) -> list:
    """Check that the template text of each record of the call is what the
    stock encoder writes for ``falsify``'s record, that its CSV row is what
    the CLI's table writer writes for that record's cells, and that each
    refutation holds its sides and margin in lowest terms; return the
    records' report dicts."""
    from sigmairr.cli import _render

    found = falsify(bound_id, mode, params)
    texts = list(records.counterexample_texts(bound_id, mode, params))
    assert ["".join(pieces) for *_, pieces in texts] == [
        ",\n    " + json.dumps(c.record, sort_keys=True, indent=2).replace("\n", "\n    ") for c in found]
    assert all(math.gcd(*pair[:2]) == 1 for _, _, r, _ in texts for pair in (r.lhs, r.rhs, r.margin))
    header = records.COUNTEREXAMPLE_HEADER
    table = io.StringIO()
    _render("csv", header, [[{**c.record, **c.record["report"]}[k] for k in header] for c in found], None, table)
    texts = records.counterexample_texts(bound_id, mode, params, "csv")
    assert ["".join(pieces) for *_, pieces in texts] == table.getvalue().splitlines(keepends=True)[1:]
    return [c.record["report"] for c in found]


class TestFalsify:
    def test_b8_exhaustive_contains_path6(self):
        found = falsify("B8", ExhaustiveMode(6))
        assert found, "B8 should fail on small trees"
        p6 = [c for c in found if c.record["n"] == 6 and canonical_form(witness_graph(c)) == canonical_form(path(6))]
        assert len(p6) == 1
        report = p6[0].to_json_dict()["report"]
        assert report["lhs"] == "2" and report["rhs_decimal"] == pytest.approx(67.2)

    def test_counterexamples_replay(self):
        from sigmairr.bounds import BoundInput, evaluate_bound

        for c in falsify("B8", ExhaustiveMode(6)):
            again = evaluate_bound(c.bound_id, BoundInput.from_graph(witness_graph(c)))
            assert again.holds is False and again.hypotheses_met
            assert again.to_json_dict() == c.to_json_dict()["report"]

    def test_b14_identity_never_fails(self):
        assert falsify("B14", ExhaustiveMode(8)) == []

    def test_counterexamples_meet_hypotheses(self):
        for bound_id in ("B3", "B9", "B11"):
            for c in falsify(bound_id, ExhaustiveMode(7)):
                report = c.to_json_dict()["report"]
                assert report["hypotheses_met"] and report["holds"] is False

    def test_random_mode_deterministic(self):
        a = falsify("B8", RandomMode(n=9, samples=25, seed=11))
        b = falsify("B8", RandomMode(n=9, samples=25, seed=11))
        assert [c.to_json_dict() for c in a] == [c.to_json_dict() for c in b]

    def test_random_mode_draws_each_seed_as_it_decodes(self, monkeypatch):
        # The k-th decode follows exactly k seed draws, so a large --samples
        # holds no list of seeds.
        import sigmairr.search as search_module

        draws, seen = [], []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        decode = search_module.prufer_degrees_and_edges
        monkeypatch.setattr(search_module, "random", SimpleNamespace(Random=CountingRandom))
        monkeypatch.setattr(search_module, "prufer_degrees_and_edges", lambda *args: seen.append(len(draws)) or decode(*args))
        falsify("B8", RandomMode(n=9, samples=25, seed=11))
        assert seen == list(range(1, 26))

    def test_base_id_expansion(self):
        found = falsify("B1", ExhaustiveMode(5))
        assert {c.bound_id for c in found} <= {"B1a", "B1b"}

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            falsify("B8", ExhaustiveMode(1))
        with pytest.raises(DomainError):
            falsify("B8", RandomMode(n=1, samples=5, seed=0))
        with pytest.raises(InputError):
            falsify("B99", ExhaustiveMode(4))

    def test_lowest_order_validation(self, monkeypatch):
        import sigmairr.search as search_module

        calls = []
        monkeypatch.setattr(search_module, "free_tree_level_sequences", lambda n: calls.append(n) or iter(()))
        for n_max, n_min in ((6, 1), (6, 0), (6, 7), (2, 3)):
            with pytest.raises(DomainError, match=f"got n_min={n_min}, n_max={n_max}"):
                falsify("all", ExhaustiveMode(n_max, n_min))
        assert calls == []
        assert ExhaustiveMode(6) == ExhaustiveMode(6, 2) and ExhaustiveMode(6).n_min == 2

    def test_records_come_as_they_are_found(self, monkeypatch):
        # The first refuting tree, of order 2, comes before any larger order
        # is walked; the texts of the records of the trees, in their order,
        # are falsify's list, record by record, in JSON and in CSV.
        import sigmairr.search as search_module

        walk, walked = search_module.free_tree_level_sequences, []
        monkeypatch.setattr(search_module, "free_tree_level_sequences", lambda n: walked.append(n) or walk(n))
        trees = search_module.refuting_trees("all", ExhaustiveMode(8))
        first = next(trees)
        assert walked == [2] and first[0] == 2
        found = falsify("all", ExhaustiveMode(8))
        assert [(bid, n) for n, _, refuted in [first, *trees] for bid, _ in refuted] == [
            (c.bound_id, c.record["n"]) for c in found]
        assert len(assert_texts_are_records("all", ExhaustiveMode(8))) == len(found)

    # Calls whose records reach each kind of field, with what their reports
    # must show: random mode; a right side of 2^1100, past float range;
    # eta = 3, whose notes and B13 refutation start at n = 2; the strict B10
    # window, which B10's records at these orders all miss; eta1 a
    # fraction, two parameters in one report; and every parameter set.
    TEMPLATE_CALLS = {
        "random": ("all", RandomMode(40, 30, 0), None, lambda rs: any(r["bound_id"] == "B2b" for r in rs)),
        "alpha-1100": ("B2", ExhaustiveMode(3), BoundParams(alpha=1100),
                       lambda rs: any(r["rhs_decimal"] is None for r in rs)),
        "eta-3": ("all", ExhaustiveMode(6), BoundParams(eta=3),
                  lambda rs: any(r["bound_id"] == "B13" and r["label"] == "graph n=2 m=1" and r["notes"] for r in rs)),
        "strict-window": ("all", ExhaustiveMode(8), BoundParams(strict_max_degree_window=True),
                          lambda rs: rs and not any(r["bound_id"] == "B10" for r in rs)),
        "eta1-fraction": ("all", ExhaustiveMode(6), BoundParams(eta=3, eta1=Fraction(5, 2)),
                          lambda rs: any(r["params"] == {"eta": "3", "eta1": "5/2"} for r in rs)),
        "all-set": ("all", RandomMode(20, 15, 3), NON_DEFAULT_PARAMS["all-set"],
                    lambda rs: any(r["params"] == {"eta": "9"} for r in rs)),
    }

    @pytest.mark.parametrize("call", TEMPLATE_CALLS.values(), ids=TEMPLATE_CALLS.keys())
    def test_record_texts_are_falsifys_records(self, call):
        bound_id, mode, params, reaches = call
        assert reaches(assert_texts_are_records(bound_id, mode, params))

    def test_inexact_sides_print_to_twelve_digits(self):
        # No tree refutes B6 or B15b, the entries with a root's box, so these
        # refutations are built by hand: box midpoints over 2^65, one of them
        # past float range.  Their report text and row are the dict's.
        from sigmairr.cli import _render

        def refuted(bound_id, relation, lhs, rhs):
            margin = Fraction(*rhs[:2]) - Fraction(*lhs[:2])
            margin = -margin if relation == ">=" else margin
            return BoundReport(bound_id, "graph n=9 m=8", (), relation, lhs, rhs,
                               (margin.numerator, margin.denominator), False, (), (), False)

        cases = [refuted("B6", ">=", (20, 1, True), (2 * 3**42 + 1, 2**65, False)),
                 refuted("B15b", "<=", (3**41, 2**65, False), (3**40 + 2, 2**65, False)),
                 refuted("B15b", "<=", (10**400 + 1, 2**65, False), (7, 1, True))]
        _, _, json_report = records._record_renderers("json")
        _, _, csv_report = records._record_renderers("csv")
        for case in cases:
            report = case.to_json_dict()
            assert not report["lhs_exact"] or not report["rhs_exact"]
            assert json_report(case) == ',\n      "report": ' + json.dumps(
                report, sort_keys=True, indent=2).replace("\n", "\n      ") + "\n    }"
            table = io.StringIO()
            header = records.COUNTEREXAMPLE_HEADER[3:]
            _render("csv", header, [[report[k] for k in header]], None, table)
            assert csv_report(case) == table.getvalue().splitlines(keepends=True)[1]
        reports = [case.to_json_dict() for case in cases]
        assert [(r["lhs"], r["rhs"], r["margin"]) for r in reports] == [
            ("20", "5.93161528638", "14.0683847136"), ("0.98860254773", "0.329534182577", "-0.659068365153"),
            ("2.71050543121e+380", "7", "-2.71050543121e+380")]
        assert reports[2]["lhs_decimal"] is None

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_tree_and_report_text_is_made_once(self, fmt, monkeypatch):
        # A record is three pieces, its entry's, its tree's and its report's,
        # each made once: every record of a tree holds that tree's piece
        # itself, and every record with the same report dict (an equal
        # report is that dict) holds that report's piece itself.
        made, renderers = [0, 0, 0], records._record_renderers

        def counted(render, kind):
            return lambda *args: made.__setitem__(kind, made[kind] + 1) or render(*args)

        monkeypatch.setattr(records, "_record_renderers",
                            lambda fmt: tuple(map(counted, renderers(fmt), range(3))))
        import sigmairr.search as search_module

        trees = [refuted for _, _, refuted in search_module.refuting_trees("all", ExhaustiveMode(8))]
        found = list(records.counterexample_texts("all", ExhaustiveMode(8), fmt=fmt))
        assert [bid for refuted in trees for bid, _ in refuted] == [bid for bid, *_ in found]
        start = 0
        for refuted in trees:
            tree_pieces = {id(pieces[1]) for *_, pieces in found[start:start + len(refuted)]}
            assert len(tree_pieces) == 1
            start += len(refuted)
        by_report = {}
        for bid, _, report, pieces in found:
            assert by_report.setdefault(id(report), pieces[2]) is pieces[2]
        distinct = [len({id(pieces[k]) for *_, pieces in found}) for k in range(3)]
        assert distinct == made == [len({bid for bid, *_ in found}), len(trees), len(by_report)]
        assert len(trees) < len(by_report) < len(found)

    def test_split_ranges_give_the_full_range_records(self):
        # No decision is shared across orders: the records of 2..k followed
        # by those of k+1..n_max are the full range's, record by record.
        for n_max in range(2, 11):
            full = [c.to_json_dict() for c in falsify("all", ExhaustiveMode(n_max))]
            for k in range(2, n_max):
                low = falsify("all", ExhaustiveMode(k))
                high = falsify("all", ExhaustiveMode(n_max, k + 1))
                assert [c.to_json_dict() for c in low + high] == full, (n_max, k)
                assert all(c.record["n"] > k for c in high)

    def test_over_cap_rejected_before_any_tree(self, monkeypatch):
        import sigmairr.search as search_module

        calls = []
        monkeypatch.setattr(search_module, "free_tree_level_sequences", lambda n: calls.append(n) or iter(()))
        with pytest.raises(ResourceLimitError, match="cap"):
            falsify("B3", ExhaustiveMode(19))
        monkeypatch.setattr(search_module, "DEFAULT_TREE_CAP", 11)
        with pytest.raises(ResourceLimitError, match="cap"):
            falsify("B3", ExhaustiveMode(12))
        assert calls == []

    def test_params_flow_through(self):
        # a generous prime makes B9 hold everywhere small
        assert falsify("B9", ExhaustiveMode(6), BoundParams(p=13)) == []

    @pytest.mark.parametrize("bound_id", [f"B{i}" for i in range(1, 16)] + ["all"])
    def test_matches_reports_oracle_exhaustive(self, bound_id):
        # At n_max 10, 40 of 200 trees repeat an earlier tree's signature
        # (degree counts, Albertson, Sigma).
        mode = ExhaustiveMode(10 if bound_id == "all" else 8)
        found = falsify(bound_id, mode)
        assert_records_match(found, falsify_by_reports(bound_id, mode))
        if bound_id == "all":
            assert len(found) > 100 and {c.bound_id for c in found} >= {"B3", "B5", "B8", "B10", "B12"}

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_reports_oracle_random(self, seed):
        for mode in (RandomMode(n=40, samples=20, seed=seed), RandomMode(n=20, samples=15, seed=seed)):
            found = falsify("all", mode)
            assert found
            assert_records_match(found, falsify_by_reports("all", mode))
        for n in (2, 3, 4):  # no Pruefer symbol, one, and two
            mode = RandomMode(n=n, samples=10, seed=seed)
            assert_records_match(falsify("all", mode), falsify_by_reports("all", mode))

    @pytest.mark.parametrize("params", NON_DEFAULT_PARAMS.values(), ids=NON_DEFAULT_PARAMS.keys())
    def test_matches_reports_oracle_with_params(self, params):
        # Parameters move hypotheses (B10's window, B12/B13's eta guards), so
        # what the short-circuit skips differs per parameter set.
        modes = [ExhaustiveMode(8), RandomMode(n=20, samples=15, seed=3), RandomMode(n=40, samples=10, seed=3)]
        modes += [RandomMode(n=n, samples=10, seed=3) for n in (2, 3, 4)]
        for mode in modes:
            assert_records_match(falsify("all", mode, params), falsify_by_reports("all", mode, params))

    def test_builds_no_graph(self, monkeypatch):
        # Each counterexample's tree is written from its decoded degrees and edges.
        inits = []
        init = Graph.__init__

        def counted(self, *args, **kwargs):
            inits.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counted)
        found = falsify("all", ExhaustiveMode(7)) + falsify("all", RandomMode(n=40, samples=30, seed=0))
        assert len(found) > 100 and inits == []

    def test_builds_no_report(self, monkeypatch):
        # Each record is written from the decision that refuted its entry:
        # no evaluate_bound, and no second decision by any other path.
        import sigmairr.bounds as bounds_module

        built = []
        for name in ("evaluate_bound", "evaluate_all", "_evaluate"):
            monkeypatch.setattr(bounds_module, name, lambda *args, name=name: built.append(name))
        found = falsify("all", ExhaustiveMode(7)) + falsify("all", RandomMode(n=40, samples=10, seed=0))
        assert len(found) > 100 and built == []

    def test_records_of_a_tree_share_its_part(self):
        # "all" fails on each of these 30 trees, several times.
        found = falsify("all", RandomMode(n=40, samples=30, seed=0))
        for c in found:
            record = c.to_json_dict()
            assert record is c.record and record["bound_id"] == c.bound_id and record["n"] == 40
        parts = {(id(c.record["edges"]), id(c.record["edge_list"])) for c in found}
        assert len(parts) == len({id(c.record["edges"]) for c in found}) == 30 < len(found)
        assert len({id(c.record["edge_list"]) for c in found}) == 30

    def test_decides_each_signature_once(self, monkeypatch):
        # 986 trees with 2 <= n <= 12 have 555 signatures (degree counts,
        # Albertson, Sigma, as the walk yields them), and each builds one
        # input.  Each entry is decided once per distinct part of the
        # signature it reads: B14, B15a and B15b once per degree counts
        # (139), B1a..B2b per counts and Albertson (206), B6, B8 and
        # B10..B13 per counts and Sigma (500), and the other five per
        # signature.  Each tree is decoded at most once.
        import sigmairr.bounds as bounds_module
        import sigmairr.search as search_module

        def counted(owner, name):
            calls[name] = []
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls[name].append(args[0]) or inner(*args))

        calls: dict = {}
        counted(bounds_module, "refutation")
        counted(bounds_module.BoundInput, "from_edges")
        counted(search_module, "_tree_of_levels")
        walk, yields = search_module.free_tree_level_sequences, []
        monkeypatch.setattr(search_module, "free_tree_level_sequences",
                            lambda n: (yields.append(item) or item for item in walk(n)))
        found = falsify("all", ExhaustiveMode(12))
        assert len(calls["refutation"]) == 3 * 139 + 4 * 206 + 6 * 500 + 5 * 555 == 7_016 and len(found) > 1_000
        assert len(calls["from_edges"]) == 555 and len(yields) == 986
        # Every one of the 986 trees is new or refutes an entry, and none is decoded twice.
        assert len(calls["_tree_of_levels"]) == len(set(calls["_tree_of_levels"])) == 986

    def test_entries_decide_without_the_values_they_do_not_require(self):
        # The memo shares an entry's decision among signatures that differ
        # only in a value its ``requires`` does not name: on every tree with
        # n <= 12, that value None must give the same refutation.
        from sigmairr import bounds

        unread = []
        for bid, spec in bounds.CATALOG.items():
            fields = tuple(f for f in ("irr", "sigma") if f not in spec.requires)
            if fields:
                unread.append((bid, spec, fields))
        assert len(unread) == 13
        refuted = 0
        for n in range(2, 13):
            for levels, _ in free_tree_level_sequences(n):
                b = bounds.BoundInput.from_edges(*_tree_of_levels(levels))
                for bid, spec, fields in unread:
                    blind = bounds.BoundInput(b.entries, b.n, b.two_m, None if "irr" in fields else b.irr_value,
                                              None if "sigma" in fields else b.sigma_value, b.params, b.label, b.edges)
                    found = bounds.refutation(bid, spec, b)
                    assert bounds.refutation(bid, spec, blind) == found, (bid, levels)
                    refuted += found is not None
        assert refuted > 1_000

    def test_memo_key_check_catches_a_wrong_table_score(self, monkeypatch):
        # A leaf scored with a Sigma of 1 below it gives K2 the signature of
        # no tree; without the check, a wrong key would hand one tree another
        # tree's reports.
        import sigmairr.search as search_module

        monkeypatch.setattr(search_module, "_BLOCKS", {b"": (1, 0, 1, 256)})
        with pytest.raises(AssertionError, match=r"scored signature \(512, 0, 1\) disagrees with tree \(1, 2\)"):
            falsify("all", ExhaustiveMode(6))

    def test_records_of_one_signature_share_their_reports(self):
        from sigmairr.bounds import BoundInput

        trees: dict = {}  # the records of each tree, keyed by its shared edge list
        for c in falsify("all", ExhaustiveMode(10)):
            trees.setdefault(id(c.record["edges"]), []).append(c.record)
        by_signature: dict = {}
        for records in trees.values():
            b = BoundInput.from_graph(Graph(records[0]["n"], records[0]["edges"]))
            by_signature.setdefault((b.entries, b.irr_value, b.sigma_value), []).append(records)
        shared = [group for group in by_signature.values() if len(group) > 1]
        assert len(shared) > 10
        for first, *others in shared:
            for records in others:
                assert [r["bound_id"] for r in records] == [r["bound_id"] for r in first]
                assert all(r["report"] is f["report"] and r["edges"] is not f["edges"] for r, f in zip(records, first))
        # Reports are shared by content too: two records of one call hold the
        # same report object if and only if their reports are equal.
        calls = [("all", ExhaustiveMode(10), 791, 474), ("B1", RandomMode(40, 200, 0), 186, 36),
                 ("B8", RandomMode(40, 200, 0), 200, 98)]
        for bound_id, mode, records, objects in calls:
            found = falsify(bound_id, mode)
            ids_by_text: dict = {}
            for c in found:
                report = c.record["report"]
                ids_by_text.setdefault(json.dumps(report, sort_keys=True), set()).add(id(report))
            assert all(len(ids) == 1 for ids in ids_by_text.values())
            assert len(found) == records and len(ids_by_text) == len({id(c.record["report"]) for c in found}) == objects

    def test_entries_read_no_edge_beyond_presence(self):
        # The memo is sound only if every verdict is a function of the
        # signature: no entry may read the edges themselves.
        from sigmairr.bounds import CATALOG, BoundInput, evaluate_bound, refutation

        class Untouchable:
            def __iter__(self):
                raise AssertionError("an entry iterated the edges")

            def __len__(self):
                raise AssertionError("an entry took the number of edges")

            def __getitem__(self, index):
                raise AssertionError("an entry indexed the edges")

        for n in range(2, 10):
            for g in enumerate_free_trees(n):
                plain = BoundInput.from_graph(g)
                blind = BoundInput.from_graph(g)
                blind.edges = Untouchable()
                for bid, spec in CATALOG.items():
                    assert refutation(bid, spec, blind) == refutation(bid, spec, plain)
                    assert evaluate_bound(bid, blind).to_json_dict() == evaluate_bound(bid, plain).to_json_dict()

    def test_campaign_matches_per_claim_runs(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "falsification_campaign.py"
        target = tmp_path / "campaign.json"
        env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
        subprocess.run(
            [sys.executable, str(script), "--nmax", "7", "--json", str(target)],
            check=True, capture_output=True, env=env,
        )
        reference = {bid: [c.to_json_dict() for c in falsify(bid, ExhaustiveMode(7))] for bid in BOUND_IDS}
        assert target.read_text(encoding="utf-8") == json.dumps(reference, sort_keys=True, indent=2)
