"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own algorithms: labeled
trees are generated from Pruefer words or parent arrays, centers are found
from the diameter (or, as their reference, by eccentricity) rather than by
peeling, and isomorphism keys use an interned rooted encoding instead of
level sequences.  Agreement with the package is then evidence, not
tautology.  Six references are the exception, each kept from an earlier,
simpler form of a package routine it is compared with:

* ``b15b_lhs_pairwise`` shares the package's interval square root and
  differs only in how the roots are summed;
* ``evaluate_bound_by_intervals`` shares the catalog (hypotheses, notes,
  parameters and the rational formulas), ``RVal``, the interval roots and
  ``_compare``.  It boxes every side as an interval, compares through
  ``_compare`` with the 64 -> 128 bit escalation and prints midpoints, and it
  takes B14's complement from a complement ``Graph`` and B15b's sides from
  ``RVal`` sums, where the package compares exact values directly, decides B6
  exactly and sums integer numerators;
* ``free_tree_level_sequences_by_filter`` shares the package's rooted
  level-sequence walk and tests every sequence it visits, where the package
  jumps over runs that cannot be centre-rooted;
* ``extremal_by_graphs`` shares the package's free-tree stream and indices,
  and scores a ``Graph`` per tree, where the package scores level sequences;
* ``derived_summaries_by_summation`` adds the half-difference and half-sum
  ``Fraction`` sequences term by term, where the package reads the same
  summaries off integer sums of the entries;
* ``falsify_by_reports`` shares the package's tree streams and
  ``evaluate_bound``, builds a report for every (tree, entry) pair and keeps
  the probative failures, where the package decides each pair first and
  builds a report only for a counterexample.

``greedy_min_sigma`` shares nothing with the package: it builds one tree
per degree multiset by construction instead of searching a stream.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Iterator, Sequence

from sigmairr.bounds import (
    _BITS_ESCALATED,
    _BITS_FIRST,
    CATALOG,
    BoundInput,
    BoundParams,
    BoundReport,
    RVal,
    _compare,
    evaluate_bound,
    expand_bound_id,
    nth_root_rval,
    sqrt_rval,
)
from sigmairr.errors import DomainError
from sigmairr.graphs import complement
from sigmairr.indices import albertson, sigma
from sigmairr.search import (
    Counterexample,
    ExhaustiveMode,
    RandomMode,
    canonical_form,
    enumerate_free_trees,
    rooted_level_sequences,
)
from sigmairr.sequences import random_tree


def prufer_decode(word: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Quadratic textbook decode: repeatedly join the smallest leaf."""
    degree = [1] * n
    for x in word:
        degree[x] += 1
    edges = []
    used = [False] * n
    for x in word:
        leaf = min(v for v in range(n) if degree[v] == 1 and not used[v])
        edges.append((min(leaf, x), max(leaf, x)))
        used[leaf] = True
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if not used[w] and degree[w] == 1]
    edges.append((u, v))
    return edges


def all_labeled_trees_prufer(n: int) -> Iterator[list[tuple[int, int]]]:
    """Every labeled tree on n vertices, one per Pruefer word (n^(n-2) total)."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for word in product(range(n), repeat=n - 2):
        yield prufer_decode(word, n)


def covering_labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """Parent arrays with parent[i] < i: (n-1)! labeled trees that cover
    every isomorphism class (any tree, rooted anywhere and labeled in BFS
    order, has this form)."""
    if n == 1:
        yield []
        return
    for parents in product(*(range(i) for i in range(1, n))):
        yield [(p, i + 1) for i, p in enumerate(parents)]


def _adjacency(edges: Iterable[tuple[int, int]], n: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def centers_by_eccentricity(edges: list[tuple[int, int]], n: int) -> list[int]:
    """Centers as eccentricity minimizers, via one BFS per vertex."""
    adj = _adjacency(edges, n)
    eccs = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        far = 0
        while queue:
            u = queue.popleft()
            far = max(far, dist[u])
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        eccs.append(far)
    radius = min(eccs)
    return [v for v in range(n) if eccs[v] == radius]


def _bfs_far(adj: list[list[int]], src: int) -> tuple[int, list[int]]:
    """(a vertex farthest from src, BFS parent array)."""
    parent = [-1] * len(adj)
    parent[src] = src
    order = [src]
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return order[-1], parent


def centers_by_diameter(adj: list[list[int]]) -> list[int]:
    """Centers as the middle of a longest path, found by two BFS: the vertex
    u farthest from any vertex ends a longest path, and so does the vertex v
    farthest from u."""
    u, _ = _bfs_far(adj, 0)
    v, parent = _bfs_far(adj, u)
    longest = [v]
    while longest[-1] != u:
        longest.append(parent[longest[-1]])
    d = len(longest) - 1
    return sorted(longest[d // 2: d // 2 + 1 + d % 2])


_INTERN: dict[tuple, int] = {}


def _rooted_id(adj: list[list[int]], root: int, n: int) -> int:
    """Interned id of the rooted isomorphism type (iterative AHU)."""
    parent = [-1] * n
    order = [root]
    parent[root] = root
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    ids = [0] * n
    for v in reversed(order):
        key = tuple(sorted(ids[w] for w in adj[v] if w != v and parent[w] == v))
        code = _INTERN.setdefault(key, len(_INTERN))
        ids[v] = code
    return ids[root]


def iso_key(edges: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Isomorphism key: sorted interned ids of the center rootings."""
    if n == 1:
        return (-1,)
    adj = _adjacency(edges, n)
    return tuple(sorted(_rooted_id(adj, c, n) for c in centers_by_diameter(adj)))


def count_free_trees_dedup(n: int, generator) -> int:
    """Distinct isomorphism keys over an exhaustive labeled generator."""
    seen = set()
    for edges in generator(n):
        seen.add(iso_key(edges, n))
    return len(seen)


def free_tree_counts_otter(n_max: int) -> list[int]:
    """Arithmetic count oracle: rooted-tree recurrence plus the
    rooted-to-free correction; no enumeration involved.  Returns counts for
    n = 1..n_max."""
    rooted = [0] * (n_max + 1)
    rooted[1] = 1
    # c[k] = sum over divisors d of k of d * rooted[d]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            c = sum(d * rooted[d] for d in range(1, k + 1) if k % d == 0)
            total += c * rooted[n - k + 1]
        rooted[n + 1] = total // n
    free = []
    for n in range(1, n_max + 1):
        pair_sum = sum(rooted[i] * rooted[n - i] for i in range(1, n))
        diag = rooted[n // 2] if n % 2 == 0 else 0
        assert (pair_sum - diag) % 2 == 0
        free.append(rooted[n] - (pair_sum - diag) // 2)
    return free


def _scale(value: RVal, c: Fraction) -> RVal:
    """``value`` times an exact scalar ``c >= 0``."""
    return RVal(value.lo * c, value.hi * c)


def b15b_lhs_pairwise(entries: Sequence[int], bits: int) -> RVal:
    """B15b's left side k*sum(d) - (sum sqrt(d))^2, with one interval square
    root per pair of entries: (sum sqrt(d_i))^2 = sum d_i + 2 * sum_{i<j}
    sqrt(d_i d_j), k(k-1)/2 roots in all."""
    k = len(entries)
    total = sum(entries)
    square = RVal.of(total)
    for i in range(k):
        for j in range(i + 1, k):
            square = square + _scale(sqrt_rval(Fraction(entries[i] * entries[j]), bits), Fraction(2))
    return RVal.of(k * total) - square


def _b14_lhs_by_complement(ctx, bits: int) -> RVal:
    return RVal.of(sigma(ctx.graph) + sigma(complement(ctx.graph)))


def _b15b_rhs_by_intervals(ctx, bits: int) -> RVal:
    k = len(ctx.entries)
    geomean = nth_root_rval(Fraction(prod(ctx.entries)), k, bits)
    return _scale(RVal.of(Fraction(sum(ctx.entries), k)) - geomean, Fraction(k * (k - 1)))


_REFERENCE_SIDES = {
    ("B14", "lhs"): _b14_lhs_by_complement,
    ("B15b", "lhs"): lambda ctx, bits: b15b_lhs_pairwise(ctx.entries, bits),
    ("B15b", "rhs"): _b15b_rhs_by_intervals,
}


def evaluate_bound_by_intervals(bound_id: str, binput: BoundInput) -> BoundReport:
    """The report of one catalog entry with every side boxed as an interval,
    decided by ``_compare`` alone (64 bits, then 128 when undecided)."""
    spec = CATALOG[bound_id]
    ctx = binput._ctx
    lhs_of = _REFERENCE_SIDES.get((bound_id, "lhs"), spec.lhs)
    rhs_of = _REFERENCE_SIDES.get((bound_id, "rhs"), spec.rhs)

    def sides(bits: int) -> tuple[RVal, RVal]:
        lhs, rhs = lhs_of(ctx, bits), rhs_of(ctx, bits)
        return (lhs if isinstance(lhs, RVal) else RVal.of(lhs)), (rhs if isinstance(rhs, RVal) else RVal.of(rhs))

    failed, computable = spec.hypothesis(ctx)
    notes = list(spec.extra_notes)
    for param in spec.params:
        notes.extend(binput._param_notes.get(param, []))
    lhs_val = rhs_val = holds = margin = None
    lhs_exact = rhs_exact = True
    indeterminate = False
    if computable:
        lhs, rhs = sides(_BITS_FIRST)
        holds = _compare(lhs, rhs, spec.relation)
        if holds is None and not (lhs.exact and rhs.exact):
            lhs, rhs = sides(_BITS_ESCALATED)
            holds = _compare(lhs, rhs, spec.relation)
            if holds is None:
                indeterminate = True
                notes.append("indeterminate_at_precision: sides not separated at 128 bits")
        lhs_val, rhs_val = lhs.mid, rhs.mid
        lhs_exact, rhs_exact = lhs.exact, rhs.exact
        if spec.relation in ("<=", "<"):
            margin = rhs_val - lhs_val
        elif spec.relation in (">=", ">"):
            margin = lhs_val - rhs_val
        else:
            margin = -abs(lhs_val - rhs_val)
    else:
        notes.append("not computable: " + "; ".join(failed))
    return BoundReport(
        bound_id=bound_id,
        label=binput.label,
        hypotheses_met=not failed,
        failed_hypotheses=tuple(failed),
        relation=spec.relation,
        lhs=lhs_val,
        rhs=rhs_val,
        lhs_exact=lhs_exact,
        rhs_exact=rhs_exact,
        holds=holds,
        margin=margin,
        params_used={k: getattr(ctx, k) for k in spec.params},
        notes=tuple(notes),
        indeterminate=indeterminate,
    )


def falsify_by_reports(
    bound_id: str, mode: ExhaustiveMode | RandomMode, params: BoundParams = BoundParams()
) -> list[Counterexample]:
    """Counterexamples by building every (tree, entry) report and keeping
    those with hypotheses met that evaluate false, over the same trees in
    the same order as ``falsify``."""
    if isinstance(mode, ExhaustiveMode):
        trees = (g for n in range(2, mode.n_max + 1) for g in enumerate_free_trees(n))
    else:
        rng = random.Random(mode.seed)
        seeds = [rng.randrange(2**63) for _ in range(mode.samples)]
        trees = (random_tree(mode.n, s) for s in seeds)
    bound_ids = expand_bound_id(bound_id)
    found = []
    for g in trees:
        binput = BoundInput.from_graph(g, params)
        for bid in bound_ids:
            report = evaluate_bound(bid, binput)
            if report.hypotheses_met and report.holds is False:
                found.append(Counterexample(bid, g, report))
    return found


def free_tree_level_sequences_by_filter(n: int) -> Iterator[tuple[int, ...]]:
    """Centre-rooted canonical level sequences, by testing every canonical
    rooted sequence: the root must be a centre (its first, deepest block at
    most one level deeper than the rest), and of a bicentral tree's two
    centre rootings only the lexicographically larger is kept."""
    for levels in rooted_level_sequences(n):
        try:
            split = levels.index(2, 2)
        except ValueError:  # the root is a leaf: a center only for n <= 2
            if n > 2:
                continue
            split = n
        gap = max(levels[:split]) - max(levels[split:], default=1)
        if gap > 1:
            continue
        if gap == 1:
            other = (1, 2, *(x + 1 for x in levels[split:]), *(x - 1 for x in levels[2:split]))
            if levels < other:
                continue
        yield levels


def extremal_by_graphs(n: int, degrees_admitted, goals: Sequence[tuple[str, str]]) -> list[tuple]:
    """Per (objective, direction) goal: (optimum, witness edges, witness
    canonical form, trees examined) over the trees of order n whose degree
    list ``degrees_admitted`` accepts, scoring a ``Graph`` per tree; ties
    keep the first tree."""
    score = {"sigma": sigma, "albertson": albertson}
    best: list = [None] * len(goals)
    witness: list = [None] * len(goals)
    examined = 0
    for g in enumerate_free_trees(n):
        if not degrees_admitted(g.degrees):
            continue
        examined += 1
        values = {objective: score[objective](g) for objective in score}
        for i, (objective, direction) in enumerate(goals):
            value = values[objective]
            if best[i] is None or (value > best[i] if direction == "max" else value < best[i]):
                best[i], witness[i] = value, g
    if examined == 0:
        raise DomainError("empty class")
    return [(value, w.sorted_edges(), canonical_form(w), examined) for value, w in zip(best, witness)]


def derived_summaries_by_summation(entries: Sequence[int]) -> dict[str, object]:
    """Half-differences and half-sums of consecutive entries as ``Fraction``
    sequences, their maxima, and their means as term-by-term sums over k - 1."""
    diffs = tuple(Fraction(entries[i + 1] - entries[i], 2) for i in range(len(entries) - 1))
    sums = tuple(Fraction(entries[i + 1] + entries[i], 2) for i in range(len(entries) - 1))
    return {
        "half_diffs": diffs,
        "half_sums": sums,
        "max_half_diff": max(diffs),
        "max_half_sum": max(sums),
        "mean_half_diff": sum(diffs, Fraction(0)) / len(diffs),
        "mean_half_sum": sum(sums, Fraction(0)) / len(sums),
        "first_half_diff": diffs[0],
        "last_half_diff": diffs[-1],
        "first_half_sum": sums[0],
        "last_half_sum": sums[-1],
    }


def _partitions(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into parts of at most ``largest``, each in
    non-increasing order."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def tree_degree_multisets(n: int) -> list[tuple[int, ...]]:
    """Every degree multiset of a tree of order n >= 2, as sorted tuples in
    lexicographic order: n positive degrees summing to 2(n - 1), that is, a
    partition of the n - 2 excess degrees padded with leaves."""
    found = []
    for excess in _partitions(n - 2, n - 2):
        degrees = [1 + part for part in excess] + [1] * (n - len(excess))
        found.append(tuple(sorted(degrees)))
    return sorted(found)


def greedy_min_sigma(multiset: Sequence[int]) -> int:
    """Minimum Sigma over the trees with this degree multiset, from the
    greedy tree alone.

    On a tree, sigma = sum_v d_v^3 - 2*M2 with M2 = sum over edges of
    d_u*d_v, so the minimum sigma for a fixed degree multiset belongs to the
    tree of largest M2.  The greedy tree attains that maximum (H. Wang,
    Discrete Math. 308, 2008): lay the vertices out breadth first and hand
    out the degrees in non-increasing order, the root taking the largest and
    every later vertex one child fewer than its degree.
    """
    degrees = sorted(multiset, reverse=True)
    n = len(degrees)
    if n < 2 or sum(degrees) != 2 * (n - 1) or degrees[-1] < 1:
        raise DomainError(f"{tuple(multiset)} is not the degree multiset of a tree")
    edges = []
    queue = deque([0])
    next_vertex = 1
    while queue:
        v = queue.popleft()
        for _ in range(degrees[v] - (v > 0)):
            edges.append((v, next_vertex))
            queue.append(next_vertex)
            next_vertex += 1
    assert next_vertex == n and len(edges) == n - 1
    return sum((degrees[u] - degrees[v]) ** 2 for u, v in edges)
