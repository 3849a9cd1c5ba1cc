"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own algorithms: labeled
trees are generated from Pruefer words or parent arrays, centers are found
from the diameter (or, as their reference, by eccentricity) rather than by
peeling, and isomorphism keys use an interned rooted encoding instead of
level sequences.  Agreement with the package is then evidence, not
tautology.  Twelve references are the exception, each kept from an earlier,
simpler form of a package routine it is compared with:

* ``integer_nth_root_from_power_of_two`` runs Newton's method from the
  power of two above the root, where the package starts just above the
  root from a float estimate;
* ``is_graphical_by_prefixes`` sums each Erdos-Gallai tail afresh, where
  the package keeps one pointer and suffix sums;
* ``realize_graph_hakimi_by_sorting`` re-sorts every residual degree on
  each Havel-Hakimi step, where the package keeps a heap of vertices per
  residual degree;
* ``RVal``, ``_compare``, ``sqrt_rval`` and ``nth_root_rval`` are this
  module's own: a value boxed between two ``Fraction`` ends, decided by
  comparing ends recursively, with each root's ends over q * 2^bits taken
  from ``math.isqrt`` or ``integer_nth_root_from_power_of_two``, where the
  package keeps a box as three integers (lo, hi, den), decides every
  relation by one rule on cross-multiplied ends and roots from a float
  estimate.  A floor root is unique, so both boxes have the same ends;
* ``b15b_lhs_pairwise`` takes one of those square roots per pair of
  entries, where the package takes one per pair of distinct degrees;
* ``FRACTION_FORMULAS`` and ``fraction_decision`` are the catalog's sides
  and Fraction hypotheses as the statements read them, over ``Fraction``
  n, m, mean degree and half-sum/half-difference summaries, with relations
  of their own.  They share only the resolved parameters and the
  integer-only hypotheses, where the package decides every rational entry
  on integer numerators and denominators;
* ``evaluate_bound_by_intervals`` builds a report from those formulas,
  the catalog's notes and parameters.  It boxes every side as an ``RVal``,
  compares through ``_compare`` with the 64 -> 128 bit escalation and
  prints midpoints, and it takes B14's complement from a complement
  ``Graph`` and B15b's sides from ``RVal`` sums, where the package
  cross-multiplies, decides B6 exactly and sums integer numerators;
* ``free_tree_level_sequences_by_filter`` walks every canonical rooted
  level sequence with its own Beyer-Hedetniemi step on a list and tests
  each, where the package steps a ``bytearray`` and jumps over runs that
  cannot be centre-rooted, or whose bicentral rootings lose to the other
  centre's;
* ``extremal_by_graphs`` shares the package's free-tree stream and indices,
  and scores a ``Graph`` per tree, where the package scores level sequences;
  it writes each witness's level sequence with ``canonical_levels``, its
  own, from the centres ``centers_by_diameter`` finds;
* ``derived_summaries_by_summation`` adds the half-difference and half-sum
  ``Fraction`` sequences term by term, where the package reads the same
  summaries off integer sums of the entries;
* ``falsify_by_reports`` shares the package's free-tree stream,
  ``evaluate_bound``, ``BoundReport.to_json_dict`` and
  ``format_edge_list``, builds a ``Graph`` and a report for every (tree,
  entry) pair and keeps the probative failures, each with a record of its
  own written from the ``Graph``'s sorted edges, where the package decides
  each pair once per signature (sorted degrees, Albertson and Sigma) on
  degrees and edges, builds no ``Graph``, builds a counterexample's report
  from the refuting sides with no second decision, and shares one sorted
  edge list and its text per tree.  Its random trees
  are its own: each Pruefer word is ``randrange(n)`` drawn n - 2 times
  from the sample's ``Random(seed)``, decoded by ``prufer_decode_heap``;
* ``is_prime_by_trial_division`` divides by every integer up to the square
  root, where the package runs the strong probable-prime test to the 13
  prime bases 2..41.

``greedy_min_sigma`` shares nothing with the package: it builds one tree
per degree multiset by construction instead of searching a stream.
``greville_pinv`` builds an exact pseudo-inverse one column at a time and
imports nothing from ``stats_tables``, whose least squares solves one
system in the squared Gram matrix.
"""

from __future__ import annotations

import functools
import heapq
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, prod
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from sigmairr.bounds import (
    _BITS_ESCALATED,
    _BITS_FIRST,
    CATALOG,
    BoundInput,
    BoundParams,
    BoundReport,
    evaluate_bound,
    expand_bound_id,
)
from sigmairr.errors import DomainError
from sigmairr.graphs import Graph, complement, format_edge_list
from sigmairr.indices import albertson, sigma, zagreb_m1
from sigmairr.search import (
    Counterexample,
    ExhaustiveMode,
    RandomMode,
    enumerate_free_trees,
)


def prufer_decode(word: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Quadratic textbook decode: repeatedly join the smallest leaf."""
    degree = [1] * n
    for x in word:
        degree[x] += 1
    edges = []
    for x in word:
        leaf = degree.index(1)  # a joined leaf drops to degree 0
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return edges


def prufer_decode_heap(word: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode with a min-heap of the current leaves: each symbol is joined
    to the smallest leaf, and becomes a leaf itself once its last
    occurrence is used."""
    degree = [1] * n
    for x in word:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in word:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
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


def parent_arrays(n: int) -> Iterator[tuple[int, ...]]:
    """Every (parent[1], ..., parent[n-1]) with parent[i] < i: (n-1)! labeled
    trees that cover every isomorphism class (any tree, rooted anywhere and
    labeled in BFS order, has this form)."""
    return product(*(range(i) for i in range(1, n)))


def covering_labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """The trees of ``parent_arrays`` as edge lists."""
    for parents in parent_arrays(n):
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


def canonical_levels(adj: list[list[int]]) -> tuple[int, ...]:
    """The tree's lexicographically largest centre-rooted level sequence: a
    rooting lists the root's depth, then its children's blocks, largest
    first, and of two centre rootings the larger is kept."""

    def block(v: int, parent: int, depth: int) -> tuple[int, ...]:
        children = sorted((block(w, v, depth + 1) for w in adj[v] if w != parent), reverse=True)
        return (depth, *(level for child in children for level in child))

    return max(block(c, -1, 1) for c in centers_by_diameter(adj))


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
    return _interned_root(order, parent)


def _interned_root(order: Sequence[int], parent: Sequence[int]) -> int:
    """Interned id of the tree rooted at ``order[0]``, every other vertex
    after its parent in ``order``: one reverse pass gives each vertex the
    sorted ids of its children, which all come after it."""
    kids: list[list[int]] = [[] for _ in parent]
    for v in reversed(order[1:]):
        kids[parent[v]].append(_INTERN.setdefault(tuple(sorted(kids[v])), len(_INTERN)))
    return _INTERN.setdefault(tuple(sorted(kids[order[0]])), len(_INTERN))


def iso_key(edges: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Isomorphism key: sorted interned ids of the center rootings."""
    if n == 1:
        return (-1,)
    adj = _adjacency(edges, n)
    return tuple(sorted(_rooted_id(adj, c, n) for c in centers_by_diameter(adj)))


def parent_array_keys(n: int) -> set[tuple[int, ...]]:
    """``iso_key`` of every tree of ``parent_arrays``, called once per rooted
    class at vertex 0: arrays of one rooted class are isomorphic."""
    keys: dict[int, tuple[int, ...]] = {}
    for parents in parent_arrays(n):
        rooted = _interned_root(range(n), (0, *parents))
        if rooted not in keys:
            keys[rooted] = iso_key([(p, i + 1) for i, p in enumerate(parents)], n)
    return set(keys.values())


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


def integer_nth_root_from_power_of_two(value: int, degree: int) -> int:
    """floor(value ** (1/degree)) for value >= 0, degree >= 1, by Newton's
    method from 2^ceil(bits/degree), which is at or above the root."""
    if value == 0 or degree == 1:
        return value if degree == 1 else 0
    guess = 1 << -(-value.bit_length() // degree)
    while True:
        nxt = ((degree - 1) * guess + value // guess ** (degree - 1)) // degree
        if nxt >= guess:
            break
        guess = nxt
    while guess**degree > value:
        guess -= 1
    while (guess + 1) ** degree <= value:
        guess += 1
    return guess


def is_graphical_by_prefixes(entries: Sequence[int]) -> bool:
    """Erdos-Gallai on a non-empty sequence, each prefix's tail summed afresh."""
    if any(d < 0 for d in entries):
        return False
    d = sorted(entries, reverse=True)
    k = len(d)
    if d[0] >= k or sum(d) % 2 != 0:
        return False
    prefix = 0
    for j in range(1, k + 1):
        prefix += d[j - 1]
        if prefix > j * (j - 1) + sum(min(d[i], j) for i in range(j, k)):
            return False
    return True


def realize_graph_hakimi_by_sorting(entries: Sequence[int]) -> Graph:
    """Havel-Hakimi on a graphical sequence: sort the (degree, index) pairs
    by degree descending and index ascending on every step, then join the
    first vertex to the next d."""
    remaining = [(d, i) for i, d in enumerate(entries)]
    edges: list[tuple[int, int]] = []
    while True:
        remaining.sort(key=lambda pair: (-pair[0], pair[1]))
        d, v = remaining[0]
        if d == 0:
            break
        if d > len(remaining) - 1:
            raise DomainError("Havel-Hakimi step impossible; sequence not graphical")
        remaining[0] = (0, v)
        for idx in range(1, d + 1):
            dv, w = remaining[idx]
            if dv == 0:
                raise DomainError("Havel-Hakimi step impossible; sequence not graphical")
            remaining[idx] = (dv - 1, w)
            edges.append((v, w) if v < w else (w, v))
    return Graph(len(entries), edges)


@dataclass(frozen=True)
class RVal:
    """A real value boxed between two Fractions; lo == hi means exact."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @staticmethod
    def of(x) -> "RVal":
        f = Fraction(x)
        return RVal(f, f)

    def __add__(self, other: "RVal") -> "RVal":
        return RVal(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RVal") -> "RVal":
        return RVal(self.lo - other.hi, self.hi - other.lo)


def _compare(lhs: RVal, rhs: RVal, relation: str):
    """relation(lhs, rhs) if the boxes decide it, else None; == is decided
    only between exact values."""
    if lhs.exact and rhs.exact:
        return _RELATIONS[relation](lhs.lo, rhs.lo)
    if relation in (">=", ">"):
        return _compare(rhs, lhs, "<=" if relation == ">=" else "<")
    if relation in ("<=", "<"):
        if lhs.hi < rhs.lo or (relation == "<=" and lhs.hi <= rhs.lo):
            return True
        if lhs.lo > rhs.hi or (relation == "<" and lhs.lo >= rhs.hi):
            return False
    return None


def nth_root_rval(x: Fraction, degree: int, bits: int) -> RVal:
    """x ** (1/degree) for x = p/q >= 0 boxed to the multiples of 1/(q 2^bits)
    around it, exact on perfect powers: x^(1/degree) = (p q^(degree-1))^(1/degree) / q,
    and the floor root of p q^(degree-1) 2^(bits degree) is ``math.isqrt``'s
    or ``integer_nth_root_from_power_of_two``'s."""
    q = x.denominator
    scaled = (x.numerator * q ** (degree - 1)) << (bits * degree)
    lo = isqrt(scaled) if degree == 2 else integer_nth_root_from_power_of_two(scaled, degree)
    hi = lo if lo**degree == scaled else lo + 1
    return RVal(Fraction(lo, q << bits), Fraction(hi, q << bits))


def sqrt_rval(x: Fraction, bits: int) -> RVal:
    return nth_root_rval(x, 2, bits)


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


# ---------------------------------------------------------------------------
# The catalog over Fractions: each rational side as the published formula
# reads, with n, m and the mean degree as Fractions and the half-sum and
# half-difference summaries summed term by term.  Relations are this
# reference's own, so a changed relation in the catalog shows.

NON_DEFAULT_PARAMS = {
    "strict-window": BoundParams(strict_max_degree_window=True),
    "eta": BoundParams(eta=5),
    "eta1": BoundParams(eta1=Fraction(3)),
    "alpha-beta": BoundParams(alpha=0, beta=5),
    "p13": BoundParams(p=13),
    "all-set": BoundParams(alpha=1, beta=1, p=3, eta=9, eta1=Fraction(5, 2), strict_max_degree_window=True),
}
_RESOLVED = ("alpha", "beta", "p", "eta", "eta1", "strict_max_degree_window")
_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


def fraction_ctx(binput: BoundInput) -> SimpleNamespace:
    """The symbols the Fraction formulas read; n, 2m and the resolved
    parameters are the record's."""
    entries = binput.entries
    k, total = len(entries), sum(entries)
    n, m = binput.n, Fraction(binput.two_m, 2)
    derived = SimpleNamespace(**derived_summaries_by_summation(entries)) if k >= 2 else None
    graph = None if binput.edges is None else Graph(k, binput.edges)
    return SimpleNamespace(
        n=n, m=m, max_degree=max(entries), mean_degree=Fraction(total, k), derived=derived, entries=entries,
        cube_sum=sum(d**3 for d in entries), irr=binput.irr_value, sig=binput.sigma_value, graph=graph,
        **{name: getattr(binput, name) for name in _RESOLVED},
    )


def _ceil_div(a, b) -> int:
    return -(-a // b)


def _hyp_b3(c) -> tuple[list[str], bool]:
    if c.derived.last_half_sum == c.derived.last_half_diff:
        return ["last half-sum equals last half-difference (division by zero)"], False
    return [], True


def _hyp_b5(c) -> tuple[list[str], bool]:
    der = c.derived
    if der.last_half_sum == der.first_half_sum:
        return ["first and last half-sums coincide (division by zero)"], False
    mid = der.max_half_sum * (der.last_half_sum - der.first_half_sum) + der.max_half_diff * (
        der.last_half_diff - der.first_half_diff
    )
    failed = []
    if not c.n <= mid:
        failed.append("order exceeds the half-sum/half-difference combination")
    if not mid < c.irr:
        failed.append("half-sum/half-difference combination not below the Albertson value")
    return failed, True


def _hyp_b6(c) -> tuple[list[str], bool]:
    if c.derived.mean_half_diff == 0:
        return ["mean half-difference is zero (regular sequence; division by zero)"], False
    return [], True


def _hyp_b10(c) -> tuple[list[str], bool]:
    delta = c.max_degree
    failed = []
    computable = delta != 3
    if c.strict_max_degree_window:
        if not 4 <= delta - 3:
            failed.append("max_degree - 3 below 4 (strict window)")
        if not Fraction(delta - 3) <= Fraction(c.n, 4):
            failed.append("max_degree - 3 above n/4 (strict window)")
    else:
        if delta < 4:
            failed.append("max degree below 4")
    if not computable:
        failed.append("max degree equals 3 (division by zero)")
    return failed, computable


def _hyp_b12(c) -> tuple[list[str], bool]:
    failed = []
    computable = True
    if c.eta == c.n:
        failed.append("eta equals n (division by zero)")
        computable = False
    if c.mean_degree == c.n:
        failed.append("mean degree equals n (division by zero)")
        computable = False
    return failed, computable


def _hyp_b13(c) -> tuple[list[str], bool]:
    failed = []
    computable = True
    if c.eta == c.n:
        failed.append("eta equals n (division by zero)")
        computable = False
    if Fraction(c.eta) == c.mean_degree:
        failed.append("eta equals the mean degree (division by zero)")
        computable = False
    return failed, computable


_FRACTION_HYPOTHESES = {
    "B3": _hyp_b3, "B4": _hyp_b3, "B5": _hyp_b5, "B6": _hyp_b6, "B10": _hyp_b10,
    "B12": _hyp_b12, "B13": _hyp_b13,
}


def fraction_hypothesis(bound_id: str, binput: BoundInput, c: SimpleNamespace) -> tuple[list[str], bool]:
    """The entry's hypothesis; those that compare Fractions are this
    reference's, the integer-only ones the catalog's."""
    if bound_id in _FRACTION_HYPOTHESES:
        return _FRACTION_HYPOTHESES[bound_id](c)
    return CATALOG[bound_id].hypothesis(binput)


def _b3_tail(c):
    der = c.derived
    gap = der.last_half_sum - der.last_half_diff
    spread = (der.max_half_sum - der.max_half_diff) ** 2
    return (c.n - 2) // gap + c.max_degree * spread


def _b5_rhs(c, bits):
    der = c.derived
    span = der.last_half_sum - der.first_half_sum
    inner = 2 * c.n // span + _ceil_div(2 * c.m, c.n)
    return c.irr + Fraction(inner, c.n) + 4 * c.n * c.max_degree


def _b6_terms(c) -> tuple[Fraction, int]:
    """(X, s) such that B6's right side is sqrt(X) + s."""
    der = c.derived
    stair = 2 * c.n // der.mean_half_sum + _ceil_div(2 * c.m, der.mean_half_diff)
    return c.mean_degree * c.cube_sum, (c.n - c.max_degree) ** 2 - stair


def _b6_rhs(c, bits) -> RVal:
    radicand, shift = _b6_terms(c)
    return sqrt_rval(radicand, bits) + RVal.of(shift)


def _b6_holds(c) -> bool:
    radicand, shift = _b6_terms(c)
    gap = c.sig - shift
    return gap >= 0 and gap * gap >= radicand


def _t1(n, m, delta) -> int:
    return (3 * n + 1) // 2 + _ceil_div(3 * m + 1, 2) + (3 * delta + 2 * n) // 4


def _b12_rhs(c, bits):
    n, eta, lam = c.n, c.eta, c.mean_degree
    gap = n - eta
    return 4 * n - 2 * eta * lam - gap * (n // gap) ** 2 + gap * (n // (n - lam))


def _b13_rhs(c, bits):
    n, eta, lam, eta1 = c.n, c.eta, c.mean_degree, c.eta1
    return eta1 * (n // (n - eta)) + eta1 * _ceil_div(n, eta - lam) + c.cube_sum


def _b14_lhs_by_complement(c, bits) -> int:
    return sigma(c.graph) + sigma(complement(c.graph))


def _b15b_rhs_by_intervals(c, bits) -> RVal:
    k = len(c.entries)
    geomean = nth_root_rval(Fraction(prod(c.entries)), k, bits)
    return _scale(RVal.of(Fraction(sum(c.entries), k)) - geomean, Fraction(k * (k - 1)))


def _sigma(c, bits):
    return c.sig


def _irr_ratio(c, bits):
    return Fraction(2 * c.irr, c.max_degree * (c.max_degree - 1) ** 2)


# bound id -> (relation, lhs, rhs); each side takes the bit precision its
# interval needs and returns an int, a Fraction or an RVal.
FRACTION_FORMULAS = {
    "B1a": (">", _irr_ratio, lambda c, bits: 0),
    "B1b": ("<", _irr_ratio, lambda c, bits: 1),
    "B2a": (">", lambda c, bits: c.irr,
            lambda c, bits: 2 * c.m // c.n + _ceil_div(2 * c.n, c.m) + 2**c.alpha),
    "B2b": ("<", lambda c, bits: c.irr, lambda c, bits: _ceil_div(2 * c.n, c.m) + 2**c.beta),
    "B3": (">=", _sigma, lambda c, bits: c.irr + _b3_tail(c)),
    "B4": ("<=", _sigma, lambda c, bits: c.cube_sum + c.irr + _b3_tail(c)),
    "B5": (">=", _sigma, _b5_rhs),
    "B6": (">=", _sigma, _b6_rhs),
    "B7": (">=", _sigma,
           lambda c, bits: c.mean_degree**2 * _t1(c.n, c.m, c.max_degree) / 3 - c.cube_sum + c.irr),
    "B8": (">", _sigma,
           lambda c, bits: (c.n**3 + c.n + c.max_degree * (c.max_degree - 1) ** 2) / (2 * c.mean_degree)),
    "B9": ("<=", _sigma,
           lambda c, bits: 2**c.p * (c.irr + 2 * c.m) + c.max_degree * (c.max_degree - 1) ** 2),
    "B10": ("<=", _sigma,
            lambda c, bits: Fraction((3 * c.n**2 // 4) * _ceil_div(c.n**2, 4), 2 * (c.max_degree - 3))),
    "B11": ("<=", _sigma,
            lambda c, bits: 2 * c.n**2 // (3 * c.mean_degree)
            + 2**c.eta * (c.m - c.max_degree) ** 2 / (5 * (c.n - 1) ** 3)),
    "B12": (">", _sigma, _b12_rhs),
    "B13": ("<=", _sigma, _b13_rhs),
    "B14": ("==", _b14_lhs_by_complement,
            lambda c, bits: c.graph.vertex_count * zagreb_m1(c.graph) - 4 * c.graph.edge_count**2),
    "B15a": (">=", lambda c, bits: sum(c.entries) * (c.entries[0] + c.entries[-1]),
             lambda c, bits: sum(d * d for d in c.entries) + len(c.entries) * c.entries[0] * c.entries[-1]),
    "B15b": ("<=", lambda c, bits: b15b_lhs_pairwise(c.entries, bits), _b15b_rhs_by_intervals),
}


def _boxed(side) -> RVal:
    return side if isinstance(side, RVal) else RVal.of(side)


def fraction_sides(bound_id: str, c: SimpleNamespace):
    """(lhs, rhs, holds) of a computable entry: compared directly when both
    sides are exact, else as intervals at 64 bits and again at 128 where 64
    does not separate them (holds None where 128 does not)."""
    relation, lhs_of, rhs_of = FRACTION_FORMULAS[bound_id]
    lhs, rhs = lhs_of(c, _BITS_FIRST), rhs_of(c, _BITS_FIRST)
    if not (isinstance(lhs, RVal) or isinstance(rhs, RVal)):
        return lhs, rhs, _RELATIONS[relation](lhs, rhs)
    holds = _compare(_boxed(lhs), _boxed(rhs), relation)
    if holds is None:
        lhs, rhs = lhs_of(c, _BITS_ESCALATED), rhs_of(c, _BITS_ESCALATED)
        holds = _compare(_boxed(lhs), _boxed(rhs), relation)
    return lhs, rhs, holds


def fraction_decision(bound_id: str, binput: BoundInput) -> tuple[list[str], bool, object, bool]:
    """(failed hypotheses, computable, holds, refuted) over Fractions; B6
    is decided by squaring, as its exact verdict is."""
    c = fraction_ctx(binput)
    failed, computable = fraction_hypothesis(bound_id, binput, c)
    holds = None
    if computable:
        holds = _b6_holds(c) if bound_id == "B6" else fraction_sides(bound_id, c)[2]
    return failed, computable, holds, bool(not failed and computable and holds is False)


def evaluate_bound_by_intervals(bound_id: str, binput: BoundInput) -> BoundReport:
    """The report of one catalog entry from the Fraction formulas, with
    every side boxed as an interval and decided by ``_compare`` alone (64
    bits, then 128 when undecided); each printed side is its interval's
    ``Fraction`` midpoint and the margin their difference."""
    spec = CATALOG[bound_id]
    c = fraction_ctx(binput)
    relation, lhs_of, rhs_of = FRACTION_FORMULAS[bound_id]

    def sides(bits: int) -> tuple[RVal, RVal]:
        return _boxed(lhs_of(c, bits)), _boxed(rhs_of(c, bits))

    failed, computable = fraction_hypothesis(bound_id, binput, c)
    notes = list(spec.extra_notes)
    for param in spec.params:
        notes.extend(binput.param_notes.get(param, []))
    lhs_val = rhs_val = holds = margin = None
    indeterminate = False
    if computable:
        lhs, rhs = sides(_BITS_FIRST)
        holds = _compare(lhs, rhs, relation)
        if holds is None and not (lhs.exact and rhs.exact):
            lhs, rhs = sides(_BITS_ESCALATED)
            holds = _compare(lhs, rhs, relation)
            if holds is None:
                indeterminate = True
                notes.append("indeterminate_at_precision: sides not separated at 128 bits")
        if relation in ("<=", "<"):
            gap = rhs.mid - lhs.mid
        elif relation in (">=", ">"):
            gap = lhs.mid - rhs.mid
        else:
            gap = -abs(lhs.mid - rhs.mid)
        lhs_val = (lhs.mid.numerator, lhs.mid.denominator, lhs.exact)
        rhs_val = (rhs.mid.numerator, rhs.mid.denominator, rhs.exact)
        margin = (gap.numerator, gap.denominator)
    else:
        notes.append("not computable: " + "; ".join(failed))
    return BoundReport(
        bound_id=bound_id,
        label=binput.label,
        failed_hypotheses=tuple(failed),
        relation=relation,
        lhs=lhs_val,
        rhs=rhs_val,
        margin=margin,
        holds=holds,
        params=tuple(sorted((k, str(getattr(c, k))) for k in spec.params)),
        notes=tuple(notes),
        indeterminate=indeterminate,
    )


def falsify_by_reports(
    bound_id: str, mode: ExhaustiveMode | RandomMode, params: BoundParams = BoundParams()
) -> list[Counterexample]:
    """Counterexamples by building every (tree, entry) report and keeping
    those with hypotheses met that evaluate false, over the same trees in
    the same order as ``falsify``.  Each record is written from its own
    ``BoundReport.to_json_dict`` and the tree's ``Graph``."""
    if isinstance(mode, ExhaustiveMode):
        trees = (g for n in range(2, mode.n_max + 1) for g in enumerate_free_trees(n))
    else:
        rng = random.Random(mode.seed)
        seeds = [rng.randrange(2**63) for _ in range(mode.samples)]
        trees = (Graph(mode.n, prufer_decode_heap(randrange_word(mode.n, s), mode.n)) for s in seeds)
    bound_ids = expand_bound_id(bound_id)
    found = []
    for g in trees:
        binput = BoundInput.from_graph(g, params)
        for bid in bound_ids:
            report = evaluate_bound(bid, binput)
            if report.hypotheses_met and report.holds is False:
                edges = g.sorted_edges()
                record = {
                    "bound_id": bid,
                    "n": g.vertex_count,
                    "edges": [list(e) for e in edges],
                    "edge_list": format_edge_list(g.vertex_count, edges),
                    "report": report.to_json_dict(),
                }
                found.append(Counterexample(record))
    return found


def randrange_word(n: int, seed: int) -> list[int]:
    """n - 2 Pruefer symbols, each ``randrange(n)`` of one ``Random(seed)``."""
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(n - 2)]


def rooted_level_sequences_by_list(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical rooted level sequences in reverse-lex order, by the
    Beyer-Hedetniemi successor on a list: find the last entry above 2 and
    its parent, the last earlier entry one level up, and copy the entries
    from the parent on over it and everything after it, one by one."""
    levels = list(range(1, n + 1))
    while True:
        yield tuple(levels)
        p = n - 1
        while p > 0 and levels[p] <= 2:
            p -= 1
        if p == 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]


def free_tree_level_sequences_by_filter(n: int) -> Iterator[tuple[int, ...]]:
    """Centre-rooted canonical level sequences, by testing every canonical
    rooted sequence: the root must be a centre (its first, deepest block at
    most one level deeper than the rest), and of a bicentral tree's two
    centre rootings only the lexicographically larger is kept."""
    for levels in rooted_level_sequences_by_list(n):
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
    best: list = [None] * len(goals)
    witness: list = [None] * len(goals)
    examined = 0
    for g, values in _scored_free_trees(n):
        if not degrees_admitted(g.degrees):
            continue
        examined += 1
        for i, (objective, direction) in enumerate(goals):
            value = values[objective]
            if best[i] is None or (value > best[i] if direction == "max" else value < best[i]):
                best[i], witness[i] = value, g
    if examined == 0:
        raise DomainError("empty class")
    return [
        (value, w.sorted_edges(), canonical_levels(_adjacency(w.sorted_edges(), n)), examined)
        for value, w in zip(best, witness)
    ]


@functools.lru_cache(maxsize=None)
def _scored_free_trees(n: int) -> tuple[tuple[Graph, dict[str, int]], ...]:
    """Each free tree of order n as a ``Graph``, with its Sigma and Albertson
    scored on it, built once for every class of the order."""
    return tuple((g, {"sigma": sigma(g), "albertson": albertson(g)}) for g in enumerate_free_trees(n))


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


def is_prime_by_trial_division(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def greville_pinv(columns: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact Moore-Penrose pseudo-inverse of the matrix with these columns,
    built one column at a time (T. N. E. Greville, SIAM Review 2, 1960).
    Row j of the result pairs with column j."""
    pinv: list[list[Fraction]] = []  # rows of the pseudo-inverse of the columns so far
    seen: list[list[Fraction]] = []
    for col in columns:
        a = [Fraction(v) for v in col]
        d = [sum(r * v for r, v in zip(row, a)) for row in pinv]
        c = [a[t] - sum(s[t] * dj for s, dj in zip(seen, d)) for t in range(len(a))]
        cc = sum(v * v for v in c)
        if cc:
            b = [v / cc for v in c]
        else:
            scale = Fraction(1) + sum(v * v for v in d)
            b = [sum(dj * row[t] for dj, row in zip(d, pinv)) / scale for t in range(len(a))]
        pinv = [[v - dj * bt for v, bt in zip(row, b)] for row, dj in zip(pinv, d)] + [b]
        seen.append(a)
    return pinv
