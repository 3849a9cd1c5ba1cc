"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own algorithms: labeled
trees are generated from Pruefer words or parent arrays, centers are found
by eccentricity rather than peeling, and isomorphism keys use an interned
rooted encoding instead of level sequences.  Agreement with the package is
then evidence, not tautology.  Three references are the exception, each
kept from an earlier, simpler form of a package routine it is compared with:

* ``b15b_lhs_pairwise`` shares the package's interval square root and
  differs only in how the roots are summed;
* ``free_tree_level_sequences_by_filter`` shares the package's rooted
  level-sequence walk and tests every sequence it visits, where the package
  jumps over runs that cannot be centre-rooted;
* ``extremal_by_graphs`` shares the package's free-tree stream and indices,
  and scores a ``Graph`` per tree, where the package scores level sequences.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from sigmairr.bounds import RVal, sqrt_rval
from sigmairr.errors import DomainError
from sigmairr.indices import albertson, sigma
from sigmairr.search import canonical_form, enumerate_free_trees, rooted_level_sequences


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
    return tuple(sorted(_rooted_id(adj, c, n) for c in centers_by_eccentricity(edges, n)))


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


def b15b_lhs_pairwise(entries: Sequence[int], bits: int) -> RVal:
    """B15b's left side k*sum(d) - (sum sqrt(d))^2, with one interval square
    root per pair of entries: (sum sqrt(d_i))^2 = sum d_i + 2 * sum_{i<j}
    sqrt(d_i d_j), k(k-1)/2 roots in all."""
    k = len(entries)
    total = sum(entries)
    square = RVal.of(total)
    for i in range(k):
        for j in range(i + 1, k):
            square = square + sqrt_rval(Fraction(entries[i] * entries[j]), bits).scale(Fraction(2))
    return RVal.of(k * total) - square


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


def extremal_by_graphs(n: int, degrees_admitted, objective: str, direction: str):
    """(optimum, witness edges, witness canonical form, trees examined) over
    the trees of order n whose degree list ``degrees_admitted`` accepts,
    scoring a ``Graph`` per tree; ties keep the first tree."""
    score = {"sigma": sigma, "albertson": albertson}[objective]
    best = witness = None
    examined = 0
    for g in enumerate_free_trees(n):
        if not degrees_admitted(g.degrees):
            continue
        examined += 1
        value = score(g)
        if best is None or (value > best if direction == "max" else value < best):
            best, witness = value, g
    if witness is None:
        raise DomainError("empty class")
    return best, witness.sorted_edges(), canonical_form(witness), examined
