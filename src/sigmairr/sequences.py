"""Degree-sequence views, derived half-sum/half-difference sequences,
realizability tests, and canonical realizations.

A view keeps its entries in the order given; nothing auto-sorts, because
several published tables only recompute correctly in printed order.  Two
interpretation conventions exist:

* ``standard``: the entries are the degree multiset of a graph, so the
  order n is the entry count and m = sum(entries) / 2.
* ``paper-table``: the entries are a summary sequence; the order is
  n = sum(entries) and the object is treated as a tree, m = n - 1.

All derived arithmetic is exact (``fractions.Fraction``); floors and
ceilings downstream therefore never suffer float drift.

Random labeled trees come from seeded Prufer words.  One decode gives a
word's degrees, edges, Albertson and Sigma together, so ``bounds falsify``
scores each random sample in that one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, sub
from typing import Sequence

from .errors import DomainError, InputError
from .graphs import Graph


class Convention(str, Enum):
    STANDARD = "standard"
    PAPER_TABLE = "paper-table"


@dataclass(frozen=True)
class DegreeSequenceView:
    """A degree sequence plus the convention used to read n and m off it."""

    entries: tuple[int, ...]
    convention: Convention = Convention.STANDARD

    def __post_init__(self) -> None:
        if not self.entries:
            raise DomainError("degree sequence must be non-empty")
        for d in self.entries:
            if not isinstance(d, int) or d < 1:
                raise DomainError(f"degree entries must be integers >= 1, got {d!r}")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def k(self) -> int:
        """Number of entries."""
        return len(self.entries)

    @property
    def n(self) -> int:
        if self.convention is Convention.PAPER_TABLE:
            return sum(self.entries)
        return self.k

    @property
    def two_m(self) -> int:
        """Twice the edge count m, an integer."""
        if self.convention is Convention.PAPER_TABLE:
            return 2 * (sum(self.entries) - 1)
        return sum(self.entries)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)

    @property
    def max_entry(self) -> int:
        return max(self.entries)

    @property
    def min_entry(self) -> int:
        return min(self.entries)

    @property
    def mean_entry(self) -> Fraction:
        return Fraction(sum(self.entries), self.k)

    @property
    def cube_sum(self) -> int:
        return sum(d**3 for d in self.entries)


@dataclass(frozen=True)
class DerivedSequences:
    """Half-differences t_i = (d_{i+1}-d_i)/2 and half-sums a_i = (d_{i+1}+d_i)/2
    of consecutive entries d_1..d_k (k >= 2).

    Every value is built on first read.  The summaries come from integer
    sums and differences of the entries, halved once: the half-differences
    telescope to (d_k - d_1)/2, and the half-sums add to (2*sum(d) - d_1 - d_k)/2.
    """

    entries: tuple[int, ...]

    @cached_property
    def half_diffs(self) -> tuple[Fraction, ...]:
        d = self.entries
        return tuple(Fraction(b - a, 2) for a, b in zip(d, d[1:]))

    @cached_property
    def half_sums(self) -> tuple[Fraction, ...]:
        d = self.entries
        return tuple(Fraction(b + a, 2) for a, b in zip(d, d[1:]))

    @cached_property
    def max_half_diff(self) -> Fraction:
        d = self.entries
        return Fraction(max(map(sub, d[1:], d)), 2)

    @cached_property
    def max_half_sum(self) -> Fraction:
        d = self.entries
        return Fraction(max(map(add, d[1:], d)), 2)

    @cached_property
    def mean_half_diff(self) -> Fraction:
        d = self.entries
        return Fraction(d[-1] - d[0], 2 * (len(d) - 1))

    @cached_property
    def mean_half_sum(self) -> Fraction:
        d = self.entries
        return Fraction(2 * sum(d) - d[0] - d[-1], 2 * (len(d) - 1))


def derive(view: DegreeSequenceView) -> DerivedSequences:
    """Exact half-difference/half-sum sequences of consecutive entries."""
    if view.k < 2:
        raise DomainError("derived sequences need at least 2 entries")
    return DerivedSequences(view.entries)


# ---------------------------------------------------------------------------
# Realizability

def is_graphical(entries: Sequence[int]) -> bool:
    """Erdos-Gallai test: even sum and every prefix inequality.  With d sorted
    non-increasing, each tail sum of min(d_i, j) is j per entry >= j plus a
    suffix sum of the rest, read with one pointer that only moves down."""
    if not entries:
        raise InputError("empty degree sequence")
    if any(d < 0 for d in entries):
        return False
    d = sorted(entries, reverse=True)
    k = len(d)
    if sum(d) % 2 != 0:
        return False
    suffix = list(accumulate(reversed(d), initial=0))[::-1]  # suffix[i] = d[i] + ... + d[k-1]
    prefix = 0
    at_least = k  # d[0..at_least-1] are the entries >= j
    for j in range(1, k + 1):
        prefix += d[j - 1]
        while at_least and d[at_least - 1] < j:
            at_least -= 1
        tail = j * max(at_least - j, 0) + suffix[max(at_least, j)]
        if prefix > j * (j - 1) + tail:
            return False
    return True


def is_tree_sequence(entries: Sequence[int]) -> bool:
    """Positive entries summing to 2(k - 1)."""
    if not entries:
        raise InputError("empty degree sequence")
    k = len(entries)
    return all(d >= 1 for d in entries) and sum(entries) == 2 * (k - 1)


def realize_tree(entries: Sequence[int]) -> Graph:
    """Realize a tree sequence as a caterpillar.

    Entries > 1 are sorted ascending onto a spine path (ids 0..p-1); the
    1-entries become leaves (ids p..k-1) attached greedily in spine order.
    The result's degree multiset equals the input multiset.
    """
    if not is_tree_sequence(entries):
        raise DomainError(
            f"not a tree sequence: need all entries >= 1 and sum == 2(k-1), got {tuple(entries)}"
        )
    k = len(entries)
    spine = sorted(d for d in entries if d > 1)
    p = len(spine)
    if p == 0:
        # Only (1, 1) has no spine: a single edge.
        return Graph(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(p - 1)]
    next_leaf = p
    for i, d in enumerate(spine):
        if p == 1:
            spine_degree = 0
        elif i in (0, p - 1):
            spine_degree = 1
        else:
            spine_degree = 2
        for _ in range(d - spine_degree):
            edges.append((i, next_leaf))
            next_leaf += 1
    assert next_leaf == k, "leaf count mismatch in caterpillar construction"
    return Graph(k, edges)


def realize_graph_hakimi(entries: Sequence[int]) -> Graph:
    """Havel-Hakimi greedy realization of a graphical sequence.

    Each step joins the vertex of largest residual degree d (the lowest
    index among ties) to the next d vertices in that order.  The vertices
    wait in one heap of indices per residual degree, so a step costs
    O(d log n) and never re-sorts the rest."""
    from heapq import heappop, heappush  # here, so enumeration never loads it

    if not is_graphical(entries):
        raise DomainError(f"not graphical (Erdos-Gallai fails): {tuple(entries)}")
    buckets: list[list[int]] = [[] for _ in range(max(entries) + 1)]
    for i, d in enumerate(entries):
        buckets[d].append(i)  # ascending, so already a heap
    edges: list[tuple[int, int]] = []
    top = len(buckets) - 1
    while True:
        while top and not buckets[top]:
            top -= 1
        if not top:
            break
        v = heappop(buckets[top])
        need, level, taken = top, top, []
        while need:
            if not level:
                raise DomainError("Havel-Hakimi step impossible; sequence not graphical")
            bucket = buckets[level]
            joined = [heappop(bucket) for _ in range(min(need, len(bucket)))]
            edges += [(v, w) if v < w else (w, v) for w in joined]
            taken.append((level - 1, joined))
            need -= len(joined)
            level -= 1
        for level, joined in taken:  # lowered only after the step has chosen
            for w in joined:
                heappush(buckets[level], w)
    return Graph(len(entries), edges)


# ---------------------------------------------------------------------------
# Random labeled trees

def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree on n vertices via a seeded random Prufer word."""
    if n < 1:
        raise DomainError("random_tree requires n >= 1")
    if n == 1:
        return Graph(1, [])
    return Graph(n, prufer_degrees_and_edges(random_prufer_word(n, seed), n)[1])


def random_prufer_word(n: int, seed: int) -> list[int]:
    """n - 2 symbols, each uniform over 0..n-1, from ``random.Random(seed)``.

    Each symbol is ``getrandbits(n.bit_length())``, drawn again while it is
    n or more: the stream ``Random(seed).randrange(n)`` reads on CPython
    3.10 to 3.13, without its per-call dispatch.
    """
    getrandbits = random.Random(seed).getrandbits
    bits = n.bit_length()
    word = []
    for _ in range(n - 2):
        x = getrandbits(bits)
        while x >= n:
            x = getrandbits(bits)
        word.append(x)
    return word


def prufer_degrees_and_edges(
    word: Sequence[int], n: int
) -> tuple[list[int], list[tuple[int, int]], int, int]:
    """Vertex degrees, edges (u, v), u < v, Albertson and Sigma of the tree
    on 0..n-1 that a Prufer word of length n-2 encodes, by the linear decode.

    A vertex's degree is its symbol count plus one, so every degree is known
    before the first join, and each edge adds |d_u - d_v| and its square as
    it is appended.  The decode joins the smallest leaf to each symbol in
    turn: a pointer scans upward for the next leaf, except when the symbol
    just used becomes a leaf below it.
    """
    if n < 2 or len(word) != n - 2:
        raise DomainError("Prufer word must have length n - 2 with n >= 2")
    degrees = [1] * n
    for x in word:
        if not 0 <= x < n:
            raise DomainError(f"Prufer symbol {x} out of range")
        degrees[x] += 1
    remaining = degrees.copy()  # degree in the tree not yet decoded
    edges = []
    irr = sigma = 0
    ptr = 0
    while remaining[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in word:
        edges.append((leaf, x) if leaf < x else (x, leaf))
        gap = abs(degrees[leaf] - degrees[x])
        irr += gap
        sigma += gap * gap
        remaining[x] -= 1
        if remaining[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while remaining[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1) if leaf < n - 1 else (n - 1, leaf))
    gap = abs(degrees[leaf] - degrees[n - 1])
    return degrees, edges, irr + gap, sigma + gap * gap


def parse_sequence_literal(text: str) -> tuple[int, ...]:
    """Parse the CLI literal format: comma-separated integers, e.g. '3,5,7'."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or parts == [""]:
        raise InputError(f"empty sequence literal {text!r}")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise InputError(f"bad integer {p!r} in sequence literal {text!r}") from None
    return tuple(out)
