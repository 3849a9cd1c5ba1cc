"""Immutable simple graphs, named families, and structural operations.

Vertices are dense integers 0..n-1.  Edges live in a frozenset of (u, v)
pairs with u < v, so parallel edges cannot exist and self-loops are rejected
on construction.  All operations are pure functions returning new graphs,
which makes every value safe to share across worker processes.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Sequence

from .errors import DomainError, InputError


class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges", "degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if vertex_count < 0:
            raise DomainError("vertex_count must be non-negative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise DomainError(
                    f"edge ({u}, {v}) outside vertex range 0..{vertex_count - 1}"
                )
            normalized.add((u, v) if u < v else (v, u))
        degrees = [0] * vertex_count
        for u, v in normalized:
            degrees[u] += 1
            degrees[v] += 1
        self.vertex_count = vertex_count
        self.edges = frozenset(normalized)
        self.degrees = tuple(degrees)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {self.sorted_edges()})"


# ---------------------------------------------------------------------------
# Graph families

def path(n: int) -> Graph:
    """Path on n vertices, ids in spine order."""
    if n < 1:
        raise DomainError("path requires n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle requires n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 1:
        raise DomainError("star requires n >= 1")
    return Graph(n, [(0, i) for i in range(1, n)])


def double_star(r: int, k: int) -> Graph:
    """Two adjacent centers of degrees r and k; every other vertex is a leaf.

    Center 0 carries r-1 leaves (ids 2..r), center 1 carries k-1 leaves
    (ids r+1..r+k-1); total order r+k.
    """
    if r < 1 or k < 1:
        raise DomainError("double_star requires r >= 1 and k >= 1")
    edges = [(0, 1)]
    edges.extend((0, i) for i in range(2, r + 1))
    edges.extend((1, i) for i in range(r + 1, r + k))
    return Graph(r + k, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: side ids 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise DomainError("complete_bipartite requires a >= 1 and b >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def monogenic(n: int) -> Graph:
    """Threshold graph on labels 1..n with an edge iff i + j >= n + 1.

    Vertex id v corresponds to label v + 1.  The degree multiset is
    {1, 2, ..., n-1} with floor(n/2) appearing twice.
    """
    if n < 1:
        raise DomainError("monogenic requires n >= 1")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i + 1) + (j + 1) >= n + 1
    ]
    return Graph(n, edges)


FAMILY_BUILDERS = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "double_star": (double_star, 2),
    "complete_bipartite": (complete_bipartite, 2),
    "monogenic": (monogenic, 1),
}


def build_family(family: str, *params: int) -> Graph:
    """Dispatch on a family name; see FAMILY_BUILDERS for arities."""
    if family not in FAMILY_BUILDERS:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise InputError(f"unknown family '{family}' (known: {known})")
    builder, arity = FAMILY_BUILDERS[family]
    if len(params) != arity:
        raise InputError(f"family '{family}' takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# Structural operations

def complement(g: Graph) -> Graph:
    n = g.vertex_count
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges
    ]
    return Graph(n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets id u * |V(h)| + v."""
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise DomainError("cartesian_product requires non-empty factors")
    hn = h.vertex_count
    edges = []
    for u in range(g.vertex_count):
        for v, w in h.edges:
            edges.append((u * hn + v, u * hn + w))
    for u, w in g.edges:
        for v in range(hn):
            edges.append((u * hn + v, w * hn + v))
    return Graph(g.vertex_count * hn, edges)


def is_connected(g: Graph) -> bool:
    n = g.vertex_count
    if n <= 1:
        return True
    adj = g.adjacency()
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def is_tree(g: Graph) -> bool:
    return g.vertex_count >= 1 and g.edge_count == g.vertex_count - 1 and is_connected(g)


# ---------------------------------------------------------------------------
# Edge-list text format: optional "# n=<int>" header, one "u v" pair per line.

_HEADER_RE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors carry 1-based line numbers."""
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and not saw_content and declared_n is None:
                declared_n = int(m.group(1))
            continue
        saw_content = True
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InputError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
        seen.add(e)
        edges.append(e)
    if declared_n is None:
        declared_n = 1 + max((max(e) for e in edges), default=-1)
    for u, v in edges:
        if v >= declared_n:
            raise InputError(f"edge ({u}, {v}) exceeds declared n={declared_n}")
    return Graph(declared_n, edges)


def format_edge_list(vertex_count: int, sorted_edges: Iterable[Sequence[int]]) -> str:
    """The edge-list text of a graph on ``vertex_count`` vertices whose
    edges (u, v), u < v, are given in ascending order."""
    flat = list(chain.from_iterable(sorted_edges))
    return f"# n={vertex_count}\n" + "%d %d\n" * (len(flat) // 2) % tuple(flat)
