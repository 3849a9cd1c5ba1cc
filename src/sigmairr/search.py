"""Isomorphism-free tree enumeration, extremal index search, and
bound-falsification campaigns.

Enumeration walks canonical rooted level sequences in reverse-lex order with
the Beyer-Hedetniemi successor rule (start from the path sequence 1,2,...,n;
repeatedly locate the last entry above 2 and re-copy the segment from its
parent), and keeps exactly the sequences that are the canonical
center-rooted representation of their free tree.  Both tests read the
level sequence alone:

* Principal subtrees appear in non-increasing lexicographic order, and a
  deeper canonical block is lexicographically larger, so the first block
  (up to ``split``, the second entry equal to 2) is a deepest one.  The root
  is a center iff that block is at most one level deeper than the rest.
* When it is exactly one level deeper the tree is bicentral and the other
  center is vertex 1.  Its canonical rooting is the old root's side first,
  ``(1, 2, *(x + 1 for x in levels[split:]))``, then vertex 1's own
  subtrees one level up; only the lexicographically larger of the two
  center rootings is kept.

Most rooted sequences fail the first test, so the walk jumps over runs of
them, in the spirit of the Wright-Richmond-Odlyzko-McKay free-tree
generator.  Each jump lands on the lexicographically smallest canonical
sequence of the run, which the plain walk also visits, and every sequence
jumped over is one the test would reject; so the stream keeps its order
and its elements:

* Root is a leaf (no 2 after index 1, n > 2): every sequence down to the
  same one with its last entry set to 2 has a leaf root, and that one is
  canonical, so set it and test again.
* The first block is more than one level deeper than the rest: while the
  first block stays, a later (lexicographically smaller) rest is never
  deeper, so set the rest to 2s, its smallest form, and step.
* After a step rewrites positions p..n-1, the prefix ``levels[:p + 1]``
  holds no 2 after index 1, and the n - p - 1 later vertices cannot reach
  level ``max(levels[1:p + 1]) - 1``: no sequence with this prefix has a
  second subtree deep enough, so set ``levels[p + 1:]`` to 2s and step
  again without testing.

Most of the rest that the test rejects are bicentral rootings that lose to
vertex 1's.  Write A = ``levels[2:split]`` (vertex 1's subtrees), R =
``levels[split:]`` (the rest, L = n - split entries) and B = A - 1, each
entry one level up, so the two center rootings are (1, 2, A, R) and
(1, 2, R + 1, B).  When the first loses, so does every later rest X with
land < X < R, where land = ``(B + 2s)[:L]``:

* The first block stays, and a lexicographically smaller rest is never
  higher (its first block, a deepest one, is no larger), so with X the root
  is not a center or the tree is bicentral again.
* X + 1 > A in tuple order, so vertex 1's rooting is the larger.  Either X
  first exceeds land at an index inside B, where X + 1 first exceeds A; or
  X starts with all of B and goes on with an entry of at least 2, so that
  after their common prefix (1, 2, A) vertex 1's rooting goes on with an
  entry of at least 3 and the root's with B's first entry, 2.

(1, 2, A, B) is canonical, as B's blocks are the subtrees of vertex 1's
children, each shallower than the first block; (1, 2, A, land) is a prefix
of it, or it followed by leaves, so canonical too.  So set the rest to
land.  If B has at least L entries, land may win, so test it; otherwise
land loses as X does, so step from it without testing.  If land equals R,
step as before.

A walk holds its sequence as a ``bytearray``, one level a byte, so each
step's scans and copies are single bytes operations: ``find`` for
``split``, ``rstrip`` for the last entry above 2, ``rindex`` for its parent,
one slice assignment of the repeated segment for the copy, and ``translate``
tables for the other center rooting.  Each element of the stream is a
tuple.  A byte holds levels up to 255, so ``MAX_TREE_ORDER`` = 255 bounds
every walk, the cap override included.

The stream is deterministic, one representative per isomorphism class, and
counts are validated in the test suite against independent labeled-tree
oracles.  Labeled Pruefer space (n^(n-2)) is never enumerated here.

One scorer, ``_score``, reads a walked tree's degree counts, Albertson and
Sigma from its root's subtrees, for ``extremal_goals`` and exhaustive
``falsify``.  In a canonical sequence each vertex's descendants follow it
as one block, so ``bytes(levels).split(b"\x02")[1:]`` is one piece per
child of the root, holding that child's descendants: an empty piece is a
leaf, and the children of any other piece's vertex are
``piece.split(piece[:1])[1:]``.  A block's score is its vertex's degree,
the Albertson and Sigma sums over the edges below it, and its degree
counts, the sum of 256^d over its vertices' degrees d (a byte per degree,
which never carries, as no degree occurs 256 times in a walk).  Both
indices are sums over edges, so a vertex of degree k adds, for each child
c, c's sums plus |k - deg c| to Albertson and (k - deg c)^2 to Sigma; a
whole tree is scored the same way at its root.  A block's score depends on
its bytes alone, so one table, ``_BLOCKS``, holds it for every walk of the
process: the 7,741 trees of order 15 have 1,229 distinct root pieces, and
each is scored once.  The table holds at most ``_BLOCK_TABLE_SIZE``
blocks, every block of every order up to 19, and is cleared when full.
Class membership reads the degree counts, so no tree has a per-vertex
pass.  ``extremal_goals`` serves any number of (objective, direction)
goals from one walk of a class, each with its own optimum and first
witness in stream order; ``extremal`` is its single-goal form.  A
``Graph`` is built only per distinct witness, and its indices and
membership are computed again from the ``Graph``, independently of the
table.  One decoder, ``_tree_of_levels``, turns levels into degrees and
(parent, child) edges, for ``levels_to_graph``, ``falsify`` and CLI
``enumerate``.

Every walk of the trees of an order passes one gate, ``check_tree_order``:
an order above the one enumeration cap, ``DEFAULT_TREE_CAP``, is refused
unless the caller passes ``allow_over_cap=True`` (``--allow-over-cap`` on
the command line), and an order above ``MAX_TREE_ORDER`` always is.  A
tree's order is the length of its degree list.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DomainError, InputError, ResourceLimitError
from .graphs import Graph, check_vertex_count, format_edge_list, is_tree
from .indices import albertson, sigma
from .sequences import is_tree_sequence, prufer_degrees_and_edges, random_prufer_word

if TYPE_CHECKING:  # ``bounds`` is imported where a claim is evaluated, not here
    from .bounds import BoundInput, BoundParams

DEFAULT_TREE_CAP = 18
# A walk holds one level a byte, so no tree of a larger order can be walked.
MAX_TREE_ORDER = 255
# Byte tables that move every level of a sequence one up or one down.
_UP = bytes(range(1, 256)) + b"\x00"
_DOWN = b"\x00" + bytes(range(255))

OBJECTIVES: dict[str, Callable[[Graph], int]] = {
    "sigma": sigma,
    "albertson": albertson,
}
# Scores of blocks, keyed by their level bytes: (degree, Albertson below,
# Sigma below, degree counts).  Orders up to 19 have fewer blocks than this
# (14,854 up to order 18), so only a walk past them clears the table, which
# keeps its memory bounded at any order.
_BLOCK_TABLE_SIZE = 1 << 15
_BLOCKS: dict[bytes, tuple[int, int, int, int]] = {}


# ---------------------------------------------------------------------------
# Canonical rooted level sequences

def rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical rooted level sequences on n vertices, reverse-lex order."""
    levels = _path_levels(n)
    while True:
        yield tuple(levels)
        if _advance(levels) < 0:
            return


def _path_levels(n: int) -> bytearray:
    """The first sequence of every walk, the path 1, 2, ..., n, one byte a level."""
    check_tree_order(n, allow_over_cap=True)
    return bytearray(range(1, n + 1))


def _advance(levels: bytearray) -> int:
    """Step ``levels`` in place to the next canonical rooted sequence in
    reverse-lex order.  Returns the first position rewritten, or -1 (and
    leaves ``levels`` as it is) after the last sequence."""
    p = len(levels.rstrip(b"\x02")) - 1  # the last entry above 2; only the root is below
    if p < 1:
        return -1
    q = levels.rindex(levels[p] - 1, 0, p)  # its parent
    rest = len(levels) - p
    levels[p:] = (levels[q:p] * (rest // (p - q) + 1))[:rest]
    return p


def levels_to_graph(levels: Sequence[int]) -> Graph:
    """Tree from a level sequence: parent of i is the last j < i one level up."""
    return Graph(len(levels), _tree_of_levels(levels)[1])


def _canonical_rooted_levels(adjacency: Sequence[Sequence[int]], root: int) -> tuple[int, ...]:
    """Canonical (lex-max) level sequence of the tree rooted at ``root``:
    subtree blocks sorted in non-increasing lexicographic order."""
    n = len(adjacency)
    parent = [-1] * n
    depth = [0] * n
    order = [root]
    depth[root] = 1
    for v in order:
        for w in adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    blocks: dict[int, tuple[int, ...]] = {}
    for v in reversed(order):
        children = sorted(
            (blocks[w] for w in adjacency[v] if parent[w] == v),
            reverse=True,
        )
        block = [depth[v]]
        for child in children:
            block.extend(child)
        blocks[v] = tuple(block)
    return blocks[root]


def free_tree_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical center-rooted level sequences, one per free tree."""
    levels = _path_levels(n)
    while True:
        split = levels.find(2, 2)
        if split < 0:  # the root is a leaf: a center only for n <= 2
            if n > 2:
                levels[-1] = 2  # the next sequence whose root is not a leaf
                continue
            split = n
        gap = max(levels[:split]) - max(levels[split:], default=1)
        if gap > 1:  # root is not a center while this first block stays
            levels[split:] = b"\x02" * (n - split)
        elif gap == 0:
            yield tuple(levels)
        else:
            # Bicentral: keep only the lex-larger center rooting.
            b = levels[2:split].translate(_DOWN)  # B, as the module docstring names it
            if levels >= b"\x01\x02" + levels[split:].translate(_UP) + b:
                yield tuple(levels)
            else:
                rest = n - split
                land = (b + b"\x02" * rest)[:rest]
                if land != levels[split:]:  # every rest between them loses too
                    levels[split:] = land
                    if len(b) >= rest:
                        continue  # land may win: test it
        while True:
            p = _advance(levels)
            if p < 0:
                return
            if levels.find(2, 2, p + 1) >= 0 or n - p >= max(levels[1:p + 1]) - 1:
                break
            levels[p + 1:] = b"\x02" * (n - p - 1)  # no second subtree can be deep enough


def enumerate_free_trees(n: int, *, allow_over_cap: bool = False) -> Iterator[Graph]:
    """One tree per isomorphism class, in canonical order."""
    check_tree_order(n, allow_over_cap)
    for levels in free_tree_level_sequences(n):
        yield levels_to_graph(levels)


def check_tree_order(n: int, allow_over_cap: bool) -> None:
    """Reject an order that cannot be enumerated, or exceeds ``DEFAULT_TREE_CAP``
    unless allowed.  Every walk of the trees of an order is gated here."""
    if n < 1:
        raise DomainError("enumerate_free_trees requires n >= 1")
    if n > MAX_TREE_ORDER:
        raise ResourceLimitError(
            f"n={n} exceeds {MAX_TREE_ORDER}, the largest order whose levels fit in a byte each"
        )
    if n > DEFAULT_TREE_CAP and not allow_over_cap:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration cap {DEFAULT_TREE_CAP}; "
            "pass --allow-over-cap (allow_over_cap=True) to proceed"
        )


def tree_centers(g: Graph) -> tuple[int, ...]:
    """The one or two middle vertices, by leaf peeling."""
    n = g.vertex_count
    if n <= 2:
        return tuple(range(n))
    adj = [list(nbrs) for nbrs in g.adjacency()]
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[v] = 0
        layer = nxt
    return tuple(sorted(layer))


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Center-rooted canonical level sequence; equal iff trees are isomorphic."""
    if not is_tree(g):
        raise DomainError("canonical_form requires a tree")
    adjacency = g.adjacency()
    return max(_canonical_rooted_levels(adjacency, c) for c in tree_centers(g))


# ---------------------------------------------------------------------------
# Classes of trees and extremal search

class TreeClass(NamedTuple):
    """A finite, enumerable family of trees: those of order ``n`` whose
    degree counts (see ``_degree_counts``) lie in [``low``, ``high``).  The
    counts of a tree whose maximum degree is D lie in [256^D, 256^(D+1))."""

    n: int
    low: int
    high: int
    description: str

    # Each constructor checks the order first: no count may carry out of its
    # byte, and no 256^n is built for an order that is refused.
    @classmethod
    def all_trees(cls, n: int) -> "TreeClass":
        if n < 1:
            raise DomainError("all_trees requires n >= 1")
        check_tree_order(n, allow_over_cap=True)
        return cls(n, 0, 1 << (n << 3), f"all trees of order {n}")

    @classmethod
    def with_degree_multiset(cls, entries: Sequence[int]) -> "TreeClass":
        if not is_tree_sequence(entries):
            raise DomainError(f"{tuple(entries)} is not a tree sequence")
        check_tree_order(len(entries), allow_over_cap=True)
        counts = _degree_counts(entries)
        return cls(len(entries), counts, counts + 1, f"trees with degree multiset {tuple(sorted(entries))}")

    @classmethod
    def with_max_degree(cls, n: int, delta: int) -> "TreeClass":
        if n < 1:
            raise DomainError("with_max_degree requires n >= 1")
        if not 1 <= delta <= n - 1:  # the one tree of order 1 has no degree of 1 or more
            raise DomainError(f"max degree {delta} impossible for trees of order {n}")
        check_tree_order(n, allow_over_cap=True)
        description = f"trees of order {n} with maximum degree {delta}"
        return cls(n, 1 << (delta << 3), 1 << ((delta + 1) << 3), description)

    def contains(self, g: Graph) -> bool:
        return is_tree(g) and g.vertex_count == self.n and self.low <= _degree_counts(g.degrees) < self.high


class SearchResult(NamedTuple):
    class_description: str
    objective: str
    direction: str
    optimum: int
    witness: Graph
    witness_encoding: tuple[int, ...]
    trees_examined: int

    def to_json_dict(self) -> dict:
        edges = self.witness.sorted_edges()
        return {
            "class": self.class_description,
            "objective": self.objective,
            "direction": self.direction,
            "optimum": self.optimum,
            "witness_encoding": list(self.witness_encoding),
            "witness_edges": [list(e) for e in edges],
            "witness_edge_list": format_edge_list(self.witness.vertex_count, edges),
            "trees_examined": self.trees_examined,
        }


def extremal(
    tree_class: TreeClass,
    objective: str = "sigma",
    direction: str = "max",
    *,
    allow_over_cap: bool = False,
) -> SearchResult:
    """Exact optimum over the class; ties keep the first tree in canonical order."""
    return extremal_goals(tree_class, [(objective, direction)], allow_over_cap=allow_over_cap)[0]


def extremal_goals(
    tree_class: TreeClass,
    goals: Iterable[tuple[str, str]],
    *,
    allow_over_cap: bool = False,
) -> tuple[SearchResult, ...]:
    """Exact optimum over the class for each (objective, direction) goal, in
    the order given, from one walk of the class's trees.  Each goal keeps the
    first tree in canonical order that attains its optimum."""
    goals = tuple(goals)
    if not goals:
        raise InputError("need at least one (objective, direction) goal")
    for objective, direction in goals:
        if objective not in OBJECTIVES:
            raise InputError(f"objective must be one of {sorted(OBJECTIVES)}")
        if direction not in ("max", "min"):
            raise InputError("direction must be 'max' or 'min'")
    check_tree_order(tree_class.n, allow_over_cap)
    low, high = tree_class.low, tree_class.high
    # The least and greatest Albertson and Sigma values, each with the first
    # tree that attains it; both indices are at least 0.
    irr_max = sig_max = -1
    irr_min = sig_min = math.inf
    examined = 0
    for levels in free_tree_level_sequences(tree_class.n):
        counts, irr, sig = _score(levels)
        if not low <= counts < high:
            continue
        examined += 1
        if irr > irr_max:
            irr_max, irr_max_at = irr, levels
        if irr < irr_min:
            irr_min, irr_min_at = irr, levels
        if sig > sig_max:
            sig_max, sig_max_at = sig, levels
        if sig < sig_min:
            sig_min, sig_min_at = sig, levels
    if examined == 0:
        raise DomainError(f"empty class: {tree_class.description}")
    optima = {
        ("albertson", "max"): (irr_max, irr_max_at),
        ("albertson", "min"): (irr_min, irr_min_at),
        ("sigma", "max"): (sig_max, sig_max_at),
        ("sigma", "min"): (sig_min, sig_min_at),
    }
    witnesses: dict[tuple[int, ...], Graph] = {}
    results = []
    for objective, direction in goals:
        optimum, levels = optima[objective, direction]
        if levels not in witnesses:
            witnesses[levels] = levels_to_graph(levels)
        witness = witnesses[levels]
        # The table's scores, checked on the Graph by the indices' own pass.
        if OBJECTIVES[objective](witness) != optimum or not tree_class.contains(witness):
            raise AssertionError(f"scored {objective} {optimum} disagrees with witness {levels}")
        results.append(
            SearchResult(
                class_description=tree_class.description,
                objective=objective,
                direction=direction,
                optimum=optimum,
                witness=witness,
                witness_encoding=levels,
                trees_examined=examined,
            )
        )
    return tuple(results)


def _score(levels: Sequence[int]) -> tuple[int, int, int]:
    """Degree counts, Albertson and Sigma of a walked tree, from its root's
    pieces: the one place where a level sequence becomes numbers."""
    pieces = bytes(levels).split(b"\x02")  # the root, then one piece per child
    _, irr, sig, counts = _join(len(pieces) - 1, pieces[1:])
    return counts, irr, sig


def _join(degree: int, pieces: list[bytes]) -> tuple[int, int, int, int]:
    """Score of a vertex of ``degree`` whose children's blocks are ``pieces``."""
    irr = sig = 0
    counts = 1 << (degree << 3)
    get = _BLOCKS.get
    for piece in pieces:
        child_degree, child_irr, child_sig, child_counts = get(piece) or _block(piece)
        step = child_degree - degree
        irr += child_irr + abs(step)
        sig += child_sig + step * step
        counts += child_counts
    return degree, irr, sig, counts


def _block(piece: bytes) -> tuple[int, int, int, int]:
    """Score of the vertex whose descendants' levels are ``piece``, built
    from its children's and kept in ``_BLOCKS``."""
    if piece:
        children = piece.split(piece[:1])[1:]  # after b"", one piece per child
        score = _join(len(children) + 1, children)  # its children and its parent
    else:
        score = (1, 0, 0, 1 << 8)  # a leaf
    if len(_BLOCKS) >= _BLOCK_TABLE_SIZE:
        _BLOCKS.clear()
    _BLOCKS[piece] = score
    return score


def _degree_counts(degrees: Iterable[int]) -> int:
    """The sum of 256^d over ``degrees``: a byte per degree d, its count."""
    return sum(1 << (d << 3) for d in degrees)


# ---------------------------------------------------------------------------
# Falsification

class ExhaustiveMode(NamedTuple):
    n_max: int


class RandomMode(NamedTuple):
    n: int
    samples: int
    seed: int


class Counterexample(NamedTuple):
    """A tree refuting a catalog entry, as its JSON record: ``bound_id``,
    the tree's ``n``, its ascending ``edges`` (u, v), u < v, and their
    ``edge_list`` text, which every record of the same tree shares, and the
    entry's ``report``, one dict per distinct report in a ``falsify`` call,
    which every record with an equal report shares.  The record is the only
    copy of the tree."""

    record: dict

    @property
    def bound_id(self) -> str:
        return self.record["bound_id"]

    def to_json_dict(self) -> dict:
        return self.record


def falsify(
    bound_id: str,
    mode: ExhaustiveMode | RandomMode,
    params: Optional[BoundParams] = None,
    *,
    allow_over_cap: bool = False,
) -> list[Counterexample]:
    """Hunt for trees meeting a claim's hypotheses on which it evaluates false.

    ``bound_id`` may be a base id or ``"all"``: every expanded entry is
    decided on a tree's ``BoundInput``, built from its degrees and edges, by
    ``bounds.counterexample_report``, which skips an entry whose hypotheses
    fail and writes a counterexample's report from the sides that refute
    it, with no ``BoundReport``.  No ``Graph`` is built: a tree with a
    counterexample has its decoded edges sorted once, into the ``n``,
    ``edges`` and ``edge_list`` that all of its records share.  Every entry
    reads only the degrees, Albertson and Sigma (B14 asks only that edges
    are present), so a tree's verdicts are fixed by its signature, which
    ``_score`` reads off its level sequence: its degree counts, Albertson
    and Sigma.  Exhaustive mode covers every isomorphism class with
    2 <= n <= n_max, rejects an ``n_max`` over the cap before it generates
    any tree, and decides each signature once, on its first tree, whose
    input must agree with ``_score`` (else ``AssertionError``); later trees
    share that tree's reports.  In both modes a report equal in every field
    to an earlier one of the call (the float decimals and exactness flags
    included) is that earlier dict, so records share one dict per distinct
    report.  A tree is decoded at most once, and only if its signature is
    new or it refutes an entry, so 986 trees with n <= 12 build 555
    inputs.  Random mode decodes seeded labeled trees of
    a fixed order from random Pruefer words and decides each on its own
    input, with no memo: samples seldom repeat a signature (3 to 7 of 200
    at order 40).  A sample is scored in its one decode, which gives its
    degrees, edges, Albertson and Sigma, and its input is built from those
    numbers; each sample's seed is drawn only when it is decided.
    ``params`` None means ``BoundParams()``.  The returned list is
    deterministic for identical arguments, and follows the order in which
    the trees are generated: in exhaustive mode, by increasing order.
    """
    from . import bounds

    if params is None:
        params = bounds.BoundParams()
    bound_ids = bounds.expand_bound_id(bound_id)
    specs = [(bid, bounds.CATALOG[bid]) for bid in bound_ids]
    found: list[Counterexample] = []
    distinct: dict[tuple, dict] = {}  # each distinct report of the call, keyed on all its fields

    def decide(binput: BoundInput) -> list[tuple[str, dict]]:  # the entries it refutes
        refuted = []
        for bid, spec in specs:
            if (report := bounds.counterexample_report(bid, spec, binput)) is not None:
                # Every field; a zero decimal's sign shows in its printed side.
                key = tuple([tuple(v.items()) if type(v) is dict else tuple(v) if type(v) is list else v
                             for v in report.values()])
                refuted.append((bid, distinct.setdefault(key, report)))
        return refuted

    def record(degrees: Sequence[int], edges: Sequence[tuple[int, int]], reports: list[tuple[str, dict]]) -> None:
        ordered = sorted(edges)  # both decodes give each edge as (u, v), u < v
        tree = {"n": len(degrees), "edges": list(map(list, ordered)),
                "edge_list": format_edge_list(len(degrees), ordered)}
        found.extend(Counterexample({"bound_id": bid, **tree, "report": report}) for bid, report in reports)

    if isinstance(mode, ExhaustiveMode):
        if mode.n_max < 2:
            raise DomainError("exhaustive falsification needs n_max >= 2")
        check_tree_order(mode.n_max, allow_over_cap)
        decided: dict[tuple[int, int, int], list[tuple[str, dict]]] = {}  # by signature
        for n in range(2, mode.n_max + 1):
            for levels in free_tree_level_sequences(n):
                signature, tree = _score(levels), None
                if (reports := decided.get(signature)) is None:
                    degrees, edges = tree = _tree_of_levels(levels)
                    binput = bounds.BoundInput.from_edges(degrees, edges, params)
                    # The memo key, checked on the decoded tree by the edge pass.
                    if (_degree_counts(binput.entries), binput.irr_value, binput.sigma_value) != signature:
                        raise AssertionError(f"scored signature {signature} disagrees with tree {levels}")
                    reports = decided[signature] = decide(binput)
                if reports:
                    record(*(tree or _tree_of_levels(levels)), reports)
        return found

    if mode.n < 2:
        raise DomainError("random falsification needs n >= 2")
    if mode.samples < 1:
        raise DomainError("need at least one sample")
    n = mode.n
    check_vertex_count(n)
    label = f"graph n={n} m={n - 1}"  # from_edges' label for a tree of order n
    rng = random.Random(mode.seed)
    for _ in range(mode.samples):
        degrees, edges, irr, sig = prufer_degrees_and_edges(random_prufer_word(n, rng.randrange(2**63)), n)
        binput = bounds.BoundInput(tuple(sorted(degrees)), n, 2 * n - 2, irr, sig, params, label, edges)
        if reports := decide(binput):
            record(degrees, edges, reports)
    return found


def _tree_of_levels(levels: Sequence[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Degrees and (parent, child) edges of a level sequence's tree, in one
    pass: the parent of i is the latest vertex one level up."""
    degrees = [0] + [1] * (len(levels) - 1)
    edges = []
    latest = [0] * (len(levels) + 1)  # latest[l] = last vertex seen at level l
    for i, lvl in enumerate(levels):
        latest[lvl] = i
        if i:
            p = latest[lvl - 1]
            edges.append((p, i))
            degrees[p] += 1
    return degrees, edges
