"""Irregularity indices: direct graph definitions and degree-sequence
closed forms, plus cross-checks of published formulas against ground truth.

Every value here is an exact integer; table reproduction elsewhere depends
on that.  The ``check_*`` functions never treat a published formula as an
oracle: the graph computation is always the ground truth and the formula is
the claim under audit.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError
from .graphs import (
    Graph,
    cartesian_product,
    complement,
    complete_bipartite,
    cycle,
    double_star as build_double_star,
    monogenic as build_monogenic,
    path,
)
from .sequences import DegreeSequenceView, is_tree_sequence, realize_tree


def albertson(g: Graph) -> int:
    """Sum over edges of |deg(u) - deg(v)|."""
    return albertson_and_sigma(g.degrees, g.edges)[0]


def sigma(g: Graph) -> int:
    """Sum over edges of (deg(u) - deg(v))^2."""
    return albertson_and_sigma(g.degrees, g.edges)[1]


def albertson_and_sigma(degrees: Sequence[int], edges: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Albertson and Sigma of the graph with these per-vertex degrees and
    edges, each listed once, from one pass over the edges."""
    irr = sig = 0
    for u, v in edges:
        d = degrees[u] - degrees[v]
        if d < 0:
            d = -d
        irr += d
        sig += d * d
    return irr, sig


def sigma_t(g: Graph) -> int:
    """Sum over all unordered vertex pairs of (deg(u) - deg(v))^2, which
    expands to n * sum(d^2) - (sum d)^2: one pass over the degrees."""
    degs = g.degrees
    return g.vertex_count * sum(d * d for d in degs) - sum(degs) ** 2


def zagreb_m1(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    return sum(d * d for d in g.degrees)


# ---------------------------------------------------------------------------
# Closed forms over degree sequences

def sigma_closed_form(view: DegreeSequenceView) -> int:
    """Tree Sigma closed form evaluated on the entries in their given order.

    With entries d_1..d_k and n read off per the view's convention:

        (d_1+1)(d_1-1)^2 + (d_k+1)(d_k-1)^2
        + sum_{i=2}^{k-1} (d_i+2)(d_i-1)^2
        + sum_{i=2}^{k-1} (d_i - d_{i+1})^2
        + 2n - 2
    """
    if view.k < 2:
        raise DomainError("sigma_closed_form needs at least 2 entries")
    d = view.entries
    k = view.k
    n = view.n
    total = (d[0] + 1) * (d[0] - 1) ** 2 + (d[k - 1] + 1) * (d[k - 1] - 1) ** 2
    total += sum((d[i] + 2) * (d[i] - 1) ** 2 for i in range(1, k - 1))
    total += sum((d[i] - d[i + 1]) ** 2 for i in range(1, k - 1))
    total += 2 * n - 2
    return total


def albertson_closed_form_len4(entries: Sequence[int]) -> int:
    """Albertson closed form for exactly four entries.

    The trailing absolute-difference sum runs over the three consecutive
    pairs only (the four-term reading would index past the sequence):

        d_1^2 + d_4^2 + sum_{i=1}^{3} |d_i - d_{i+1}|
        + sum_{i=2}^{3} (d_i+2)(d_i-1) - 2
    """
    if len(entries) != 4:
        raise DomainError(f"closed form needs exactly 4 entries, got {len(entries)}")
    d = tuple(entries)
    total = d[0] ** 2 + d[3] ** 2
    total += sum(abs(d[i] - d[i + 1]) for i in range(3))
    total += sum((d[i] + 2) * (d[i] - 1) for i in (1, 2))
    return total - 2


def albertson_monogenic(n: int) -> int:
    """Albertson index of the threshold family: (n^3-4n)/12 even, (n^3-n)/12 odd."""
    if n < 3:
        raise DomainError("albertson_monogenic requires n >= 3")
    numerator = n**3 - 4 * n if n % 2 == 0 else n**3 - n
    value, rem = divmod(numerator, 12)
    assert rem == 0, "closed form should be integral for n >= 3"
    return value


def sigma_double_star(r: int, k: int) -> int:
    """Sigma of the double star with center degrees r and k."""
    if r < 1 or k < 1:
        raise DomainError("sigma_double_star requires r >= 1 and k >= 1")
    return (k - 1) ** 3 + (r - 1) ** 3 + (k - r) ** 2


# ---------------------------------------------------------------------------
# Published-formula audit: claimed value vs. direct computation.

class FormCheck(NamedTuple):
    claim_id: str
    instance: str
    claimed: int
    actual: int
    note: str = ""

    @property
    def agree(self) -> bool:
        return self.claimed == self.actual


def check_bipartite_sigma_form(a: int, b: int) -> FormCheck:
    """Published complete-bipartite form b(b-a)^2 vs. direct a*b*(a-b)^2."""
    g = complete_bipartite(a, b)
    return FormCheck(
        claim_id="bipartite_sigma",
        instance=f"K_{{{a},{b}}}",
        claimed=b * (b - a) ** 2,
        actual=sigma(g),
    )


def check_product_sigma_forms(g: Graph, h: Graph, label: str = "") -> tuple[FormCheck, FormCheck]:
    """Product rule as published (n_G sigma(G) + n_H sigma(H)) and with the
    multipliers swapped (n_H sigma(G) + n_G sigma(H)); the swap is what
    direct computation supports."""
    actual = sigma(cartesian_product(g, h))
    instance = label or f"product of {g.vertex_count}- and {h.vertex_count}-vertex factors"
    as_printed = FormCheck(
        claim_id="product_sigma_as_printed",
        instance=instance,
        claimed=g.vertex_count * sigma(g) + h.vertex_count * sigma(h),
        actual=actual,
    )
    swapped = FormCheck(
        claim_id="product_sigma_swapped",
        instance=instance,
        claimed=h.vertex_count * sigma(g) + g.vertex_count * sigma(h),
        actual=actual,
    )
    return as_printed, swapped


def check_complement_identity(g: Graph, label: str = "") -> FormCheck:
    """sigma(G) + sigma(complement(G)) vs. n*M1(G) - 4m^2."""
    n, m = g.vertex_count, g.edge_count
    return FormCheck(
        claim_id="complement_zagreb_identity",
        instance=label or f"{n}-vertex graph with {m} edges",
        claimed=n * zagreb_m1(g) - 4 * m * m,
        actual=sigma(g) + sigma(complement(g)),
    )


def check_albertson_len4_form(entries: Sequence[int]) -> FormCheck:
    """Four-entry closed form vs. the caterpillar realization (when one exists)."""
    if not is_tree_sequence(entries):
        raise DomainError(f"{tuple(entries)} is not a tree sequence")
    tree = realize_tree(entries)
    return FormCheck(
        claim_id="albertson_len4_closed_form",
        instance=f"tree sequence {tuple(entries)}",
        claimed=albertson_closed_form_len4(entries),
        actual=albertson(tree),
        note="difference sum truncated to the three defined consecutive pairs",
    )


def compare_known_forms() -> list[FormCheck]:
    """Audit battery on canonical witnesses; order is stable for reporting."""
    return [
        check_bipartite_sigma_form(2, 3),
        *check_product_sigma_forms(path(3), path(2), "P_3 x K_2"),
        check_complement_identity(path(4), "P_4"),
        FormCheck("path_sigma_constant", "P_5", 2, sigma(path(5))),
        FormCheck("cycle_sigma_zero", "C_5", 0, sigma(cycle(5))),
        FormCheck("double_star_sigma", "S_{3,4}", sigma_double_star(3, 4), sigma(build_double_star(3, 4))),
        FormCheck(
            "monogenic_albertson",
            "threshold graph on 6 labels",
            albertson_monogenic(6),
            albertson(build_monogenic(6)),
        ),
        check_albertson_len4_form((1, 1, 2, 2)),
    ]
