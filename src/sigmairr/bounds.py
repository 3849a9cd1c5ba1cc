"""Catalog of published inequality/identity claims, evaluated exactly.

Every catalog entry pairs formulas with a hypothesis predicate.  Evaluation
is exact first: each side of the sixteen rational entries is an integer
numerator over a positive integer denominator, read off a few integers of
the input (n, 2m, the degree sum S, the entry count k, the first and last
two entries, the largest adjacent sum and difference), and a relation is
decided as ln*rd against rn*ld, so deciding builds no ``Fraction``.
Only where a root appears, B6's square root and both sides of B15b, is a
side a box: three integers (lo, hi, den) with lo/den <= value <= hi/den,
at 64 fractional bits and again at 128 where 64 does not decide.  One
integer rule decides a relation with a box: it holds if it holds at the
worst pair of ends and fails if it fails at the best pair.  B6 is still
decided exactly: sigma >= sqrt(S*C/k) + s iff sigma - s >= 0 and
k*(sigma - s)^2 >= S*C; its box only gives the printed right side.  B15b
is decided only when its boxes separate.  Its (sum sqrt(d))^2 takes
D(D-1)/2 square roots over the D distinct degrees, accumulated as integer
numerators over 2^bits, and yields the same box as the sum over all
k(k-1)/2 pairs of entries.  A report is always produced for well-formed
input: hypothesis failures, including division-by-zero guards, gate the
verdict as non-probative instead of crashing.

Each input is one record, a ``BoundInput``: a graph's record is built
from its per-vertex degrees and edges, so its order is the length of its
degree list.  The record holds every symbol an entry reads (n, 2m, the
max degree, k, S, the entries, the cube sum, Albertson, Sigma and the
resolved parameters), each once under one name, and hypotheses, sides and
verdicts read it directly.  Reports and falsification share one decision
path, ``_decide``.  ``evaluate_bound`` and ``evaluate_all`` build a full
``BoundReport`` from it.  ``search.falsify`` asks
``counterexample_report``, which returns None at once when a hypothesis
fails or the entry is not computable, uses an entry's exact ``verdict``
where one is set (B6), and otherwise reads ``_decide``; for a refuted pair
it writes the report's JSON form from the refuting sides themselves, with
no second decision and no ``BoundReport``.  A rational side is printed
from its integers (in lowest terms, and as the correctly rounded
``num / den`` float), a box from the integers of its midpoint
(lo + hi) / (2 den), and a margin is cross-multiplied.  ``_side_text`` is
the one place a side or a margin becomes text, for both kinds of report.
Parameter defaults depend on n, m and the max degree alone, and are
resolved once per such triple.

Several claims are false on ordinary trees.  That is expected; the contract
here is faithful evaluation and reporting, not the truth of the claims.
"""

from __future__ import annotations

import decimal
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Collection, Mapping, Optional, Sequence, Union

from .errors import DomainError, InputError
from .graphs import Graph
from .indices import albertson_and_sigma, sigma_closed_form
from .sequences import Convention, DegreeSequenceView

_BITS_FIRST = 64
_BITS_ESCALATED = 128


# A printed exact value; a rational side (numerator, denominator > 0); a root's
# box (lo, hi, den > 0), lo <= hi, with lo/den <= value <= hi/den and exact iff
# lo == hi; a side as a report prints it (numerator, denominator > 0, whether it
# is exact).
Exact = Union[int, Fraction]
Ratio = tuple[int, int]
Box = tuple[int, int, int]
Side = Union[Ratio, Box]
Printed = tuple[int, int, bool]


def _integer_nth_root(value: int, degree: int) -> int:
    """floor(value ** (1/degree)) for value >= 0, degree >= 1, exactly: Newton's
    method from just above a float estimate over the top 64 bits of ``value``.
    The estimate is within a relative (whole + 34) * 2^-52 of the root, where
    2^whole <= root; twice that and 2 for the truncation start Newton at or
    above the floor, from where its steps descend strictly to it (AM-GM),
    quadratically from so near."""
    if value < 0:
        raise DomainError("nth root of negative integer")
    if value == 0 or degree == 1:
        return value
    if degree == 2:
        return math.isqrt(value)
    shift = max(value.bit_length() - 64, 0)
    whole, part = divmod((math.log2(value >> shift) + shift) / degree, 1)
    guess = (int(2.0 ** (part + 53)) << int(whole)) >> 53  # >= 1, as whole >= 0
    guess += (guess * (int(whole) + 64) >> 51) + 2
    while True:
        nxt = ((degree - 1) * guess + value // guess ** (degree - 1)) // degree
        if nxt >= guess:
            break
        guess = nxt
    return guess


def _scaled_root(value: int, degree: int, bits: int) -> tuple[int, int]:
    """Integers lo <= value ** (1/degree) * 2^bits <= hi for value >= 0: equal
    when value is a perfect power, else hi = lo + 1."""
    lo = _integer_nth_root(value << (bits * degree), degree)
    exact = not lo & ((1 << bits) - 1) and (lo >> bits) ** degree == value
    return lo, lo if exact else lo + 1


def sqrt_rval(x: Fraction, bits: int) -> Box:
    """sqrt(x) boxed to 2^-bits, exact when x is a perfect rational square."""
    if x < 0:
        raise DomainError("sqrt of negative value")
    q = x.denominator
    return (*_scaled_root(x.numerator * q, 2, bits), q << bits)  # sqrt(p/q) == sqrt(p*q) / q


def nth_root_rval(x: Fraction, degree: int, bits: int) -> Box:
    """x ** (1/degree) boxed to 2^-bits, exact on perfect powers."""
    if x < 0:
        raise DomainError("root of negative value")
    q = x.denominator
    # x^(1/deg) == (p * q^(deg-1))^(1/deg) / q
    return (*_scaled_root(x.numerator * q ** (degree - 1), degree, bits), q << bits)


def _at_least_root_plus(value: int, num: int, den: int, shift: int) -> bool:
    """value >= sqrt(num/den) + shift, decided exactly (num >= 0, den > 0)."""
    gap = value - shift
    return gap >= 0 and den * gap * gap >= num


_HOLDS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


# ---------------------------------------------------------------------------
# Parameters

# The strong probable-prime test to the 13 prime bases 2..41 is exact below
# PRIME_LIMIT (J. Sorenson and J. Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(x: int) -> bool:
    """Whether x is prime, decided exactly for every x < PRIME_LIMIT."""
    for q in _PRIME_BASES:
        if x % q == 0:
            return x == q
    if x < 2:
        return False
    s = ((x - 1) & (1 - x)).bit_length() - 1  # x - 1 = d * 2^s, d odd
    for a in _PRIME_BASES:
        y = pow(a, (x - 1) >> s, x)
        if y == 1:
            continue
        for _ in range(s):
            if y == x - 1:
                break
            y = y * y % x
        else:
            return False
    return True


def ceil_log2(x: int) -> int:
    if x < 1:
        raise DomainError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the catalog.

    ``alpha``/``beta`` have no published semantics; when unset they default
    to ceil(log2(max_degree + 1)) of the evaluated input.  ``eta`` defaults
    to ceil(2*n*max_degree/m).  ``eta1`` must lie in (2, 4]; when unset it
    is 2^n/(n-eta)! clamped into [2.01, 4] (clamping is recorded on the
    report).  ``strict_max_degree_window`` switches the B10 gate from
    the statement form (max_degree >= 4) to the stricter proof window
    4 <= max_degree - 3 <= n/4.
    """

    alpha: Optional[int] = None
    beta: Optional[int] = None
    p: int = 2
    eta: Optional[int] = None
    eta1: Optional[Fraction] = None
    strict_max_degree_window: bool = False

    def __post_init__(self) -> None:
        if self.alpha is not None and self.alpha < 0:
            raise InputError("alpha must be >= 0")
        if self.beta is not None and self.beta < 0:
            raise InputError("beta must be >= 0")
        if self.p >= PRIME_LIMIT:
            raise InputError(f"p must be below {PRIME_LIMIT}, the range of the exact primality test")
        if not _is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.eta is not None and self.eta < 1:
            raise InputError("eta must be a positive integer")
        if self.eta1 is not None:
            e1 = Fraction(self.eta1)
            if not (2 < e1 <= 4):
                raise InputError("eta1 must lie in (2, 4]")
            object.__setattr__(self, "eta1", e1)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "p": self.p,
            "eta": self.eta,
            "eta1": None if self.eta1 is None else str(self.eta1),
            "t": 3,  # a former parameter that no entry read; pinned output keeps its key
            "strict_max_degree_window": self.strict_max_degree_window,
        }


_ETA1_FLOOR = Fraction(201, 100)


@lru_cache(maxsize=1024)
def resolve_parameters(params: BoundParams, n: int, two_m: int, max_degree: int) -> tuple[Mapping, Mapping]:
    """Parameter defaults for an input's n, 2m and max degree: (values, notes
    per param), read-only and shared by every input with these three numbers."""
    notes: dict[str, tuple[str, ...]] = {}
    alpha = params.alpha if params.alpha is not None else ceil_log2(max_degree + 1)
    beta = params.beta if params.beta is not None else ceil_log2(max_degree + 1)
    if params.alpha is None:
        notes["alpha"] = ("alpha defaulted to ceil(log2(max_degree+1)); no published semantics",)
    if params.beta is None:
        notes["beta"] = ("beta defaulted to ceil(log2(max_degree+1)); no published semantics",)
    if params.eta is not None:
        eta = params.eta
    elif two_m == 0:
        raise DomainError("m = 0: the default eta = ceil(2*n*max_degree/m) is undefined; give eta")
    else:
        eta = _ceil_div(4 * n * max_degree, two_m)
    if params.eta1 is not None:
        eta1 = params.eta1
    else:
        gap = n - eta
        if gap < 0:
            raw = None
        elif gap > 20 and n * math.log(2) - math.lgamma(gap + 1) < -8:
            # the exact value is astronomically below 2; skip the factorial
            raw = Fraction(0)
        else:
            raw = Fraction(2**n, math.factorial(gap))
        if raw is None:
            eta1 = Fraction(4)
            notes["eta1"] = ("eta1 source expression undefined (eta > n); clamped to 4",)
        elif raw < _ETA1_FLOOR:
            eta1 = _ETA1_FLOOR
            notes["eta1"] = ("eta1 clamped up to 2.01 (source expression below 2)",)
        elif raw > 4:
            eta1 = Fraction(4)
            notes["eta1"] = ("eta1 clamped down to 4 (source expression above 4)",)
        else:
            eta1 = raw
    values = {
        "alpha": alpha,
        "beta": beta,
        "p": params.p,
        "eta": eta,
        "eta1": eta1,
        "strict_max_degree_window": params.strict_max_degree_window,
    }
    return MappingProxyType(values), MappingProxyType(notes)


# ---------------------------------------------------------------------------
# Input record

class BoundInput:
    """One catalog input: every symbol a catalog entry's hypothesis, sides
    and verdict read, each stored once under one name, with provenance.

    The record is its entries d_1..d_k (each >= 1, in the order given), n
    and 2m; it adds the max degree, k, the degree sum S, the cube sum and the
    parameters resolved for (n, 2m, max degree), with their notes in
    ``param_notes``.  ``irr_value`` and ``sigma_value`` are None when
    unknown, and ``edges``, a graph's edge list (B14 reads it), is None
    without a graph.  :meth:`from_edges` and :meth:`from_graph` build a
    graph's record, :meth:`from_view` reads n and 2m off a view by its
    convention, and :meth:`from_table_row` adds the printed columns.
    """

    def __init__(
        self,
        entries: tuple[int, ...],
        n: int,
        two_m: int,
        irr_value: Optional[int],
        sigma_value: Optional[int],
        params: BoundParams = BoundParams(),
        label: str = "",
        edges: Optional[Collection[tuple[int, int]]] = None,
    ) -> None:
        self.irr_value = irr_value
        self.sigma_value = sigma_value
        self.params = params
        self.label = label
        self.edges = edges
        self.entries = entries
        self.n = n
        self.two_m = two_m
        self.max_degree = max(entries)
        self.k = len(entries)
        self.degree_sum = sum(entries)
        self.cube_sum = sum(map(operator.mul, entries, map(operator.mul, entries, entries)))
        # alpha, beta, p, eta, eta1 and strict_max_degree_window, resolved once
        # here and shared by every catalog entry evaluated on this input
        resolved, self.param_notes = resolve_parameters(params, n, two_m, self.max_degree)
        vars(self).update(resolved)

    # 2*maxA and 2*maxT, built on first use: only B3, B4 and B5 read them.
    @cached_property
    def max_adjacent_sum(self) -> int:
        d = self.entries
        return max(map(operator.add, d[1:], d))

    @cached_property
    def max_adjacent_diff(self) -> int:
        d = self.entries
        return max(map(operator.sub, d[1:], d))

    @classmethod
    def from_graph(cls, g: Graph, params: BoundParams = BoundParams(), label: str = "") -> "BoundInput":
        return cls.from_edges(g.degrees, g.edges, params, label)

    @classmethod
    def from_edges(
        cls,
        degrees: Sequence[int],
        edges: Collection[tuple[int, int]],
        params: BoundParams = BoundParams(),
        label: str = "",
    ) -> "BoundInput":
        """Input of the simple graph whose vertex v has degree ``degrees[v]``,
        with these edges, each listed once: its entries are the sorted degrees
        and its order their count.  Albertson and Sigma take one pass."""
        entries = tuple(sorted(degrees))
        if not entries:
            raise DomainError("graph has no vertices")
        if entries[0] < 1:
            raise DomainError(f"graph has an isolated vertex: vertex {degrees.index(entries[0])} has no edge")
        irr, sig = albertson_and_sigma(degrees, edges)
        n = len(entries)
        return cls(entries, n, sum(entries), irr, sig, params, label or f"graph n={n} m={len(edges)}", edges)

    @classmethod
    def from_view(
        cls,
        view: DegreeSequenceView,
        irr_value: Optional[int] = None,
        sigma_value: Optional[int] = None,
        params: BoundParams = BoundParams(),
        label: str = "",
    ) -> "BoundInput":
        if sigma_value is None and view.convention is Convention.PAPER_TABLE and view.k >= 2:
            sigma_value = sigma_closed_form(view)
        label = label or f"sequence {view.entries} ({view.convention.value})"
        return cls(view.entries, view.n, view.two_m, irr_value, sigma_value, params, label)

    @classmethod
    def from_table_row(cls, table_id: int, row_index: int, params: BoundParams = BoundParams()) -> "BoundInput":
        from .stats_tables import table_row_view  # local import: stats embeds the data

        view, irr_value = table_row_view(table_id, row_index)
        return cls.from_view(
            view,
            irr_value=irr_value,
            params=params,
            label=f"table {table_id} row {row_index + 1}",
        )


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    label: str
    hypotheses_met: bool
    failed_hypotheses: tuple[str, ...]
    relation: str
    lhs: Optional[Exact]
    rhs: Optional[Exact]
    lhs_exact: bool
    rhs_exact: bool
    holds: Optional[bool]
    margin: Optional[Exact]
    params_used: Mapping[str, object]
    notes: tuple[str, ...] = ()
    indeterminate: bool = False

    def to_json_dict(self) -> dict:
        sides = None
        if self.lhs is not None:
            lhs, rhs, margin = self.lhs, self.rhs, self.margin
            sides = (
                (lhs.numerator, lhs.denominator, self.lhs_exact),
                (rhs.numerator, rhs.denominator, self.rhs_exact),
                (margin.numerator, margin.denominator),
            )
        return _report_json(
            self.bound_id, self.label, self.failed_hypotheses, self.relation, sides,
            self.holds, self.params_used, self.notes, self.indeterminate,
        )


def _report_json(
    bound_id: str,
    label: str,
    failed: Sequence[str],
    relation: str,
    sides: Optional[tuple[Printed, Printed, Ratio]],
    holds: Optional[bool],
    params_used: Mapping[str, object],
    notes: Sequence[str],
    indeterminate: bool,
) -> dict:
    """A report's JSON form.  ``sides`` is None where the entry is not
    computable, else the printed lhs and rhs and the margin, which is exact
    when both sides are."""
    lhs = rhs = margin = lhs_decimal = rhs_decimal = None
    lhs_exact = rhs_exact = True
    if sides is not None:
        (ln, ld, lhs_exact), (rn, rd, rhs_exact), (mn, md) = sides
        lhs, rhs = _side_text(ln, ld, lhs_exact), _side_text(rn, rd, rhs_exact)
        lhs_decimal, rhs_decimal = _decimal(ln, ld), _decimal(rn, rd)
        margin = _side_text(mn, md, lhs_exact and rhs_exact)
    return {
        "bound_id": bound_id,
        "label": label,
        "hypotheses_met": not failed,
        "failed_hypotheses": list(failed),
        "relation": relation,
        "lhs": lhs,
        "rhs": rhs,
        "lhs_decimal": lhs_decimal,
        "rhs_decimal": rhs_decimal,
        "lhs_exact": lhs_exact,
        "rhs_exact": rhs_exact,
        "holds": holds,
        "margin": margin,
        "params": {k: str(v) for k, v in sorted(params_used.items())},
        "notes": list(notes),
        "indeterminate": indeterminate,
    }


def _side_text(num: int, den: int, exact: bool) -> str:
    """How a report prints the value num/den (den > 0): in lowest terms,
    ``num`` or ``num/den``, when it is exact, else to 12 significant digits
    of the nearest float, or of the value itself beyond float range.  The
    one place a side or a margin becomes text; it writes what ``str`` and
    ``float`` of ``Fraction(num, den)`` write, also for more digits than the
    interpreter converts with ``str``, and ``.12g`` with an unbounded
    exponent where there is no float."""
    if not exact:
        try:
            return f"{num / den:.12g}"
        except OverflowError:
            digits = decimal.Context(prec=12, Emax=decimal.MAX_EMAX)
            return f"{digits.divide(decimal.Decimal(num), decimal.Decimal(den)).normalize(digits):g}"
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # beyond sys.get_int_max_str_digits(), which Decimal(int) is not subject to
        return "/".join(str(decimal.Decimal(x)) for x in ((num,) if den == 1 else (num, den)))


def _decimal(num: int, den: int) -> Optional[float]:
    """The float nearest num/den (int division is correctly rounded, as
    ``float(Fraction(num, den))`` is), or None beyond float range."""
    try:
        return num / den
    except OverflowError:
        return None


def _margin(relation: str, lhs: Ratio, rhs: Ratio) -> Ratio:
    """How far ``relation`` holds between two sides, cross-multiplied over
    the product of their denominators: rhs - lhs for < and <=, lhs - rhs
    for > and >=, and -|lhs - rhs| for ==."""
    (ln, ld), (rn, rd) = lhs, rhs
    gap = ln * rd - rn * ld
    if relation in ("<=", "<"):
        gap = -gap
    elif relation == "==":
        gap = -abs(gap)
    return gap, ld * rd


CSV_HEADER = ["bound_id", "label", "hypotheses_met", "lhs", "rhs", "relation", "holds", "margin", "params"]


# ---------------------------------------------------------------------------
# Catalog

@dataclass(frozen=True)
class BoundSpec:
    bound_id: str
    title: str
    relation: str
    requires: tuple[str, ...]  # input fields the entry reads, sorted
    # hypothesis -> (failed descriptions, computable); lhs/rhs take a bit
    # precision and return a Ratio, or a Box where a root appears.
    hypothesis: Callable[[BoundInput], tuple[list[str], bool]]
    lhs: Callable[[BoundInput, int], Side]
    rhs: Callable[[BoundInput, int], Side]
    extra_notes: tuple[str, ...] = ()
    # parameters the entry reads; reported as params_used with their notes
    params: tuple[str, ...] = ()
    # decides the relation exactly for an entry with a Box side, whose
    # box then only gives the printed value
    verdict: Optional[Callable[[BoundInput], bool]] = None


# The mean degree is S/k and m is 2m/2; the half-sums a_i and
# half-differences t_i of adjacent entries d_i are (d_{i+1} +- d_i)/2.

def _sigma_lhs(b: BoundInput, bits: int) -> Ratio:
    return b.sigma_value, 1


def _irr_ratio(b: BoundInput, bits: int) -> Ratio:
    return 2 * b.irr_value, b.max_degree * (b.max_degree - 1) ** 2


def _irr_lhs(b: BoundInput, bits: int) -> Ratio:
    return b.irr_value, 1


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b), from one floor division."""
    return -(-a // b)


def _hyp_none(b: BoundInput) -> tuple[list[str], bool]:
    return [], True


def _hyp_b1(b: BoundInput) -> tuple[list[str], bool]:
    if b.max_degree < 2:
        return ["max_degree*(max_degree-1)^2 is zero (max degree < 2)"], False
    return [], True


def _guard_m(b: BoundInput, failed: list[str]) -> tuple[list[str], bool]:
    """B2's ceil(2n/m) needs m > 0."""
    if b.two_m == 0:
        return [*failed, "m = 0 (division by zero)"], False
    return failed, True


# The most bits a power 2^alpha, 2^beta, 2^p or 2^eta may have.  A graph's
# default eta is at most 4n, so below order 2^15 the limit is never met, and
# the default alpha, beta and p are far below it; past it, the power alone
# would take longer to build and print than any other side.
_POWER_BITS = 1 << 17


def _guard_power(name: str, exponent: int, failed: list[str], computable: bool = True) -> tuple[list[str], bool]:
    """An entry whose side holds 2^exponent is not computable past ``_POWER_BITS`` bits."""
    if exponent >= _POWER_BITS:
        return [*failed, f"2^{name} has {exponent + 1} bits, over the limit of {_POWER_BITS}"], False
    return failed, computable


def _hyp_b2a(b: BoundInput) -> tuple[list[str], bool]:
    failed = [] if b.max_degree <= 20 else ["max degree exceeds 20"]
    return _guard_power("alpha", b.alpha, *_guard_m(b, failed))


def _hyp_b2b(b: BoundInput) -> tuple[list[str], bool]:
    failed = [] if b.max_degree > 3 else ["max degree not above 3"]
    return _guard_power("beta", b.beta, *_guard_m(b, failed))


def _hyp_b5(b: BoundInput) -> tuple[list[str], bool]:
    d = b.entries
    span = d[-1] + d[-2] - d[1] - d[0]  # 2*(a_last - a_first)
    if span == 0:
        return ["first and last half-sums coincide (division by zero)"], False
    # 4 * (maxA*(a_last - a_first) + maxT*(t_last - t_first))
    mid = b.max_adjacent_sum * span + b.max_adjacent_diff * (d[-1] - d[-2] - d[1] + d[0])
    failed = []
    if not 4 * b.n <= mid:
        failed.append("order exceeds the half-sum/half-difference combination")
    if not mid < 4 * b.irr_value:
        failed.append("half-sum/half-difference combination not below the Albertson value")
    return failed, True


def _hyp_b6(b: BoundInput) -> tuple[list[str], bool]:
    if b.entries[-1] == b.entries[0]:  # the mean half-difference (d_k - d_1)/(2(k-1))
        return ["mean half-difference is zero (regular sequence; division by zero)"], False
    return [], True


def _hyp_b10(b: BoundInput) -> tuple[list[str], bool]:
    delta = b.max_degree
    failed = []
    computable = delta != 3
    if b.strict_max_degree_window:
        if not 4 <= delta - 3:
            failed.append("max_degree - 3 below 4 (strict window)")
        if not 4 * (delta - 3) <= b.n:
            failed.append("max_degree - 3 above n/4 (strict window)")
    else:
        if delta < 4:
            failed.append("max degree below 4")
    if not computable:
        failed.append("max degree equals 3 (division by zero)")
    return failed, computable


def _hyp_b9(b: BoundInput) -> tuple[list[str], bool]:
    return _guard_power("p", b.p, [])


def _hyp_b11(b: BoundInput) -> tuple[list[str], bool]:
    if b.n == 1:
        return ["order 1 (division by zero)"], False
    return _guard_power("eta", b.eta, [])


def _hyp_b12(b: BoundInput) -> tuple[list[str], bool]:
    failed = []
    computable = True
    if b.eta == b.n:
        failed.append("eta equals n (division by zero)")
        computable = False
    if b.degree_sum == b.n * b.k:
        failed.append("mean degree equals n (division by zero)")
        computable = False
    return failed, computable


def _hyp_b13(b: BoundInput) -> tuple[list[str], bool]:
    failed = []
    computable = True
    if b.eta == b.n:
        failed.append("eta equals n (division by zero)")
        computable = False
    if b.eta * b.k == b.degree_sum:
        failed.append("eta equals the mean degree (division by zero)")
        computable = False
    return failed, computable


def _hyp_sorted_desc(b: BoundInput) -> tuple[list[str], bool]:
    entries = b.entries
    if all(a >= b for a, b in zip(entries, entries[1:])):
        return [], True
    return ["entries not sorted non-increasing (stated hypothesis)"], True


def _b2a_rhs(b: BoundInput, bits: int) -> Ratio:
    return b.two_m // b.n + _ceil_div(4 * b.n, b.two_m) + 2**b.alpha, 1


def _b2b_rhs(b: BoundInput, bits: int) -> Ratio:
    return _ceil_div(4 * b.n, b.two_m) + 2**b.beta, 1


def _b3_tail(b: BoundInput) -> int:
    """4*(floor((n-2)/(a_last-t_last)) + D*(maxA-maxT)^2); a_last-t_last = d_{k-1} >= 1."""
    spread = b.max_adjacent_sum - b.max_adjacent_diff
    return 4 * ((b.n - 2) // b.entries[-2]) + b.max_degree * spread * spread


def _b3_rhs(b: BoundInput, bits: int) -> Ratio:
    return 4 * b.irr_value + _b3_tail(b), 4


def _b4_rhs(b: BoundInput, bits: int) -> Ratio:
    return 4 * (b.cube_sum + b.irr_value) + _b3_tail(b), 4


def _b5_rhs(b: BoundInput, bits: int) -> Ratio:
    d, n = b.entries, b.n
    inner = 4 * n // (d[-1] + d[-2] - d[1] - d[0]) + _ceil_div(b.two_m, n)
    return n * (b.irr_value + 4 * n * b.max_degree) + inner, n


def _b6_terms(b: BoundInput) -> tuple[int, int, int]:
    """(X, Y, s) such that B6's right side is sqrt(X/Y) + s."""
    d, k, total = b.entries, b.k, b.degree_sum
    # 2n/meanA and 2m/meanT, with meanA = (2S-d_1-d_k)/(2(k-1)), meanT = (d_k-d_1)/(2(k-1))
    stair = 4 * b.n * (k - 1) // (2 * total - d[0] - d[-1]) + _ceil_div(2 * b.two_m * (k - 1), d[-1] - d[0])
    return total * b.cube_sum, k, (b.n - b.max_degree) ** 2 - stair


def _b6_rhs(b: BoundInput, bits: int) -> Box:
    num, den, shift = _b6_terms(b)
    lo, hi, scale = sqrt_rval(Fraction(num, den), bits)
    return lo + shift * scale, hi + shift * scale, scale


def _b6_holds(b: BoundInput) -> bool:
    return _at_least_root_plus(b.sigma_value, *_b6_terms(b))


def t1_staircase(n: int, two_m: int, delta: int) -> int:
    """floor((3n+1)/2) + ceil((3m+1)/2) + floor((3*delta+2n)/4), given 2m."""
    return (3 * n + 1) // 2 + _ceil_div(3 * two_m + 2, 4) + (3 * delta + 2 * n) // 4


def _b7_rhs(b: BoundInput, bits: int) -> Ratio:
    den = 3 * b.k**2
    t1 = t1_staircase(b.n, b.two_m, b.max_degree)
    return b.degree_sum**2 * t1 + den * (b.irr_value - b.cube_sum), den


def _b8_rhs(b: BoundInput, bits: int) -> Ratio:
    body = b.n**3 + b.n + b.max_degree * (b.max_degree - 1) ** 2
    return body * b.k, 2 * b.degree_sum


def _b9_rhs(b: BoundInput, bits: int) -> Ratio:
    return 2**b.p * (b.irr_value + b.two_m) + b.max_degree * (b.max_degree - 1) ** 2, 1


def _b10_rhs(b: BoundInput, bits: int) -> Ratio:
    product = (3 * b.n**2 // 4) * _ceil_div(b.n**2, 4)
    den = 2 * (b.max_degree - 3)
    return (product, den) if den > 0 else (-product, -den)


def _b11_rhs(b: BoundInput, bits: int) -> Ratio:
    head = 2 * b.n**2 * b.k // (3 * b.degree_sum)
    den = 20 * (b.n - 1) ** 3  # (m - D)^2 / (5(n-1)^3) = (2m - 2D)^2 / (20(n-1)^3)
    return head * den + 2**b.eta * (b.two_m - 2 * b.max_degree) ** 2, den


def _b12_rhs(b: BoundInput, bits: int) -> Ratio:
    n, eta, k, total = b.n, b.eta, b.k, b.degree_sum
    gap = n - eta
    return k * (4 * n - gap * (n // gap) ** 2 + gap * (n * k // (n * k - total))) - 2 * eta * total, k


def _b13_rhs(b: BoundInput, bits: int) -> Ratio:
    n, eta, k, eta1 = b.n, b.eta, b.k, b.eta1
    steps = n // (n - eta) + _ceil_div(n * k, eta * k - b.degree_sum)
    return eta1.numerator * steps + b.cube_sum * eta1.denominator, eta1.denominator


def _b14_lhs(b: BoundInput, bits: int) -> Ratio:
    # sigma(G) + sigma(complement(G)).  The complement's edges are the pairs
    # of G that are not edges, and its degrees n-1-d differ pairwise as the
    # degrees d do, so the two sums together run over all pairs of vertices.
    # That sum takes each pair of distinct degrees once, c1*c2 times: pairs
    # of equal degree add 0.
    groups = list(Counter(b.entries).items())
    return sum(c1 * c2 * (d1 - d2) ** 2 for i, (d1, c1) in enumerate(groups) for d2, c2 in groups[i + 1:]), 1


def _b14_rhs(b: BoundInput, bits: int) -> Ratio:
    return b.k * sum(d * d for d in b.entries) - b.two_m**2, 1


def _b15a_lhs(b: BoundInput, bits: int) -> Ratio:
    return b.degree_sum * (b.entries[0] + b.entries[-1]), 1


def _b15a_rhs(b: BoundInput, bits: int) -> Ratio:
    return sum(d * d for d in b.entries) + b.k * b.entries[0] * b.entries[-1], 1


def _b15b_lhs(b: BoundInput, bits: int) -> Box:
    # (sum sqrt(d_i))^2 = sum d_i + 2 * sum_{i<j} sqrt(d_i d_j), summed over
    # the D distinct degrees: the c(c-1)/2 pairs of a degree d with count c
    # add exactly d each, and the c1*c2 pairs of degrees d1 != d2 share one
    # root.  Both ends are integer numerators over 2^bits, so this is the
    # pairwise interval sum itself from D(D-1)/2 square roots instead of
    # k(k-1)/2.
    total = b.degree_sum
    groups = list(Counter(b.entries).items())
    lo = hi = (b.k * total - total - sum(d * c * (c - 1) for d, c in groups)) << bits
    for i, (d1, c1) in enumerate(groups):
        for d2, c2 in groups[i + 1:]:
            root_lo, root_hi = _scaled_root(d1 * d2, 2, bits)
            lo -= 2 * c1 * c2 * root_hi
            hi -= 2 * c1 * c2 * root_lo
    return lo, hi, 1 << bits


def _b15b_rhs(b: BoundInput, bits: int) -> Box:
    # k(k-1)(mean - geometric mean) = (k-1)*sum(d) - k(k-1)*prod(d)^(1/k)
    k = b.k
    base = ((k - 1) * b.degree_sum) << bits
    root_lo, root_hi = _scaled_root(math.prod(b.entries), k, bits)
    weight = k * (k - 1)
    return base - weight * root_hi, base - weight * root_lo, 1 << bits


CATALOG: dict[str, BoundSpec] = {
    spec.bound_id: spec
    for spec in (
        BoundSpec(
            "B1a", "irregularity ratio is positive: 2*irr/(D(D-1)^2) > 0", ">",
            ("irr",), _hyp_b1, _irr_ratio, lambda b, bits: (0, 1),
            extra_notes=("per-instance reading of the extremal Albertson value",),
        ),
        BoundSpec(
            "B1b", "irregularity ratio below one: 2*irr/(D(D-1)^2) < 1", "<",
            ("irr",), _hyp_b1, _irr_ratio, lambda b, bits: (1, 1),
            extra_notes=("per-instance reading of the extremal Albertson value",),
        ),
        BoundSpec(
            "B2a", "irr > floor(2m/n) + ceil(2n/m) + 2^alpha (max degree <= 20)", ">",
            ("irr",), _hyp_b2a,
            _irr_lhs, _b2a_rhs,
            extra_notes=("per-instance reading of the extremal Albertson value",),
            params=("alpha",),
        ),
        BoundSpec(
            "B2b", "irr < ceil(2n/m) + 2^beta (max degree > 3)", "<",
            ("irr",), _hyp_b2b,
            _irr_lhs, _b2b_rhs,
            extra_notes=("per-instance reading of the extremal Albertson value",),
            params=("beta",),
        ),
        BoundSpec(
            "B3", "sigma >= irr + floor((n-2)/(a_last-t_last)) + D*(maxA-maxR)^2", ">=",
            ("derived", "irr", "sigma"), _hyp_none, _sigma_lhs, _b3_rhs,
        ),
        BoundSpec(
            "B4", "sigma <= cube_sum + irr + floor((n-2)/(a_last-t_last)) + D*(maxA-maxR)^2", "<=",
            ("derived", "irr", "sigma"), _hyp_none, _sigma_lhs, _b4_rhs,
        ),
        BoundSpec(
            "B5", "sigma >= irr + (floor(2n/(a_last-a_first)) + ceil(2m/n))/n + 4nD", ">=",
            ("derived", "irr", "sigma"), _hyp_b5, _sigma_lhs, _b5_rhs,
        ),
        BoundSpec(
            "B6", "sigma >= sqrt(mean_degree*cube_sum) - (floor(2n/meanA) + ceil(2m/meanR)) + (n-D)^2", ">=",
            ("derived", "sigma"), _hyp_b6, _sigma_lhs, _b6_rhs, verdict=_b6_holds,
        ),
        BoundSpec(
            "B7", "sigma >= (1/3)*mean_degree^2*T1 - cube_sum + irr", ">=",
            ("irr", "sigma"), _hyp_none, _sigma_lhs, _b7_rhs,
        ),
        BoundSpec(
            "B8", "sigma > (n^3 + n + D(D-1)^2) / (2*mean_degree)", ">",
            ("sigma",), _hyp_none, _sigma_lhs, _b8_rhs,
            extra_notes=("bare published average read as the mean of the degree entries",),
        ),
        BoundSpec(
            "B9", "sigma <= 2^p(irr + 2m) + D(D-1)^2", "<=",
            ("irr", "sigma"), _hyp_b9, _sigma_lhs, _b9_rhs,
            params=("p",),
        ),
        BoundSpec(
            "B10", "sigma <= floor(3n^2/4)*ceil(n^2/4) / (2(D-3))", "<=",
            ("sigma",), _hyp_b10, _sigma_lhs, _b10_rhs,
            extra_notes=("per-instance reading of the class maximum",),
            params=("strict_max_degree_window",),
        ),
        BoundSpec(
            "B11", "sigma <= floor(2n^2/(3*mean_degree)) + 2^eta(m-D)^2/(5(n-1)^3)", "<=",
            ("sigma",), _hyp_b11, _sigma_lhs, _b11_rhs,
            params=("eta",),
        ),
        BoundSpec(
            "B12", "sigma > 4n - 2*eta*mean - (n-eta)*floor(n/(n-eta))^2 + (n-eta)*floor(n/(n-mean))", ">",
            ("sigma",), _hyp_b12, _sigma_lhs, _b12_rhs,
            params=("eta",),
        ),
        BoundSpec(
            "B13", "sigma <= eta1*floor(n/(n-eta)) + eta1*ceil(n/(eta-mean)) + cube_sum", "<=",
            ("sigma",), _hyp_b13, _sigma_lhs, _b13_rhs,
            params=("eta", "eta1"),
        ),
        BoundSpec(
            "B14", "sigma(G) + sigma(complement(G)) == n*M1 - 4m^2", "==",
            ("graph",), _hyp_none, _b14_lhs, _b14_rhs,
        ),
        BoundSpec(
            "B15a", "(sum d)(d_first + d_last) >= sum d^2 + k*d_first*d_last", ">=",
            (), _hyp_sorted_desc, _b15a_lhs, _b15a_rhs,
        ),
        BoundSpec(
            "B15b", "k*sum(d) - (sum sqrt(d))^2 <= k(k-1)(mean - geometric mean)", "<=",
            (), _hyp_sorted_desc, _b15b_lhs, _b15b_rhs,
        ),
    )
}


BOUND_IDS: tuple[str, ...] = tuple(CATALOG)  # the literal is in catalog order


def expand_bound_id(bound_id: str) -> tuple[str, ...]:
    """Resolve an id to catalog entries; base ids expand to their parts and
    'all' to the whole catalog."""
    if bound_id == "all":
        return BOUND_IDS
    if bound_id in CATALOG:
        return (bound_id,)
    parts = tuple(b for b in BOUND_IDS if b.startswith(bound_id) and b[len(bound_id):].isalpha())
    if bound_id and parts:
        return parts
    known = ", ".join(BOUND_IDS)
    raise InputError(f"unknown bound id {bound_id!r} (known: {known})")


# ---------------------------------------------------------------------------
# Evaluation

_FIELD_MISSING = {
    "irr": lambda b: b.irr_value is None,
    "sigma": lambda b: b.sigma_value is None,
    "derived": lambda b: b.k < 2,
    "graph": lambda b: b.edges is None,
}


def missing_fields(spec: BoundSpec, binput: BoundInput) -> list[str]:
    return [f for f in spec.requires if _FIELD_MISSING[f](binput)]


_NO_PARAMS: Mapping[str, object] = MappingProxyType({})


def _printed(side: Side) -> Printed:
    """The reported value of a side: a ratio as it is, a box (lo, hi, den)
    as its midpoint (lo + hi) / (2 den), exact when lo == hi."""
    if len(side) == 2:
        return side[0], side[1], True
    lo, hi, den = side
    return lo + hi, 2 * den, lo == hi


def _exact(num: int, den: int) -> Exact:
    return num if den == 1 else Fraction(num, den)


def evaluate_bound(bound_id: str, binput: BoundInput) -> BoundReport:
    """Evaluate one catalog entry; raises InputError on missing fields."""
    spec = CATALOG.get(bound_id)
    if spec is None:
        raise InputError(f"unknown bound id {bound_id!r}")
    missing = missing_fields(spec, binput)
    if missing:
        raise InputError(f"{bound_id} needs input field(s): {', '.join(missing)}")
    return _evaluate(bound_id, spec, binput)


def _decide(spec: BoundSpec, b: BoundInput) -> tuple[Side, Side, Optional[bool]]:
    """Both sides of a computable entry and whether its relation holds.
    side[0] and side[-2] are the low and high numerators over side[-1], of
    a ratio (num, den) and a box (lo, hi, den) alike.  Two ratios are
    decided as ln*rd against rn*ld.  Where a side is a box the relation
    holds if it holds at the worst pair of ends and fails if it fails at
    the best pair, with == only between exact sides; at 64 bits, then at
    128, and None where neither decides."""
    relation = spec.relation
    holds = _HOLDS[relation]
    for bits in (_BITS_FIRST, _BITS_ESCALATED):
        lhs, rhs = spec.lhs(b, bits), spec.rhs(b, bits)
        low = holds(lhs[0] * rhs[-1], rhs[-2] * lhs[-1])  # lhs at its low end, rhs at its high end
        if len(lhs) == len(rhs) == 2:
            return lhs, rhs, low
        high = holds(lhs[-2] * rhs[-1], rhs[0] * lhs[-1])  # lhs at its high end, rhs at its low end
        worst, best = (high, low) if relation in ("<=", "<") else (low, high)
        if (worst or not best) and (relation != "==" or lhs[0] == lhs[-2] and rhs[0] == rhs[-2]):
            return lhs, rhs, worst
    return lhs, rhs, None


def counterexample_report(bound_id: str, spec: BoundSpec, b: BoundInput) -> Optional[dict]:
    """The JSON form of the entry's report on ``b`` if it is a
    counterexample (hypotheses met and the relation decided false), else
    None.  It equals ``evaluate_bound(bound_id, b).to_json_dict()``, but is
    written from the refuting decision's own sides: no second decision, no
    ``BoundReport``, and no ``Fraction`` for a rational side.  An entry that
    fails a hypothesis is not evaluated, and one with an exact ``verdict``
    builds its intervals (they only give the printed sides) where it is
    refuted."""
    failed, computable = spec.hypothesis(b)
    if failed or not computable:
        return None
    if spec.verdict is not None:
        if spec.verdict(b):
            return None
        lhs, rhs, _ = _decide(spec, b)
    else:
        lhs, rhs, holds = _decide(spec, b)
        if holds is not False:
            return None
    lhs, rhs = _printed(lhs), _printed(rhs)
    params_used, notes = _params_used(spec, b)
    gap = _margin(spec.relation, lhs[:2], rhs[:2])
    return _report_json(bound_id, b.label, (), spec.relation, (lhs, rhs, gap), False, params_used, notes, False)


def _params_used(spec: BoundSpec, b: BoundInput) -> tuple[Mapping[str, object], tuple[str, ...]]:
    """The parameters the entry reads, and its notes with theirs."""
    if not spec.params:
        return _NO_PARAMS, spec.extra_notes
    notes = spec.extra_notes + tuple(note for param in spec.params for note in b.param_notes.get(param, ()))
    return {param: getattr(b, param) for param in spec.params}, notes


def _evaluate(bound_id: str, spec: BoundSpec, binput: BoundInput) -> BoundReport:
    """The report of one catalog entry whose required fields are present."""
    failed, computable = spec.hypothesis(binput)
    params_used, notes = _params_used(spec, binput)

    lhs = rhs = holds = margin = None
    lhs_exact = rhs_exact = True
    indeterminate = False

    if not computable:
        notes += ("not computable: " + "; ".join(failed),)
    else:
        lhs, rhs, holds = _decide(spec, binput)
        if spec.verdict is not None:
            holds = spec.verdict(binput)
        elif holds is None:
            indeterminate = True
            notes += ("indeterminate_at_precision: sides not separated at 128 bits",)
        ln, ld, lhs_exact = _printed(lhs)
        rn, rd, rhs_exact = _printed(rhs)
        lhs, rhs = _exact(ln, ld), _exact(rn, rd)
        margin = _exact(*_margin(spec.relation, (ln, ld), (rn, rd)))

    return BoundReport(
        bound_id=bound_id,
        label=binput.label,
        hypotheses_met=not failed,
        failed_hypotheses=tuple(failed),
        relation=spec.relation,
        lhs=lhs,
        rhs=rhs,
        lhs_exact=lhs_exact,
        rhs_exact=rhs_exact,
        holds=holds,
        margin=margin,
        params_used=params_used,
        notes=notes,
        indeterminate=indeterminate,
    )


def evaluate_all(binput: BoundInput) -> list[BoundReport]:
    """One report per catalog entry whose required inputs are present."""
    specs = ((bound_id, CATALOG[bound_id]) for bound_id in BOUND_IDS)
    return [_evaluate(bound_id, spec, binput) for bound_id, spec in specs if not missing_fields(spec, binput)]
