"""The text of falsification records, each made as it is found, for the
CLI's ``bounds falsify`` and the campaign, which split their orders
through ``streams.split_orders``; the extremal search never loads this
module, nor ``bounds``.

A record is written from its numbers: the tree's order and flat edge
tuple go into a template made once per order, and a ``bounds.BoundReport``
into a template made once per entry, which holds the fields every
refutation of that entry prints alike.  The JSON text is what
``jsonout.dump`` writes for the record's dict (``search.falsify``'s form)
as an item of a list in the top-level dict."""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional

from .bounds import BOUND_IDS, BoundParams, BoundReport, _decimal, _side_text
from .jsonout import _pair_list
from .search import ExhaustiveMode, RandomMode, refuting_trees

COUNTEREXAMPLE_HEADER = ["bound_id", "n", "edges", "lhs", "rhs", "relation", "margin"]


def counterexample_texts(bound_id: str, mode: ExhaustiveMode | RandomMode, params: Optional[BoundParams] = None,
                         fmt: Optional[str] = "json", *, allow_over_cap: bool = False
                         ) -> Iterator[tuple[str, int, BoundReport, tuple[str, ...]]]:
    """Each record of ``search.falsify`` as it is found: (entry, order,
    refutation, text), the text in three pieces made once each, the
    entry's, the tree's and the report's: a ``jsonout.Items`` item ("json"),
    a row of ``COUNTEREXAMPLE_HEADER`` ("csv") or none (None).  Arguments
    are checked at the call."""
    trees = refuting_trees(bound_id, mode, params, allow_over_cap=allow_over_cap)
    if fmt is None:
        return ((bid, n, report, ()) for n, _, refuted in trees for bid, report in refuted)
    head, body, tail = _record_renderers(fmt)
    heads, tails = {}, {}  # each entry's text, each report's by its id: ``trees`` keeps every report

    def texts():
        for n, edges, refuted in trees:
            text = body(n, edges)
            for bid, report in refuted:
                if id(report) not in tails:
                    tails[id(report)] = tail(report)
                yield bid, n, report, (heads.get(bid) or heads.setdefault(bid, head(bid)), text, tails[id(report)])

    return texts()


def _record_renderers(fmt: str) -> tuple[Callable, Callable, Callable]:
    """The text of a record's entry, of its tree (order and ascending edges)
    and of its report (a ``BoundReport``), in ``fmt``: a tree's from a
    template made once per order, a report's from one made once per entry."""
    trees: dict[int, str] = {}  # by order

    if fmt == "json":
        reports: dict[str, str] = {}  # by entry

        def tree(n: int, edges: list[tuple[int, int]]) -> str:
            flat = tuple(chain.from_iterable(edges))
            return (trees.get(n) or trees.setdefault(n, _json_tree(n))) % (flat + flat)

        def report(r: BoundReport) -> str:
            (ln, ld, lhs_exact), (rn, rd, rhs_exact) = r.lhs, r.rhs
            template = reports.get(r.bound_id) or reports.setdefault(r.bound_id, _json_report(r))
            return template % (
                encode_basestring_ascii(r.label), _side_text(ln, ld, lhs_exact), _json_decimal(ln, ld),
                _JSON_BOOL[lhs_exact], _side_text(*r.margin, lhs_exact and rhs_exact), _json_strings(r.notes),
                *[encode_basestring_ascii(value) for _, value in r.params],
                _side_text(rn, rd, rhs_exact), _json_decimal(rn, rd), _JSON_BOOL[rhs_exact])

        return lambda bid: ',\n    {\n      "bound_id": ' + encode_basestring_ascii(bid), tree, report

    # A row's cells need no quotes: ids, numbers, edges "u-v" joined by ";",
    # printed sides and relations hold no comma, quote or line break.
    def row_tree(n: int, edges: list[tuple[int, int]]) -> str:
        template = trees.get(n) or trees.setdefault(n, str(n) + "," + ";".join(["%d-%d"] * (n - 1)) + ",")
        return template % tuple(chain.from_iterable(edges))

    def row_report(r: BoundReport) -> str:
        (ln, ld, lhs_exact), (rn, rd, rhs_exact) = r.lhs, r.rhs
        return ",".join([_side_text(ln, ld, lhs_exact), _side_text(rn, rd, rhs_exact), r.relation,
                         _side_text(*r.margin, lhs_exact and rhs_exact)]) + "\n"

    return lambda bid: bid + ",", row_tree, row_report


# A record is an item of a list in the top-level dict: its fields stand at
# level 3 and its report's at level 4.  A printed side needs no JSON escape.
_JSON_BOOL = {True: "true", False: "false"}


def _json_tree(n: int) -> str:
    """The ``edge_list``, ``edges`` and ``n`` fields of a tree of order n,
    its n - 1 edges' ends left as ``%d``, each twice."""
    return (',\n      "edge_list": "# n=' + str(n) + "\\n" + "%d %d\\n" * (n - 1) + '",\n      "edges": '
            + _pair_list(n - 1) + ',\n      "n": ' + str(n))


def _json_report(r: BoundReport) -> str:
    """The ``report`` field of a refutation of ``r``'s entry, closing its
    record, with a ``%s`` for each field that varies from one to the next."""
    slot = "\0"  # where a varying field goes; any "%" elsewhere is escaped
    params = ",".join(["\n          " + encode_basestring_ascii(name) + ": " + slot for name, _ in r.params])
    fields = {  # in sorted order
        "bound_id": encode_basestring_ascii(r.bound_id), "failed_hypotheses": "[]", "holds": "false",
        "hypotheses_met": "true", "indeterminate": "false", "label": slot, "lhs": f'"{slot}"', "lhs_decimal": slot,
        "lhs_exact": slot, "margin": f'"{slot}"', "notes": slot,
        "params": "{" + params + "\n        }" if params else "{}", "relation": encode_basestring_ascii(r.relation),
        "rhs": f'"{slot}"', "rhs_decimal": slot, "rhs_exact": slot,
    }
    text = ",".join([f'\n        "{key}": {value}' for key, value in fields.items()])
    return (',\n      "report": {' + text + "\n      }\n    }").replace("%", "%%").replace(slot, "%s")


def _json_decimal(num: int, den: int) -> str:
    value = _decimal(num, den)
    return "null" if value is None else float.__repr__(value)


def _json_strings(texts: tuple[str, ...]) -> str:
    """A list of strings at level 4."""
    if not texts:
        return "[]"
    return "[\n          " + ",\n          ".join(map(encode_basestring_ascii, texts)) + "\n        ]"


def tally_counterexamples(orders: range, render: bool) -> dict[str, list]:
    """Each catalog entry's records over the trees of ``orders``, default
    parameters, as ``[count, smallest order, the lhs, relation and rhs its
    first record prints, largest order, texts]``: their JSON pieces, or
    none unless ``render``."""
    entries = {bid: [0, 0, None, 0, []] for bid in BOUND_IDS}
    mode = ExhaustiveMode(orders[-1], orders[0])
    for bid, n, report, texts in counterexample_texts("all", mode, fmt="json" if render else None):
        entry = entries[bid]
        if not entry[0]:  # the trees come by increasing order
            entry[1], entry[2] = n, (_side_text(*report.lhs), report.relation, _side_text(*report.rhs))
        entry[0] += 1
        entry[3] = n
        entry[4] += texts
    return entries
