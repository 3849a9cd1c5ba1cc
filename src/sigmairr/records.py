"""The text of falsification records, each made as it is found, for the
CLI's ``bounds falsify`` and the campaign, which split their orders
through ``streams.split_orders``; the extremal search never loads this
module, nor ``bounds``."""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

from .bounds import BOUND_IDS, BoundParams
from .graphs import format_edge_list
from .jsonout import fields_renderer
from .search import ExhaustiveMode, RandomMode, refuting_trees

COUNTEREXAMPLE_HEADER = ["bound_id", "n", "edges", "lhs", "rhs", "relation", "margin"]


def counterexample_texts(bound_id: str, mode: ExhaustiveMode | RandomMode, params: Optional[BoundParams] = None,
                         fmt: Optional[str] = "json", *, allow_over_cap: bool = False
                         ) -> Iterator[tuple[str, int, dict, tuple[str, ...]]]:
    """Each record of ``search.falsify`` as it is found: (entry, order, report,
    text), the text in three pieces made once each, the entry's, the tree's
    and the report's: a ``jsonout.Items`` item ("json"), a row of
    ``COUNTEREXAMPLE_HEADER`` ("csv") or none (None).  Arguments are checked at the call."""
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
    """The text of a record's entry, of its tree and of its report, in ``fmt``."""
    if fmt == "json":
        fields = fields_renderer()
        return (lambda bid: fields({"bound_id": bid}, True, False),
                lambda n, edges: fields({"edge_list": format_edge_list(n, edges), "edges": list(map(list, edges)),
                                         "n": n}, False, False),
                lambda report: fields({"report": report}, False, True))
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")  # one write a row

    def cells(values: list, end: str = ",") -> str:  # a run of a row's cells, as csv.writer writes them
        writer.writerow(values)
        return lines.pop()[:-1] + end

    return (lambda bid: cells([bid]), lambda n, edges: cells([n, ";".join(map("%d-%d".__mod__, edges))]),
            lambda report: cells([report[k] for k in COUNTEREXAMPLE_HEADER[3:]], "\n"))


def tally_counterexamples(orders: range, render: bool) -> dict[str, list]:
    """Each catalog entry's records over the trees of ``orders``, default
    parameters, as ``[count, smallest order, its first report, largest
    order, texts]``: their JSON pieces, or none unless ``render``."""
    entries = {bid: [0, 0, None, 0, []] for bid in BOUND_IDS}
    mode = ExhaustiveMode(orders[-1], orders[0])
    for bid, n, report, texts in counterexample_texts("all", mode, fmt="json" if render else None):
        entry = entries[bid]
        if not entry[0]:  # the trees come by increasing order
            entry[1], entry[2] = n, report
        entry[0] += 1
        entry[3] = n
        entry[4] += texts
    return entries
