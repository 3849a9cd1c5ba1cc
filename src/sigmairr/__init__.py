"""sigmairr: exact graph-irregularity indices, an auditable catalog of
published bound claims, extremal tree search, and table reproduction.

The package namespace is lazy (PEP 562): ``import sigmairr`` loads no
submodule, and each public name or submodule is imported on first access.
So an entry point compiles only the modules it runs; the extremal survey,
for instance, never loads ``bounds`` or ``stats_tables``.  Names are looked
up in their module on every access and never cached here, so a wrapper
installed on a module attribute is what ``sigmairr.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_NAMES_BY_MODULE = {
    "bounds": (
        "BOUND_IDS",
        "BoundInput",
        "BoundParams",
        "BoundReport",
        "evaluate_all",
        "evaluate_bound",
        "expand_bound_id",
    ),
    "errors": ("DomainError", "InputError", "ResourceLimitError"),
    "graphs": (
        "Graph",
        "build_family",
        "cartesian_product",
        "complement",
        "complete_bipartite",
        "cycle",
        "double_star",
        "format_edge_list",
        "is_connected",
        "is_tree",
        "monogenic",
        "parse_edge_list",
        "path",
        "star",
    ),
    "indices": (
        "albertson",
        "albertson_closed_form_len4",
        "albertson_monogenic",
        "compare_known_forms",
        "sigma",
        "sigma_closed_form",
        "sigma_double_star",
        "sigma_t",
        "zagreb_m1",
    ),
    "search": (
        "Counterexample",
        "ExhaustiveMode",
        "RandomMode",
        "SearchResult",
        "TreeClass",
        "canonical_form",
        "enumerate_free_trees",
        "extremal",
        "extremal_goals",
        "falsify",
    ),
    "sequences": (
        "Convention",
        "DegreeSequenceView",
        "DerivedSequences",
        "derive",
        "is_graphical",
        "is_tree_sequence",
        "random_tree",
        "realize_graph_hakimi",
        "realize_tree",
    ),
    "stats_tables": (
        "correlation_matrix",
        "ols_fit",
        "predict",
        "regression_reproduction",
        "reproduce_table",
        "table_correlation",
    ),
}
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}
_SUBMODULES = frozenset({*_NAMES_BY_MODULE, "cli"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
