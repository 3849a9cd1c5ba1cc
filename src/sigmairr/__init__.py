"""sigmairr: exact graph-irregularity indices, an auditable catalog of
published bound claims, extremal tree search, and table reproduction."""

from .bounds import (
    BOUND_IDS,
    BoundInput,
    BoundParams,
    BoundReport,
    evaluate_all,
    evaluate_bound,
    expand_bound_id,
)
from .errors import DomainError, InputError, ResourceLimitError
from .graphs import (
    Graph,
    VertexDegreeProfile,
    build_family,
    cartesian_product,
    complement,
    complete_bipartite,
    cycle,
    degree_profile,
    double_star,
    format_edge_list,
    is_connected,
    is_tree,
    monogenic,
    parse_edge_list,
    path,
    star,
)
from .indices import (
    albertson,
    albertson_closed_form_len4,
    albertson_monogenic,
    compare_known_forms,
    sigma,
    sigma_closed_form,
    sigma_double_star,
    sigma_t,
    zagreb_m1,
)
from .search import (
    Counterexample,
    ExhaustiveMode,
    RandomMode,
    SearchResult,
    TreeClass,
    canonical_form,
    enumerate_free_trees,
    extremal,
    extremal_goals,
    falsify,
)
from .sequences import (
    Convention,
    DegreeSequenceView,
    DerivedSequences,
    derive,
    is_graphical,
    is_tree_sequence,
    random_tree,
    realize_graph_hakimi,
    realize_tree,
)
from .stats_tables import (
    correlation_matrix,
    ols_fit,
    predict,
    regression_reproduction,
    reproduce_table,
    table_correlation,
)

__version__ = "0.1.0"
