"""Edge-maximal biclique-free cographs: DP enumeration, constructions, oracle."""

from .cotree import (
    AdjacencyGraph,
    CapacityError,
    Cotree,
    biclique_sequence,
    canonical_form,
    clique,
    clique_number,
    complement,
    degree_counts,
    edgeless,
    height,
    is_induced_p4_free,
    make_leaf,
    make_product,
    make_sum,
    max_degree,
    to_adjacency,
    to_formula,
)
from .profile import (
    BicliqueProfile,
    ProfileError,
    dominates,
    forbidden_biclique_profile,
    format_profile,
    fulfills,
    parse_profile,
    restrict,
    start_index,
)
from .enumerator import (
    ExtremalRecord,
    ExtremalSeries,
    Registry,
    analyze_periodicity,
    build_registries,
    extremal_function,
    extremal_series_for_profile,
    pareto_filter,
    query,
    query_witnesses,
)
from .constructions import (
    clique_product_family,
    davenport_subsequence,
    k2t_extremal,
    k33_extremal,
    pump,
    pump_subset,
    regular_cograph,
    regular_infeasibility_reason,
    star_extremal,
)
from .oracle import (
    CographCatalog,
    biclique_sequence_bruteforce,
    check_balanced_biclique,
    check_structure_theorems,
    contains_biclique,
    enumerate_cotrees,
    extremal_bruteforce,
)

__version__ = "0.1.0"
