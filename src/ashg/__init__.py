"""Additively separable hedonic games: stability solvers, oracles, generators.

An instance is a weighted digraph on vertices 1..n.  The utility of a
vertex v inside a coalition S is the sum of w(v, u) over the other members
u of S.  A partition of the vertices is Nash Stable when no vertex can
strictly improve its utility by moving to another coalition of the
partition or to a new singleton coalition.  Connected Nash Stability
additionally requires every coalition to induce a connected subgraph of
the underlying undirected graph (zero-weight arcs count as edges).
"""

from .errors import OracleCapError, ResourceLimitError
from .game import (
    AshgInstance,
    DeviationWitness,
    Partition,
    better_response_dynamics,
    is_connected_partition,
    is_nash_stable,
    utility,
    utility_toward,
)
from .decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_decompose,
    make_nice,
    square_instance,
    validate,
    validate_nice,
)
from .coloring import (
    Coloring,
    coloring_to_partition,
    is_stable_coloring,
    solve_nash_via_coloring,
)
from .connected import (
    ConnectedSignature,
    forget_filter_passes,
    signature_of,
    solve_connected_nash,
    trace_survives_forget_filters,
)
from .oracle import (
    brute_force_connected_nash,
    brute_force_nash,
    brute_force_stable_coloring,
    enumerate_partitions,
)
from .formats import (
    parse_cnf,
    parse_decomposition,
    parse_instance,
    parse_int_list,
    parse_partition,
    serialize_decomposition,
    serialize_instance,
    serialize_partition,
)
from .reductions import (
    BinPackingLayout,
    CnfFormula,
    SatBoundedDegreeLayout,
    SatHighDegreeLayout,
    ThreePartitionLayout,
    gen_bin_packing,
    gen_sat_bounded_degree,
    gen_sat_high_degree,
    gen_three_partition_star,
    witness_bin_packing,
    witness_sat_bounded_degree,
    witness_sat_high_degree,
    witness_three_partition_star,
)

__all__ = [
    "AshgInstance",
    "Partition",
    "DeviationWitness",
    "utility",
    "utility_toward",
    "is_nash_stable",
    "is_connected_partition",
    "better_response_dynamics",
    "TreeDecomposition",
    "NiceTreeDecomposition",
    "NiceNode",
    "validate",
    "validate_nice",
    "heuristic_decompose",
    "make_nice",
    "square_instance",
    "Coloring",
    "is_stable_coloring",
    "coloring_to_partition",
    "solve_nash_via_coloring",
    "ConnectedSignature",
    "solve_connected_nash",
    "signature_of",
    "forget_filter_passes",
    "trace_survives_forget_filters",
    "enumerate_partitions",
    "brute_force_nash",
    "brute_force_connected_nash",
    "brute_force_stable_coloring",
    "CnfFormula",
    "SatHighDegreeLayout",
    "SatBoundedDegreeLayout",
    "ThreePartitionLayout",
    "BinPackingLayout",
    "gen_sat_high_degree",
    "witness_sat_high_degree",
    "gen_sat_bounded_degree",
    "witness_sat_bounded_degree",
    "gen_three_partition_star",
    "witness_three_partition_star",
    "gen_bin_packing",
    "witness_bin_packing",
    "serialize_instance",
    "parse_instance",
    "serialize_partition",
    "parse_partition",
    "serialize_decomposition",
    "parse_decomposition",
    "parse_cnf",
    "parse_int_list",
    "ResourceLimitError",
    "OracleCapError",
]
