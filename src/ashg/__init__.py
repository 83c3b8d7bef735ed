"""Additively separable hedonic games: stability solvers, oracles, generators.

An instance is a weighted digraph on vertices 1..n.  The utility of a
vertex v inside a coalition S is the sum of w(v, u) over the other members
u of S.  A partition of the vertices is Nash Stable when no vertex can
strictly improve its utility by moving to another coalition of the
partition or to a new singleton coalition.  Connected Nash Stability
additionally requires every coalition to induce a connected subgraph of
the underlying undirected graph (zero-weight arcs count as edges).
"""

from .errors import ResourceLimitError
from .game import (
    AshgInstance,
    DeviationWitness,
    Partition,
    better_response_dynamics,
    is_connected_partition,
    is_nash_stable,
    utility,
)
from .decomposition import (
    NiceNode,
    TreeDecomposition,
    heuristic_decompose,
    make_nice,
    validate,
)
from .coloring import solve_nash_via_coloring
from .connected import solve_connected_nash
from .oracle import (
    brute_force_connected_nash,
    brute_force_nash,
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

__all__ = [
    "AshgInstance",
    "Partition",
    "DeviationWitness",
    "utility",
    "is_nash_stable",
    "is_connected_partition",
    "better_response_dynamics",
    "TreeDecomposition",
    "NiceNode",
    "validate",
    "heuristic_decompose",
    "make_nice",
    "square_instance",
    "solve_nash_via_coloring",
    "solve_connected_nash",
    "brute_force_nash",
    "brute_force_connected_nash",
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
]

# The generators, `square_instance` and the layouts live in .reductions,
# which is imported on the first use of one of their names (PEP 562), not
# with the package.  Every other name in __all__ is bound above, so only
# those reach here.


def __getattr__(name: str):
    if name in __all__:
        from . import reductions

        return getattr(reductions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
