"""networkx as a second, independent source of tree decompositions.

The connected DP must give the same SOME/NONE answer on any valid
decomposition, so a tree from networkx's min-degree heuristic checks both
the DP and the decomposition layer against code written elsewhere.  The
runtime never imports networkx; these tests skip without it.
"""

from __future__ import annotations

import random

import pytest

from ashg import (
    AshgInstance,
    TreeDecomposition,
    heuristic_decompose,
    is_connected_partition,
    is_nash_stable,
    solve_connected_nash,
    validate,
)
from helpers import grid_instance, suite_instance

nx = pytest.importorskip("networkx")
from networkx.algorithms.approximation import treewidth_min_degree  # noqa: E402


def networkx_decomposition(instance: AshgInstance) -> TreeDecomposition:
    graph = nx.Graph()
    graph.add_nodes_from(range(1, instance.n + 1))
    graph.add_edges_from((u, v) for u in range(1, instance.n + 1)
                         for v in instance.neighbors[u] if u < v)
    _, tree = treewidth_min_degree(graph)
    ids = {bag: i for i, bag in enumerate(tree.nodes, start=1)}
    return TreeDecomposition({i: bag for bag, i in ids.items()},
                             [(ids[a], ids[b]) for a, b in tree.edges])


def games() -> list[AshgInstance]:
    rng = random.Random(3141)
    out = [suite_instance(rng, t, n_max=8) for t in range(80)]
    return out + [grid_instance(3, cols, rng, lo, 3) for cols in (2, 3, 4, 5) for lo in (-3, 0)]


def test_connected_answers_match_the_heuristic_decomposition():
    answers = {True: 0, False: 0}
    for inst in games():
        td = networkx_decomposition(inst)
        assert validate(td, inst) == (True, [])
        theirs = solve_connected_nash(inst, td)
        ours = solve_connected_nash(inst, heuristic_decompose(inst))
        assert (theirs is None) == (ours is None), dict(inst.arcs)
        for part in (theirs, ours):
            if part is not None:
                assert is_nash_stable(inst, part)[0]
                assert is_connected_partition(inst, part)[0]
        answers[ours is not None] += 1
    assert min(answers.values()) >= 10, answers
