"""Connected DP transitions and their process-wide plans.

The plans are memoized for the life of the process, so an answer must not
depend on which solves ran before it; and every transition must reproduce
the signature a partition induces at the node (signature_of) for any
connected partition, stable or not.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ashg import (
    AshgInstance,
    Partition,
    ResourceLimitError,
    forget_filter_passes,
    heuristic_decompose,
    make_nice,
    signature_of,
    solve_connected_nash,
)
from ashg import connected
from ashg.connected import EMPTY_SIGNATURE, _transitions
from ashg.decomposition import INTRODUCE, JOIN, LEAF
from helpers import grid_instance, suite_instance

SHARED_PLANS = (
    connected._placements,
    connected._forget_plan,
    connected._drop,
    connected._pi2_union,
)


def clear_plans() -> None:
    for memo in SHARED_PLANS:
        memo.cache_clear()


def order_games() -> list[AshgInstance]:
    rng = random.Random(8128)
    games = [grid_instance(3, cols, rng, lo, 3) for cols in (3, 4, 5) for lo in (-3, 0)
             for _ in range(3)]
    return games + [suite_instance(rng, t, n_max=8) for t in range(60)]


def outcome(game: AshgInstance) -> tuple:
    """Partition or cap message, with peak table and node count."""
    stats: dict = {}
    try:
        result = solve_connected_nash(game, table_cap=120, stats=stats)
    except ResourceLimitError as exc:
        result = str(exc)
    return result, stats["peak_table"], stats["nice_nodes"]


def test_answers_do_not_depend_on_solve_order():
    games = order_games()
    clear_plans()
    forward = [outcome(g) for g in games]
    misses = [memo.cache_info().misses for memo in SHARED_PLANS]
    backward = [outcome(g) for g in reversed(games)][::-1]
    # the second pass built no plan
    assert [memo.cache_info().misses for memo in SHARED_PLANS] == misses
    cold = []
    for g in games:
        clear_plans()
        cold.append(outcome(g))
    assert forward == backward == cold
    # the set reaches SOME, NONE and the cap
    assert {type(result) for result, _, _ in forward} == {Partition, type(None), str}


def connected_refinement(instance: AshgInstance, labels: list[int]) -> Partition:
    """Split every class of `labels` into its connected components."""
    comp = [0] * (instance.n + 1)
    count = 0
    for start in range(1, instance.n + 1):
        if comp[start]:
            continue
        count += 1
        comp[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for y in instance.neighbors[x]:
                if not comp[y] and labels[y - 1] == labels[start - 1]:
                    comp[y] = count
                    stack.append(y)
    return Partition(comp[1:])


@st.composite
def games_with_partitions(draw):
    """A digraph on n <= 7 vertices, weights -3..3, and a connected partition."""
    n = draw(st.integers(1, 7))
    sparse = draw(st.integers(1, 3))  # an edge is drawn with chance 1/sparse
    arcs = {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if draw(st.integers(1, sparse)) != 1:
                continue
            arcs[(u, v)] = draw(st.integers(-3, 3))
            back = draw(st.one_of(st.none(), st.integers(-3, 3)))
            if back is not None:
                arcs[(v, u)] = back
    inst = AshgInstance(n, arcs)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return inst, connected_refinement(inst, labels)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(games_with_partitions())
def test_transitions_reproduce_signature_of_on_connected_partitions(case):
    inst, part = case
    nodes = make_nice(heuristic_decompose(inst))
    introduce, forget, join = _transitions(inst)
    sigs = [signature_of(inst, nodes, i, part) for i in range(len(nodes))]
    for i, nd in enumerate(nodes):
        if nd.kind == LEAF:
            assert sigs[i] == EMPTY_SIGNATURE
        elif nd.kind == JOIN:
            left, right = nd.children
            assert join(sigs[left], sigs[right]) == sigs[i]
        else:
            child = nd.children[0]
            child_bag = nodes[child].bag
            if nd.kind == INTRODUCE:
                assert sigs[i] in introduce(nd, child_bag)(sigs[child])
            else:
                p = child_bag.index(nd.vertex)
                arcs_from_x = tuple(inst.weight(nd.vertex, u) for u in child_bag)
                passes = forget_filter_passes(sigs[child], p, arcs_from_x)
                expected = sigs[i] if passes else None
                assert forget(nd, child_bag)(sigs[child]) == expected
