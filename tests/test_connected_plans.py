"""Connected DP transitions and their process-wide plans.

The plans are memoized for the life of the process, so an answer must not
depend on which solves ran before it; every transition must reproduce
the signature a partition induces at the node (signature_of) for any
connected partition, stable or not; and FORGET, which reads its plan from
the shared memo, must map every signature as the list-operation
reference (reference_forget) does.
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from ashg import (
    AshgInstance,
    NiceNode,
    Partition,
    ResourceLimitError,
    heuristic_decompose,
    make_nice,
    solve_connected_nash,
)
from ashg import connected
from ashg.connected import _prune, _transitions
from ashg.decomposition import FORGET, INTRODUCE, JOIN, LEAF, canonical_labels, run_nice_dp
from helpers import (
    forget_filter_passes,
    grid_instance,
    in_bag_sums,
    reference_forget,
    signature_of,
    suite_instance,
    tree_instance,
)
from test_connected import PINNED_TABLE_WORK

# every process-wide memo of the connected DP, found rather than listed, so
# that a new one cannot be left out of clear_plans
SHARED_PLANS = tuple(memo for memo in vars(connected).values() if hasattr(memo, "cache_clear"))


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
    assert len(SHARED_PLANS) >= 5
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
            assert sigs[i] == ((), (), (), ())
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
                in_bag = in_bag_sums(sigs[child][0], p, arcs_from_x)
                passes = forget_filter_passes(sigs[child], p, in_bag)
                expected = sigs[i] if passes else None
                assert forget(nd, child_bag)(sigs[child]) == expected


@st.composite
def forget_cases(draw):
    """A game on a bag of up to 6 vertices, the bag vertex x to forget, and
    valid child signatures over the bag, grouped by (pi1, pi2) so that a
    node meets the same pi1 more than once.

    Each ordered pair of bag vertices gets no arc or one weighted -5..5,
    so zero-weight and one-way arcs occur.  Each pi1 draws whether x is
    alone in its class (the class leaves the bag with x) or shares it
    with another bag vertex (the class stays); pi2 splits every pi1 class
    at random.
    """
    bag = tuple(sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))))
    m = len(bag)
    arcs = {}
    for u in bag:
        for v in bag:
            w = None if u == v else draw(st.one_of(st.none(), st.integers(-5, 5)))
            if w is not None:
                arcs[(u, v)] = w
    p = draw(st.integers(0, m - 1))
    sigs = []
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        if m == 1 or draw(st.booleans()):
            labels[p] = m
        else:
            labels[p] = labels[draw(st.sampled_from([q for q in range(m) if q != p]))]
        pi1 = canonical_labels(labels)[0]
        split = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        pi2 = canonical_labels(zip(pi1, split))[0]
        size = m * (max(pi1) + 1)
        for _ in range(draw(st.integers(1, 3))):
            util = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
            best = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
            sigs.append((pi1, pi2, tuple(util), tuple(best)))
    return AshgInstance(9, arcs), bag, bag[p], sigs


def forget_node(child_bag: tuple[int, ...], x: int) -> NiceNode:
    return NiceNode(FORGET, tuple(u for u in child_bag if u != x), x, (0,))


def forget_kind(sig: tuple, p: int, out) -> str:
    """Which path a FORGET of bag position p took on sig."""
    if out is None:
        return "dropped"
    pi1 = sig[0]
    return "completes" if pi1.count(pi1[p]) == 1 else "stays"


def test_forget_matches_the_reference_step():
    kinds = Counter()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(forget_cases())
    def check(case):
        inst, child_bag, x, sigs = case
        nd = forget_node(child_bag, x)
        step = _transitions(inst)[1](nd, child_bag)
        want = reference_forget(inst)(nd, child_bag)
        p = child_bag.index(x)
        for sig in sigs:
            out = step(sig)
            assert out == want(sig)
            kinds[forget_kind(sig, p, out)] += 1

    check()
    # a leaving class that completes and one that stays both get through
    assert min(kinds[kind] for kind in ("dropped", "completes", "stays")) >= 100, kinds


def pinned_instance(shape: str, size: int, lo: int, hi: int, seed: int) -> AshgInstance:
    """The game of a row of test_connected.PINNED_TABLE_WORK."""
    rng = random.Random(seed)
    if shape == "grid":
        return grid_instance(3, size, rng, lo, hi)
    return tree_instance(size, rng, w_lo=lo, w_hi=hi, symmetric=True)


def test_forget_matches_the_reference_on_pinned_grids_and_trees():
    # every FORGET of every pinned solve, on the signatures the pruned DP meets
    kinds = Counter()
    for shape, size, lo, hi, seed, _, _, some, _ in PINNED_TABLE_WORK:
        inst = pinned_instance(shape, size, lo, hi, seed)
        introduce, forget, join = _transitions(inst)
        reference = reference_forget(inst)

        def checked(nd, child_bag):
            step, want = forget(nd, child_bag), reference(nd, child_bag)
            p = child_bag.index(nd.vertex)

            def compare(sig):
                out = step(sig)
                assert out == want(sig)
                kinds[forget_kind(sig, p, out)] += 1
                return out

            return compare

        part = run_nice_dp(
            make_nice(heuristic_decompose(inst)), 10**6, ((), (), (), ()), introduce, checked, join,
            classes=itemgetter(0), prune=_prune,
        )
        assert (part is not None) == some
    assert min(kinds[kind] for kind in ("dropped", "completes", "stays")) >= 100, kinds
