"""Connected stability: signatures, filters, and the subtree solver."""

from __future__ import annotations

import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ashg import (
    AshgInstance,
    ConnectedSignature,
    NiceNode,
    Partition,
    ResourceLimitError,
    brute_force_connected_nash,
    heuristic_decompose,
    is_connected_partition,
    is_nash_stable,
    make_nice,
    solve_connected_nash,
    solve_nash_via_coloring,
    square_instance,
    TreeDecomposition,
)
from ashg.connected import EMPTY_SIGNATURE, _in_bag_sums, _prune, _transitions
from ashg.decomposition import FORGET, INTRODUCE, JOIN, LEAF, canonical_labels, run_nice_dp
from helpers import (
    caterpillar_instance,
    cycle_instance,
    forget_filter_passes,
    friends,
    grid_instance,
    in_bag_sums,
    naive_is_stable,
    path_instance,
    signature_of,
    stalker,
    suite_instance,
    trace_survives_forget_filters,
    tree_instance,
)
from test_traceback import CORPUS


def triangle_nodes() -> tuple[NiceNode, ...]:
    """Hand-built nice form for a single bag {1,2,3}, peeling 1 early."""
    return (
        NiceNode(LEAF, (), None, ()),
        NiceNode(INTRODUCE, (2,), 2, (0,)),
        NiceNode(INTRODUCE, (2, 3), 3, (1,)),
        NiceNode(INTRODUCE, (1, 2, 3), 1, (2,)),
        NiceNode(FORGET, (1, 3), 2, (3,)),
        NiceNode(FORGET, (1,), 3, (4,)),
        NiceNode(FORGET, (), 1, (5,)),
    )


class TestSignatureOf:
    def test_root_gives_empty_signature(self):
        inst = friends()
        nodes = make_nice(heuristic_decompose(inst))
        part = Partition([1, 1])
        assert signature_of(inst, nodes, len(nodes) - 1, part) == EMPTY_SIGNATURE

    def test_best_completed_coalition_value(self):
        # bag {1}; coalition {2,3} finished below with w(1,2)=2, w(1,3)=-1:
        # the best completed-coalition payoff for vertex 1 is max(0, 1) = 1
        inst = AshgInstance(3, [(1, 2, 2), (1, 3, -1), (2, 3, 0), (2, 1, 0), (3, 1, 0)])
        nodes = triangle_nodes()
        part = Partition.from_blocks([[1], [2, 3]])
        node = next(i for i, nd in enumerate(nodes) if nd.bag == (1,))
        sig = signature_of(inst, nodes, node, part)
        assert sig.pi1 == (0,)
        assert sig.best == (1,)
        assert sig.util == (0,)  # vertex 1 is alone in its class

    def test_cross_class_utilities_tracked(self):
        inst = AshgInstance(3, [(1, 2, 2), (1, 3, -1), (2, 3, 0), (2, 1, 0), (3, 1, 0)])
        nodes = triangle_nodes()
        part = Partition.from_blocks([[1], [2, 3]])
        node = next(i for i, nd in enumerate(nodes) if nd.bag == (1, 3))
        sig = signature_of(inst, nodes, node, part)
        # classes: vertex 1 alone (class 0), vertex 3 with forgotten 2 (class 1)
        assert sig.pi1 == (0, 1)
        # row of vertex 1 counts the forgotten member only: w(1,2) toward class 1
        assert sig.util[0:2] == (0, 2)
        # adding its in-bag sums, w(1,3), gives the whole class: w(1,2)+w(1,3)
        arcs_from_1 = (0, inst.weight(1, 3))
        full = [a + b for a, b in zip(sig.util[0:2], _in_bag_sums(sig.pi1, 0, arcs_from_1))]
        assert full == [0, 1]


def passes(sig, p, arcs_from_x):
    """The forget filter, fed the in-bag sums of the test reference."""
    return forget_filter_passes(sig, p, in_bag_sums(sig.pi1, p, arcs_from_x))


class TestForgetFilter:
    # util is flat and row-major: util[q * ncls + c]
    def test_negative_own_rejected(self):
        sig = ConnectedSignature((0,), (0,), (-1,), (0,))
        assert not passes(sig, 0, (0,))

    def test_negative_own_from_in_bag_arcs_rejected(self):
        # stored row is 0, but the in-bag partner at position 1 is disliked
        sig = ConnectedSignature((0, 0), (0, 0), (0, 0), (0, 0))
        assert not passes(sig, 0, (0, -1))

    def test_better_cross_class_rejected(self):
        sig = ConnectedSignature((0, 1), (0, 1), (0, 2, 0, 0), (0, 0))
        assert not passes(sig, 0, (0, 0))

    def test_better_cross_class_from_in_bag_arcs_rejected(self):
        # the other class's bag member at position 1 is worth 2 to position 0
        sig = ConnectedSignature((0, 1), (0, 1), (0, 0, 0, 0), (0, 0))
        assert not passes(sig, 0, (0, 2))
        assert passes(sig, 0, (0, 0))

    def test_better_completed_coalition_rejected(self):
        sig = ConnectedSignature((0,), (0,), (1,), (2,))
        assert not passes(sig, 0, (0,))

    def test_unreachable_component_rejected(self):
        # vertex at position 1 shares its class with position 0 but sits in
        # its own connectivity component: it can never reconnect
        sig = ConnectedSignature((0, 0), (0, 1), (1, 1), (0, 0))
        assert not passes(sig, 1, (0, 0))

    def test_happy_path_passes(self):
        sig = ConnectedSignature((0, 0), (0, 0), (1, 1), (0, 0))
        assert passes(sig, 0, (0, 0))

    def test_cached_in_bag_sums_agree(self):
        # the DP caches _in_bag_sums per FORGET plan; the reference sums apart
        pi1 = (0, 1, 0)
        for arcs in ((0, 0, 0), (0, 3, 0), (0, 0, -2), (0, -1, 1), (4, -1, 1)):
            for p in range(3):
                assert _in_bag_sums(pi1, p, arcs) == in_bag_sums(pi1, p, arcs)


class TestTraceSurvival:
    def test_stable_connected_partitions_survive(self):
        rng = random.Random(454)
        checked = 0
        for t in range(400):
            if checked >= 40:
                break
            inst = suite_instance(rng, t, n_max=6)
            part = brute_force_connected_nash(inst)
            if part is None:
                continue
            nodes = make_nice(heuristic_decompose(inst))
            assert trace_survives_forget_filters(inst, nodes, part)
            checked += 1
        assert checked >= 40

    def test_unstable_partition_fails_somewhere(self):
        inst = stalker()
        nodes = make_nice(heuristic_decompose(inst))
        assert not trace_survives_forget_filters(inst, nodes, Partition([1, 1]))


class TestSolveConnectedNash:
    def test_stalker_none(self):
        inst = stalker()
        assert solve_connected_nash(inst, heuristic_decompose(inst)) is None

    def test_friends_some(self):
        inst = friends()
        part = solve_connected_nash(inst, heuristic_decompose(inst))
        assert part == Partition([1, 1])

    def test_three_path_matches_oracle(self):
        inst = path_instance(3)
        part = solve_connected_nash(inst, heuristic_decompose(inst))
        ref = brute_force_connected_nash(inst)
        assert (part is None) == (ref is None)
        assert part is not None
        assert is_nash_stable(inst, part)[0]
        assert is_connected_partition(inst, part)[0]

    def test_empty_instance(self):
        inst = AshgInstance(0)
        part = solve_connected_nash(inst, heuristic_decompose(inst))
        assert part == Partition([])

    def test_stats_reported(self):
        inst = friends()
        stats = {}
        solve_connected_nash(inst, heuristic_decompose(inst), stats=stats)
        assert stats["peak_table"] >= 1
        assert stats["nice_nodes"] >= 3

    def test_table_cap_enforced(self):
        inst = path_instance(8)
        stats = {}
        with pytest.raises(ResourceLimitError):
            solve_connected_nash(
                inst, heuristic_decompose(inst), table_cap=1, stats=stats
            )
        # width and node count come before the walk, the crossing size on cap
        assert stats == {"width": 1, "nice_nodes": 17, "peak_table": 2}

    def test_table_cap_enforced_at_a_join(self):
        # a width-2 game whose pruned tables below the first JOIN fit in 8
        # signatures, and the JOIN outgrows both children
        inst = AshgInstance(6, [(1, 5, 3), (1, 6, 1), (2, 4, 0), (3, 5, -1), (4, 3, -2),
                                (5, 1, -1), (5, 3, -1), (5, 4, 0), (6, 2, 1), (6, 5, 2)])
        stats = {}
        with pytest.raises(ResourceLimitError, match=r"^signature table at node 14 \(join\) "
                                                     r"exceeds cap 8$"):
            solve_connected_nash(inst, table_cap=8, stats=stats)
        assert stats == {"width": 2, "nice_nodes": 22, "peak_table": 9}

    def test_invalid_nice_decomposition_rejected(self):
        # the solver builds the nice form itself and takes none: here node 0
        # is the child of nodes 1 and 3, and node 2 of none
        misrooted = (
            NiceNode(LEAF, (), None, ()),
            NiceNode(INTRODUCE, (2,), 2, (0,)),
            NiceNode(FORGET, (), 2, (1,)),
            NiceNode(INTRODUCE, (1,), 1, (0,)),
            NiceNode(FORGET, (), 1, (3,)),
        )
        with pytest.raises(TypeError, match="expected a TreeDecomposition"):
            solve_connected_nash(AshgInstance(2), misrooted)

    @pytest.mark.parametrize("edges, problem", [
        ([(1, 2), (2, 3), (1, 3)], "3 tree edges for 3 bags (a tree needs 2)"),
        ([(1, 2)], "1 tree edges for 3 bags (a tree needs 2)"),
    ], ids=["cyclic", "disconnected"])
    def test_invalid_decomposition_rejected(self, edges, problem):
        # a tree that is not one never reaches the solver: the type refuses it
        with pytest.raises(ValueError) as exc:
            TreeDecomposition({1: [1, 2], 2: [2, 3], 3: [2]}, edges)
        assert str(exc.value) == problem

    def test_default_decomposition_is_the_heuristic_one(self, monkeypatch):
        # without a tree the solver decomposes G itself and skips validate;
        # answer and table work equal those of the same tree given explicitly
        rng = random.Random(4242)
        for t in range(40):
            inst = suite_instance(rng, t, n_max=7)
            given, default = {}, {}
            expected = solve_connected_nash(inst, heuristic_decompose(inst), stats=given)
            with monkeypatch.context() as m:
                m.setattr("ashg.connected.validate", None)  # any call fails
                assert solve_connected_nash(inst, stats=default) == expected
            assert default == given

    def test_matches_brute_force_on_random_suite(self):
        rng = random.Random(8086)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=7)
            got = solve_connected_nash(inst, heuristic_decompose(inst))
            ref = brute_force_connected_nash(inst)
            assert (got is None) == (ref is None), dict(inst.arcs)
            if got is not None:
                assert naive_is_stable(inst, got)
                assert is_connected_partition(inst, got)[0]

    def test_join_nodes_exercised_on_stars(self):
        rng = random.Random(17)
        for _ in range(20):
            leaves = rng.randint(3, 6)
            arcs = {}
            for v in range(2, leaves + 2):
                arcs[(1, v)] = rng.randint(-2, 2)
                arcs[(v, 1)] = rng.randint(-2, 2)
            inst = AshgInstance(leaves + 1, arcs)
            got = solve_connected_nash(inst, heuristic_decompose(inst))
            ref = brute_force_connected_nash(inst)
            assert (got is None) == (ref is None)
            if got is not None:
                assert is_nash_stable(inst, got)[0]
                assert is_connected_partition(inst, got)[0]


def stable_traces(count):
    """(instance, nice nodes, connected stable partition) triples:
    suite games and weighted stars, the stars so that JOIN nodes occur."""
    rng = random.Random(2718)
    found = []
    t = 0
    while len(found) < count:
        if t % 3 == 2:
            leaves = rng.randint(3, 5)
            arcs = {}
            for v in range(2, leaves + 2):
                arcs[(1, v)] = rng.randint(-1, 3)
                arcs[(v, 1)] = rng.randint(-1, 3)
            inst = AshgInstance(leaves + 1, arcs)
        else:
            inst = suite_instance(rng, t, n_max=7)
        t += 1
        part = brute_force_connected_nash(inst)
        if part is not None:
            found.append((inst, make_nice(heuristic_decompose(inst)), part))
    return found


def vertices_below(nodes, node_id):
    """Union of the bags in the subtree rooted at node_id."""
    nd = nodes[node_id]
    return set(nd.bag).union(*(vertices_below(nodes, c) for c in nd.children))


class TestTransitions:
    """The DP's transitions reproduce signature_of along stable traces."""

    def test_transitions_match_signature_of(self):
        kinds = {INTRODUCE: 0, FORGET: 0, JOIN: 0}
        for inst, nodes, part in stable_traces(60):
            introduce, forget, join = _transitions(inst)
            sigs = [signature_of(inst, nodes, i, part) for i in range(len(nodes))]
            for i, nd in enumerate(nodes):
                if nd.kind == LEAF:
                    assert sigs[i] == EMPTY_SIGNATURE
                    continue
                kinds[nd.kind] += 1
                if nd.kind == JOIN:
                    left, right = nd.children
                    assert join(sigs[left], sigs[right]) == sigs[i]
                    continue
                child = nd.children[0]
                child_bag = nodes[child].bag
                if nd.kind == INTRODUCE:
                    assert sigs[i] in introduce(nd, child_bag)(sigs[child])
                else:
                    assert forget(nd, child_bag)(sigs[child]) == sigs[i]
        assert min(kinds.values()) > 0, kinds

    def test_introduced_row_is_zero(self):
        # no neighbour of a vertex is forgotten below its INTRODUCE node
        for inst, nodes, part in stable_traces(30):
            introduce, _, _ = _transitions(inst)
            for i, nd in enumerate(nodes):
                if nd.kind != INTRODUCE:
                    continue
                p = nd.bag.index(nd.vertex)
                child = nd.children[0]
                for sig in introduce(nd, nodes[child].bag)(
                    signature_of(inst, nodes, child, part)
                ):
                    ncls = max(sig.pi1) + 1
                    assert sig.util[p * ncls : (p + 1) * ncls] == (0,) * ncls
                    assert sig.best[p] == 0

    def test_join_adds_utilities(self):
        # the two children's forgotten sets are disjoint, so their rows add
        joins = 0
        for inst, nodes, part in stable_traces(60):
            for i, nd in enumerate(nodes):
                if nd.kind != JOIN:
                    continue
                joins += 1
                left, right = (signature_of(inst, nodes, c, part) for c in nd.children)
                here = signature_of(inst, nodes, i, part)
                assert here.util == tuple(a + b for a, b in zip(left.util, right.util))
                assert here.best == tuple(max(a, b) for a, b in zip(left.best, right.best))
        assert joins > 0

    def test_in_bag_sums_complete_the_forgotten_row(self):
        # at a FORGET, stored row + in-bag sums = utility toward (class ∩ below)
        for inst, nodes, part in stable_traces(30):
            for nd in nodes:
                if nd.kind != FORGET:
                    continue
                child = nd.children[0]
                bag = nodes[child].bag
                below = vertices_below(nodes, child)
                x = nd.vertex
                p = bag.index(x)
                sig = signature_of(inst, nodes, child, part)
                ncls = max(sig.pi1) + 1
                arcs = tuple(inst.weight(x, u) for u in bag)
                full = [
                    a + b
                    for a, b in zip(sig.util[p * ncls : (p + 1) * ncls], _in_bag_sums(sig.pi1, p, arcs))
                ]
                first = {lab: bag[q] for q, lab in reversed(list(enumerate(sig.pi1)))}
                expected = [
                    sum(
                        inst.weight(x, u)
                        for u in part.members(part.class_of(first[c]))
                        if u in below and u != x
                    )
                    for c in range(ncls)
                ]
                assert full == expected


def run_unpruned(inst, table_cap, stats):
    """The connected DP on its default decomposition, every table kept whole."""
    return run_nice_dp(
        make_nice(heuristic_decompose(inst)), table_cap, EMPTY_SIGNATURE, *_transitions(inst),
        classes=attrgetter("pi1"), stats=stats,
    )


# Peak table of the connected DP with every table kept whole and with FORGET
# tables pruned to their undominated signatures, and the node count; a change
# to the transitions or the pruning must not move them.  A case is named by
# its instance and its unpruned work.
# (shape, size, weight low, weight high, seed, unpruned peak_table, nice_nodes,
#  answer is SOME, pruned peak_table)
PINNED_TABLE_WORK = [
    ("grid", 5, -3, 3, 0, 40, 49, False, 31),
    ("grid", 5, -3, 3, 1, 25, 49, False, 17),
    ("grid", 5, -3, 3, 2, 25, 49, False, 20),
    ("grid", 5, 0, 3, 0, 199, 49, True, 119),
    ("grid", 5, 0, 3, 1, 126, 49, True, 53),
    ("grid", 5, 0, 3, 2, 57, 49, True, 50),
    ("tree", 800, -3, 3, 0, 8, 2785, True, 2),
    ("tree", 800, -3, 3, 1, 16, 2825, True, 2),
]


@pytest.mark.parametrize("shape, size, lo, hi, seed, peak, nodes, some, kept", PINNED_TABLE_WORK,
                         ids=["-".join(map(str, case[:-1])) for case in PINNED_TABLE_WORK])
def test_table_work_pinned(shape, size, lo, hi, seed, peak, nodes, some, kept):
    rng = random.Random(seed)
    if shape == "grid":
        inst = grid_instance(3, size, rng, lo, hi)  # 3 x size grid
    else:
        inst = tree_instance(size, rng, w_lo=lo, w_hi=hi, symmetric=True)
    stats = {}
    part = solve_connected_nash(inst, heuristic_decompose(inst), stats=stats)
    assert (stats["peak_table"], stats["nice_nodes"]) == (kept, nodes)
    assert (part is not None) == some
    if part is not None:
        assert is_nash_stable(inst, part)[0]
        assert is_connected_partition(inst, part)[0]
    unpruned = {}
    assert (run_unpruned(inst, 10**6, unpruned) is not None) == some
    assert (unpruned["peak_table"], unpruned["nice_nodes"]) == (peak, nodes)


def test_coloring_dp_agrees_with_connected_dp_on_square_beyond_oracle_cap():
    # G has a Nash stable partition iff G^2 has a connected one, so the
    # connected DP on G^2 is a second exact route for n = 13..20, where the
    # brute-force oracle (n <= 12) cannot follow
    rng = random.Random(1313)
    shapes = (tree_instance, cycle_instance, caterpillar_instance)
    answers = {True: 0, False: 0}
    for t in range(300):
        n = rng.randint(13, 20)
        lo, hi = rng.choice(((-3, 3), (-1, 3), (-3, 1), (0, 2)))
        inst = shapes[t % 3](n, rng, w_lo=lo, w_hi=hi)
        assert max(len(nbrs) for nbrs in inst.neighbors[1:]) <= 3
        plain = solve_nash_via_coloring(inst)
        sq = square_instance(inst)
        connected = solve_connected_nash(sq, heuristic_decompose(sq))
        assert (plain is None) == (connected is None), (t, dict(inst.arcs))
        if plain is not None:
            assert naive_is_stable(inst, plain)
            assert naive_is_stable(sq, connected)
            assert is_connected_partition(sq, connected)[0]
        answers[plain is not None] += 1
    assert min(answers.values()) >= 50, answers


def dominates(a, b) -> bool:
    """Whether signature a is at least as good as b for every bag vertex:
    same (pi1, pi2), util toward the own class no lower, util toward every
    other class and best no higher."""
    if (a.pi1, a.pi2) != (b.pi1, b.pi2):
        return False
    ncls = max(a.pi1, default=-1) + 1
    for q, own in enumerate(a.pi1):
        for c in range(ncls):
            x, y = a.util[q * ncls + c], b.util[q * ncls + c]
            if (x < y) if c == own else (x > y):
                return False
    return all(x <= y for x, y in zip(a.best, b.best))


@st.composite
def bag_signatures(draw, pi1=None):
    """A signature over a bag of 1..4 positions; pi1 is drawn unless given."""
    if pi1 is None:
        m = draw(st.integers(1, 4))
        pi1 = canonical_labels(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))[0]
    m = len(pi1)
    # pi2 refines pi1: each class splits along a drawn sub-label
    sub = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    pi2 = canonical_labels(zip(pi1, sub))[0]
    ncls = max(pi1) + 1
    util = draw(st.lists(st.integers(-4, 4), min_size=m * ncls, max_size=m * ncls))
    best = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    return ConnectedSignature(pi1, pi2, tuple(util), tuple(best))


@st.composite
def dominance_cases(draw):
    """(game, introduced vertex, A, B, JOIN partner): B is a signature over
    the bag of every vertex but the introduced one, A dominates B, and the
    partner shares their pi1."""
    b = draw(bag_signatures())
    m = len(b.pi1)
    ncls = max(b.pi1) + 1
    gain = draw(st.lists(st.integers(0, 3), min_size=m * ncls + m, max_size=m * ncls + m))
    util = tuple(
        x + d if i % ncls == b.pi1[i // ncls] else x - d
        for i, (x, d) in enumerate(zip(b.util, gain))
    )
    best = tuple(x - d for x, d in zip(b.best, gain[m * ncls :]))
    a = ConnectedSignature(b.pi1, b.pi2, util, best)
    n = m + 1
    arcs = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and draw(st.booleans()):
                arcs[(u, v)] = draw(st.integers(-3, 3))
    v = draw(st.integers(1, n))
    return AshgInstance(n, arcs), v, a, b, draw(bag_signatures(b.pi1))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(dominance_cases())
def test_transitions_keep_dominance(case):
    inst, v, a, b, partner = case
    assert dominates(a, b)
    introduce, forget, join = _transitions(inst)
    child_bag = tuple(u for u in range(1, inst.n + 1) if u != v)
    # INTRODUCE: placement by placement, A's image dominates B's
    step = introduce(NiceNode(INTRODUCE, tuple(range(1, inst.n + 1)), v, (0,)), child_bag)
    ia, ib = step(a), step(b)
    assert len(ia) == len(ib) and all(map(dominates, ia, ib))
    # FORGET of any bag vertex: the filter passes A whenever it passes B
    for x in child_bag:
        step = forget(NiceNode(FORGET, tuple(u for u in child_bag if u != x), x, (0,)), child_bag)
        fa, fb = step(a), step(b)
        if fb is not None:
            assert fa is not None and dominates(fa, fb)
    # JOIN with the same partner, on either side
    assert dominates(join(a, partner), join(b, partner))
    assert dominates(join(partner, a), join(partner, b))


class TestPrune:
    def test_keeps_the_undominated_in_order_with_back_pointers(self):
        # two singleton classes; util is row-major [q0 own, q0 other, q1 other, q1 own]
        worse = ConnectedSignature((0, 1), (0, 1), (1, 2, 0, 1), (0, 0))
        better = ConnectedSignature((0, 1), (0, 1), (2, 1, 0, 1), (0, 0))
        # more for q0's own class but a higher best: neither dominates the other
        traded = ConnectedSignature((0, 1), (0, 1), (3, 2, 0, 1), (1, 0))
        # same pi1, other pi2: never compared, though its values are lower
        split = ConnectedSignature((0, 0), (0, 1), (0, 0), (5, 5))
        joined = ConnectedSignature((0, 0), (0, 0), (0, 0), (0, 0))
        table = {worse: "w", split: "s", better: "b", joined: "j", traded: "t"}
        assert list(_prune(table).items()) == [
            (split, "s"), (better, "b"), (joined, "j"), (traded, "t"),
        ]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(bag_signatures((0, 1, 0)), max_size=12))
    def test_matches_the_pairwise_definition(self, sigs):
        table = {sig: i for i, sig in enumerate(sigs)}
        kept = [
            (sig, back) for sig, back in table.items()
            if not any(other != sig and dominates(other, sig) for other in table)
        ]
        assert list(_prune(table).items()) == kept


def connected_outcome(inst, cap, prune):
    """(answer, peak_table) of the connected DP on its default decomposition,
    with or without pruning; a capped run answers with its cap message."""
    stats = {}
    try:
        if prune:
            part = solve_connected_nash(inst, table_cap=cap, stats=stats)
        else:
            part = run_unpruned(inst, cap, stats)
    except ResourceLimitError as exc:
        return str(exc), stats["peak_table"]
    if part is not None:
        assert naive_is_stable(inst, part)
        assert is_connected_partition(inst, part)[0]
    return part is not None, stats["peak_table"]


def beyond_oracle_cap():
    """(name, instance, table cap): grids and trees with n = 13..40."""
    rng = random.Random(1340)
    cases = []
    for rows, cols in ((3, 5), (3, 7), (3, 10), (3, 13), (4, 4), (4, 6), (4, 8), (5, 6)):
        for lo in (-3, -1, 0):
            cases.append((f"grid{rows}x{cols}{lo}", grid_instance(rows, cols, rng, lo, 3), 10**6))
    for i in range(24):
        n = rng.randint(13, 40)
        lo = rng.choice((-3, -1, 0))
        cases.append((f"tree{n}-{i}", tree_instance(n, rng, rng.randint(2, 4), lo, 3), 10**6))
    return cases


def test_pruned_dp_answers_as_the_unpruned_one():
    # the unpruned DP is a second exact route beyond the oracle's n <= 12;
    # pruned tables are subsets of unpruned ones, so pruning never adds a cap
    answers = {True: 0, False: 0}
    for name, inst, cap in CORPUS + beyond_oracle_cap():
        got, got_peak = connected_outcome(inst, cap, prune=True)
        want, want_peak = connected_outcome(inst, cap, prune=False)
        assert got_peak <= want_peak, name
        if isinstance(want, bool):
            assert got == want, name
            answers[want] += 1
    assert min(answers.values()) >= 40, answers
