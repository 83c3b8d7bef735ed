"""Connected stability: signatures, filters, and the subtree solver."""

from __future__ import annotations

import random

import pytest

from ashg import (
    AshgInstance,
    ConnectedSignature,
    NiceNode,
    Partition,
    ResourceLimitError,
    brute_force_connected_nash,
    forget_filter_passes,
    heuristic_decompose,
    is_connected_partition,
    is_nash_stable,
    make_nice,
    solve_connected_nash,
    solve_nash_via_coloring,
    square_instance,
    TreeDecomposition,
)
from ashg.connected import EMPTY_SIGNATURE, _in_bag_sums, _transitions
from ashg.decomposition import FORGET, INTRODUCE, JOIN, LEAF
from helpers import (
    caterpillar_instance,
    cycle_instance,
    grid_instance,
    in_bag_sums,
    naive_is_stable,
    path_instance,
    signature_of,
    suite_instance,
    trace_survives_forget_filters,
    tree_instance,
)


def stalker() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, -1)])


def friends() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, 1)])


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
        # a star's center bag joins its branches: every table below the
        # first JOIN fits in 4 signatures, and the JOIN outgrows both children
        inst = AshgInstance(6, [(1, 2, -2), (2, 1, 2), (1, 3, 2), (3, 1, 0), (1, 4, 3),
                                (4, 1, 0), (1, 5, 1), (5, 1, -2), (1, 6, -1), (6, 1, -1)])
        stats = {}
        with pytest.raises(ResourceLimitError, match=r"^signature table at node 18 \(join\) "
                                                     r"exceeds cap 4$"):
            solve_connected_nash(inst, table_cap=4, stats=stats)
        assert stats == {"width": 1, "nice_nodes": 25, "peak_table": 5}

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


# Peak table and node count of the connected DP, recorded before utilities
# counted forgotten members only; a change to the transitions must not move them.
# (shape, size, weight low, weight high, seed, peak_table, nice_nodes, answer is SOME)
PINNED_TABLE_WORK = [
    ("grid", 5, -3, 3, 0, 40, 49, False),
    ("grid", 5, -3, 3, 1, 25, 49, False),
    ("grid", 5, -3, 3, 2, 25, 49, False),
    ("grid", 5, 0, 3, 0, 199, 49, True),
    ("grid", 5, 0, 3, 1, 126, 49, True),
    ("grid", 5, 0, 3, 2, 57, 49, True),
    ("tree", 800, -3, 3, 0, 8, 2785, True),
    ("tree", 800, -3, 3, 1, 16, 2825, True),
]


@pytest.mark.parametrize("shape, size, lo, hi, seed, peak, nodes, some", PINNED_TABLE_WORK)
def test_table_work_pinned(shape, size, lo, hi, seed, peak, nodes, some):
    rng = random.Random(seed)
    if shape == "grid":
        inst = grid_instance(3, size, rng, lo, hi)  # 3 x size grid
    else:
        inst = tree_instance(size, rng, w_lo=lo, w_hi=hi, symmetric=True)
    stats = {}
    part = solve_connected_nash(inst, heuristic_decompose(inst), stats=stats)
    assert (stats["peak_table"], stats["nice_nodes"]) == (peak, nodes)
    assert (part is not None) == some
    if part is not None:
        assert is_nash_stable(inst, part)[0]
        assert is_connected_partition(inst, part)[0]


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
