"""Tree decompositions: validation, heuristics, nice form, the DP engine, squaring."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from ashg import (
    AshgInstance,
    NiceNode,
    Partition,
    ResourceLimitError,
    TreeDecomposition,
    better_response_dynamics,
    heuristic_decompose,
    make_nice,
    square_instance,
    validate,
)
from ashg.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    MIN_DEGREE,
    MIN_FILL,
    _clique_adjacency,
    check_sets,
    decompose_check_graph,
    run_nice_dp,
)
from helpers import (
    grid_instance,
    naive_elimination_bags,
    naive_validate,
    path3,
    path_instance,
    random_graph_instance,
    suite_instance,
    tree_instance,
    uniform_instance,
)


def star_instance(n: int) -> AshgInstance:
    """Center 1 joined to every other vertex, as `gen 3part` builds."""
    return AshgInstance(n, [(1, v, 1) for v in range(2, n + 1)])


class TestTreeDecomposition:
    def test_width_is_max_bag_size_minus_one(self):
        td = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
        assert td.max_bag_size == 2
        assert td.width == 1

    def test_empty_bag_width_normalized_to_zero(self):
        assert TreeDecomposition({1: []}, []).width == 0

    def test_edge_to_missing_bag_rejected(self):
        with pytest.raises(ValueError):
            TreeDecomposition({1: [1]}, [(1, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            TreeDecomposition({1: [1], 2: [1]}, [(1, 2), (2, 1)])

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            TreeDecomposition({1: [1]}, [(1, 1)])

    def test_cyclic_or_disconnected_tree_rejected(self):
        with pytest.raises(ValueError, match="^decomposition has no bags$"):
            TreeDecomposition({})
        bags = {1: [1, 2], 2: [2, 3], 3: [2]}
        with pytest.raises(ValueError, match=r"^3 tree edges for 3 bags \(a tree needs 2\)$"):
            TreeDecomposition(bags, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="^tree is not connected$"):
            TreeDecomposition(bags | {4: [3]}, [(1, 2), (2, 3), (1, 3)])

    def test_rooted_breadth_first_from_the_lowest_id(self):
        # neighbors in ascending id, whatever order the edges come in
        td = TreeDecomposition({5: [1], 2: [1], 9: [1], 7: [1]}, [(9, 7), (5, 2), (2, 9)])
        assert td.order == (2, 5, 9, 7)
        assert td.parent == {2: None, 5: 2, 9: 2, 7: 9}


def corrupted_decompositions(rng, inst, td):
    """(kind, bags, edges) for td itself and five ways of breaking it."""
    bags = {i: set(b) for i, b in td.bags.items()}
    edges = list(td.edges)
    ids = sorted(bags)
    yield "valid", bags, edges

    edge = rng.choice(sorted(inst.underlying_edges()))
    dropped = {i: b - {edge[1]} if edge[0] in b else b for i, b in bags.items()}
    yield "dropped edge", dropped, edges

    i, v = rng.choice([(i, v) for i in ids for v in range(1, inst.n + 1) if v not in bags[i]])
    broken = {j: set(b) for j, b in bags.items()}
    broken[i].add(v)
    yield "broken subtree", broken, edges

    unknown = {i: set(b) for i, b in bags.items()}
    unknown[rng.choice(ids)].add(rng.choice([0, inst.n + 1]))
    yield "unknown vertex", unknown, edges

    a, b = rng.choice([(a, b) for a, b in itertools.combinations(ids, 2) if (a, b) not in edges])
    yield "cycle", bags, edges + [(a, b)]

    yield "disconnected", bags, edges[:-1] if rng.random() < 0.5 else edges[1:]


class TestValidate:
    def test_path_decomposition_valid(self):
        td = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
        ok, problems = validate(td, path3())
        assert ok and problems == []

    def test_uncovered_edge_detected(self):
        inst = AshgInstance(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        td = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
        ok, problems = validate(td, inst)
        assert not ok
        assert any("edge" in p for p in problems)

    def test_non_contiguous_vertex_detected(self):
        td = TreeDecomposition({1: [1], 2: [2, 3], 3: [1, 3]}, [(1, 2), (2, 3)])
        ok, problems = validate(td, path3())
        assert not ok
        assert any("connected" in p or "subtree" in p for p in problems)

    def test_missing_vertex_detected(self):
        td = TreeDecomposition({1: [1, 2]}, [])
        ok, problems = validate(td, path3())
        assert not ok

    def test_disconnected_tree_detected(self):
        # before validate: the type refuses a tree that is not one
        with pytest.raises(ValueError, match="a tree needs 2"):
            TreeDecomposition({1: [1, 2], 2: [2, 3], 3: [2]}, [(1, 2)])

    def test_matches_naive_validate(self):
        rng = random.Random(47)
        failing = set()
        for t in range(200):
            if t % 2:
                inst = uniform_instance(rng, n_max=25, max_degree=5)
            else:
                inst = path_instance(rng.randint(3, 30), rng)
            if not inst.arcs:
                continue
            td = heuristic_decompose(inst, MIN_DEGREE if t % 3 else MIN_FILL)
            if len(td.bags) < 3:
                continue
            for kind, bags, edges in corrupted_decompositions(rng, inst, td):
                if kind in ("cycle", "disconnected"):
                    # one edge too many or too few: the type refuses it
                    with pytest.raises(ValueError, match="tree edges for"):
                        TreeDecomposition(bags, edges)
                    continue
                cand = TreeDecomposition(bags, edges)
                got = validate(cand, inst)
                assert got == naive_validate(cand, inst), kind
                if not got[0]:
                    failing.add(kind)
        assert failing == {"dropped edge", "broken subtree", "unknown vertex"}


class TestHeuristicDecompose:
    def test_path_of_five_has_width_one(self):
        inst = path_instance(5)
        for strategy in (MIN_DEGREE, MIN_FILL):
            td = heuristic_decompose(inst, strategy)
            assert validate(td, inst)[0]
            assert td.width == 1

    def test_empty_graph_single_empty_bag(self):
        td = heuristic_decompose(AshgInstance(0))
        assert dict(td.bags) == {1: frozenset()}
        assert td.width == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            heuristic_decompose(path_instance(3), "random")

    def test_valid_on_random_instances(self):
        rng = random.Random(31)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=8)
            for strategy in (MIN_DEGREE, MIN_FILL):
                td = heuristic_decompose(inst, strategy)
                ok, problems = validate(td, inst)
                assert ok, problems

    def test_min_degree_matches_min_loop_reference(self):
        # both strategies, on G and on G^2's adjacency, sparse to dense:
        # the lazy heap must pick what a min() over all vertices picks, also
        # where it closes a clique at once (a star's square, a clique)
        rng = random.Random(53)
        instances = [
            random_graph_instance(rng.randint(1, 60), (0.02, 0.05, 0.1, 0.2, 0.5)[t % 5], rng)
            for t in range(48)
        ]
        instances += [star_instance(n) for n in (1, 2, 3, 9, 30)]
        instances += [random_graph_instance(n, 1.0, rng) for n in (2, 3, 8, 20)]
        # min-fill switches to least degree part-way on most of these, on G
        # and on G^2
        instances += [random_graph_instance(40, 0.2, rng) for _ in range(6)]
        for inst in instances:
            for strategy in (MIN_DEGREE, MIN_FILL):
                td = heuristic_decompose(inst, strategy)
                assert (dict(td.bags), td.edges) == naive_elimination_bags(inst, strategy)
                square = square_instance(inst)
                td = heuristic_decompose(square, strategy)
                assert (dict(td.bags), td.edges) == naive_elimination_bags(square, strategy)

    def test_deterministic(self):
        inst = suite_instance(random.Random(5), 1, n_max=8)
        a = heuristic_decompose(inst)
        b = heuristic_decompose(inst)
        assert dict(a.bags) == dict(b.bags) and a.edges == b.edges


class TestMakeNice:
    def test_single_bag_chain_structure(self):
        td = TreeDecomposition({1: [1, 2]}, [])
        nodes = make_nice(td)
        kinds = [nd.kind for nd in nodes]
        assert kinds == [LEAF, INTRODUCE, INTRODUCE, FORGET, FORGET]
        assert [nd.vertex for nd in nodes] == [None, 1, 2, 1, 2]
        assert nodes[-1].bag == ()

    def test_two_bag_path_width_preserved(self):
        td = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
        nodes = make_nice(td)
        assert_nice(nodes, path3())
        assert nice_width(nodes) == td.width == 1

    def test_empty_graph_leaf_only(self):
        nodes = make_nice(TreeDecomposition({1: []}, []))
        assert len(nodes) == 1
        assert nodes[0].kind == LEAF

    def test_star_decomposition_produces_joins(self):
        inst = AshgInstance(
            5, {(1, v): 1 for v in (2, 3, 4, 5)} | {(v, 1): 1 for v in (2, 3, 4, 5)}
        )
        nodes = make_nice(heuristic_decompose(inst))
        assert any(nd.kind == JOIN for nd in nodes)
        assert_nice(nodes, inst)

    def test_valid_and_width_preserving_on_random_instances(self):
        rng = random.Random(92)
        for t in range(120):
            inst = suite_instance(rng, t, n_max=8)
            td = heuristic_decompose(inst)
            nodes = make_nice(td)
            assert_nice(nodes, inst)
            assert nice_width(nodes) == td.width

    def test_valid_exactly_when_the_input_is(self):
        # every nice bag lies in an input bag and every input bag appears
        # whole, so validating the input tree validates its nice form
        rng = random.Random(53)
        seen = set()
        for t in range(150):
            inst = uniform_instance(rng, n_max=14, max_degree=4) if t % 2 else path_instance(
                rng.randint(3, 20), rng
            )
            td = heuristic_decompose(inst)
            if not inst.arcs or len(td.bags) < 3:
                continue
            fewer = AshgInstance(inst.n - 2, {
                a: w for a, w in inst.arcs.items() if max(a) <= inst.n - 2
            })
            for kind, bags, edges in corrupted_decompositions(rng, inst, td):
                if kind in ("cycle", "disconnected"):
                    continue  # make_nice needs a tree
                given = TreeDecomposition(bags, edges)
                nodes = make_nice(given)
                for target in (inst, fewer):
                    ok, problems = validate(given, target)
                    assert axioms_via_copy(nodes, target)[0] == ok, kind
                    seen.update(problems)
        for text in ("is in no bag", "unknown vertex", "not connected in the tree"):
            assert any(text in p for p in seen), text


def nice_width(nodes):
    return max(0, max(len(nd.bag) for nd in nodes) - 1)


def axioms_via_copy(nodes, inst):
    """The decomposition axioms of the nice nodes, checked by validate on a
    TreeDecomposition copy of the nodes and their child links."""
    td = TreeDecomposition(
        {i: nd.bag for i, nd in enumerate(nodes)},
        [(i, c) for i, nd in enumerate(nodes) for c in nd.children],
    )
    return validate(td, inst)


def assert_nice(nodes, inst):
    """Per-kind nice structure, one parent per non-root node, and the
    axioms on a copy of the nodes."""
    assert nodes[-1].bag == ()
    below = sorted(c for nd in nodes for c in nd.children)
    assert below == list(range(len(nodes) - 1))  # a tree rooted at the last node
    for i, nd in enumerate(nodes):
        assert nd.bag == tuple(sorted(set(nd.bag)))
        assert all(c < i for c in nd.children)
        kids = [set(nodes[c].bag) for c in nd.children]
        if nd.kind == LEAF:
            assert nd.bag == () and not kids
        elif nd.kind == INTRODUCE:
            assert len(kids) == 1 and nd.vertex not in kids[0]
            assert set(nd.bag) == kids[0] | {nd.vertex}
        elif nd.kind == FORGET:
            assert len(kids) == 1 and nd.vertex in kids[0]
            assert set(nd.bag) == kids[0] - {nd.vertex}
        else:
            assert nd.kind == JOIN and kids == [set(nd.bag)] * 2
    assert axioms_via_copy(nodes, inst) == (True, [])


def two_branch_nodes() -> tuple[NiceNode, ...]:
    """Bag {1} with one branch adding 2 and one adding 3, joined, then emptied."""
    return (
        NiceNode(LEAF, (), None, ()),
        NiceNode(INTRODUCE, (1,), 1, (0,)),
        NiceNode(INTRODUCE, (1, 2), 2, (1,)),
        NiceNode(FORGET, (1,), 2, (2,)),
        NiceNode(LEAF, (), None, ()),
        NiceNode(INTRODUCE, (1,), 1, (4,)),
        NiceNode(INTRODUCE, (1, 3), 3, (5,)),
        NiceNode(FORGET, (1,), 3, (6,)),
        NiceNode(JOIN, (1,), None, (3, 7)),
        NiceNode(FORGET, (), 1, (8,)),
    )


def canon(labels) -> tuple[int, ...]:
    first: dict[int, int] = {}
    return tuple(first.setdefault(lab, len(first)) for lab in labels)


def run_partition_dp(nodes, placements, table_cap=100, stats=None):
    """Signatures are the bag's class labels; placements(v, sig, p) lists
    the labels the introduced vertex v may take at bag position p."""

    def introduce(nd, child_bag):
        p = nd.bag.index(nd.vertex)
        return lambda sig: [
            canon(sig[:p] + (lab,) + sig[p:]) for lab in placements(nd.vertex, sig, p)
        ]

    def forget(nd, child_bag):
        p = child_bag.index(nd.vertex)
        return lambda sig: canon(sig[:p] + sig[p + 1 :])

    return run_nice_dp(
        nodes, table_cap, (), introduce, forget,
        join=lambda left, right: left,
        classes=lambda sig: sig,
        stats=stats,
    )


def fresh_label(sig) -> int:
    return max(sig, default=-1) + 1


class TestRunNiceDp:
    def test_traceback_carries_classes_through_join_and_forget(self):
        # even vertices join the class of the bag's first vertex, odd ones
        # open a class of their own
        def placements(v, sig, p):
            return [sig[0] if v % 2 == 0 else fresh_label(sig)]

        stats = {}
        part = run_partition_dp(two_branch_nodes(), placements, stats=stats)
        assert part == Partition([1, 1, 2])
        assert stats == {"width": 1, "peak_table": 1, "nice_nodes": 10}

    def test_first_trace_in_insertion_order_wins(self):
        nodes = make_nice(TreeDecomposition({1: [1, 2]}, []))
        together_first = run_partition_dp(nodes, lambda v, sig, p: [*sig, fresh_label(sig)])
        apart_first = run_partition_dp(nodes, lambda v, sig, p: [fresh_label(sig), *sig])
        assert together_first == Partition([1, 1])
        assert apart_first == Partition([1, 2])

    def test_empty_root_table_gives_none(self):
        def placements(v, sig, p):
            return [] if v == 3 else [fresh_label(sig)]

        assert run_partition_dp(two_branch_nodes(), placements) is None

    def test_empty_decomposition_gives_empty_partition(self):
        nodes = make_nice(TreeDecomposition({1: []}, []))
        assert run_partition_dp(nodes, lambda v, sig, p: []) == Partition([])

    def test_cap_writes_stats_before_raising(self):
        # the table that crossed the cap is the peak, reported with the width
        # and the node count of the walk it stopped
        stats = {}
        with pytest.raises(ResourceLimitError, match="at node 2 .introduce. exceeds cap 1"):
            run_partition_dp(two_branch_nodes(), lambda v, sig, p: [0, fresh_label(sig)],
                             table_cap=1, stats=stats)
        assert stats == {"width": 1, "peak_table": 2, "nice_nodes": 10}

    def test_negative_cap_rejected_before_the_walk(self):
        stats = {}
        with pytest.raises(ValueError, match="table cap must be nonnegative, got -1"):
            run_partition_dp(two_branch_nodes(), lambda v, sig, p: [0], table_cap=-1, stats=stats)
        assert stats == {}

    def test_traceback_on_isolated_vertices(self):
        # three one-vertex bags: every vertex is forgotten with an empty bag
        nodes = make_nice(heuristic_decompose(AshgInstance(3)))
        assert run_partition_dp(nodes, lambda v, sig, p: [fresh_label(sig)]) == Partition([1, 2, 3])

    def test_cap_checked_on_every_insert(self):
        # the step never ends; only a per-insert check stops the node
        def endless(nd, child_bag):
            return lambda sig: ((i,) for i in itertools.count())

        nodes = make_nice(TreeDecomposition({1: [1]}, []))
        with pytest.raises(ResourceLimitError):
            run_nice_dp(
                nodes, 5, (), endless, lambda nd, bag: lambda sig: (),
                join=lambda left, right: left,
                classes=lambda sig: sig,
            )


def check_graph_instance(inst: AshgInstance) -> AshgInstance:
    """x ~ y when some vertex u has x and y in {u} ∪ {t : w(u, t) != 0}."""
    reads = {u: {u} for u in range(1, inst.n + 1)}
    for (u, t), w in inst.arcs.items():
        if w:
            reads[u].add(t)
    pairs = {pair for h in reads.values() for pair in itertools.combinations(sorted(h), 2)}
    return AshgInstance(inst.n, [(x, y, 1) for x, y in sorted(pairs)])


def decomposition_instances(rng: random.Random) -> list[AshgInstance]:
    instances = [suite_instance(rng, t, n_max=10) for t in range(150)]
    instances += [grid_instance(r, c, rng) for r in (2, 3, 4) for c in (3, 5)]
    instances += [tree_instance(60, rng, d) for d in (2, 3, 5)]
    return instances + [AshgInstance(0), AshgInstance(3), AshgInstance(4, [(2, 3, 1)])]


class TestDecomposeCheckGraph:
    def test_same_decomposition_as_the_check_graph_instance(self):
        for inst in decomposition_instances(random.Random(67)):
            want = heuristic_decompose(check_graph_instance(inst), MIN_FILL)
            got = decompose_check_graph(inst)
            assert got.bags == want.bags and got.edges == want.edges
            assert make_nice(got) == make_nice(want)


class TestDecomposeSquare:
    """decompose_check_graph where the check graph is G^2."""

    def test_same_decomposition_as_the_square_instance(self):
        for inst in decomposition_instances(random.Random(61)):
            # every arc nonzero and two-way, so that every H(u) is N[u]
            both = {}
            for u, v in inst.arcs:
                both[u, v] = inst.arcs[u, v] or 1
                both[v, u] = inst.arcs.get((v, u)) or 1
            inst = AshgInstance(inst.n, both)
            square = square_instance(inst)
            adjacency = _clique_adjacency(inst.n, check_sets(inst))
            assert adjacency == {v: set(square.neighbors[v]) for v in range(1, inst.n + 1)}
            want = heuristic_decompose(square, MIN_FILL)
            got = decompose_check_graph(inst)
            assert got.bags == want.bags and got.edges == want.edges
            assert make_nice(got) == make_nice(want)

    def test_square_of_a_large_star_is_quick(self):
        # the center's check set holds every vertex, so the check graph is
        # the square, one clique, closed as soon as it is seen; eliminating
        # it vertex by vertex took 6 to 7.5 s at n = 1 000 on a 2-core VM
        t0 = time.perf_counter()
        td = decompose_check_graph(star_instance(1_000))
        assert time.perf_counter() - t0 < 2
        assert td.width == 999 and len(td.bags) == 1_000

    def test_min_fill_square_of_a_sparse_random_graph_is_quick(self):
        # G^2 of G(1 000, 2 000) is dense and far from chordal: keeping exact
        # fill counts to the end took 12.8 s here on a 2-core VM; switching
        # to least degree once the least fill exceeds its vertex's degree
        # takes 0.37 s, min-degree 0.34 s
        rng = random.Random(7)
        edges: set[tuple[int, int]] = set()
        while len(edges) < 2_000:
            u, v = sorted(rng.sample(range(1, 1_001), 2))
            edges.add((u, v))
        # arcs both ways, so that the check graph is G^2
        arcs = [(u, v, 1) for u, v in sorted(edges)] + [(v, u, 1) for u, v in sorted(edges)]
        inst = AshgInstance(1_000, arcs)
        t0 = time.perf_counter()
        td = decompose_check_graph(inst)
        assert time.perf_counter() - t0 < 2
        assert len(td.bags) == 1_000


class TestSquareInstance:
    def test_path_gains_zero_arcs_between_endpoints(self):
        sq = square_instance(path3())
        assert sq.weight(1, 3) == 0 and (1, 3) in sq.arcs
        assert sq.weight(3, 1) == 0 and (3, 1) in sq.arcs
        assert sq.weight(1, 2) == 1  # existing weights untouched

    def test_complete_graph_unchanged(self):
        inst = AshgInstance(
            3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (1, 3, 1), (3, 1, 1)]
        )
        assert square_instance(inst).arcs == inst.arcs

    def test_single_vertex_unchanged(self):
        assert square_instance(AshgInstance(1)).arcs == {}

    def test_stalker_plus_isolated_unchanged(self):
        inst = AshgInstance(3, [(1, 2, 1), (2, 1, -1)])
        assert square_instance(inst).arcs == inst.arcs

    def test_matches_distance_two_closure_on_random_instances(self):
        rng = random.Random(60)
        for t in range(100):
            inst = suite_instance(rng, t, n_max=7)
            sq = square_instance(inst)
            nbr = [set(s) for s in inst.neighbors]
            for u in range(1, inst.n + 1):
                for v in range(1, inst.n + 1):
                    if u == v:
                        continue
                    dist2 = v not in nbr[u] and bool(nbr[u] & nbr[v])
                    assert ((u, v) in sq.arcs) == ((u, v) in inst.arcs or dist2)
                    if dist2:
                        assert sq.weight(u, v) == 0


def test_layers_outside_the_dp_scale_linearly():
    # width-1 path, n = 20 000: the decomposition, its validation, the nice
    # form and the dynamics (19 999 moves into one coalition) each stay
    # near-linear; a quadratic layer takes minutes here
    n = 20_000
    inst = path_instance(n)
    start = time.perf_counter()
    td = heuristic_decompose(inst)
    assert validate(td, inst) == (True, [])
    assert len(make_nice(td)) == 2 * n + 1
    stats = {}
    assert better_response_dynamics(inst, max_steps=4 * n, stats=stats) == Partition([1] * n)
    assert stats["steps"] == n - 1
    assert time.perf_counter() - start < 10.0
