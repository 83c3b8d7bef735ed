"""Stable colorings and the decomposition-driven Nash solver."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ashg import (
    AshgInstance,
    Partition,
    ResourceLimitError,
    brute_force_nash,
    heuristic_decompose,
    is_nash_stable,
    make_nice,
    solve_nash_via_coloring,
    square_instance,
)
from ashg.coloring import _transitions
from ashg.decomposition import (
    FORGET,
    INTRODUCE,
    NiceNode,
    canonical_labels,
    run_nice_dp,
)
from helpers import (
    first_stable_coloring,
    friends,
    grid_instance,
    naive_is_stable,
    path_instance,
    stalker,
    suite_instance,
    tree_instance,
    uniform_instance,
)


def paper_k(inst: AshgInstance) -> int:
    """The paper's color budget: the max bag size of a decomposition of G
    times the max degree, capped at n (and at least one color)."""
    return max(1, min(inst.n, heuristic_decompose(inst).max_bag_size * inst.max_degree))


class TestIsStableColoring:
    """A coloring is stable exactly when its nonempty color classes form a
    Nash stable partition, so is_nash_stable decides it."""

    def test_friends_monochrome_stable(self):
        ok, witness = is_nash_stable(friends(), Partition((1, 1)))
        assert ok and witness is None

    def test_friends_split_unstable(self):
        ok, witness = is_nash_stable(friends(), Partition((1, 2)))
        assert not ok
        assert (witness.vertex, witness.target, witness.target_utility) == (1, 2, 1)

    def test_stalker_all_two_colorings_fail(self):
        for colors in itertools.product((1, 2), repeat=2):
            assert not is_nash_stable(stalker(), Partition(colors))[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_nash_stable(friends(), Partition((1,)))

    def test_agrees_with_partition_stability_when_all_classes_used(self):
        rng = random.Random(211)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=6)
            labels = [rng.randint(1, 3) for _ in range(inst.n)]
            part = Partition(labels)
            assert is_nash_stable(inst, part)[0] == naive_is_stable(inst, part)


class TestSolveNashViaColoring:
    def test_stalker_none(self):
        inst = stalker()
        assert solve_nash_via_coloring(inst) is None

    def test_friends_some(self):
        inst = friends()
        part = solve_nash_via_coloring(inst)
        assert part == Partition([1, 1])

    def test_unit_path_six_matches_oracle(self):
        inst = path_instance(6)
        part = solve_nash_via_coloring(inst)
        assert part is not None
        assert is_nash_stable(inst, part)[0]
        assert brute_force_nash(inst) is not None

    def test_empty_instance(self):
        inst = AshgInstance(0)
        assert solve_nash_via_coloring(inst) == Partition([])

    def test_stats_reported(self):
        stats = {}
        solve_nash_via_coloring(friends(), stats=stats)
        assert stats["width"] == 1  # G^2 of one edge is one bag {1, 2}
        assert stats["peak_table"] >= 1
        assert stats["nice_nodes"] >= 3

    def test_table_cap_enforced(self):
        inst = path_instance(6)
        stats = {}
        with pytest.raises(ResourceLimitError):
            solve_nash_via_coloring(inst, table_cap=1, stats=stats)
        # width and node count come before the walk, the crossing size on cap
        assert stats == {"width": 2, "nice_nodes": 13, "peak_table": 2}

    def test_matches_brute_force_on_random_suite(self):
        rng = random.Random(1009)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=7)
            got = solve_nash_via_coloring(inst)
            ref = brute_force_nash(inst)
            assert (got is None) == (ref is None), dict(inst.arcs)
            if got is not None:
                assert naive_is_stable(inst, got)

    def test_matches_brute_force_with_zero_weight_and_one_way_arcs(self):
        # a check set drops the targets of zero-weight arcs, and a one-way
        # arc puts its head in its tail's check set only: weights -1..1 make
        # a third of the arcs zero
        rng = random.Random(4099)
        for t in range(600):
            if t % 2:
                inst = uniform_instance(rng, n_max=9, w_lo=-1, w_hi=1)
            else:
                inst = suite_instance(rng, t // 2, n_max=9)
            got = solve_nash_via_coloring(inst)
            ref = brute_force_nash(inst)
            assert (got is None) == (ref is None), dict(inst.arcs)
            if got is not None:
                assert naive_is_stable(inst, got)

    def test_square_tree_agrees_with_check_graph_tree(self):
        # the same transitions run on G^2's min-fill tree, where every check
        # set lies in a bag too: a second exact route beyond the oracle cap
        rng = random.Random(3571)
        games = [grid_instance(r, c, rng, lo, 3)
                 for r, c in ((3, 5), (4, 4), (3, 6), (4, 5), (4, 6)) for lo in (-3, -1, 0)]
        games += [tree_instance(n, rng, 4, lo, 3) for n in (13, 20, 30, 40) for lo in (-3, -1, 0)]
        answers = []
        for game in games:
            # drop about half the zero-weight arcs, leaving some edges one-way
            game = AshgInstance(game.n, {a: w for a, w in game.arcs.items()
                                         if w or rng.random() < 0.5})
            square_tree = make_nice(heuristic_decompose(square_instance(game)))
            via_square = run_nice_dp(square_tree, 10**6, (), *_transitions(game),
                                     classes=lambda sig: sig)
            got = solve_nash_via_coloring(game)
            assert (got is None) == (via_square is None), dict(game.arcs)
            for part in (got, via_square):
                if part is not None:
                    assert is_nash_stable(game, part)[0]
            answers.append(got is None)
        assert 0 < sum(answers) < len(answers)

    def test_coloring_oracle_consistent_with_solver_k(self):
        # with the paper's color budget, a stable coloring exists iff the DP,
        # which needs no budget, says SOME
        rng = random.Random(303)
        for t in range(60):
            inst = suite_instance(rng, t, n_max=5)
            got = solve_nash_via_coloring(inst)
            coloring = first_stable_coloring(inst, paper_k(inst))
            assert (got is None) == (coloring is None)

    def test_grid_peak_table_stays_small(self):
        # The DP runs on a min-fill decomposition of the check graph; G^2's
        # own min-fill tree had width 8 and peaked at 7 767 signatures on
        # this grid, and widening each bag of G's tree to B ∪ N(B) peaked
        # at 16 778.
        inst = grid_instance(4, 5, random.Random(1))
        stats = {}
        solve_nash_via_coloring(inst, stats=stats)
        assert stats["width"] == 5
        assert stats["peak_table"] == 27


ONES = (1,) * 15
PINNED_TABLE_WORK = [
    # shape, size, weights lo..hi, seed, peak_table, nice_nodes, width of the
    # decomposition the DP runs on, the paper's color budget k (see paper_k),
    # the partition's labels (a digest of them for the 800-vertex tree) or None
    ("grid", (3, 5), -3, 3, 0, 87, 46, 5, 15, None),
    ("grid", (3, 5), -3, 3, 1, 3, 53, 5, 15, None),
    ("grid", (3, 5), -3, 3, 2, 6, 31, 5, 15, None),
    ("grid", (3, 5), 0, 3, 0, 46, 37, 6, 15, ONES),
    ("grid", (3, 5), 0, 3, 1, 15, 43, 4, 15, ONES),
    ("grid", (3, 5), 0, 3, 2, 26, 39, 5, 15, ONES),
    ("grid", (3, 5), -1, 3, 1, 52, 39, 5, 15, (1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1)),
    ("grid", (3, 5), -1, 3, 2, 25, 43, 5, 15, (1,) + (2,) * 14),
    ("grid", (4, 4), -3, 3, 0, 523, 60, 7, 16, None),
    ("tree", 800, -3, 3, 0, 5, 2681, 3, 6, None),
    ("symmetric tree", 800, -3, 3, 1, 7, 2315, 3, 6, "ba08fc8a2d83ae54"),
]


def case_id(row) -> str:
    """The case a row pins, without the pinned figures."""
    shape, size, lo, hi, seed = row[:5]
    dims = "x".join(map(str, size)) if isinstance(size, tuple) else size
    return f"{shape}-{dims}-w{lo}..{hi}-seed{seed}"


@pytest.mark.parametrize("shape, size, lo, hi, seed, peak, nodes, width, k, answer",
                         PINNED_TABLE_WORK, ids=map(case_id, PINNED_TABLE_WORK))
def test_table_work_pinned(shape, size, lo, hi, seed, peak, nodes, width, k, answer):
    rng = random.Random(seed)
    if shape == "grid":
        inst = grid_instance(*size, rng, lo, hi)
    else:
        inst = tree_instance(size, rng, w_lo=lo, w_hi=hi, symmetric=shape == "symmetric tree")
    stats = {}
    part = solve_nash_via_coloring(inst, stats=stats)
    assert (stats["peak_table"], stats["nice_nodes"], stats["width"]) == (peak, nodes, width)
    # no bag outgrows the budget, so it could never have capped a signature
    assert paper_k(inst) == k >= stats["width"] + 1
    labels = None if part is None else part.labels
    if isinstance(answer, str):
        labels = hashlib.sha256(repr(labels).encode()).hexdigest()[:16]
    assert labels == answer
    if part is not None:
        assert is_nash_stable(inst, part)[0]


def class_sums_stable(instance, label, u) -> bool:
    """u's stability from its full class sums; label maps each target of
    u's nonzero arcs to its class."""
    sums: dict[int, int] = {}
    for t, w in instance.out[u]:
        if w:
            sums[label[t]] = sums.get(label[t], 0) + w
    own = sums.get(label[u], 0)
    return own >= 0 and all(s <= own for s in sums.values())


def reference_introduce(instance, bag, v, sig, checked):
    """Insert every class (and a fresh one), relabel, then run the full
    class-sum check of every vertex in `checked`."""
    p = bag.index(v)
    blocks = max(sig) + 1 if sig else 0
    out = []
    for color in range(blocks + 1):
        cand = canonical_labels(sig[:p] + (color,) + sig[p:])[0]
        label = dict(zip(bag, cand))
        if all(class_sums_stable(instance, label, u) for u in checked):
            out.append(cand)
    return out


@st.composite
def introduce_cases(draw):
    """An instance whose bag is 1..b, the vertex the bag introduces and a
    canonical child signature, drawn with a random bound on its class
    count so that few-class signatures come up often.  Arcs inside the
    bag are dense; up to two vertices outside it have one arc, either way,
    to each of a few bag vertices.  A nonzero arc out of the bag leaves
    its tail's check set incomplete."""
    b = draw(st.integers(1, 7))
    n = b + draw(st.integers(0, 2))
    pairs = [(u, x) for u in range(1, b + 1) for x in range(1, b + 1) if u != x]
    pairs += [draw(st.sampled_from(((u, x), (x, u)))) for u in range(b + 1, n + 1)
              for x in draw(st.sets(st.integers(1, b), max_size=2))]
    weights = draw(st.lists(st.sampled_from((None, -3, -2, -1, 0, 1, 2, 3)),
                            min_size=len(pairs), max_size=len(pairs)))
    inst = AshgInstance(n, {a: w for a, w in zip(pairs, weights) if w is not None})
    bag = tuple(range(1, b + 1))
    v = draw(st.sampled_from(bag))
    classes = draw(st.integers(1, b))
    raw = draw(st.lists(st.integers(0, classes - 1), min_size=b - 1, max_size=b - 1))
    return inst, bag, v, canonical_labels(raw)[0]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(introduce_cases())
def test_introduce_matches_reference(case):
    inst, bag, v, sig = case
    child_bag = tuple(u for u in bag if u != v)
    introduce, _, _ = _transitions(inst)
    got = introduce(NiceNode(INTRODUCE, bag, v, (0,)), child_bag)(sig)

    def reads(u):
        return {u} | {t for t, w in inst.out[u] if w}

    def complete(u, within):
        return reads(u) <= set(within)

    # the DP checks the vertices whose check set, all that their stability
    # reads, just became complete; every other vertex has the same verdict
    # for every class
    fresh = [u for u in bag if complete(u, bag) and v in reads(u)]
    assert got == reference_introduce(inst, bag, v, sig, fresh)
    # on a signature the child table can hold, that is the check of every
    # vertex whose check set lies in the bag
    child_label = dict(zip(child_bag, sig))
    if all(class_sums_stable(inst, child_label, u) for u in child_bag if complete(u, child_bag)):
        settled = [u for u in bag if complete(u, bag)]
        assert got == reference_introduce(inst, bag, v, sig, settled)


def test_introduce_negative_weight_pulls_other_class_below_own():
    # vertex 1 has own sum 1 (vertex 2) and class sum 2 toward vertex 3;
    # v = 4 joining 3's class brings that class to 2 - 2 = 0, so 1 is stable
    inst = AshgInstance(4, {(1, 2): 1, (1, 3): 2, (1, 4): -2})
    introduce, _, _ = _transitions(inst)
    step = introduce(NiceNode(INTRODUCE, (1, 2, 3, 4), 4, (0,)), (1, 2, 3))
    assert step((0, 0, 1)) == [(0, 0, 1, 1)]
    # with a second class beating vertex 1's own sum, v can pull down only one
    inst = AshgInstance(5, {(1, 2): 1, (1, 3): 2, (1, 4): 2, (1, 5): -2})
    introduce, _, _ = _transitions(inst)
    step = introduce(NiceNode(INTRODUCE, (1, 2, 3, 4, 5), 5, (0,)), (1, 2, 3, 4))
    assert step((0, 0, 1, 2)) == []


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=9), st.data())
def test_forget_matches_reference(raw, data):
    sig = canonical_labels(raw)[0]
    p = data.draw(st.integers(0, len(sig) - 1))
    child_bag = tuple(range(1, len(sig) + 1))
    _, forget, _ = _transitions(AshgInstance(len(sig)))
    step = forget(NiceNode(FORGET, child_bag[:p] + child_bag[p + 1 :], p + 1, (0,)), child_bag)
    assert step(sig) == canonical_labels(sig[:p] + sig[p + 1 :])[0]
