"""Stable colorings and the decomposition-driven Nash solver."""

from __future__ import annotations

import itertools
import random

import pytest

from ashg import (
    AshgInstance,
    Coloring,
    Partition,
    ResourceLimitError,
    TreeDecomposition,
    brute_force_nash,
    brute_force_stable_coloring,
    choose_k,
    coloring_to_partition,
    heuristic_decompose,
    is_nash_stable,
    is_stable_coloring,
    solve_nash_via_coloring,
)
from helpers import grid_instance, naive_is_stable, path_instance, suite_instance


def stalker() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, -1)])


def friends() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, 1)])


class TestChooseK:
    def test_values(self):
        assert choose_k(2, 2) == 4
        assert choose_k(3, 4) == 12
        assert choose_k(1, 0) == 1  # floor at one color

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_k(0, 2)
        with pytest.raises(ValueError):
            choose_k(2, -1)


class TestColoring:
    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError):
            Coloring(2, (1, 3))
        with pytest.raises(ValueError):
            Coloring(0, ())


class TestIsStableColoring:
    def test_friends_monochrome_stable(self):
        ok, witness = is_stable_coloring(friends(), Coloring(2, (1, 1)))
        assert ok and witness is None

    def test_friends_split_unstable(self):
        ok, witness = is_stable_coloring(friends(), Coloring(2, (1, 2)))
        assert not ok
        assert (witness.vertex, witness.target, witness.target_utility) == (1, 2, 1)

    def test_stalker_all_two_colorings_fail(self):
        for colors in itertools.product((1, 2), repeat=2):
            assert not is_stable_coloring(stalker(), Coloring(2, colors))[0]

    def test_negative_own_reports_empty_class(self):
        inst = AshgInstance(2, [(1, 2, -1)])
        ok, witness = is_stable_coloring(inst, Coloring(1, (1, 1)))
        assert not ok and witness.target is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_stable_coloring(friends(), Coloring(2, (1,)))

    def test_agrees_with_partition_stability_when_all_classes_used(self):
        # a coloring whose classes are all nonempty is stable iff the
        # induced partition is Nash stable
        rng = random.Random(211)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=6)
            labels = [rng.randint(1, 3) for _ in range(inst.n)]
            part = Partition(labels)
            k = part.num_classes
            coloring = Coloring(k, tuple(part.labels))
            assert is_stable_coloring(inst, coloring)[0] == naive_is_stable(inst, part)


class TestColoringToPartition:
    def test_merges_and_normalizes(self):
        assert coloring_to_partition(Coloring(3, (2, 2, 3))) == Partition([1, 1, 2])

    def test_three_path_split(self):
        part = coloring_to_partition(Coloring(2, (1, 2, 1)))
        assert part.blocks() == ((1, 3), (2,))


class TestSolveNashViaColoring:
    def test_stalker_none(self):
        inst = stalker()
        assert solve_nash_via_coloring(inst, heuristic_decompose(inst)) is None

    def test_friends_some(self):
        inst = friends()
        part = solve_nash_via_coloring(inst, heuristic_decompose(inst))
        assert part == Partition([1, 1])

    def test_unit_path_six_matches_oracle(self):
        inst = path_instance(6)
        part = solve_nash_via_coloring(inst, heuristic_decompose(inst))
        assert part is not None
        assert is_nash_stable(inst, part)[0]
        assert brute_force_nash(inst) is not None

    def test_empty_instance(self):
        inst = AshgInstance(0)
        assert solve_nash_via_coloring(inst, heuristic_decompose(inst)) == Partition([])

    def test_stats_reported(self):
        inst = friends()
        stats = {}
        solve_nash_via_coloring(inst, heuristic_decompose(inst), stats=stats)
        assert stats["k"] == min(choose_k(2, 1), 2) == 2
        assert stats["peak_table"] >= 1
        assert stats["nice_nodes"] >= 3

    def test_k_capped_at_n(self):
        inst = AshgInstance(
            4,
            {(u, v): 1 for u in range(1, 5) for v in range(1, 5) if u != v},
        )
        stats = {}
        solve_nash_via_coloring(inst, heuristic_decompose(inst), stats=stats)
        assert stats["k"] == 4  # bag size 4 * degree 3 = 12, capped at n

    def test_invalid_decomposition_rejected(self):
        td = TreeDecomposition({1: [1]}, [])
        with pytest.raises(ValueError):
            solve_nash_via_coloring(friends(), td)

    def test_table_cap_enforced(self):
        inst = path_instance(6)
        with pytest.raises(ResourceLimitError):
            solve_nash_via_coloring(inst, heuristic_decompose(inst), table_cap=1)

    def test_matches_brute_force_on_random_suite(self):
        rng = random.Random(1009)
        for t in range(150):
            inst = suite_instance(rng, t, n_max=7)
            td = heuristic_decompose(inst)
            got = solve_nash_via_coloring(inst, td)
            ref = brute_force_nash(inst)
            assert (got is None) == (ref is None), dict(inst.arcs)
            if got is not None:
                assert naive_is_stable(inst, got)

    def test_coloring_oracle_consistent_with_solver_k(self):
        # with the solver's own k, a stable coloring exists iff the DP says SOME
        rng = random.Random(303)
        for t in range(60):
            inst = suite_instance(rng, t, n_max=5)
            td = heuristic_decompose(inst)
            stats = {}
            got = solve_nash_via_coloring(inst, td, stats=stats)
            coloring = brute_force_stable_coloring(inst, stats["k"])
            assert (got is None) == (coloring is None)

    def test_grid_peak_table_stays_small(self):
        # The DP runs on a decomposition of G^2 itself; widening each bag of
        # the caller's decomposition to B ∪ N(B) instead peaked at 16 778
        # signatures on this grid, the direct route at 7 218.
        inst = grid_instance(4, 5, random.Random(1))
        stats = {}
        solve_nash_via_coloring(inst, heuristic_decompose(inst), stats=stats)
        assert stats["k"] == 20
        assert stats["peak_table"] <= 8_000
