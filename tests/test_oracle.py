"""Exhaustive oracles: partition enumeration and brute-force searches."""

from __future__ import annotations

import itertools
import random

import pytest

from ashg import (
    AshgInstance,
    OracleCapError,
    Partition,
    brute_force_connected_nash,
    brute_force_nash,
    enumerate_partitions,
    is_connected_partition,
)
from helpers import (
    all_partitions,
    bell_numbers,
    first_stable_coloring,
    naive_is_stable,
    naive_stable_exists,
    suite_instance,
)

# Frozen from the Bell-triangle recurrence (helpers.bell_numbers).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def stalker() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, -1)])


def friends() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, 1)])


class TestEnumeratePartitions:
    def test_bell_table_matches_independent_recurrence(self):
        assert bell_numbers(8) == BELL

    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_are_bell_numbers(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_partitions_distinct_and_complete(self):
        seen = set(p.labels for p in enumerate_partitions(4))
        assert len(seen) == BELL[4]
        expected = {
            tuple(Partition.from_blocks(blocks, 4).labels)
            for blocks in all_partitions([1, 2, 3, 4])
        }
        assert seen == expected

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            next(enumerate_partitions(13))

    def test_cap_can_be_raised(self):
        assert sum(1 for _ in enumerate_partitions(3, cap=3)) == 5

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_partitions(-1))

    @pytest.mark.parametrize("n", [0, 1])
    def test_negative_cap_rejected_at_call_time(self, n):
        # raised by the call itself, not by the first next()
        with pytest.raises(ValueError, match="oracle cap must be nonnegative, got -1"):
            enumerate_partitions(n, cap=-1)

    def test_cap_checked_at_call_time(self):
        with pytest.raises(OracleCapError):
            enumerate_partitions(13)
        assert list(enumerate_partitions(0, cap=0)) == [Partition([])]


class TestBruteForceNash:
    def test_stalker_none(self):
        assert brute_force_nash(stalker()) is None

    def test_friends_some(self):
        part = brute_force_nash(friends())
        assert part == Partition([1, 1])

    def test_single_vertex(self):
        assert brute_force_nash(AshgInstance(1)) == Partition([1])

    def test_empty_instance(self):
        assert brute_force_nash(AshgInstance(0)) == Partition([])

    def test_cap_respected(self):
        with pytest.raises(OracleCapError):
            brute_force_nash(AshgInstance(13))

    @pytest.mark.parametrize("oracle", [brute_force_nash, brute_force_connected_nash])
    def test_negative_cap_rejected(self, oracle):
        # a negative cap is an input error, not a cap every instance exceeds
        with pytest.raises(ValueError, match="oracle cap must be nonnegative, got -1"):
            oracle(AshgInstance(0), cap=-1)
        assert oracle(AshgInstance(0), cap=0) == Partition([])
        with pytest.raises(OracleCapError):
            oracle(AshgInstance(1), cap=0)

    def test_result_is_stable_and_existence_matches_label_products(self):
        rng = random.Random(515)
        for t in range(120):
            inst = suite_instance(rng, t, n_max=5)
            part = brute_force_nash(inst)
            if part is not None:
                assert naive_is_stable(inst, part)
            assert (part is not None) == naive_stable_exists(inst)


class TestBruteForceConnectedNash:
    def test_stalker_none(self):
        assert brute_force_connected_nash(stalker()) is None

    def test_unit_triangle_grand_coalition(self):
        tri = AshgInstance(
            3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (1, 3, 1), (3, 1, 1)]
        )
        part = brute_force_connected_nash(tri)
        assert part == Partition([1, 1, 1])

    def test_matches_filtered_partition_scan(self):
        rng = random.Random(626)
        for t in range(120):
            inst = suite_instance(rng, t, n_max=5)
            part = brute_force_connected_nash(inst)
            expected = any(
                naive_is_stable(inst, p) and is_connected_partition(inst, p)[0]
                for p in (
                    Partition.from_blocks(blocks, inst.n)
                    for blocks in all_partitions(range(1, inst.n + 1))
                )
            )
            assert (part is not None) == expected
            if part is not None:
                assert naive_is_stable(inst, part)
                assert is_connected_partition(inst, part)[0]


class TestBruteForceStableColoring:
    def test_friends_monochrome(self):
        part = first_stable_coloring(friends(), k=2)
        assert part == Partition([1, 1])

    def test_stalker_none_even_with_four_colors(self):
        assert first_stable_coloring(stalker(), k=4) is None

    def test_existence_matches_full_color_product(self):
        rng = random.Random(737)
        for t in range(60):
            inst = suite_instance(rng, t, n_max=4)
            for k in (1, 2, 3):
                got = first_stable_coloring(inst, k)
                expected = any(
                    naive_is_stable(inst, Partition(colors))
                    for colors in itertools.product(range(1, k + 1), repeat=inst.n)
                )
                assert (got is not None) == expected
                if got is not None:
                    assert got.num_classes <= k and naive_is_stable(inst, got)
