"""Hardness-construction generators and their stability witnesses."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
import warnings

import pytest

from ashg import reductions
from ashg import (
    AshgInstance,
    CnfFormula,
    Partition,
    brute_force_connected_nash,
    brute_force_nash,
    gen_bin_packing,
    gen_sat_bounded_degree,
    gen_sat_high_degree,
    gen_three_partition_star,
    is_connected_partition,
    is_nash_stable,
    serialize_instance,
    square_instance,
    witness_bin_packing,
    witness_sat_bounded_degree,
    witness_sat_high_degree,
    witness_three_partition_star,
)
from helpers import (
    bin_packing_feasible,
    random_satisfiable_cnf,
    three_partition_feasible,
)


class TestCnfFormula:
    def test_clauses_padded_to_three_literals(self):
        phi = CnfFormula.from_clauses(2, [(1,), (1, -2)])
        assert phi.clauses == ((1, 1, 1), (1, -2, -2))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula.from_clauses(1, [()])

    def test_oversized_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula.from_clauses(3, [(1, 2, 3, 1)])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula.from_clauses(1, [(2, 2, 2)])
        with pytest.raises(ValueError):
            CnfFormula.from_clauses(1, [(0,)])

    def test_is_satisfied_by(self):
        phi = CnfFormula.from_clauses(2, [(1, -2)])
        assert phi.is_satisfied_by([True, True])
        assert phi.is_satisfied_by([False, False])
        assert not phi.is_satisfied_by([False, True])
        with pytest.raises(ValueError, match="^assignment has 1 values for 2 variables$"):
            phi.is_satisfied_by([True])

    @pytest.mark.parametrize("num_vars, clauses, message", [
        (-1, (), "num_vars must be nonnegative"),
        (2, ((1, 2),), "clause 0 does not have exactly 3 literal slots"),
    ], ids=["negative-count", "two-slots"])
    def test_malformed_formula_rejected(self, num_vars, clauses, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CnfFormula(num_vars, clauses)


class TestSatHighDegree:
    def test_single_variable_layout(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        inst, lay = gen_sat_high_degree(phi, 2)
        # palette pair + 2x2 selection grid (one encoding row, one anchor
        # row) + no consistency columns + hub/partner/3 literals
        assert inst.n == 11
        assert lay.degree == 2 and lay.bit_width == 1 and lay.rows == 1
        assert len(lay.selection) == 4
        assert not lay.consistency
        assert inst.max_abs_weight == 2

    def test_consistency_column_weights(self):
        phi = CnfFormula.from_clauses(1, [(1,), (-1,)])
        inst, lay = gen_sat_high_degree(phi, 2)
        assert inst.max_abs_weight == 4**2
        c = lay.consistency[(0, 1)]
        incident = sum(1 for (u, v) in inst.arcs if c in (u, v))
        assert incident == 8  # 2 out + 2 in per selection slot, 2 slots

    def test_degree_rounded_to_power_of_two(self):
        phi = CnfFormula.from_clauses(32, [(1, 5, 9)])
        _, lay = gen_sat_high_degree(phi, 3)
        assert lay.degree == 4 and lay.bit_width == 2 and lay.block == 8

    def test_degree_below_two_rejected(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        with pytest.raises(ValueError):
            gen_sat_high_degree(phi, 1)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_size_checked_before_building(self):
        # one clause: 2 + 2 * d + 5 vertices; two clauses: weights up to 4^d
        one = CnfFormula.from_clauses(1, [(1,)])
        with pytest.raises(ValueError, match="vertices, above the limit"):
            gen_sat_high_degree(one, 10**9)
        assert gen_sat_high_degree(one, 8)[0].n == 2 + 2 * 8 + 5
        two = CnfFormula.from_clauses(1, [(1,), (-1,)])
        with pytest.raises(ValueError, match="arithmetic guard"):
            gen_sat_high_degree(two, 64)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_clause_builds_no_selection_grid(self):
        phi = CnfFormula.from_clauses(3, [])
        inst, lay = gen_sat_high_degree(phi, 10**9)
        assert inst.n == 2 and not lay.selection
        part = witness_sat_high_degree(phi, lay, [True, False, True])
        assert part.blocks() == ((1, 2),)

    def test_warns_when_degree_large_for_variable_count(self):
        phi = CnfFormula.from_clauses(4, [(1, 2, 3)])
        with pytest.warns(UserWarning, match="n/log2"):
            gen_sat_high_degree(phi, 2)

    def test_no_warning_for_many_variables(self):
        phi = CnfFormula.from_clauses(16, [(1, 8, 16)])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen_sat_high_degree(phi, 2)

    def test_var_coords_round_trip(self):
        phi = CnfFormula.from_clauses(32, [(1, 5, 9)])
        _, lay = gen_sat_high_degree(phi, 4)
        seen = set()
        for k in range(32):
            i1, i2, i3 = lay.var_coords(k)
            assert 0 <= i1 < lay.rows
            assert 0 <= i2 < lay.degree and 0 <= i3 < lay.bit_width
            assert (i1, i2, 1) in lay.selection
            seen.add((i1, i2, i3))
        assert len(seen) == 32

    def test_witness_single_true_variable(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        inst, lay = gen_sat_high_degree(phi, 2)
        part = witness_sat_high_degree(phi, lay, [True])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev

    def test_witness_two_vars_two_clauses(self):
        phi = CnfFormula.from_clauses(2, [(1, 2), (-1, 2)])
        with pytest.warns(UserWarning):
            inst, lay = gen_sat_high_degree(phi, 2)
            part = witness_sat_high_degree(phi, lay, [False, True])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev

    def test_witness_rejects_unsatisfying_assignment(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        _, lay = gen_sat_high_degree(phi, 2)
        with pytest.raises(ValueError):
            witness_sat_high_degree(phi, lay, [False])

    def test_witness_rejects_layout_of_another_formula(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        _, lay = gen_sat_high_degree(phi, 2)
        longer = CnfFormula.from_clauses(1, [(1,), (1,)])
        with pytest.raises(ValueError, match="another formula"):
            witness_sat_high_degree(longer, lay, [True])

    def test_random_witnesses_are_stable(self):
        rng = random.Random(99)
        import warnings

        for _ in range(12):
            phi, sats = random_satisfiable_cnf(rng, max_vars=4, max_clauses=3)
            assignment = rng.choice(sats)
            for degree in (2, 4):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    inst, lay = gen_sat_high_degree(phi, degree)
                    part = witness_sat_high_degree(phi, lay, assignment)
                ok, dev = is_nash_stable(inst, part)
                assert ok, (phi, assignment, degree, dev)


class TestSatBoundedDegree:
    def test_layout_counts_for_three_variables(self):
        phi = CnfFormula(3, ((1, -2, 3),))
        inst, lay = gen_sat_bounded_degree(phi)
        assert lay.num_vars == 4 and lay.side == 2 and lay.half_bits == 1
        assert lay.length == 5 and lay.num_selection == 5
        # 2 palette paths + 5 selection paths (all length 5), one pair
        # gadget, 3 literal paths of 2, 3 checkers, 3 or-chain cells
        assert inst.n == 2 * 5 + 5 * 5 + 2 + 3 * 2 + 3 + 3 * 3 == 55
        assert len(lay.checker_order[1]) == 3

    def test_weights_and_degree_stay_bounded(self):
        rng = random.Random(5)
        for _ in range(8):
            phi, _ = random_satisfiable_cnf(rng, max_vars=4, max_clauses=3)
            inst, lay = gen_sat_bounded_degree(phi)
            assert set(inst.arcs.values()) <= {-2, -1, 1, 2}
            assert inst.max_degree <= 8
            for j in range(1, lay.num_clauses + 1):
                assert len(lay.checker_order[j]) <= 3 * lay.side

    def test_variable_count_rounded_to_power_of_four(self):
        phi = CnfFormula.from_clauses(5, [(1, 3, 5)])
        _, lay = gen_sat_bounded_degree(phi)
        assert lay.num_vars == 16 and lay.side == 4 and lay.half_bits == 2
        assert lay.original_vars == 5

    def test_witness_simple_formula(self):
        phi = CnfFormula(3, ((1, -2, 3),))
        inst, lay = gen_sat_bounded_degree(phi)
        part = witness_sat_bounded_degree(phi, lay, [True, False, True])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev

    def test_witness_rejects_unsatisfying_assignment(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        _, lay = gen_sat_bounded_degree(phi)
        with pytest.raises(ValueError):
            witness_sat_bounded_degree(phi, lay, [False])

    def test_witness_rejects_layout_of_another_formula(self):
        phi = CnfFormula.from_clauses(1, [(1,)])
        _, lay = gen_sat_bounded_degree(phi)
        longer = CnfFormula.from_clauses(1, [(1,), (1,)])
        with pytest.raises(ValueError, match="another formula"):
            witness_sat_bounded_degree(longer, lay, [True])
        # same rounded variable count (4), different original count
        wider = CnfFormula.from_clauses(2, [(1,)])
        with pytest.raises(ValueError, match="another formula"):
            witness_sat_bounded_degree(wider, lay, [True, True])

    def test_random_witnesses_are_stable(self):
        rng = random.Random(321)
        for _ in range(12):
            phi, sats = random_satisfiable_cnf(rng, max_vars=4, max_clauses=3)
            assignment = rng.choice(sats)
            inst, lay = gen_sat_bounded_degree(phi)
            part = witness_sat_bounded_degree(phi, lay, assignment)
            ok, dev = is_nash_stable(inst, part)
            assert ok, (phi, assignment, dev)


class TestThreePartitionStar:
    def test_minimal_instance_layout(self):
        inst, lay = gen_three_partition_star([3, 3, 3], 9)
        assert inst.n == 6  # 3 items, 1 slot, center, partner
        assert inst.weight(lay.center, lay.slot_ids[0]) == 18
        assert inst.weight(lay.center, lay.item_ids[0]) == -3
        assert inst.weight(lay.item_ids[0], lay.center) == -1

    def test_feasible_instance_has_stable_partition(self):
        inst, _ = gen_three_partition_star([3, 3, 3], 9)
        assert brute_force_nash(inst) is not None

    def test_infeasible_instance_has_none(self):
        # every triple sums to 15 or 17, never 16 -- no packing exists
        items = [5, 5, 5, 5, 5, 7]
        assert not three_partition_feasible(items, 16)
        inst, _ = gen_three_partition_star(items, 16)
        assert brute_force_nash(inst) is None

    def test_item_count_must_be_multiple_of_three(self):
        with pytest.raises(ValueError):
            gen_three_partition_star([3, 3, 3, 3], 9)

    def test_item_range_enforced(self):
        with pytest.raises(ValueError):
            gen_three_partition_star([2, 3, 4], 9)  # 2 <= 9/4
        with pytest.raises(ValueError):
            gen_three_partition_star([5, 2, 2], 9)  # 5 >= 9/2

    def test_sum_must_match_target(self):
        with pytest.raises(ValueError):
            gen_three_partition_star([3, 3, 4], 9)

    def test_witness_passes_verifier(self):
        inst, lay = gen_three_partition_star([5, 5, 6, 5, 5, 6], 16)
        part = witness_three_partition_star(lay, [(1, 2, 3), (4, 5, 6)])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev

    def test_witness_rejects_wrong_triple_sum(self):
        _, lay = gen_three_partition_star([5, 5, 6, 5, 5, 6], 16)
        with pytest.raises(ValueError):
            witness_three_partition_star(lay, [(1, 2, 4), (3, 5, 6)])

    def test_witness_rejects_incomplete_cover(self):
        _, lay = gen_three_partition_star([5, 5, 6, 5, 5, 6], 16)
        with pytest.raises(ValueError):
            witness_three_partition_star(lay, [(1, 2, 3), (1, 2, 3)])

    def test_witness_rejects_short_triple(self):
        _, lay = gen_three_partition_star([5, 5, 6, 5, 5, 6], 16)
        with pytest.raises(ValueError, match=r"^triple \(1, 2\) does not have 3 items$"):
            witness_three_partition_star(lay, [(1, 2), (3, 4, 5, 6)])

    @pytest.mark.parametrize("index", [0, -1, 7, 99])
    def test_witness_rejects_index_out_of_range(self, index):
        _, lay = gen_three_partition_star([5, 5, 6, 5, 5, 6], 16)
        with pytest.raises(ValueError, match=f"names item {index}, outside 1..6"):
            witness_three_partition_star(lay, [(1, 2, 3), (4, 5, index)])


class TestBinPacking:
    def test_layout_without_padding(self):
        inst, lay = gen_bin_packing([1, 1, 2], 2, 2)
        assert inst.n == 7  # 2 bins, 2 anchors, 3 items
        assert lay.items == (1, 1, 2) and lay.original_count == 3
        assert inst.weight(lay.bin_ids[0], lay.anchor_ids[0]) == 2
        assert inst.weight(lay.item_ids[2], lay.bin_ids[1]) == 1
        assert inst.weight(lay.bin_ids[1], lay.item_ids[2]) == -2

    def test_padding_fills_remaining_capacity(self):
        _, lay = gen_bin_packing([1, 1], 2, 2)
        assert lay.items == (1, 1, 1, 1) and lay.original_count == 2

    def test_overfull_items_rejected(self):
        with pytest.raises(ValueError):
            gen_bin_packing([3, 3], 2, 2)

    def test_feasible_and_infeasible_answers(self):
        feasible, _ = gen_bin_packing([2, 2], 2, 2)
        assert brute_force_connected_nash(feasible) is not None
        oversized, _ = gen_bin_packing([3, 1], 2, 2)  # item 3 fits no bin
        assert brute_force_connected_nash(oversized) is None
        unsplittable, _ = gen_bin_packing([2, 2, 2], 3, 2)  # 4 > 3 somewhere
        assert brute_force_connected_nash(unsplittable) is None

    def test_unit_weight_expansion(self):
        inst, lay = gen_bin_packing([1, 1], 2, 1, unit_weights=True)
        assert set(inst.arcs.values()) <= {-1, 1}
        relays = lay.expansion[(lay.bin_ids[0], lay.anchor_ids[0])]
        assert len(relays) == 2
        for r in relays:
            assert inst.weight(lay.bin_ids[0], r) == 1
            assert inst.weight(r, lay.anchor_ids[0]) == 1

    def test_unit_weight_negative_arcs(self):
        inst, lay = gen_bin_packing([2], 2, 1, unit_weights=True)
        relays = lay.expansion[(lay.bin_ids[0], lay.item_ids[0])]
        assert len(relays) == 2
        for r in relays:
            assert inst.weight(lay.bin_ids[0], r) == -1
            assert inst.weight(r, lay.item_ids[0]) == 1

    def test_witness_passes_both_verifiers(self):
        inst, lay = gen_bin_packing([1, 1, 2], 2, 2)
        part = witness_bin_packing(lay, [1, 1, 2])
        assert is_nash_stable(inst, part)[0]
        assert is_connected_partition(inst, part)[0]

    def test_witness_with_unit_weights(self):
        inst, lay = gen_bin_packing([1, 1], 2, 1, unit_weights=True)
        part = witness_bin_packing(lay, [1, 1])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev
        assert is_connected_partition(inst, part)[0]

    @pytest.mark.parametrize("unit", [False, True], ids=["weighted", "unit"])
    def test_witness_places_padding(self, unit):
        # items [2, 1] fill 3 of 6: the three padding items go to bin 1,
        # then twice to bin 2
        inst, lay = gen_bin_packing([2, 1], 3, 2, unit_weights=unit)
        assert lay.items == (2, 1, 1, 1, 1)
        part = witness_bin_packing(lay, [1, 2])
        ok, dev = is_nash_stable(inst, part)
        assert ok, dev
        assert is_connected_partition(inst, part)[0]
        first = part.class_of(lay.bin_ids[0])
        assert [part.class_of(v) == first for v in lay.item_ids] == [
            True, False, True, False, False]

    def test_witness_rejects_overfull_bin(self):
        _, lay = gen_bin_packing([2, 2], 2, 2)
        with pytest.raises(ValueError):
            witness_bin_packing(lay, [1, 1])

    @pytest.mark.parametrize("packing, message", [
        ([1], "packing assigns 1 of 2 items"),
        ([1, 0], "bin index 0 out of range"),
    ], ids=["count", "bin-zero"])
    def test_witness_rejects_malformed_packing(self, packing, message):
        _, lay = gen_bin_packing([2, 1], 3, 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            witness_bin_packing(lay, packing)

    @pytest.mark.parametrize("items, capacity, message", [
        ([1, 0], 2, "item weights must be positive"),
        ([1], 0, "capacity and bin count must be positive"),
    ], ids=["item-zero", "capacity-zero"])
    def test_nonpositive_input_rejected(self, items, capacity, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_bin_packing(items, capacity, 2)

    @pytest.mark.parametrize("items, capacity, bins, unit, digest", [
        ([1, 1, 2], 2, 2, False, "de1863f35bed430c"),
        ([1, 1, 2], 2, 2, True, "b7c774124029adc6"),
        ([4, 2], 3, 3, True, "d4bd9f8c50f257f6"),
        ([3, 1], 5, 2, False, "35888151c48cf56f"),
    ])
    def test_output_pinned(self, items, capacity, bins, unit, digest):
        # vertex ids, arc order and relays, byte for byte
        inst, lay = gen_bin_packing(items, capacity, bins, unit_weights=unit)
        text = serialize_instance(inst) + repr(sorted(lay.expansion.items()))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_peak_memory_near_what_is_kept(self):
        # arcs go straight into the builder: no list of all base arcs
        # lives next to the instance (40 100 arcs here)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = gen_bin_packing([1], 2, 100)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert built[0].arc_count() == 40_100
        assert (peak - base) <= 2.1 * (kept - base)

    def test_matches_feasibility_oracle(self):
        rng = random.Random(2024)
        for _ in range(12):
            bins = rng.randint(1, 2)
            capacity = rng.randint(1, 3)
            count = rng.randint(1, 3)
            items = [rng.randint(1, capacity) for _ in range(count)]
            if sum(items) > bins * capacity:
                continue
            inst, lay = gen_bin_packing(items, capacity, bins)
            if inst.n > 8:
                continue
            got = brute_force_connected_nash(inst) is not None
            assert got == bin_packing_feasible(list(lay.items), capacity, bins)


class TestSizedBeforeBuilt:
    """Each generator's precomputed counts are the counts it then builds."""

    @staticmethod
    def constructions():
        rng = random.Random(11)
        for _ in range(10):
            phi, _ = random_satisfiable_cnf(rng, max_vars=6, max_clauses=4)
            yield "sat-bd", lambda phi=phi: gen_sat_bounded_degree(phi)
            for degree in (2, 3, 8):
                yield "sat-hd", lambda phi=phi, d=degree: gen_sat_high_degree(phi, d)
        for phi in (CnfFormula(0, ()), CnfFormula(3, ()), CnfFormula.from_clauses(17, [(1, -17)])):
            yield "sat-bd", lambda phi=phi: gen_sat_bounded_degree(phi)
            yield "sat-hd", lambda phi=phi: gen_sat_high_degree(phi, 2)
        for items, target in (([3, 3, 3], 9), ([5, 5, 6, 5, 5, 6], 16)):
            yield "3part", lambda i=items, t=target: gen_three_partition_star(i, t)
        for items, capacity, bins in (([1, 1, 2], 2, 2), ([2], 1, 2), ([3, 1], 5, 1),
                                      ([1], 1, 1), ([4, 2], 3, 3)):
            for unit in (False, True):
                yield "binpack", lambda a=(items, capacity, bins, unit): gen_bin_packing(*a)

    def test_precomputed_counts_match_the_built_instance(self, monkeypatch):
        sized = []
        check = reductions._check_size
        monkeypatch.setattr(
            reductions, "_check_size", lambda what, v, a: (sized.append((v, a)), check(what, v, a))
        )
        for name, build in self.constructions():
            sized.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sat-hd: degree vs n/log2(n)
                inst, lay = build()
            assert sized == [(inst.n, inst.arc_count())], name
            assert lay.n == inst.n, name

    @pytest.mark.parametrize("build, message", [
        (lambda: gen_sat_bounded_degree(CnfFormula(1024, ((1, 2, 3),) * 1441)),
         "1024 variables and 1441 clauses needs 1000205 vertices"),
        (lambda: gen_three_partition_star([3] * 750_000, 9),
         "needs 1000002 vertices, above the limit 1000000"),
        (lambda: gen_bin_packing([1], 100_000, 100), "needs 10000200 vertices"),
        (lambda: gen_bin_packing([1], 998, 1000), "needs 1996001000 arcs, above the limit"),
    ], ids=["sat-bd", "3part", "binpack-vertices", "binpack-arcs"])
    def test_oversized_construction_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSquareZeroArcs:
    def test_path_gains_zero_weight_chords(self):
        inst = AshgInstance(3, [(1, 2, 1), (2, 3, 2)])
        sq = square_instance(inst)
        assert sq.weight(1, 3) == 0 and sq.weight(3, 1) == 0
        assert (1, 3) in sq.arcs and (3, 1) in sq.arcs
        assert sq.weight(1, 2) == 1 and sq.weight(2, 3) == 2

    def test_connected_answers_match_plain_stability(self):
        rng = random.Random(77)
        from helpers import suite_instance

        for t in range(60):
            inst = suite_instance(rng, t, n_max=6)
            plain = brute_force_nash(inst)
            squared = brute_force_connected_nash(square_instance(inst))
            assert (plain is None) == (squared is None)
            if squared is not None:
                assert is_nash_stable(inst, squared)[0]
