"""Core model: instances, partitions, utilities, stability, dynamics."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest

from ashg import (
    AshgInstance,
    Partition,
    better_response_dynamics,
    game,
    is_connected_partition,
    is_nash_stable,
    utility,
)
from helpers import frustrated_instance, naive_is_stable, suite_instance


def stalker() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, -1)])


def friends() -> AshgInstance:
    return AshgInstance(2, [(1, 2, 1), (2, 1, 1)])


def path3() -> AshgInstance:
    return AshgInstance(3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)])


class TestAshgInstance:
    def test_accepts_mapping_and_triples(self):
        a = AshgInstance(2, {(1, 2): 3})
        b = AshgInstance(2, [(1, 2, 3)])
        assert a.arcs == b.arcs == {(1, 2): 3}

    def test_out_rows_sorted(self):
        inst = AshgInstance(3, [(2, 3, 5), (2, 1, -1)])
        assert inst.out[2] == ((1, -1), (3, 5))

    def test_neighbors_underlying_and_zero_arcs_count(self):
        inst = AshgInstance(3, [(1, 2, 0), (3, 2, 2)])
        assert inst.neighbors[2] == (1, 3)
        assert inst.underlying_edges() == {(1, 2), (2, 3)}
        assert inst.max_degree == 2

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            AshgInstance(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            AshgInstance(2, [(1, 1, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            AshgInstance(2, [(1, 3, 1)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError):
            AshgInstance(2, [(1, 2, 1), (1, 2, 2)])

    def test_rejects_non_integer_weight(self):
        with pytest.raises(ValueError):
            AshgInstance(2, [(1, 2, 0.5)])

    def test_rejects_overflow_risk(self):
        with pytest.raises(ValueError):
            AshgInstance(4, [(1, 2, 2**62)])

    def test_bool_and_float_weights_rejected(self):
        # a stored bool would serialize as `a 1 2 True`, which does not parse
        for arcs, shown in (([(1, 2, True)], "True"), ([(1, 2, False)], "False"),
                            ({(1, 2): True}, "True"), ({(1, 2): False}, "False"),
                            ([(1, 2, 1.5)], "1.5")):
            message = rf"^arc \(1,2\) has non-integer weight {re.escape(shown)}$"
            with pytest.raises(ValueError, match=message):
                AshgInstance(2, arcs)

    def test_guard_runs_before_per_vertex_tables(self):
        # n + 1 empty rows and sets for n = 10**6 would take far more than 5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the arithmetic guard"):
                AshgInstance(10**6, [(1, 2, 2**62)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_immutable(self):
        inst = friends()
        with pytest.raises(AttributeError):
            inst.n = 5

    def test_weight_defaults_to_zero(self):
        assert friends().weight(2, 1) == 1
        assert stalker().weight(1, 1) == 0


class OneShotArcs:
    """An iterable of arc triples that may be iterated only once."""

    def __init__(self, triples):
        self.triples = triples
        self.iterations = 0
        self.yielded = 0

    def __iter__(self):
        self.iterations += 1
        assert self.iterations == 1, "arcs iterated twice"
        for triple in self.triples:
            self.yielded += 1
            yield triple


class TestAshgInstanceInputShapes:
    TRIPLES = [(3, 1, -2), (1, 2, 0), (2, 1, 4), (4, 3, 1), (1, 3, 1)]

    @staticmethod
    def fields(inst):
        return (inst.n, inst.arcs, inst.out, inst.neighbors, inst.max_degree, inst.max_abs_weight)

    def test_same_fields_for_every_container(self):
        triples = self.TRIPLES
        expected = self.fields(AshgInstance(4, list(triples)))
        assert self.fields(AshgInstance(4, tuple(triples))) == expected
        assert self.fields(AshgInstance(4, {(u, v): w for u, v, w in triples})) == expected
        assert self.fields(AshgInstance(4, (t for t in triples))) == expected
        assert expected[1] == {(u, v): w for u, v, w in triples}
        assert expected[2][1] == ((2, 0), (3, 1)) and expected[3][1] == (2, 3)

    def test_one_shot_iterable_consumed_exactly_once(self):
        arcs = OneShotArcs(self.TRIPLES)
        inst = AshgInstance(4, arcs)
        assert (arcs.iterations, arcs.yielded) == (1, len(self.TRIPLES))
        assert self.fields(inst) == self.fields(AshgInstance(4, self.TRIPLES))


class TestPartition:
    def test_labels_normalized_to_first_appearance(self):
        assert Partition([7, 7, 2]).labels == (1, 1, 2)

    def test_from_blocks_round_trip(self):
        p = Partition.from_blocks([[2, 1], [3]])
        assert p.blocks() == ((1, 2), (3,))
        assert p.members(2) == (3,)

    def test_from_blocks_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            Partition.from_blocks([[1], [3]], n=3)

    def test_singletons(self):
        assert Partition.singletons(3).labels == (1, 2, 3)

    def test_equality_and_hash(self):
        assert Partition([1, 1, 2]) == Partition([5, 5, 9])
        assert hash(Partition([1, 1, 2])) == hash(Partition([5, 5, 9]))

    def test_class_of_bounds(self):
        with pytest.raises(ValueError):
            Partition([1]).class_of(2)

    def test_members_bounds(self):
        with pytest.raises(ValueError, match="^no coalition with id 0$"):
            Partition([1]).members(0)


class TestUtilities:
    def test_utility_in_partition(self):
        inst = path3()
        grand = Partition([1, 1, 1])
        assert utility(inst, grand, 2) == 2
        assert utility(inst, grand, 1) == 1


class TestIsNashStable:
    def test_friends_grand_coalition_stable(self):
        ok, witness = is_nash_stable(friends(), Partition([1, 1]))
        assert ok and witness is None

    def test_stalker_has_no_stable_partition(self):
        # both 2-vertex partitions fail; the split one names u -> {v}
        inst = stalker()
        ok, witness = is_nash_stable(inst, Partition([1, 2]))
        assert not ok
        assert (witness.vertex, witness.target, witness.target_utility) == (1, 2, 1)
        ok, witness = is_nash_stable(inst, Partition([1, 1]))
        assert not ok
        assert witness.vertex == 2 and witness.target is None

    def test_partition_size_mismatch(self):
        with pytest.raises(ValueError):
            is_nash_stable(friends(), Partition([1, 1, 2]))

    def test_agrees_with_naive_oracle_on_random_pairs(self):
        rng = random.Random(4021)
        for t in range(300):
            inst = suite_instance(rng, t, n_max=6)
            labels = [rng.randint(1, inst.n) for _ in range(inst.n)]
            part = Partition(labels)
            assert is_nash_stable(inst, part)[0] == naive_is_stable(inst, part)


class TestIsConnectedPartition:
    def test_path_grand_coalition_connected(self):
        ok, bad = is_connected_partition(path3(), Partition([1, 1, 1]))
        assert ok and bad is None

    def test_endpoints_without_middle_disconnected(self):
        ok, bad = is_connected_partition(path3(), Partition([1, 2, 1]))
        assert not ok and bad == 1

    def test_zero_arc_counts_as_edge(self):
        inst = AshgInstance(2, [(1, 2, 0)])
        assert is_connected_partition(inst, Partition([1, 1]))[0]


class TestBetterResponseDynamics:
    def test_friends_converge_within_two_steps(self):
        result = better_response_dynamics(friends(), max_steps=2)
        assert result == Partition([1, 1])

    def test_stalker_never_converges(self):
        assert better_response_dynamics(stalker(), max_steps=100) is None

    def test_empty_instance(self):
        assert better_response_dynamics(AshgInstance(0)) == Partition([])

    def test_negative_step_budget_rejected(self):
        with pytest.raises(ValueError, match="^max_steps must be nonnegative$"):
            better_response_dynamics(friends(), max_steps=-1)

    def test_converged_results_are_stable(self):
        rng = random.Random(88)
        for t in range(120):
            inst = suite_instance(rng, t, n_max=6)
            result = better_response_dynamics(inst, max_steps=400)
            if result is not None:
                assert is_nash_stable(inst, result)[0]

    def test_steps_count_the_moves_applied(self):
        stats = {}
        assert better_response_dynamics(friends(), max_steps=2, stats=stats) is not None
        assert stats == {"steps": 1}  # vertex 1 joins vertex 2, then both are content
        stats = {}
        assert better_response_dynamics(stalker(), max_steps=100, stats=stats) is None
        assert stats == {"steps": 100}  # the budget is spent, one move per step

    def test_step_rule_matches_reference(self, monkeypatch):
        # lowest improving vertex moves to its best class (lowest id on
        # ties); to a fresh singleton when that class and its own both pay < 0
        def reference(inst, max_steps):
            """(partition or None, labels before each scan), rescanning all vertices."""
            labels = list(range(1, inst.n + 1))
            fresh = iter(range(inst.n + 1, inst.n + max_steps + 2))
            states = []
            for step in range(max_steps + 1):
                states.append(tuple(labels))
                move = None
                for v in range(1, inst.n + 1):
                    sums = {}
                    for u, w in inst.out[v]:
                        sums[labels[u - 1]] = sums.get(labels[u - 1], 0) + w
                    own = sums.get(labels[v - 1], 0)
                    better = [c for c, s in sums.items() if c != labels[v - 1] and s > own]
                    if better:
                        top = max(sums[c] for c in better)
                        best = min(c for c in better if sums[c] == top)
                        move = (v, best if own >= 0 or top >= 0 else None)
                    elif own < 0:
                        move = (v, None)
                    if move:
                        break
                if move is None:
                    return Partition(labels), states
                if step == max_steps:
                    return None, states
                v, target = move
                labels[v - 1] = next(fresh) if target is None else target

        # record the labels at every scan, so runs that never converge are
        # compared move by move too
        states = []
        scan = game._first_violation

        def recording_scan(instance, labels, vertices=None):
            states.append(tuple(labels))
            return scan(instance, labels, vertices)

        monkeypatch.setattr(game, "_first_violation", recording_scan)

        def check(inst, max_steps):
            states.clear()
            stats = {}
            got = better_response_dynamics(inst, max_steps=max_steps, stats=stats)
            want, want_states = reference(inst, max_steps)
            assert (got, states) == (want, want_states)
            assert stats["steps"] == len(states) - 1  # one move between scans

        rng = random.Random(91)
        for t in range(150):
            check(suite_instance(rng, t, n_max=6), 60)
        # chase-heavy digraphs up to n = 40: long runs whose moves wake
        # vertices far below the mover
        rng = random.Random(93)
        for _ in range(40):
            check(frustrated_instance(rng, n_max=40), 150)
