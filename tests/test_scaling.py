"""Every layer of a solve is linear in n on bounded-width inputs.

On a path the DP tables hold a handful of signatures, so decomposition,
nice form, the walk and the traceback carry the time.  Time per nice
node must stay about flat from n = 2 000 to n = 20 000: a linear layer
keeps the ratio near 1, a quadratic one takes it near 10.  Reading the
instance file back is held to the same bound per arc, and the min-fill
heuristic, which no solve runs by default, to the same bound per vertex.
Better-response dynamics is held to it per applied move: its weights are
symmetric, so the run converges and every counted step is a real move.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from ashg import (
    better_response_dynamics,
    heuristic_decompose,
    parse_instance,
    serialize_instance,
    solve_connected_nash,
    solve_nash_via_coloring,
)
from helpers import path_instance


def solve(instance, mode, stats):
    if mode == "nash":
        return solve_nash_via_coloring(instance, stats=stats)
    return solve_connected_nash(instance, heuristic_decompose(instance), stats=stats)


def best_of_3(call):
    """Best wall time of 3 calls, with the collector paused as the CLI runs them."""
    best = float("inf")
    enabled = gc.isenabled()
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
    return best


def seconds_per_nice_node(n, mode):
    """Best of 3 whole library solves."""
    instance = path_instance(n, random.Random(n))
    stats: dict = {}
    return best_of_3(lambda: solve(instance, mode, stats)) / stats["nice_nodes"]


def seconds_per_arc(n):
    """Best of 3 parses of a path's instance file."""
    instance = path_instance(n, random.Random(n))
    text = serialize_instance(instance)
    return best_of_3(lambda: parse_instance(text)) / instance.arc_count()


def seconds_per_vertex_min_fill(n):
    """Best of 3 min-fill decompositions of a path."""
    instance = path_instance(n, random.Random(n))
    return best_of_3(lambda: heuristic_decompose(instance)) / n


def seconds_per_move(n):
    """Best of 3 dynamics runs on a path, each to convergence."""
    instance = path_instance(n, random.Random(n))
    stats: dict = {}
    # symmetric integer weights: each move raises the sum of w(u, v) over
    # pairs inside coalitions by at least 1, and that sum stays below 5 * n
    best = best_of_3(lambda: better_response_dynamics(instance, max_steps=5 * n, stats=stats))
    assert stats["steps"] < 5 * n  # converged, not stopped by the budget
    return best / stats["steps"]


@pytest.mark.parametrize("mode", ["nash", "connected-nash"])
def test_time_per_nice_node_flat_on_paths(mode):
    small = seconds_per_nice_node(2_000, mode)
    large = seconds_per_nice_node(20_000, mode)
    assert large / small < 3, f"{large * 1e6:.1f} vs {small * 1e6:.1f} us per nice node"


def test_parse_time_per_arc_flat_on_paths():
    small = seconds_per_arc(2_000)
    large = seconds_per_arc(20_000)
    assert large / small < 3, f"{large * 1e6:.2f} vs {small * 1e6:.2f} us per arc"


def test_min_fill_time_per_vertex_flat_on_paths():
    small = seconds_per_vertex_min_fill(2_000)
    large = seconds_per_vertex_min_fill(20_000)
    assert large / small < 3, f"{large * 1e6:.2f} vs {small * 1e6:.2f} us per vertex"


def test_dynamics_time_per_move_flat_on_paths():
    small = seconds_per_move(2_000)
    large = seconds_per_move(20_000)
    assert large / small < 3, f"{large * 1e6:.2f} vs {small * 1e6:.2f} us per move"
