"""Every layer of a solve is linear in n on bounded-width inputs.

On a path the DP tables hold a handful of signatures, so decomposition,
nice form, the walk and the traceback carry the time.  Time per nice
node must stay about flat from n = 2 000 to n = 20 000: a linear layer
keeps the ratio near 1, a quadratic one takes it near 10.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from ashg import heuristic_decompose, make_nice, solve_connected_nash, solve_nash_via_coloring
from helpers import path_instance


def solve(instance, mode, stats):
    if mode == "nash":
        return solve_nash_via_coloring(instance, stats=stats)
    return solve_connected_nash(instance, make_nice(heuristic_decompose(instance)), stats=stats)


def seconds_per_nice_node(n, mode):
    """Best of 3 whole library solves, with the collector paused as the CLI runs them."""
    instance = path_instance(n, random.Random(n))
    best = float("inf")
    stats: dict = {}
    enabled = gc.isenabled()
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            solve(instance, mode, stats)
            best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
    return best / stats["nice_nodes"]


@pytest.mark.parametrize("mode", ["nash", "connected-nash"])
def test_time_per_nice_node_flat_on_paths(mode):
    small = seconds_per_nice_node(2_000, mode)
    large = seconds_per_nice_node(20_000, mode)
    assert large / small < 3, f"{large * 1e6:.1f} vs {small * 1e6:.1f} us per nice node"
