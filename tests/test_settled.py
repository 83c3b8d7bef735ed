"""Games that theory says have a stable partition: the DPs never answer NONE.

A game with non-negative weights is Nash stable with each connected
component of its graph as one coalition, and those coalitions are
connected, so both DP modes must answer SOME.  A symmetric game has the
potential sum of w(u, v) over the unordered pairs inside coalitions, which
every improving move raises (Bogomolnaia & Jackson, "The stability of
hedonic coalition structures", GEB 2002), so nash mode must answer SOME;
connected mode may not.  Every answer is certified.  These games go past
the brute-force oracle's n <= 12.
"""

from __future__ import annotations

import random

import pytest

from ashg import (
    is_connected_partition,
    is_nash_stable,
    solve_connected_nash,
    solve_nash_via_coloring,
)
from helpers import bounded_degree_instance

GAMES = 100
TABLE_CAP = 2 * 10**5


def settled_games(seed, w_lo, symmetric):
    """GAMES seeded games with 13..60 vertices, maximum degree 3 and
    weights w_lo..3."""
    rng = random.Random(seed)
    for _ in range(GAMES):
        inst = bounded_degree_instance(rng.randint(13, 60), rng, w_lo, 3, symmetric)
        assert 13 <= inst.n <= 60 and inst.max_degree <= 3
        yield inst


def assert_certified_some(inst, solve, connected):
    part = solve(inst, table_cap=TABLE_CAP)
    assert part is not None, dict(inst.arcs)
    assert is_nash_stable(inst, part)[0]
    if connected:
        assert is_connected_partition(inst, part)[0]


@pytest.mark.parametrize("solve, connected", [
    (solve_nash_via_coloring, False),
    (solve_connected_nash, True),
], ids=["nash", "connected"])
def test_non_negative_games_are_some(solve, connected):
    for inst in settled_games(0, 0, False):
        assert_certified_some(inst, solve, connected)


def test_symmetric_games_are_some_in_nash_mode():
    for inst in settled_games(1, -3, True):
        assert_certified_some(inst, solve_nash_via_coloring, False)
