"""Stable colorings and the treewidth-based Nash stability solver.

A stable k-coloring assigns every vertex one of k colors so that each
vertex weakly prefers its own color class to every other class and to
the guaranteed-empty class k+1 (which forces own utility >= 0).  Only
the colors of out-neighbors matter.  Nonempty classes of a stable
coloring form a Nash Stable partition, and conversely a Nash Stable
partition yields a stable k-coloring once k reaches (max bag size of a
decomposition) * (max degree), which is what makes the bag-by-bag
dynamic program below a complete decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from .decomposition import (
    TreeDecomposition,
    heuristic_decompose,
    make_nice,
    run_nice_dp,
    square_instance,
    validate,
)
from .game import AshgInstance, DeviationWitness, Partition, _stability_witness

DEFAULT_TABLE_CAP = 1_000_000


@dataclass(frozen=True)
class Coloring:
    """A total assignment of colors 1..k to vertices 1..n."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        for v, c in enumerate(self.colors, start=1):
            if not (1 <= c <= self.k):
                raise ValueError(f"vertex {v} has color {c} outside 1..{self.k}")


def choose_k(max_bag_size: int, max_degree: int) -> int:
    """Color budget max(1, max_bag_size * max_degree) for the equivalence."""
    if max_bag_size < 1:
        raise ValueError(f"max_bag_size must be >= 1, got {max_bag_size}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    return max(1, max_bag_size * max_degree)


def is_stable_coloring(
    instance: AshgInstance, coloring: Coloring
) -> tuple[bool, DeviationWitness | None]:
    """Check the stability condition for every vertex.

    The witness target is a color class id, or SINGLETON when the vertex
    fails against the empty class (own utility negative).
    """
    if len(coloring.colors) != instance.n:
        raise ValueError(
            f"coloring assigns {len(coloring.colors)} vertices, instance has {instance.n}"
        )
    return _stability_witness(instance, coloring.colors)


def coloring_to_partition(coloring: Coloring) -> Partition:
    """Nonempty color classes as coalitions (ids renormalized)."""
    return Partition(coloring.colors)


def _canon(labels) -> tuple[int, ...]:
    """Relabel block ids to first-occurrence order 0,1,2,..."""
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def solve_nash_via_coloring(
    instance: AshgInstance,
    td: TreeDecomposition,
    table_cap: int = DEFAULT_TABLE_CAP,
    stats: dict | None = None,
) -> Partition | None:
    """Decide Nash stability by dynamic programming over bag colorings.

    `td` must be a valid decomposition of the instance; it only fixes the
    color budget k = max_bag_size(td) * max_degree, capped at n (a stable
    coloring never needs more than n colors).  The DP itself runs on a
    heuristic decomposition of the square G^2, where every closed
    neighborhood N[v] is a clique and therefore lies inside some bag.  A
    signature records how the current bag is split into color classes, in
    canonical first-occurrence order with at most k classes; color names
    never matter because the stability test only compares sums within and
    across classes.  INTRODUCE branches over the existing classes plus one
    fresh class and immediately applies the stability test of every bag
    vertex whose closed neighborhood just became fully visible; FORGET
    projects, JOIN intersects.  The partition returned is the first trace
    in the tables' insertion order, so the output is deterministic.

    Returns a Nash Stable partition or None; raises ResourceLimitError
    when a signature table would exceed table_cap.
    """
    ok, violations = validate(td, instance)
    if not ok:
        raise ValueError("invalid decomposition: " + "; ".join(violations))

    n = instance.n
    k = min(choose_k(max(1, td.max_bag_size), instance.max_degree), max(1, n))
    ntd = make_nice(heuristic_decompose(square_instance(instance)))
    closed = [frozenset()] + [
        frozenset(instance.neighbors[v]) | {v} for v in range(1, n + 1)
    ]

    def introduce(nd, child_bag):
        bag = nd.bag
        v = nd.vertex
        p = bag.index(v)
        # checks that can newly pass here: u with v in N[u] and N[u] in bag
        bag_set = set(bag)
        pos = {u: i for i, u in enumerate(bag)}
        checks = []
        for u in bag:
            if v in closed[u] and closed[u] <= bag_set:
                checks.append((pos[u], [(pos[t], w) for t, w in instance.out[u]]))

        def step(sig):
            out = []
            blocks = (max(sig) + 1) if sig else 0
            for color in range(min(blocks + 1, k)):
                cand = sig[:p] + (color,) + sig[p:]
                for pu, arcs in checks:
                    sums: dict[int, int] = {}
                    for pt, w in arcs:
                        c = cand[pt]
                        sums[c] = sums.get(c, 0) + w
                    own = sums.get(cand[pu], 0)
                    if own < 0 or max(sums.values(), default=0) > own:
                        break
                else:  # every check passed
                    out.append(_canon(cand))
            return out

        return step

    def forget(nd, child_bag):
        p = child_bag.index(nd.vertex)
        return lambda sig: _canon(sig[:p] + sig[p + 1 :])

    partition = run_nice_dp(
        ntd, table_cap, (), introduce, forget,
        join=lambda nd: lambda left, right: left,
        classes=lambda sig: sig,
        stats=stats,
    )
    if stats is not None:
        stats["k"] = k
    return partition
