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
from typing import Callable

from .decomposition import (
    TreeDecomposition,
    canonical_labels,
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
    fresh class and applies at once the stability test of every bag vertex
    u whose closed neighborhood just became fully visible.  Those tests
    read u's class sums once per child signature; every color c is then
    decided from the sums alone (v joining u's class adds w(u, v) to u's
    own sum, v joining class c adds it to c's), and a surviving color is
    inserted into the canonical signature in closed form.  FORGET
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
    introduce, forget = _transitions(instance, k)
    partition = run_nice_dp(
        ntd, table_cap, (), introduce, forget,
        join=lambda nd: lambda left, right: left,
        classes=lambda sig: sig,
        stats=stats,
    )
    if stats is not None:
        stats["k"] = k
    return partition


def _transitions(instance: AshgInstance, k: int) -> tuple[Callable, Callable]:
    """The INTRODUCE and FORGET step factories of run_nice_dp for one solve.

    A signature is the bag's color classes as a canonical label tuple
    with at most k classes.
    """
    weight = instance.arcs.get
    closed = [frozenset()] + [
        frozenset(instance.neighbors[v]) | {v} for v in range(1, instance.n + 1)
    ]

    def introduce(nd, child_bag):
        v = nd.vertex
        p = nd.bag.index(v)
        size = len(nd.bag)
        # the checks that can newly pass here: u in N[v] (so v in N[u]) with
        # N[u] in the bag, as (u's child position or -1 for v, arcs to
        # targets other than v by child position, w(u, v))
        bag_set = set(nd.bag)
        pos = {u: q for q, u in enumerate(child_bag)}
        checks = []
        for u in closed[v]:
            if closed[u] <= bag_set:
                arcs = [(pos[t], w) for t, w in instance.out[u] if t != v]
                checks.append((pos.get(u, -1), arcs, weight((u, v), 0)))
        shifts: dict[tuple[int, int], tuple[int, ...]] = {}

        def step(sig):
            blocks = (max(sig) + 1) if sig else 0
            alive = range(min(blocks + 1, k))
            for pu, arcs, w in checks:
                # the check's class sums over the child signature; the last
                # entry, a class with no member, stands for the empty class
                sums = [0] * (blocks + 1)
                for q, a in arcs:
                    sums[sig[q]] += a
                if pu < 0:
                    # v's own check: v's class must be a best one
                    top = max(sums)
                    alive = [c for c in alive if sums[c] == top]
                else:
                    cu = sig[pu]
                    own = sums[cu]
                    # v joins u's class: own + w must match every other class
                    sums[cu] = own + w
                    stay = max(sums) == own + w
                    sums[cu] = own
                    # v goes to another class c: u keeps own, which no class
                    # but c may beat, and c gains w (w < 0 can pull c below own)
                    ranked = sorted(sums)
                    if own < 0 or ranked[-2] > own:
                        alive = [cu] if stay and cu in alive else []
                    elif ranked[-1] > own:
                        b = sums.index(ranked[-1])
                        fixed = sums[b] + w <= own
                        alive = [c for c in alive if (stay if c == cu else c == b and fixed)]
                    else:
                        alive = [c for c in alive if (stay if c == cu else sums[c] + w <= own)]
                if not alive:
                    return alive
            # head already uses exactly the labels 0..m-1, so a color c <= m
            # inserts as is; otherwise c becomes m and m..c-1 move up by one
            head = sig[:p]
            tail = sig[p:]
            m = (max(head) + 1) if head else 0
            out = []
            for c in alive:
                if c <= m:
                    out.append(head + (c,) + tail)
                else:
                    shift = shifts.get((m, c))
                    if shift is None:
                        shift = shifts[m, c] = (
                            tuple(range(m)) + tuple(range(m + 1, c + 1)) + (m,)
                            + tuple(range(c + 1, size))
                        )
                    out.append(head + (m,) + tuple([shift[x] for x in tail]))
            return out

        return step

    def forget(nd, child_bag):
        p = child_bag.index(nd.vertex)

        def step(sig):
            head = sig[:p]
            rest = head + sig[p + 1 :]
            # when the dropped label occurs before p, no first occurrence moves
            return rest if sig[p] in head else canonical_labels(rest)[0]

        return step

    return introduce, forget
