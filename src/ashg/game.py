"""Game model: weighted digraph instances, partitions, stability verifiers.

Vertices are the dense range 1..n.  Arcs are ordered pairs with integer
weights; zero-weight arcs are legal and are kept, because they contribute
edges to the underlying undirected graph and therefore matter for degree
bounds and connectivity even though they never change a utility sum.
"""

from __future__ import annotations

import heapq
import sys
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import _check_nonnegative

# Constructor guard: utility sums stay below this with room for 4x slack.
_MAX_REPRESENTABLE = sys.maxsize
# Largest vertex count parse_instance and the reduction generators accept;
# both check it before allocating per-vertex tables.
MAX_VERTICES = 10**6
# Largest arc count the reduction generators build, checked with
# MAX_VERTICES before they allocate.  The SAT embeddings have at most
# about 5.5 arcs per vertex and the 3-Partition star 2, so within
# MAX_VERTICES they stay below it.  Bin packing has 2 * bins * items
# arcs, up to 2 * 10**9 within MAX_VERTICES (1 000 bins of capacity
# 1 000); the bound holds it to the size of the largest SAT construction.
MAX_ARCS = 6 * MAX_VERTICES


class AshgInstance:
    """An additively separable hedonic game on vertices 1..n.

    `arcs` may be a mapping (u, v) -> weight or an iterable of
    (u, v, weight) triples.  Duplicate ordered pairs and self-loops are
    rejected.  Instances are treated as immutable after construction.
    """

    __slots__ = ("n", "arcs", "out", "neighbors", "max_degree", "max_abs_weight")

    def __init__(self, n: int, arcs: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]] = ()):
        _check_nonnegative(n, "vertex count")
        if isinstance(arcs, Mapping):
            arcs = ((u, v, w) for (u, v), w in arcs.items())
        # One pass validates each arc in order and tracks the largest |w|,
        # so the n*W guard runs before any per-vertex table is allocated.
        arc_map: dict[tuple[int, int], int] = {}
        w_max = 0
        for u, v, w in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u},{v}) leaves the vertex range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError(f"arc ({u},{v}) has non-integer weight {w!r}")
            key = (u, v)
            if key in arc_map:
                raise ValueError(f"duplicate arc ({u},{v})")
            arc_map[key] = w
            if w > w_max or -w > w_max:
                w_max = abs(w)

        if n * w_max > _MAX_REPRESENTABLE // 4:
            raise ValueError(
                f"n*W = {n * w_max} exceeds the arithmetic guard {_MAX_REPRESENTABLE // 4}"
            )

        out: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        nbr: list[set[int]] = [set() for _ in range(n + 1)]
        for (u, v), w in arc_map.items():
            out[u].append((v, w))
            nbr[u].add(v)
            nbr[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arc_map)
        object.__setattr__(self, "out", tuple(tuple(sorted(row)) for row in out))
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(s)) for s in nbr))
        object.__setattr__(self, "max_degree", max((len(s) for s in nbr[1:]), default=0))
        object.__setattr__(self, "max_abs_weight", w_max)

    def __setattr__(self, name, value):
        raise AttributeError("AshgInstance is immutable")

    def weight(self, u: int, v: int) -> int:
        """Weight of arc (u, v), or 0 when the arc is absent."""
        return self.arcs.get((u, v), 0)

    def underlying_edges(self) -> set[tuple[int, int]]:
        """Undirected edges as (min, max) pairs; zero-weight arcs included."""
        return {(u, v) if u < v else (v, u) for (u, v) in self.arcs}

    def arc_count(self) -> int:
        return len(self.arcs)

    def __repr__(self) -> str:
        return f"AshgInstance(n={self.n}, arcs={len(self.arcs)})"


class Partition:
    """A partition of the vertices 1..n into coalitions.

    Stored as a label per vertex, normalized so coalition ids are dense,
    1-based, and ordered by first appearance (restricted growth labeling).
    Two Partition objects are equal iff they have the same coalitions.
    """

    __slots__ = ("n", "labels", "_blocks")

    def __init__(self, labels: Sequence[int]):
        relabel: dict[int, int] = {}
        out = []
        for raw in labels:
            if raw not in relabel:
                relabel[raw] = len(relabel) + 1
            out.append(relabel[raw])
        object.__setattr__(self, "n", len(out))
        object.__setattr__(self, "labels", tuple(out))
        object.__setattr__(self, "_blocks", None)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(range(n))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "Partition":
        """Build from explicit coalitions; blocks must cover 1..n exactly once."""
        assign: dict[int, int] = {}
        for cid, block in enumerate(blocks):
            for v in block:
                if v in assign:
                    raise ValueError(f"vertex {v} appears in two coalitions")
                assign[v] = cid
        count = len(assign) if n is None else n
        labels = list(map(assign.get, range(1, count + 1)))
        # count keys, none of 1..count missing: no key can lie outside 1..count
        if len(assign) != count or None in labels:
            missing = [v for v in range(1, count + 1) if v not in assign]
            extra = [v for v in assign if not (1 <= v <= count)]
            raise ValueError(f"blocks do not cover 1..{count}: missing {missing}, extra {extra}")
        return cls(labels)

    def class_of(self, v: int) -> int:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} not in 1..{self.n}")
        return self.labels[v - 1]

    @property
    def num_classes(self) -> int:
        return max(self.labels, default=0)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Coalitions in id order, members ascending."""
        cached = self._blocks
        if cached is None:
            groups: list[list[int]] = [[] for _ in range(self.num_classes)]
            for v, cid in enumerate(self.labels, start=1):
                groups[cid - 1].append(v)
            cached = tuple(tuple(g) for g in groups)
            object.__setattr__(self, "_blocks", cached)
        return cached

    def members(self, cid: int) -> tuple[int, ...]:
        if not (1 <= cid <= self.num_classes):
            raise ValueError(f"no coalition with id {cid}")
        return self.blocks()[cid - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Partition({list(self.blocks())})"


class DeviationWitness(NamedTuple):
    """A strictly improving move certifying instability.

    `target` is the id of an existing coalition, or None for
    a move into a fresh empty coalition.  The improvement is strict:
    target_utility > current_utility.
    """

    vertex: int
    current_utility: int
    target: int | None
    target_utility: int


def _check_partition(instance: AshgInstance, partition: Partition) -> None:
    if partition.n != instance.n:
        raise ValueError(
            f"partition covers {partition.n} vertices, instance has {instance.n}"
        )


def utility(instance: AshgInstance, partition: Partition, v: int) -> int:
    """Utility of v inside its own coalition: sum of w(v, u) over co-members."""
    _check_partition(instance, partition)
    cid = partition.class_of(v)
    labels = partition.labels
    return sum(w for u, w in instance.out[v] if labels[u - 1] == cid)


def _first_violation(
    instance: AshgInstance, labels: Sequence[int], vertices: Iterable[int] | None = None
) -> tuple[int, int, int | None, int] | None:
    """First vertex with an improving deviation, or None.

    Scans `vertices` in the order given (default: 1..n ascending) and
    stops at the first hit.  Returns (vertex, own_utility, target,
    target_utility): target is the best class that pays more than own
    utility, ties broken by lowest class id, even when own utility is
    negative; it is None (with target utility 0) when only the empty
    coalition improves.  Only coalitions holding an out-neighbor can beat
    a nonnegative own utility, so the scan per vertex is over out-arcs only.
    One pass over the other classes' sums finds the best: a class replaces
    it when it pays more, or the same with a lower id (the sums are in arc
    order, not id order).
    """
    out = instance.out
    for v in range(1, instance.n + 1) if vertices is None else vertices:
        row = out[v]
        if not row:
            continue
        sums: dict[int, int] = {}
        for u, w in row:
            c = labels[u - 1]
            sums[c] = sums.get(c, 0) + w
        own = sums.pop(labels[v - 1], 0)
        best_c, best = None, own
        for c, s in sums.items():
            if s > best or (s == best and best_c is not None and c < best_c):
                best_c, best = c, s
        if best_c is not None:
            return (v, own, best_c, best)
        if own < 0:
            return (v, own, None, 0)
    return None


def is_nash_stable(
    instance: AshgInstance, partition: Partition
) -> tuple[bool, DeviationWitness | None]:
    """Check Nash stability; on failure return the first improving deviation.

    Deterministic: vertices are scanned in ascending order and the best
    improving target is reported, ties broken by lowest coalition id.
    A negative own utility is reported as a move to a new singleton (None).
    """
    _check_partition(instance, partition)
    hit = _first_violation(instance, partition.labels)
    if hit is None:
        return True, None
    v, own, target, gain = hit
    if own < 0:
        target, gain = None, 0
    return False, DeviationWitness(v, own, target, gain)


def _connected_block(neighbors: Sequence[Sequence[int]], block: Sequence[int]) -> bool:
    if len(block) <= 1:
        return True
    members = set(block)
    seen = {block[0]}
    stack = [block[0]]
    while stack:
        x = stack.pop()
        for y in neighbors[x]:
            if y in members and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(members)


def is_connected_partition(
    instance: AshgInstance, partition: Partition
) -> tuple[bool, int | None]:
    """Check that every coalition induces a connected underlying subgraph.

    Returns (ok, offending coalition id).  Singletons are connected; the
    underlying graph includes zero-weight arcs.
    """
    _check_partition(instance, partition)
    for cid, block in enumerate(partition.blocks(), start=1):
        if not _connected_block(instance.neighbors, block):
            return False, cid
    return True, None


def better_response_dynamics(
    instance: AshgInstance,
    max_steps: int = 1000,
    stats: dict | None = None,
) -> Partition | None:
    """Run deviation dynamics from the all-singletons partition.

    One step applies one deviation: the lowest-id vertex with a strictly
    improving move deviates to the coalition with the highest payoff
    (ties to lowest coalition id, with an existing coalition preferred
    over a fresh singleton); when its own utility and that best payoff
    are both negative it moves to a fresh singleton instead.  Returns the
    partition once no vertex can improve, or None when max_steps
    deviations did not reach stability.  Absence of a result is a normal
    outcome, not an error.  When `stats` is given, stats["steps"] is set
    to the number of deviations applied.

    A vertex's options depend only on its own label and its
    out-neighbors' labels, so a move of v wakes only v's in-neighbors:
    v took its best class, or a fresh singleton when every class paid
    less than 0, and stays stable until an out-neighbor moves.  A
    min-heap holds the vertices not known to be stable; popping it
    yields the lowest-id improving vertex without rescanning the stable
    ones.  Cost O(n + m) to reach the first step, then O(indeg(v) log n)
    per move of v, plus the scans of the vertices that move wakes.
    """
    _check_nonnegative(max_steps, "max_steps")
    n = instance.n
    labels = list(range(1, n + 1))
    into: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in instance.arcs:
        into[v].append(u)
    dirty = list(range(1, n + 1))  # ascending, so already a heap
    queued = [True] * (n + 1)

    def pop_dirty() -> Iterator[int]:
        # resumed by every scan below; it sees the pushes made between scans
        while dirty:
            v = heapq.heappop(dirty)
            queued[v] = False
            yield v

    scan = pop_dirty()
    next_id = n + 1
    applied = 0
    while True:
        hit = _first_violation(instance, labels, scan)
        if hit is None or applied >= max_steps:
            break
        v, _, target, gain = hit
        if target is None or gain < 0:  # the empty coalition pays 0
            labels[v - 1] = next_id
            next_id += 1
        else:
            labels[v - 1] = target
        applied += 1
        for u in into[v]:
            if not queued[u]:
                queued[u] = True
                heapq.heappush(dirty, u)
    if stats is not None:
        stats["steps"] = applied
    return Partition(labels) if hit is None else None
