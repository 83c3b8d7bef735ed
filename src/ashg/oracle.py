"""Brute-force reference solvers over explicit partition enumeration.

Set partitions are enumerated as restricted growth strings, so the order
is deterministic and the first block always contains vertex 1.  These
are the ground-truth oracles the polynomial solvers are tested against;
they are written for clarity first and mild speed second.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .coloring import Coloring
from .errors import OracleCapError
from .game import AshgInstance, Partition, _connected_block, _first_violation

DEFAULT_PARTITION_CAP = 12  # Bell(12) = 4,213,597 partitions


def _rgs(n: int, max_blocks: int | None = None) -> Iterator[list[int]]:
    """Restricted growth strings of length n, lexicographically.

    label[i] <= 1 + max(label[:i]); optionally capped block count.
    """
    if n == 0:
        yield []
        return
    labels = [0] * n
    maxes = [0] * n  # maxes[i] = max(labels[:i+1])
    i = n - 1
    yield labels[:]
    while True:
        limit = maxes[i - 1] + 1 if i > 0 else 0
        if max_blocks is not None:
            limit = min(limit, max_blocks - 1)
        while i > 0 and labels[i] >= limit:
            i -= 1
            limit = maxes[i - 1] + 1 if i > 0 else 0
            if max_blocks is not None:
                limit = min(limit, max_blocks - 1)
        if i == 0:
            return
        labels[i] += 1
        maxes[i] = max(maxes[i - 1], labels[i])
        for j in range(i + 1, n):
            labels[j] = 0
            maxes[j] = maxes[i]
        i = n - 1
        yield labels[:]


def _check_cap(n: int, cap: int) -> None:
    if cap < 0:
        raise ValueError(f"oracle cap must be nonnegative, got {cap}")
    if n > cap:
        raise OracleCapError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_partitions(n: int, cap: int = DEFAULT_PARTITION_CAP) -> Iterator[Partition]:
    """All partitions of 1..n in restricted-growth order.

    Raises OracleCapError when n exceeds the cap (Bell numbers explode).
    The arguments are checked at call time, before the generator exists.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap(n, cap)
    return map(Partition, _rgs(n))


def brute_force_nash(
    instance: AshgInstance, cap: int = DEFAULT_PARTITION_CAP
) -> Partition | None:
    """First Nash Stable partition in enumeration order, or None."""
    _check_cap(instance.n, cap)
    for labels in _rgs(instance.n):
        if _first_violation(instance, labels) is None:
            return Partition(labels)
    return None


def brute_force_connected_nash(
    instance: AshgInstance, cap: int = DEFAULT_PARTITION_CAP
) -> Partition | None:
    """First connected Nash Stable partition in enumeration order, or None.

    Connectivity is checked before stability; it is the cheaper filter.
    """
    _check_cap(instance.n, cap)
    nbrs = instance.neighbors
    for labels in _rgs(instance.n):
        blocks: dict[int, list[int]] = {}
        for v, c in enumerate(labels, start=1):
            blocks.setdefault(c, []).append(v)
        if all(_connected_block(nbrs, blk) for blk in blocks.values()):
            if _first_violation(instance, labels) is None:
                return Partition(labels)
    return None


DEFAULT_COLORING_CAP = 10**9  # bound on the nominal k^n search space


def brute_force_stable_coloring(
    instance: AshgInstance, k: int, cap: int = DEFAULT_COLORING_CAP
) -> Coloring | None:
    """First stable k-coloring in enumeration order, or None.

    Stability is invariant under renaming colors, and a coloring with
    empty classes is stable iff the coloring using only its nonempty
    classes is, so the k^n color vectors are searched through their
    class partitions: restricted growth strings with at most k blocks.
    The first hit is realized with colors 1..(block count).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if cap < 0:
        raise ValueError(f"oracle cap must be nonnegative, got {cap}")
    effective = min(k, instance.n)  # colors beyond n can never all be used
    if instance.n and effective ** instance.n > cap:
        raise OracleCapError(
            f"search space {effective}**{instance.n} exceeds the cap {cap}"
        )
    for labels in _rgs(instance.n, max_blocks=k):
        if _first_violation(instance, labels) is None:
            return Coloring(k, tuple(c + 1 for c in labels))
    return None
