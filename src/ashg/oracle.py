"""Brute-force reference solvers over explicit partition enumeration.

Set partitions are enumerated as restricted growth strings, so the order
is deterministic and the first block always contains vertex 1.  These
are the ground-truth oracles the polynomial solvers are tested against;
they are written for clarity first and mild speed second.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ResourceLimitError, _check_nonnegative
from .game import AshgInstance, Partition, _connected_block, _first_violation

DEFAULT_PARTITION_CAP = 12  # Bell(12) = 4,213,597 partitions


def _rgs(n: int) -> Iterator[list[int]]:
    """Restricted growth strings of length n, lexicographically.

    label[i] <= 1 + max(label[:i]).
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
        while i > 0 and labels[i] >= limit:
            i -= 1
            limit = maxes[i - 1] + 1 if i > 0 else 0
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
    _check_nonnegative(cap, "oracle cap")
    if n > cap:
        raise ResourceLimitError(f"n={n} exceeds the enumeration cap {cap}")


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
