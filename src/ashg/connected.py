"""Connected Nash stability by dynamic programming over nice decompositions.

Coalitions must induce connected subgraphs of the underlying graph, so a
bag signature has to remember, besides who is grouped with whom, how
much connectivity each group has already realized strictly inside the
processed part of the tree.  A signature over bag B with processed
vertex set B+ ("below") holds:

  pi1   partition of B induced by the intended coalitions,
  pi2   refinement of pi1: x, y are together iff some path inside their
        coalition's part of B+ already connects them,
  util  for every x in B and every pi1 class c, the utility of x toward
        (class c's coalition) ∩ B+,
  best  for every x in B, the best utility x could get by deviating into
        a coalition already completed strictly below B, floored at 0
        (the floor is sound because own utility >= 0 is enforced at
        forget time anyway).

Partitions (pi1, pi2) are stored as restricted growth strings over the
sorted bag, so signatures are canonical and deduplicate exactly.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .decomposition import (
    FORGET,
    NiceTreeDecomposition,
    run_nice_dp,
    validate_nice,
)
from .game import AshgInstance, Partition

DEFAULT_TABLE_CAP = 1_000_000


class ConnectedSignature(NamedTuple):
    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    util: tuple[tuple[int, ...], ...]
    best: tuple[int, ...]


EMPTY_SIGNATURE = ConnectedSignature((), (), (), ())


def _canon(labels) -> tuple[tuple[int, ...], dict[int, int]]:
    """Relabel to first-occurrence order; also return old -> new map."""
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out), remap


def forget_filter_passes(sig: ConnectedSignature, p: int) -> bool:
    """Stability-and-connectivity test applied when bag position p is forgotten.

    The vertex leaving the bag has its whole neighborhood inside B+, so
    the checks are exact: own utility nonnegative, no better pi1 class,
    no better completed coalition, and its pi2 component must still
    touch the bag if the coalition is supposed to have other members.
    """
    cls = sig.pi1[p]
    own = sig.util[p][cls]
    if own < 0:
        return False
    for c, val in enumerate(sig.util[p]):
        if c != cls and val > own:
            return False
    if sig.best[p] > own:
        return False
    if sig.pi2.count(sig.pi2[p]) == 1:
        if any(q != p and lab == cls for q, lab in enumerate(sig.pi1)):
            return False
    return True


def _introduce(
    sig: ConnectedSignature,
    p: int,
    arcs_to_v: tuple[int, ...],
    arcs_from_v: tuple[int, ...],
    adjacent: tuple[bool, ...],
) -> list[ConnectedSignature]:
    """All placements of a new vertex at bag position p.

    arcs_to_v[q] is w(child_bag[q], v), arcs_from_v[q] is w(v, child_bag[q]),
    adjacent[q] marks underlying adjacency; all indexed by child position.
    """
    pi1, pi2, util, best = sig
    nclasses = max(pi1) + 1 if pi1 else 0
    npi2 = max(pi2) + 1 if pi2 else 0
    results = []
    for t in range(nclasses + 1):
        raw1 = list(pi1[:p]) + [t] + list(pi1[p:])
        new_pi1, cmap = _canon(raw1)
        ncols = nclasses + (1 if t == nclasses else 0)

        # pi2: v merges every already-realized component of its class that
        # it is adjacent to; with none it starts its own component.
        merged = {pi2[q] for q, lab in enumerate(pi1) if lab == t and adjacent[q]}
        if merged:
            target = min(merged)
            raw2 = [target if lab in merged else lab for lab in pi2]
        else:
            target = npi2
            raw2 = list(pi2)
        raw2 = raw2[:p] + [target] + raw2[p:]
        new_pi2, _ = _canon(raw2)

        vrow = [0] * ncols
        for q, lab in enumerate(pi1):
            vrow[cmap[lab]] += arcs_from_v[q]
        new_util = []
        for q, row in enumerate(util):
            nrow = [0] * ncols
            for c, val in enumerate(row):
                nrow[cmap[c]] = val
            nrow[cmap[t]] += arcs_to_v[q]
            new_util.append(nrow)
        new_util.insert(p, vrow)

        new_best = list(best)
        new_best.insert(p, 0)
        results.append(
            ConnectedSignature(
                new_pi1,
                new_pi2,
                tuple(tuple(r) for r in new_util),
                tuple(new_best),
            )
        )
    return results


def _forget(sig: ConnectedSignature, p: int) -> ConnectedSignature | None:
    """Project out bag position p, or None when the filter rejects it."""
    if not forget_filter_passes(sig, p):
        return None
    pi1, pi2, util, best = sig
    cls = pi1[p]
    survivors = [q for q in range(len(pi1)) if q != p]
    completing = all(pi1[q] != cls for q in survivors)

    raw1 = [pi1[q] for q in survivors]
    new_pi1, cmap = _canon(raw1)
    raw2 = [pi2[q] for q in survivors]
    new_pi2, _ = _canon(raw2)

    new_util = []
    new_best = []
    for q in survivors:
        row = util[q]
        nrow = [0] * len(cmap)
        for c, nc in cmap.items():
            nrow[nc] = row[c]
        new_util.append(tuple(nrow))
        b = best[q]
        if completing:
            b = max(b, row[cls])
        new_best.append(b)
    return ConnectedSignature(new_pi1, new_pi2, tuple(new_util), tuple(new_best))


def _join(
    left: ConnectedSignature,
    right: ConnectedSignature,
    local: tuple[tuple[int, ...], ...],
) -> ConnectedSignature:
    """Combine equal-pi1 signatures of two subtrees sharing only the bag.

    local[x][c] is x's utility toward class c inside the bag itself,
    which both children counted; pi2 is the transitive closure of the
    union of the two realized-connectivity relations.
    """
    m = len(left.pi1)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (left.pi2, right.pi2):
        first: dict[int, int] = {}
        for q, lab in enumerate(labels):
            if lab in first:
                ra, rb = find(first[lab]), find(q)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[lab] = q
    new_pi2, _ = _canon([find(q) for q in range(m)])

    util = tuple(
        tuple(
            lv + rv - dv
            for lv, rv, dv in zip(lrow, rrow, drow)
        )
        for lrow, rrow, drow in zip(left.util, right.util, local)
    )
    best = tuple(max(lb, rb) for lb, rb in zip(left.best, right.best))
    return ConnectedSignature(left.pi1, new_pi2, util, best)


def solve_connected_nash(
    instance: AshgInstance,
    ntd: NiceTreeDecomposition,
    table_cap: int = DEFAULT_TABLE_CAP,
    stats: dict | None = None,
) -> Partition | None:
    """Find a connected Nash Stable partition, or prove there is none.

    `ntd` must be a nice decomposition of the instance's own underlying
    graph (not of its square).  The partition returned is the first trace
    in the tables' insertion order, so the output is deterministic.
    Raises ResourceLimitError when a signature table would exceed
    table_cap.
    """
    ok, violations = validate_nice(ntd, instance)
    if not ok:
        raise ValueError("invalid nice decomposition: " + "; ".join(violations))

    weight = instance.arcs.get
    nbr_sets = [set(s) for s in instance.neighbors]

    def introduce(nd, child_bag):
        v = nd.vertex
        p = nd.bag.index(v)
        arcs_to_v = tuple(weight((u, v), 0) for u in child_bag)
        arcs_from_v = tuple(weight((v, u), 0) for u in child_bag)
        adjacent = tuple(u in nbr_sets[v] for u in child_bag)
        return lambda sig: _introduce(sig, p, arcs_to_v, arcs_from_v, adjacent)

    def forget(nd, child_bag):
        p = child_bag.index(nd.vertex)
        return lambda sig: _forget(sig, p)

    def join(nd):
        bag = nd.bag
        arcw = [[weight((x, y), 0) for y in bag] for x in bag]
        local_cache: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

        def step(left, right):
            pi1 = left.pi1
            local = local_cache.get(pi1)
            if local is None:
                local = local_cache[pi1] = tuple(
                    tuple(
                        sum(arcw[x][y] for y, lab in enumerate(pi1) if lab == c and y != x)
                        for c in range((max(pi1) + 1) if pi1 else 0)
                    )
                    for x in range(len(bag))
                )
            return _join(left, right, local)

        return step

    return run_nice_dp(
        ntd, table_cap, EMPTY_SIGNATURE, introduce, forget, join,
        classes=attrgetter("pi1"),
        stats=stats,
    )


def signature_of(
    instance: AshgInstance,
    ntd: NiceTreeDecomposition,
    node_id: int,
    partition: Partition,
) -> ConnectedSignature:
    """The signature a full partition induces at one node, computed directly.

    This is the independent reference for the DP transitions: it looks
    at the real coalitions, restricted to the vertices below the node.
    """
    if not (0 <= node_id < len(ntd.nodes)):
        raise ValueError(f"node id {node_id} out of range")
    if partition.n != instance.n:
        raise ValueError("partition does not cover the instance")
    bag = ntd.nodes[node_id].bag
    below = ntd.vertices_below(node_id)

    pi1_raw = [partition.class_of(v) for v in bag]
    pi1, _ = _canon(pi1_raw)
    nclasses = max(pi1) + 1 if pi1 else 0
    class_block: list[set[int]] = [set() for _ in range(nclasses)]
    for q, v in enumerate(bag):
        class_block[pi1[q]] = set(partition.members(partition.class_of(v)))

    # realized connectivity: components of (coalition ∩ below)
    comp_of: dict[int, int] = {}
    comp_count = 0
    for c in range(nclasses):
        part = sorted(class_block[c] & below)
        part_set = set(part)
        seen: set[int] = set()
        for start in part:
            if start in seen:
                continue
            comp_count += 1
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp_of[x] = comp_count
                for y in instance.neighbors[x]:
                    if y in part_set and y not in seen:
                        seen.add(y)
                        stack.append(y)
    pi2, _ = _canon([comp_of[v] for v in bag])

    util = tuple(
        tuple(
            sum(w for u, w in instance.out[x] if u in (class_block[c] & below))
            for c in range(nclasses)
        )
        for x in bag
    )

    best = []
    for x in bag:
        cand = 0
        for blk in partition.blocks():
            blk_set = set(blk)
            if blk_set & set(bag):
                continue
            if not blk_set <= below:
                continue
            cand = max(cand, sum(w for u, w in instance.out[x] if u in blk_set))
        best.append(cand)
    return ConnectedSignature(pi1, pi2, util, tuple(best))


def trace_survives_forget_filters(
    instance: AshgInstance,
    ntd: NiceTreeDecomposition,
    partition: Partition,
) -> bool:
    """Check that a partition's signature trace passes every forget filter.

    For a connected Nash Stable partition this must hold at every FORGET
    node, otherwise the dynamic program would wrongly discard it.
    """
    for nd in ntd.nodes:
        if nd.kind != FORGET:
            continue
        child_bag = ntd.nodes[nd.children[0]].bag
        sig = signature_of(instance, ntd, nd.children[0], partition)
        if not forget_filter_passes(sig, child_bag.index(nd.vertex)):
            return False
    return True
