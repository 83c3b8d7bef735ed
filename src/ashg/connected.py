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
        the members of class c's coalition already forgotten below the
        node, (class c's coalition) ∩ (B+ minus B); one flat row-major
        tuple, util[q * ncls + c] for bag position q, ncls = max(pi1) + 1,
  best  for every x in B, the best utility x could get by deviating into
        a coalition already completed strictly below B, floored at 0
        (the floor is sound because own utility >= 0 is enforced at
        forget time anyway).

Counting forgotten members only makes every transition a few C-level
tuple operations: an introduced vertex has no forgotten neighbour, so
its row is all zeros; the forgotten sets of a JOIN's two children are
disjoint, so their rows add; and a FORGET adds the leaving vertex's
in-bag class sums to its row only to run the stability filter.

Partitions (pi1, pi2) are stored as restricted growth strings over the
sorted bag, so signatures are canonical and deduplicate exactly.  Every
transition plan is then a function of labels, positions and adjacency
alone, built once per process in a bounded memo that all solves share.
The solver decomposes the graph itself unless it is given a tree
decomposition, which it validates once; either way it builds the nice
form itself.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, attrgetter, itemgetter
from typing import Callable, NamedTuple, Sequence

from .decomposition import (
    DEFAULT_TABLE_CAP,
    FORGET,
    NiceNode,
    TreeDecomposition,
    canonical_labels,
    heuristic_decompose,
    make_nice,
    run_nice_dp,
    validate,
)
from .game import AshgInstance, Partition


class ConnectedSignature(NamedTuple):
    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    util: tuple[int, ...]
    best: tuple[int, ...]


EMPTY_SIGNATURE = ConnectedSignature((), (), (), ())
_ZERO = (0,)


def _gather(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """C-level tuple -> tuple of the entries at `indices`, in that order."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _in_bag_sums(pi1: tuple[int, ...], p: int, arcs_from_x: Sequence[int]) -> list[int]:
    """Utility of the vertex at bag position p toward each pi1 class's other bag members.

    arcs_from_x[q] is w(x, bag[q]); position p itself is skipped.
    """
    sums = [0] * (max(pi1) + 1)
    for q, lab in enumerate(pi1):
        if q != p:
            sums[lab] += arcs_from_x[q]
    return sums


def forget_filter_passes(
    sig: ConnectedSignature,
    p: int,
    arcs_from_x: Sequence[int],
    in_bag: Sequence[int] | None = None,
) -> bool:
    """Stability-and-connectivity test applied when bag position p is forgotten.

    arcs_from_x[q] is w(x, bag[q]) for the leaving vertex x.  `in_bag`,
    when given, must be x's utility toward each class's other bag
    members as computed from arcs_from_x; the DP passes its cached copy.
    The vertex leaving the bag has its whole neighborhood inside B+, so
    its stored row plus its in-bag class sums is its exact utility
    toward every class, and the checks are exact: own utility
    nonnegative, no better pi1 class, no better completed coalition, and
    its pi2 component must still touch the bag if the coalition is
    supposed to have other members.
    """
    pi1, pi2, util, best = sig
    if in_bag is None:
        in_bag = _in_bag_sums(pi1, p, arcs_from_x)
    ncls = len(in_bag)
    full = tuple(map(add, util[p * ncls : (p + 1) * ncls], in_bag))
    cls = pi1[p]
    own = full[cls]
    if own < 0 or own < best[p] or max(full) > own:
        return False
    return pi2.count(pi2[p]) > 1 or pi1.count(cls) == 1


# These plans depend only on bag-local keys, not on the game, so every solve
# in the process shares their (immutable) values.  The bound evicts nothing
# measured: at most 1 143 keys per memo over the benchmark workloads (seeds 0
# and 1), and 7 180 on a 5 x 8 grid, weights 0..3 (width 7, peak table 87 941).
_shared_plan = lru_cache(maxsize=1 << 14)


@_shared_plan
def _placements(pi1: tuple, pi2: tuple, p: int, adjacent: tuple[bool, ...]) -> tuple:
    """(new pi1, new pi2, util gather) for each placement of a vertex at position p.

    adjacent[q] says whether the vertex touches child position q.  The
    gather reads the old util extended by one trailing zero: the new
    vertex's row and a new class's column come from that zero, every
    other entry moves to its relabelled column.
    """
    m = len(pi1)
    ncls = max(pi1) + 1 if pi1 else 0
    npi2 = max(pi2) + 1 if pi2 else 0
    zero = m * ncls
    out = []
    for t in range(ncls + 1):
        new_pi1, cmap = canonical_labels(pi1[:p] + (t,) + pi1[p:])
        old_class = list(cmap)  # old label of each new label; ncls is v's new class
        indices = []
        for q in range(m + 1):
            if q == p:
                indices.extend([zero] * len(cmap))
            else:
                row = (q - (q > p)) * ncls
                indices.extend(row + c if c < ncls else zero for c in old_class)
        # v merges the realized components of its class it touches, or starts one
        merged = {pi2[q] for q, lab in enumerate(pi1) if lab == t and adjacent[q]}
        target = min(merged) if merged else npi2
        raw2 = [target if lab in merged else lab for lab in pi2]
        raw2.insert(p, target)
        out.append((new_pi1, canonical_labels(raw2)[0], _gather(indices)))
    return tuple(out)


@_shared_plan
def _forget_plan(pi1: tuple[int, ...], p: int) -> tuple:
    """(new pi1, util gather, new column of the leaving class, its column gather).

    The gather keeps the survivors' rows with relabelled columns.  When
    the leaving vertex was its class's last bag member the class leaves
    the bag: the column is then None and the last entry gathers the
    survivors' stored values toward it; otherwise that entry is None.
    """
    ncls = max(pi1) + 1
    cls = pi1[p]
    survivors = [q for q in range(len(pi1)) if q != p]
    new_pi1, cmap = canonical_labels([pi1[q] for q in survivors])
    old_class = list(cmap)  # old label of each new label
    gather = _gather([q * ncls + c for q in survivors for c in old_class])
    if cls in cmap:
        return new_pi1, gather, cmap[cls], None
    return new_pi1, gather, None, _gather([q * ncls + cls for q in survivors])


@_shared_plan
def _drop(labels: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Canonical labels of the bag without position p."""
    return canonical_labels(labels[:p] + labels[p + 1 :])[0]


@_shared_plan
def _pi2_union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical transitive closure of two partitions of the same bag."""
    labels = list(a)
    while True:  # give every class of b, then of a, its least label, until stable
        before = labels
        for part in (b, a):
            least: dict[int, int] = {}
            for c, lab in zip(part, labels):
                least[c] = min(least.get(c, lab), lab)
            labels = [least[c] for c in part]
        if labels == before:
            return canonical_labels(labels)[0]


def solve_connected_nash(
    instance: AshgInstance,
    td: TreeDecomposition | None = None,
    table_cap: int = DEFAULT_TABLE_CAP,
    stats: dict | None = None,
) -> Partition | None:
    """Find a connected Nash Stable partition, or prove there is none.

    Without `td` the DP runs on make_nice(heuristic_decompose(instance)),
    valid by construction and not checked again.  A given `td` must be a
    TreeDecomposition of the instance's own graph (not of its square):
    validate checks it once, ValueError says why it fails, and the DP
    runs on make_nice(td).  Anything else, make_nice's tuple of nodes
    included, is a TypeError.  The first trace in the tables' insertion
    order is returned, so the output is deterministic.  Raises
    ResourceLimitError when a signature table would exceed table_cap.
    """
    if td is None:
        td = heuristic_decompose(instance)
    elif not isinstance(td, TreeDecomposition):
        raise TypeError(f"expected a TreeDecomposition, got {type(td).__name__}")
    else:
        ok, violations = validate(td, instance)
        if not ok:
            raise ValueError("invalid decomposition: " + "; ".join(violations))
    return run_nice_dp(
        make_nice(td), table_cap, EMPTY_SIGNATURE, *_transitions(instance),
        classes=attrgetter("pi1"),
        stats=stats,
    )


def _transitions(instance: AshgInstance) -> tuple[Callable, Callable, Callable]:
    """The INTRODUCE and FORGET step factories and the JOIN step of
    run_nice_dp for one solve.

    Only what reads the game is built here; the plans are shared.
    """
    weight = instance.arcs.get
    nbr_sets = [set(s) for s in instance.neighbors]

    def introduce(nd, child_bag):
        v = nd.vertex
        p = nd.bag.index(v)
        adjacent = tuple(u in nbr_sets[v] for u in child_bag)

        def step(sig):
            pi1, pi2, util, best = sig
            ext = util + _ZERO
            new_best = best[:p] + _ZERO + best[p:]
            return [
                ConnectedSignature(new_pi1, new_pi2, gather(ext), new_best)
                for new_pi1, new_pi2, gather in _placements(pi1, pi2, p, adjacent)
            ]

        return step

    def forget(nd, child_bag):
        x = nd.vertex
        p = child_bag.index(x)
        arcs_from_x = tuple(weight((x, u), 0) for u in child_bag)
        wcol = tuple(weight((u, x), 0) for u in child_bag[:p] + child_bag[p + 1 :])
        plans: dict[tuple[int, ...], tuple] = {}

        def step(sig):
            pi1, pi2, util, best = sig
            plan = plans.get(pi1)
            if plan is None:
                new_pi1, gather, col, column = _forget_plan(pi1, p)
                addvec = None
                if column is None:
                    # x's class stays in the bag: survivors gain w(q, x) toward it
                    ncls = max(new_pi1) + 1
                    vec = [0] * (len(wcol) * ncls)
                    vec[col::ncls] = wcol
                    addvec = tuple(vec)
                plan = plans[pi1] = (_in_bag_sums(pi1, p, arcs_from_x), new_pi1, gather, addvec, column)
            in_bag, new_pi1, gather, addvec, column = plan
            if not forget_filter_passes(sig, p, arcs_from_x, in_bag):
                return None
            new_pi2 = _drop(pi2, p)
            rest = best[:p] + best[p + 1 :]
            if addvec is None:
                # x's class completes: each survivor's final value toward it feeds best
                return ConnectedSignature(
                    new_pi1, new_pi2, gather(util),
                    tuple(map(max, rest, map(add, column(util), wcol))),
                )
            return ConnectedSignature(
                new_pi1, new_pi2, tuple(map(add, gather(util), addvec)), rest
            )

        return step

    def join(left, right):
        return ConnectedSignature(
            left.pi1,
            _pi2_union(left.pi2, right.pi2),
            tuple(map(add, left.util, right.util)),
            tuple(map(max, left.best, right.best)),
        )

    return introduce, forget, join


def signature_of(
    instance: AshgInstance,
    nodes: tuple[NiceNode, ...],
    node_id: int,
    partition: Partition,
) -> ConnectedSignature:
    """The signature a full partition induces at one node, computed directly.

    This is the independent reference for the DP transitions: it looks
    at the real coalitions, restricted to the vertices below the node.
    `util` counts only coalition members already forgotten below the
    node (below it but not in its bag), flat and row-major by bag
    position, as in the module docstring.
    """
    if not (0 <= node_id < len(nodes)):
        raise ValueError(f"node id {node_id} out of range")
    if partition.n != instance.n:
        raise ValueError("partition does not cover the instance")
    bag = nodes[node_id].bag
    below: set[int] = set()  # the union of the bags in the node's subtree
    stack = [node_id]
    while stack:
        nd = nodes[stack.pop()]
        below.update(nd.bag)
        stack.extend(nd.children)
    forgotten = below - set(bag)

    pi1_raw = [partition.class_of(v) for v in bag]
    pi1, _ = canonical_labels(pi1_raw)
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
    pi2, _ = canonical_labels([comp_of[v] for v in bag])

    util = tuple(
        sum(w for u, w in instance.out[x] if u in class_block[c] and u in forgotten)
        for x in bag
        for c in range(nclasses)
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
    nodes: tuple[NiceNode, ...],
    partition: Partition,
) -> bool:
    """Check that a partition's signature trace passes every forget filter.

    For a connected Nash Stable partition this must hold at every FORGET
    node, otherwise the dynamic program would wrongly discard it.
    """
    for nd in nodes:
        if nd.kind != FORGET:
            continue
        child_bag = nodes[nd.children[0]].bag
        sig = signature_of(instance, nodes, nd.children[0], partition)
        arcs_from_x = tuple(instance.arcs.get((nd.vertex, u), 0) for u in child_bag)
        if not forget_filter_passes(sig, child_bag.index(nd.vertex), arcs_from_x):
            return False
    return True
