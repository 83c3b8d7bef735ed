"""Connected Nash stability by dynamic programming over nice decompositions.

Coalitions must induce connected subgraphs of the underlying graph, so a
bag signature has to remember, besides who is grouped with whom, how
much connectivity each group has already realized strictly inside the
processed part of the tree.  A signature over bag B with processed
vertex set B+ ("below") is the plain tuple (pi1, pi2, util, best):

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

Dominance.  Take two signatures A and B with the same (pi1, pi2).  A
dominates B when, for every bag position q, A's util toward q's own
pi1 class is at least B's, A's util toward every other class is at
most B's, and A's best is at most B's.  Every transition is monotone in
these values:

  INTRODUCE  adds the same zero row and zero column to A and B;
  FORGET     the leaving vertex's own utility is no lower under A and
             every alternative no higher, so the filter passes A whenever
             it passes B; survivors get the same in-bag additions, and a
             completed class feeds best from a column that is never the
             survivor's own class;
  JOIN       adds the same partner's util and maxes its best, and pi2
             merges with the same partner pi2.

So the image of A dominates the image of B at every later node, and
whatever trace completes from B completes from A.  After each FORGET the
solver therefore keeps only the undominated signatures of every
(pi1, pi2) group (_prune).  JOIN tables are left whole: pruning them
cost more time than it saved.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter, le, mul
from typing import Callable, Sequence

from .decomposition import (
    DEFAULT_TABLE_CAP,
    TreeDecomposition,
    canonical_labels,
    heuristic_decompose,
    make_nice,
    run_nice_dp,
    validate,
)
from .errors import _check_nonnegative
from .game import AshgInstance, Partition


_ZERO = (0,)


def _gather(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """C-level tuple -> tuple of the entries at `indices`, in that order."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _stable_leaving(row: tuple[int, ...], best: int, cls: int, in_bag: Sequence[int]) -> bool:
    """The leaving vertex's stability, from its stored row, best and class."""
    full = tuple(map(add, row, in_bag))
    own = full[cls]
    return own >= 0 and own >= best and max(full) <= own


# These plans depend only on bag-local keys, not on the game, so every solve
# in the process shares their (immutable) values.  The bound evicts nothing
# measured: at most 1 114 keys per memo over one benchmark workload (seeds 0
# and 1), and 7 490 after the 5 x 8 grids with weights 0..3 of seeds 0 and 1
# in one process (width 7, peak tables 28 488 and 41 438).
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
    """Everything a FORGET of bag position p reads from pi1 alone:

      new_pi1   pi1 of the bag without p,
      gather    the survivors' util rows with relabelled columns,
      row       slice of the leaving vertex's util row,
      cls       the leaving vertex's class,
      alone     whether it was its class's last bag member,
      classes   per class, a gather of its other bag members' entries
                from a vector over the bag,
      spread    when the class stays in the bag: maps a vector over the
                survivors plus one trailing zero into the new util layout,
                the vector's entries in the class's new column and zeros
                elsewhere; otherwise None,
      column    when the class leaves the bag: gathers the survivors'
                stored values toward it; otherwise None.
    """
    ncls = max(pi1) + 1
    cls = pi1[p]
    survivors = [*range(p), *range(p + 1, len(pi1))]
    new_pi1, cmap = canonical_labels([pi1[q] for q in survivors])
    old_class = list(cmap)  # old label of each new label
    members: list[list[int]] = [[] for _ in range(ncls)]
    for q in survivors:
        members[pi1[q]].append(q)
    alone = not members[cls]
    plan = (
        new_pi1,
        _gather([q * ncls + c for q in survivors for c in old_class]),
        slice(p * ncls, (p + 1) * ncls),
        cls,
        alone,
        tuple(map(_gather, members)),
    )
    if alone:
        return plan + (None, _gather([q * ncls + cls for q in survivors]))
    zero = len(survivors)
    row = [zero] * len(cmap)  # one survivor's row: its entry in the class's column
    spread: list[int] = []
    for i in range(zero):
        row[cmap[cls]] = i
        spread += row
    return plan + (_gather(spread), None)


@_shared_plan
def _drop(pi2: tuple[int, ...], p: int, alone: bool) -> tuple[int, ...] | None:
    """Canonical pi2 of the bag without position p, or None when p's
    realized component is cut off from the rest of its coalition: the
    component is p alone, and p is not `alone` in its pi1 class."""
    if not alone and pi2.count(pi2[p]) == 1:
        return None
    return canonical_labels(pi2[:p] + pi2[p + 1 :])[0]


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


@_shared_plan
def _cost_signs(pi1: tuple[int, ...]) -> tuple[int, ...]:
    """-1 for each util entry toward its row's own class, +1 for the others.

    Multiplied into util they make every entry one to keep low, as best is.
    """
    ncls = max(pi1) + 1
    return tuple(-1 if c == own else 1 for own in pi1 for c in range(ncls))


def _prune(table: dict) -> dict:
    """The entries of `table` that no other signature of their (pi1, pi2) dominates.

    The survivors keep their order and back-pointers.  A signature's cost
    is its sign-flipped util followed by best, so A dominates B exactly
    when A's cost is at most B's everywhere.  A dominator sorts before
    what it dominates, so one pass in cost order meets every dominator
    first, and the costs it keeps are the group's frontier.
    """
    if len(table) < 2:
        return table
    groups: dict[tuple, list] = {}
    for sig in table:
        groups.setdefault(sig[:2], []).append(sig)
    dropped = set()
    for (pi1, _), sigs in groups.items():
        if len(sigs) == 1:
            continue
        signs = _cost_signs(pi1)
        front: list[tuple[int, ...]] = []
        costs = sorted([(tuple(map(mul, sig[2], signs)) + sig[3], sig) for sig in sigs])
        for cost, sig in costs:
            for kept in front:
                if all(map(le, kept, cost)):
                    dropped.add(sig)
                    break
            else:
                front.append(cost)
    if not dropped:
        return table
    return {sig: back for sig, back in table.items() if sig not in dropped}


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
    included, is a TypeError.  After each FORGET only the signatures no
    other one dominates are kept (see the module docstring); the first
    surviving trace in the tables' insertion order is returned, so the
    output is deterministic.  Raises
    ResourceLimitError when a signature table would exceed table_cap, and
    ValueError for a negative table_cap before any decomposition work.
    """
    _check_nonnegative(table_cap, "table cap")
    if td is None:
        td = heuristic_decompose(instance)
    elif not isinstance(td, TreeDecomposition):
        raise TypeError(f"expected a TreeDecomposition, got {type(td).__name__}")
    else:
        ok, violations = validate(td, instance)
        if not ok:
            raise ValueError("invalid decomposition: " + "; ".join(violations))
    return run_nice_dp(
        make_nice(td), table_cap, ((), (), (), ()), *_transitions(instance),
        classes=itemgetter(0),
        stats=stats,
        prune=_prune,
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
                (new_pi1, new_pi2, gather(ext), new_best)
                for new_pi1, new_pi2, gather in _placements(pi1, pi2, p, adjacent)
            ]

        return step

    def forget(nd, child_bag):
        x = nd.vertex
        p = child_bag.index(x)
        arcs_from_x = tuple(weight((x, u), 0) for u in child_bag)
        # w(u, x) for the survivors u, and the zero the spread reads
        wcol = tuple(weight((u, x), 0) for u in child_bag[:p] + child_bag[p + 1 :]) + _ZERO
        plans: dict[tuple[int, ...], tuple] = {}

        def step(sig):
            pi1, pi2, util, best = sig
            plan = plans.get(pi1)
            if plan is None:
                new_pi1, gather, row, cls, alone, classes, spread, column = _forget_plan(pi1, p)
                plan = plans[pi1] = (
                    row, cls, alone, [sum(g(arcs_from_x)) for g in classes], new_pi1, gather,
                    None if spread is None else spread(wcol), column,
                )
            row, cls, alone, in_bag, new_pi1, gather, addvec, column = plan
            new_pi2 = _drop(pi2, p, alone)
            if new_pi2 is None or not _stable_leaving(util[row], best[p], cls, in_bag):
                return None
            rest = best[:p] + best[p + 1 :]
            if addvec is None:
                # x's class completes: each survivor's final value toward it feeds best
                return (
                    new_pi1, new_pi2, gather(util),
                    tuple(map(max, rest, map(add, column(util), wcol))),
                )
            # x's class stays in the bag: survivors gain w(q, x) toward it
            return new_pi1, new_pi2, tuple(map(add, gather(util), addvec)), rest

        return step

    def join(left, right):
        pi1, pi2, util, best = left
        _, right_pi2, right_util, right_best = right
        return (
            pi1,
            pi2 if pi2 == right_pi2 else _pi2_union(pi2, right_pi2),
            tuple(map(add, util, right_util)),
            tuple(map(max, best, right_best)),
        )

    return introduce, forget, join
