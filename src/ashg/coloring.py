"""The treewidth-based Nash stability solver: a DP over bag partitions.

Vertex u's stability reads only the classes of its check set H(u) = {u}
∪ {t : w(u, t) != 0}: u's sum toward its own class must be nonnegative
and at least its sum toward every other class.  The dynamic program runs on
a decomposition of the check graph, in which x ~ y when some H(u) holds
both, eliminated straight from G's arcs.  Every H(u) is a clique of the
check graph, so it lies in one bag, and the check reads the bag's
partition into classes directly.  The check graph is a subgraph of the
square G^2, equal to it when every arc is nonzero and two-way, so its
treewidth is at most G^2's.  A signature over bag B is that partition, with
at most |B| classes, so no color count ever needs capping.
"""

from __future__ import annotations

from typing import Callable

from .decomposition import (
    DEFAULT_TABLE_CAP,
    _check_table_cap,
    canonical_labels,
    check_sets,
    decompose_check_graph,
    make_nice,
    run_nice_dp,
)
from .game import AshgInstance, Partition


def solve_nash_via_coloring(
    instance: AshgInstance,
    table_cap: int = DEFAULT_TABLE_CAP,
    stats: dict | None = None,
) -> Partition | None:
    """Decide Nash stability by dynamic programming over bag partitions.

    The DP runs on a min-fill decomposition of the check graph, where
    every check set H(u), u and the targets of u's nonzero arcs, is a
    clique and therefore lies inside some bag; decompose_check_graph
    builds it from G's arcs.  A signature records how the current bag is
    split into classes, in canonical first-occurrence order; class names
    never matter because the stability test only compares sums within and
    across classes, and u's test reads only the classes of H(u), all in
    one bag.  So no color budget is needed: a signature over bag B has at
    most |B| classes.  INTRODUCE branches over the existing classes plus
    one fresh class and applies at once the stability test of every bag
    vertex u whose check set just became fully visible.  Those tests read
    u's class sums once per child signature; every class c is then
    decided from the sums alone (v joining u's class adds w(u, v) to u's
    own sum, v joining class c adds it to c's), and a surviving class is
    inserted into the canonical signature in closed form.  FORGET
    projects, JOIN intersects.  The partition returned is the first trace
    in the tables' insertion order, so the output is deterministic.

    Returns a Nash Stable partition or None; raises ResourceLimitError
    when a signature table would exceed table_cap, and ValueError for a
    negative table_cap before any decomposition work.  `stats` receives the
    width of the check graph's decomposition, `peak_table` and
    `nice_nodes`, also when the cap is hit (`peak_table` is then the size
    that crossed it).
    """
    _check_table_cap(table_cap)
    return run_nice_dp(
        make_nice(decompose_check_graph(instance)), table_cap, (), *_transitions(instance),
        classes=lambda sig: sig,
        stats=stats,
    )


def _transitions(instance: AshgInstance) -> tuple[Callable, Callable, Callable]:
    """The INTRODUCE and FORGET step factories and the JOIN step of
    run_nice_dp for one solve.

    A signature is the bag's classes as a canonical label tuple, so the
    two children of a JOIN agree on it exactly and the left one stands.
    The steps are exact on any tree in which every check set lies in some
    bag: the check graph's, or G^2's.
    """
    weight = instance.arcs.get
    check = check_sets(instance)
    # watchers[v]: the u whose check reads v's class, v itself included
    watchers = [[v] for v in range(instance.n + 1)]
    for (u, t), w in instance.arcs.items():
        if w:
            watchers[t].append(u)

    def introduce(nd, child_bag):
        v = nd.vertex
        p = nd.bag.index(v)
        size = len(nd.bag)
        # the checks that can newly pass here: u with v in H(u) and H(u) in
        # the bag, as (u's child position or -1 for v, nonzero arcs to
        # targets other than v by child position, w(u, v))
        bag_set = set(nd.bag)
        pos = None  # built only once some check fires
        checks = []
        for u in watchers[v]:
            if check[u] <= bag_set:
                if pos is None:
                    pos = {u: q for q, u in enumerate(child_bag)}
                arcs = [(pos[t], w) for t, w in instance.out[u] if w and t != v]
                checks.append((pos.get(u, -1), arcs, weight((u, v), 0)))
        shifts: dict[tuple[int, int], tuple[int, ...]] = {}

        def step(sig):
            blocks = (max(sig) + 1) if sig else 0
            alive = range(blocks + 1)
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
            # head already uses exactly the labels 0..m-1, so a class c <= m
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

    def join(left, right):
        return left

    return introduce, forget, join
