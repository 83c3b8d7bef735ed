"""Shared samplers and deliberately-naive oracles for cross-validation.

The naive functions here re-derive answers with the dumbest method that
can work (full products, quadratic scans) so the package's own oracles
and solvers can be checked against something with no shared code.
"""

from __future__ import annotations

import itertools

from ashg import (
    AshgInstance,
    CnfFormula,
    Partition,
    is_nash_stable,
)
from ashg.connected import _drop, _forget_plan, _stable_leaving
from ashg.decomposition import FORGET, canonical_labels
from ashg.oracle import _rgs


def stalker():
    """Two vertices, 1 wants 2 and 2 shuns 1: no Nash stable partition."""
    return AshgInstance(2, [(1, 2, 1), (2, 1, -1)])


def friends():
    """Two vertices that like each other: the grand coalition is stable."""
    return AshgInstance(2, [(1, 2, 1), (2, 1, 1)])


def path3():
    """The path 1-2-3 with unit weights both ways."""
    return AshgInstance(3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)])


def two_way_star(n):
    """Center 1 and leaves 2..n, with a unit arc each way on every edge."""
    leaves = range(2, n + 1)
    return AshgInstance(n, [(1, v, 1) for v in leaves] + [(v, 1, 1) for v in leaves])


def uniform_instance(rng, n_max=8, max_degree=4, w_lo=-3, w_hi=3):
    """Sparse digraph with uniform weights and a hard degree cap."""
    n = rng.randint(2, n_max)
    arcs = {}
    deg = [0] * (n + 1)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        if rng.random() < 0.55:
            deg[u] += 1
            deg[v] += 1
            mode = rng.random()
            if mode < 0.45:
                arcs[(u, v)] = rng.randint(w_lo, w_hi)
            elif mode < 0.9:
                arcs[(v, u)] = rng.randint(w_lo, w_hi)
            else:
                arcs[(u, v)] = rng.randint(w_lo, w_hi)
                arcs[(v, u)] = rng.randint(w_lo, w_hi)
    return AshgInstance(n, arcs)


def frustrated_instance(rng, n_max=8, max_degree=4):
    """Chase-heavy digraph (u wants v, v repelled) that is often unstable."""
    n = rng.randint(2, n_max)
    arcs = {}
    deg = [0] * (n + 1)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        if rng.random() < 0.7:
            deg[u] += 1
            deg[v] += 1
            if rng.random() < 0.5:
                u, v = v, u
            r = rng.random()
            if r < 0.6:
                arcs[(u, v)] = rng.randint(1, 3)
                arcs[(v, u)] = -rng.randint(1, 3)
            elif r < 0.8:
                arcs[(u, v)] = rng.randint(1, 3)
            else:
                arcs[(u, v)] = rng.randint(-3, 3) or 1
    return AshgInstance(n, arcs)


def suite_instance(rng, index, n_max=8):
    """Alternating mix; the frustrated half keeps the NONE rate high."""
    if index % 2 == 0:
        return frustrated_instance(rng, n_max)
    return uniform_instance(rng, n_max)


def path_instance(n, rng=None, w_lo=-5, w_hi=5):
    """Path 1-2-...-n with symmetric weights (unit without an rng)."""
    arcs = {}
    for v in range(1, n):
        w = 1 if rng is None else rng.randint(w_lo, w_hi)
        arcs[(v, v + 1)] = w
        arcs[(v + 1, v)] = w
    return AshgInstance(n, arcs)


def grid_instance(rows, cols, rng, w_lo=-3, w_hi=3):
    """rows x cols grid, each direction of each edge weighted independently."""
    arcs = {}
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            for u in ([v + 1] if j + 1 < cols else []) + ([v + cols] if i + 1 < rows else []):
                arcs[(v, u)] = rng.randint(w_lo, w_hi)
                arcs[(u, v)] = rng.randint(w_lo, w_hi)
    return AshgInstance(rows * cols, arcs)


def tree_instance(n, rng, max_degree=3, w_lo=-3, w_hi=3, symmetric=False):
    """Random tree on 1..n with every degree <= max_degree, grown by attaching
    each new vertex to a uniformly chosen vertex that still has room."""
    arcs = {}
    degree = [0] * (n + 1)
    open_vertices = [1]
    for v in range(2, n + 1):
        i = rng.randrange(len(open_vertices))
        u = open_vertices[i]
        w = rng.randint(w_lo, w_hi)
        arcs[(u, v)] = w
        arcs[(v, u)] = w if symmetric else rng.randint(w_lo, w_hi)
        degree[u] += 1
        degree[v] = 1
        if degree[u] == max_degree:
            open_vertices[i] = open_vertices[-1]
            open_vertices.pop()
        open_vertices.append(v)
    return AshgInstance(n, arcs)


def bounded_degree_instance(n, rng, w_lo=-3, w_hi=3, symmetric=False):
    """A random tree of maximum degree 3 on 1..n (tree_instance) plus up to
    n // 6 chords, each between two non-adjacent vertices of degree < 3."""
    tree = tree_instance(n, rng, w_lo=w_lo, w_hi=w_hi, symmetric=symmetric)
    arcs = dict(tree.arcs)
    nbrs = [set(s) for s in tree.neighbors]
    for _ in range(rng.randint(0, n // 6)):
        room = [v for v in range(1, n + 1) if len(nbrs[v]) < 3]
        if len(room) < 2:
            break
        u, v = rng.sample(room, 2)
        if v in nbrs[u]:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        arcs[(u, v)] = w = rng.randint(w_lo, w_hi)
        arcs[(v, u)] = w if symmetric else rng.randint(w_lo, w_hi)
    return AshgInstance(n, arcs)


def random_graph_instance(n, p, rng):
    """G(n, p): each vertex pair joined with probability p, by one arc of
    unit weight."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return AshgInstance(n, {pair: 1 for pair in pairs if rng.random() < p})


def cycle_instance(n, rng, w_lo=-3, w_hi=3):
    """Cycle 1-2-...-n-1, each direction of each edge weighted independently."""
    arcs = {}
    for v in range(1, n + 1):
        u = v % n + 1
        arcs[(v, u)] = rng.randint(w_lo, w_hi)
        arcs[(u, v)] = rng.randint(w_lo, w_hi)
    return AshgInstance(n, arcs)


def caterpillar_instance(n, rng, w_lo=-3, w_hi=3):
    """Path on the first n // 2 vertices (at least 2), each other vertex a
    leaf hung off a random spine vertex of degree < 3."""
    spine = max(2, n // 2)
    arcs = {}
    degree = [0] * (n + 1)
    edges = [(v, v + 1) for v in range(1, spine)]
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for leaf in range(spine + 1, n + 1):
        u = rng.choice([v for v in range(1, spine + 1) if degree[v] < 3])
        degree[u] += 1
        edges.append((u, leaf))
    for u, v in edges:
        arcs[(u, v)] = rng.randint(w_lo, w_hi)
        arcs[(v, u)] = rng.randint(w_lo, w_hi)
    return AshgInstance(n, arcs)


# ---------------------------------------------------------------------------
# naive oracles


def naive_is_stable(instance, partition):
    """Quadratic stability scan, written independently of the package."""
    for v in range(1, instance.n + 1):
        mine = partition.class_of(v)
        own = sum(
            instance.weight(v, u) for u in partition.members(mine) if u != v
        )
        if own < 0:
            return False
        for cid in range(1, partition.num_classes + 1):
            if cid == mine:
                continue
            toward = sum(instance.weight(v, u) for u in partition.members(cid))
            if toward > own:
                return False
    return True


def sorted_first_violation(instance, labels, vertices=None):
    """The stability scan with its best class read off the class ids in
    sorted order, so the first of equal sums is the lowest id by position.

    Reference for `game._first_violation`: the same (vertex, own utility,
    target, target utility) or None for every labeling and vertex order.
    """
    for v in range(1, instance.n + 1) if vertices is None else vertices:
        mine = labels[v - 1]
        sums = {}
        for u, w in instance.out[v]:
            sums[labels[u - 1]] = sums.get(labels[u - 1], 0) + w
        own = sums.get(mine, 0)
        best_c, best = None, own
        for c in sorted(sums):
            if c != mine and sums[c] > best:
                best_c, best = c, sums[c]
        if best_c is not None:
            return v, own, best_c, best
        if own < 0:
            return v, own, None, 0
    return None


def naive_validate(td, instance):
    """Quadratic decomposition check: every vertex and edge scans every bag.

    Reference for `validate`: same violation strings in the same order.
    The tree shape is TreeDecomposition's own check, so this one walks
    the tree only through an adjacency of its own, built from td.edges.
    """
    violations = []
    ids = sorted(td.bags)
    adj = {i: [] for i in ids}
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    for i in ids:
        for v in td.bags[i]:
            if not (1 <= v <= instance.n):
                violations.append(f"bag {i} contains unknown vertex {v}")
    covered = set()
    for b in td.bags.values():
        covered |= b
    for v in range(1, instance.n + 1):
        if v not in covered:
            violations.append(f"vertex {v} is in no bag")
    for u, v in sorted(instance.underlying_edges()):
        if not any(u in b and v in b for b in td.bags.values()):
            violations.append(f"edge {{{u},{v}}} is in no bag")
    for v in range(1, instance.n + 1):
        holding = [i for i in ids if v in td.bags[i]]
        if not holding:
            continue
        reach = {holding[0]}
        stack = [holding[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in holding and y not in reach:
                    reach.add(y)
                    stack.append(y)
        if len(reach) != len(holding):
            violations.append(f"bags holding vertex {v} are not connected in the tree")
    return not violations, violations


def signature_of(instance, nodes, node_id, partition):
    """The signature (pi1, pi2, util, best) a full partition induces at one node.

    This is the independent reference for the connected DP's transitions:
    it looks at the real coalitions, restricted to the vertices below the
    node.  `util` counts only coalition members already forgotten below
    the node (below it but not in its bag), flat and row-major by bag
    position, as in the `ashg.connected` module docstring.
    """
    if not (0 <= node_id < len(nodes)):
        raise ValueError(f"node id {node_id} out of range")
    if partition.n != instance.n:
        raise ValueError("partition does not cover the instance")
    bag = nodes[node_id].bag
    below = set()  # the union of the bags in the node's subtree
    stack = [node_id]
    while stack:
        nd = nodes[stack.pop()]
        below.update(nd.bag)
        stack.extend(nd.children)
    forgotten = below - set(bag)

    pi1_raw = [partition.class_of(v) for v in bag]
    pi1, _ = canonical_labels(pi1_raw)
    nclasses = max(pi1) + 1 if pi1 else 0
    class_block = [set() for _ in range(nclasses)]
    for q, v in enumerate(bag):
        class_block[pi1[q]] = set(partition.members(partition.class_of(v)))

    # realized connectivity: components of (coalition ∩ below)
    comp_of = {}
    comp_count = 0
    for c in range(nclasses):
        part = sorted(class_block[c] & below)
        part_set = set(part)
        seen = set()
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
    return pi1, pi2, util, tuple(best)


def in_bag_sums(pi1, p, arcs_from_x):
    """Utility of the vertex x at bag position p toward each pi1 class's
    other bag members, where arcs_from_x[q] is w(x, bag[q]); the reference
    for the sums the connected DP caches per FORGET plan."""
    return [
        sum(w for q, (lab, w) in enumerate(zip(pi1, arcs_from_x)) if lab == c and q != p)
        for c in range(max(pi1) + 1)
    ]


def plan_in_bag_sums(pi1, p, arcs_from_x):
    """The same sums as the connected DP takes them, from the class gathers
    of its shared FORGET plan."""
    classes = _forget_plan(pi1, p)[5]
    return [sum(g(arcs_from_x)) for g in classes]


def reference_forget(instance):
    """The connected DP's FORGET step factory, every signature worked out
    on its own with list operations: in-bag sums by in_bag_sums, the
    leaving class's column and the survivors' column additions by index,
    and the "alone in its class" flag by counting pi1.
    Reference for `_transitions(instance)[1]`: same signature or None for
    every node and child signature.
    """
    weight = instance.arcs.get

    def forget(nd, child_bag):
        x = nd.vertex
        p = child_bag.index(x)
        arcs_from_x = [weight((x, u), 0) for u in child_bag]
        wcol = [weight((u, x), 0) for u in child_bag if u != x]

        def step(sig):
            pi1, pi2, util, best = sig
            new_pi2 = _drop(pi2, p, pi1.count(pi1[p]) == 1)
            if new_pi2 is None:
                return None
            ncls = max(pi1) + 1
            cls = pi1[p]
            row = util[p * ncls : (p + 1) * ncls]
            if not _stable_leaving(row, best[p], cls, in_bag_sums(pi1, p, arcs_from_x)):
                return None
            survivors = [q for q in range(len(pi1)) if q != p]
            new_pi1, cmap = canonical_labels([pi1[q] for q in survivors])
            new_util = [util[q * ncls + c] for q in survivors for c in cmap]
            rest = [best[q] for q in survivors]
            if cls in cmap:  # survivors gain w(q, x) toward x's class
                new_ncls = len(cmap)
                for i, w in enumerate(wcol):
                    new_util[i * new_ncls + cmap[cls]] += w
            else:  # x's class completes: its final value for each survivor feeds best
                rest = [max(b, util[q * ncls + cls] + w) for b, q, w in zip(rest, survivors, wcol)]
            return new_pi1, new_pi2, tuple(new_util), tuple(rest)

        return step

    return forget


def forget_filter_passes(sig, p, in_bag):
    """Stability-and-connectivity test applied when bag position p is forgotten.

    `in_bag` is the leaving vertex x's utility toward each pi1 class's
    other bag members (as in_bag_sums computes it).  x has its whole
    neighborhood inside B+, so its stored row plus its in-bag class sums
    is its exact utility toward every class, and the checks are exact:
    own utility nonnegative, no better pi1 class, no better completed
    coalition, and its pi2 component must still touch the bag if the
    coalition is supposed to have other members.  The connected DP runs
    the same two kernels, _stable_leaving and _drop.
    """
    pi1, pi2, util, best = sig
    ncls = len(in_bag)
    row = util[p * ncls : (p + 1) * ncls]
    return (_stable_leaving(row, best[p], pi1[p], in_bag)
            and _drop(pi2, p, pi1.count(pi1[p]) == 1) is not None)


def trace_survives_forget_filters(instance, nodes, partition):
    """Check that a partition's signature trace passes every forget filter.

    For a connected Nash Stable partition this must hold at every FORGET
    node, otherwise the dynamic program would wrongly discard it.
    """
    for nd in nodes:
        if nd.kind != FORGET:
            continue
        child_bag = nodes[nd.children[0]].bag
        sig = signature_of(instance, nodes, nd.children[0], partition)
        arcs_from_x = tuple(instance.weight(nd.vertex, u) for u in child_bag)
        p = child_bag.index(nd.vertex)
        if not forget_filter_passes(sig, p, in_bag_sums(sig[0], p, arcs_from_x)):
            return False
    return True


def naive_elimination_bags(instance):
    """Elimination by a min() over all remaining vertices, keyed by (fill
    count, degree, id), the fill count being the non-adjacent neighbor
    pairs and the degree counting only at fill 0, until the least key's
    fill exceeds its degree; from then on it keys by (degree, id).

    Reference for `heuristic_decompose(instance)`: returns the (bags,
    edges) pair it must produce.
    """
    n = instance.n
    if n == 0:
        return {1: frozenset()}, ()
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in instance.underlying_edges():
        adj[u].add(v)
        adj[v].add(u)

    def fill(x):
        pairs = itertools.combinations(sorted(adj[x]), 2)
        return sum(1 for a, b in pairs if b not in adj[a])

    by_degree = False
    order, bags = [], []
    while adj:
        if not by_degree:
            v = min(adj, key=lambda x: (fill(x), 0 if fill(x) else len(adj[x]), x))
            by_degree = fill(v) > len(adj[v])
        if by_degree:
            v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        order.append(v)
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i in range(n - 1):
        later = [pos[u] for u in bags[i] if pos[u] > i]
        parent = min(later) if later else i + 1
        edges.append((min(i, parent) + 1, max(i, parent) + 1))
    return {i + 1: bags[i] for i in range(n)}, tuple(sorted(edges))


def naive_stable_exists(instance):
    """Label-product search over all n^n assignments; only for tiny n."""
    n = instance.n
    if n == 0:
        return True
    for labels in itertools.product(range(n), repeat=n):
        if naive_is_stable(instance, Partition(labels)):
            return True
    return False



def first_stable_coloring(instance, k):
    """First stable k-coloring in enumeration order, as its partition, or None.

    An empty color class pays 0 like the empty coalition, so up to renaming
    colors a stable k-coloring is a Nash stable partition with at most k
    classes.
    """
    return next(
        (p for p in map(Partition, _rgs(instance.n))
         if p.num_classes <= k and is_nash_stable(instance, p)[0]),
        None,
    )

def all_partitions(elements):
    """Every set partition of a list, by recursive first-element placement."""
    elements = list(elements)
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [head]] + sub[i + 1 :]
        yield sub + [[head]]


def bell_numbers(limit):
    """Bell numbers B(0..limit) via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        out.append(nxt[0])
        row = nxt
    return out


def three_partition_feasible(items, target):
    """Can the items be split into triples each summing to target?"""
    items = list(items)
    if not items:
        return True
    first = items[0]
    rest = items[1:]
    for i, j in itertools.combinations(range(len(rest)), 2):
        if first + rest[i] + rest[j] == target:
            remaining = [x for t, x in enumerate(rest) if t not in (i, j)]
            if three_partition_feasible(remaining, target):
                return True
    return False


def bin_packing_feasible(items, capacity, bins):
    """Full product search over bin assignments."""
    for assign in itertools.product(range(bins), repeat=len(items)):
        loads = [0] * bins
        for x, b in zip(items, assign):
            loads[b] += x
        if all(load <= capacity for load in loads):
            return True
    return False


# ---------------------------------------------------------------------------
# CNF helpers


def satisfying_assignments(phi):
    for bits in itertools.product([False, True], repeat=phi.num_vars):
        if phi.is_satisfied_by(bits):
            yield bits


def random_cnf(rng, max_vars=4, max_clauses=3):
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, 3)
        lits = []
        for _ in range(size):
            var = rng.randint(1, num_vars)
            lits.append(var if rng.random() < 0.5 else -var)
        clauses.append(lits)
    return CnfFormula.from_clauses(num_vars, clauses)


def random_satisfiable_cnf(rng, max_vars=4, max_clauses=3):
    """Rejection-sample until some assignment satisfies the formula."""
    while True:
        phi = random_cnf(rng, max_vars, max_clauses)
        sats = list(satisfying_assignments(phi))
        if sats:
            return phi, sats
