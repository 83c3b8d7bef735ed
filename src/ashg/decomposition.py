"""Tree decompositions: validation, heuristics, nice form, the DP engine, squaring.

A decomposition is a tree of bags satisfying the usual three axioms:
every vertex is in some bag, every underlying edge is inside some bag,
and the bags holding any fixed vertex form a connected subtree.  Width
is max bag size minus one, floored at 0 for the degenerate empty case.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import ResourceLimitError
from .game import AshgInstance, Partition

MIN_DEGREE = "min-degree"
MIN_FILL = "min-fill"


class TreeDecomposition:
    """Bags keyed by integer node id plus undirected tree edges, rooted once.

    Raises ValueError unless the bags and edges form one tree.  The root
    is the lowest bag id; `order` lists the bag ids breadth-first from
    it, each bag's neighbors in ascending id, and `parent` maps each bag
    id to its parent's (None at the root).
    """

    __slots__ = ("bags", "edges", "order", "parent")

    def __init__(
        self,
        bags: Mapping[int, Iterable[int]],
        edges: Iterable[tuple[int, int]] = (),
    ):
        bag_map = {int(i): frozenset(b) for i, b in bags.items()}
        if not bag_map:
            raise ValueError("decomposition has no bags")
        edge_list = []
        for a, b in edges:
            if a not in bag_map or b not in bag_map:
                raise ValueError(f"tree edge ({a},{b}) references a missing bag")
            if a == b:
                raise ValueError(f"tree edge ({a},{b}) is a self-loop")
            edge_list.append((a, b) if a < b else (b, a))
        if len(set(edge_list)) != len(edge_list):
            raise ValueError("duplicate tree edge")
        count = len(bag_map)
        if len(edge_list) != count - 1:
            raise ValueError(f"{len(edge_list)} tree edges for {count} bags (a tree needs {count - 1})")
        edge_list.sort()
        # the edges are sorted with a < b, so each node's list comes out sorted:
        # its lower neighbors first, then its higher ones
        adj: dict[int, list[int]] = {i: [] for i in bag_map}
        for a, b in edge_list:
            adj[a].append(b)
            adj[b].append(a)
        root = min(bag_map)
        parent: dict[int, int | None] = {root: None}
        order = [root]
        for x in order:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        if len(order) != count:
            raise ValueError("tree is not connected")
        object.__setattr__(self, "bags", bag_map)
        object.__setattr__(self, "edges", tuple(edge_list))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "parent", parent)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TreeDecomposition is immutable")

    @property
    def max_bag_size(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0)

    @property
    def width(self) -> int:
        return max(0, self.max_bag_size - 1)

    def __repr__(self) -> str:
        return f"TreeDecomposition(bags={len(self.bags)}, width={self.width})"


def validate(td: TreeDecomposition, instance: AshgInstance) -> tuple[bool, list[str]]:
    """Check the three decomposition axioms; the tree shape is the type's.

    Returns (ok, violations); violations are human-readable strings and
    the list is empty iff ok.  One pass lists, per vertex, the bags that
    hold it.  An edge is then checked against the shorter holder list of
    its two ends, and the bags holding v form a connected subtree iff
    exactly one of them has a parent that does not hold v.  Cost
    O(sum |bag| * max degree + m), plus sorting the bag ids and the
    instance's edges.
    """
    violations: list[str] = []
    bags = td.bags
    n = instance.n
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    for i in sorted(bags):
        for v in bags[i]:
            if 1 <= v <= n:
                holders[v].append(i)
            else:
                violations.append(f"bag {i} contains unknown vertex {v}")

    for v in range(1, n + 1):
        if not holders[v]:
            violations.append(f"vertex {v} is in no bag")

    for u, v in sorted(instance.underlying_edges()):
        short, other = (u, v) if len(holders[u]) <= len(holders[v]) else (v, u)
        if not any(other in bags[i] for i in holders[short]):
            violations.append(f"edge {{{u},{v}}} is in no bag")

    parent = td.parent
    for v in range(1, n + 1):
        tops = 0
        for i in holders[v]:
            p = parent[i]
            if p is None or v not in bags[p]:
                tops += 1
        if tops > 1:
            violations.append(f"bags holding vertex {v} are not connected in the tree")
    return not violations, violations


def heuristic_decompose(instance: AshgInstance, strategy: str = MIN_DEGREE) -> TreeDecomposition:
    """Elimination-ordering decomposition of G, deterministic for a fixed input.

    MIN_DEGREE picks the vertex with fewest remaining neighbors, MIN_FILL
    the vertex whose elimination adds the fewest fill edges, and among
    simplicial vertices (no fill edge) the one of least degree; both break
    remaining ties toward the lowest vertex id.  Once the least fill
    exceeds that vertex's degree, MIN_FILL eliminates the rest by least
    degree.  Bags are the closed neighborhoods at elimination time; each
    bag hangs off the bag of its earliest later-eliminated neighbor.

    Both keep a lazy-deletion heap and re-push the eliminated vertex's
    neighbors, so MIN_DEGREE costs O(sum |bag|^2 log n).  MIN_FILL keeps
    every fill count exact as edges come and go: each fill edge ab costs
    O(|N(a)| + |N(b)|) and re-pushes the common neighbors of a and b.  A
    vertex's first count, O(degree^2), is taken when it first reaches the
    top of the heap.  The switch to least degree caps the fill bookkeeping
    at about the cost of the elimination itself.
    """
    nbrs = instance.neighbors
    return _eliminate({v: set(nbrs[v]) for v in range(1, instance.n + 1)}, strategy)


def decompose_check_graph(instance: AshgInstance) -> TreeDecomposition:
    """MIN_FILL decomposition of the check graph, built from G's arcs.

    Vertex u's check set is H(u) = {u} ∪ {t : w(u, t) != 0}, all the
    vertices u's stability reads; in the check graph x ~ y when some H(u)
    holds both.  It is a subgraph of G^2, equal to it when every arc is
    nonzero and two-way.  Every H(u) is a clique, so it lies in one bag.
    """
    return _eliminate(_clique_adjacency(instance.n, check_sets(instance)), MIN_FILL)


def check_sets(instance: AshgInstance) -> list[frozenset[int]]:
    """H(u) for u = 1..n at index u; index 0 holds the empty set."""
    check = [[u] for u in range(instance.n + 1)]
    check[0] = []
    for (u, t), w in instance.arcs.items():
        if w:
            check[u].append(t)
    return list(map(frozenset, check))


def _clique_adjacency(n: int, sets: Iterable[frozenset[int]]) -> dict[int, set[int]]:
    """The graph on 1..n in which x ~ y when some one of `sets` holds both."""
    rows: list[set[int]] = [set() for _ in range(n + 1)]
    for members in sets:
        for x in members:
            rows[x] |= members
    for v in range(1, n + 1):
        rows[v].discard(v)
    return dict(zip(range(1, n + 1), rows[1:]))


def _eliminate(adj: dict[int, set[int]], strategy: str) -> TreeDecomposition:
    """Eliminate the graph adj (vertices 1..n, consumed) by `strategy`; see
    heuristic_decompose."""
    if strategy not in (MIN_DEGREE, MIN_FILL):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = len(adj)
    if n == 0:
        return TreeDecomposition({1: frozenset()})

    # A lazy-deletion heap of (fill, tie, vertex) entries, where tie is the
    # degree for a simplicial vertex (fill 0) and 0 otherwise; min-degree
    # keeps every fill at 0.  An entry is stale once its vertex is gone or
    # its key differs from the vertex's current one.  `score` holds each
    # vertex's exact fill count, taken the first time the vertex reaches
    # the top of the heap and kept exact from then on; until then its key
    # (0, degree) is a lower bound, so the pick order is the same as with
    # every count taken up front.
    by_degree = strategy == MIN_DEGREE
    score: dict[int, int] = {}
    heap = [(0, len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while adj:
        f, e, v = heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None:
            continue
        d = len(nbrs)
        s = 0
        if not by_degree:
            s = score.get(v)
            if s is None:
                # pairs of nbrs with no edge between them: nbrs - adj[a]
                # holds a and a's non-neighbors in nbrs.  A single pair, the
                # common case on sparse graphs, takes one lookup
                if d == 2:
                    a, b = nbrs
                    s = score[v] = int(b not in adj[a])
                else:
                    s = score[v] = (sum([len(nbrs - adj[a]) for a in nbrs]) - d) // 2
                if s:
                    heappush(heap, (s, 0, v))
                    continue
        if f != s or e != (0 if s else d):
            continue
        if s > d:
            # the fill bookkeeping would now cost more than the elimination
            # itself: eliminate the rest by least degree
            by_degree = True
            heap = [(0, len(row), u) for u, row in adj.items()]
            heapq.heapify(heap)
            continue
        if d == len(adj) - 1:
            # v sees every other vertex.  With the least degree, all do; with
            # the least fill, no pair is missing, since a vertex of a missing
            # pair would have less fill than v.  So what is left is a clique,
            # every key ties but the id, and both heuristics eliminate it by id
            rest = sorted(adj)
            bags.extend([frozenset(rest[i:]) for i in range(len(rest))])
            order.extend(rest)
            break
        del adj[v]
        bags.append(frozenset(nbrs) | {v})
        order.append(v)
        if by_degree:
            for a in nbrs:
                row = adj[a]
                row |= nbrs
                row.discard(a)
                row.discard(v)
                heappush(heap, (0, len(row), a))
            continue
        # dropping v from N(a) loses the pairs (v, c) with c outside N(v);
        # a vertex of fill 0 has none, as N(a) is then a clique holding v.
        # With no fill edge (v simplicial) only N(v)'s keys move
        for a in nbrs:
            row = adj[a]
            row.discard(v)
            f = score.get(a)
            if f:
                f = score[a] = f - len(row - nbrs)
            if not s:
                heappush(heap, (f or 0, 0 if f else len(row), a))
        if not s:
            continue
        # each fill edge ab closes the pair ab in N(c) for every common
        # neighbor c, and opens the pairs (b, x), x in N(a) - N(b), in N(a),
        # and the same way in N(b)
        moved = set()
        for a in nbrs:
            ra = adj[a]
            for b in nbrs - ra:
                if b == a:
                    continue
                rb = adj[b]
                for c in ra & rb:
                    if c in score:
                        score[c] -= 1
                        moved.add(c)
                if a in score:
                    score[a] += len(ra - rb)
                if b in score:
                    score[b] += len(rb - ra)
                ra.add(b)
                rb.add(a)
        for a in nbrs:
            f = score.get(a, 0)
            heappush(heap, (f, 0 if f else len(adj[a]), a))
        for c in moved - nbrs:
            f = score[c]
            heappush(heap, (f, 0 if f else len(adj[c]), c))

    # bag i hangs off the bag of its earliest other vertex, all of whose
    # positions are above i; a bag of one vertex hangs off bag i + 1
    pos = {v: i for i, v in enumerate(order)}.__getitem__
    edges = []
    for i in range(n - 1):
        later = sorted(map(pos, bags[i]))
        edges.append((i + 1, (later[1] if len(later) > 1 else i + 1) + 1))
    return TreeDecomposition({i + 1: bag for i, bag in enumerate(bags)}, edges)


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceNode(NamedTuple):
    kind: str
    bag: tuple[int, ...]
    vertex: int | None
    children: tuple[int, ...]


def make_nice(td: TreeDecomposition) -> tuple[NiceNode, ...]:
    """Convert a decomposition to nice form without increasing the width.

    Nodes come children before parents, so iterating by index is a valid
    bottom-up order; the root is the last node and has an empty bag, as
    do all leaves.

    The tree is rooted as `td` roots it; between a bag and its parent
    the out-of-parent vertices are forgotten in ascending order and the
    new ones introduced in ascending order, leaves grow from an empty
    LEAF, and multiple children fold left-to-right through JOIN nodes.
    The final root forgets the root bag down to empty.  Every node's
    bag is a subset of an input bag and every input bag appears whole,
    so the nice form is a valid decomposition exactly when `td` is; the
    axioms are left to validate.
    """
    order, parent = td.order, td.parent
    # order visits neighbors in ascending id, so each bag's children arrive
    # in ascending order
    children: dict[int, list[int]] = {i: [] for i in order}
    for y in order[1:]:
        children[parent[y]].append(y)

    nodes: list[NiceNode] = []
    append = nodes.append
    node = tuple.__new__  # NiceNode's own __new__ is a Python-level call

    def chain_to(bag_from: frozenset[int], bag_to: frozenset[int], top: int) -> int:
        if bag_from == bag_to:
            return top
        cur = sorted(bag_from)
        for v in sorted(bag_from - bag_to):
            cur.remove(v)
            append(node(NiceNode, (FORGET, tuple(cur), v, (top,))))
            top = len(nodes) - 1
        for v in sorted(bag_to - bag_from):
            insort(cur, v)
            append(node(NiceNode, (INTRODUCE, tuple(cur), v, (top,))))
            top = len(nodes) - 1
        return top

    top_of: dict[int, int] = {}
    for b in reversed(order):  # children before parents
        bag = td.bags[b]
        pieces = [chain_to(td.bags[c], bag, top_of[c]) for c in children[b]]
        if not pieces:
            append(node(NiceNode, (LEAF, (), None, ())))
            pieces.append(chain_to(frozenset(), bag, len(nodes) - 1))
        acc = pieces[0]
        for nxt in pieces[1:]:
            append(node(NiceNode, (JOIN, tuple(sorted(bag)), None, (acc, nxt))))
            acc = len(nodes) - 1
        top_of[b] = acc

    chain_to(td.bags[order[0]], frozenset(), top_of[order[0]])
    return tuple(nodes)


def canonical_labels(labels: Iterable[int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """Relabel to first-occurrence order 0, 1, 2, ...; also return the old -> new
    map, whose keys are in new-label order."""
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out), remap


DEFAULT_TABLE_CAP = 1_000_000


def _check_table_cap(table_cap: int) -> None:
    """Both solvers and `ashg solve` call this before any decomposition
    work, so a bad cap costs nothing."""
    if table_cap < 0:
        raise ValueError(f"table cap must be nonnegative, got {table_cap}")


def run_nice_dp(
    nodes: tuple[NiceNode, ...],
    table_cap: int,
    leaf: Hashable,
    introduce: Callable[[NiceNode, tuple[int, ...]], Callable[[Hashable], Iterable[Hashable]]],
    forget: Callable[[NiceNode, tuple[int, ...]], Callable[[Hashable], Hashable | None]],
    join: Callable[[Hashable, Hashable], Hashable | None],
    classes: Callable[[Hashable], tuple[int, ...]],
    stats: dict | None = None,
    prune: Callable[[dict], dict] | None = None,
) -> Partition | None:
    """Run a signature dynamic program bottom-up, then trace one answer back.

    `nodes` is a nice decomposition as make_nice returns it, root last.
    The solver supplies the transitions; the INTRODUCE and FORGET
    factories are called once per node and return the step applied to
    that node's signatures:

      leaf                           signature of the empty bag
      introduce(node, child_bag)     sig -> signatures that add node.vertex
      forget(node, child_bag)        sig -> projection without node.vertex, or None
      join(left, right)              merged signature, or None
      classes(sig)                   coalition label of each bag vertex, in
                                     first-occurrence order (0, 1, 2, ...)

    A JOIN pairs only child signatures with equal classes.  Each table maps
    a signature to its back-pointer (the child signature, or the (left,
    right) pair at a JOIN); tables keep insertion order and the first
    derivation of a signature wins, so the traced answer is the first in
    insertion order.  `prune`, when given, maps each finished FORGET table
    to the entries it keeps, in their order and with their back-pointers;
    every later table is built from the kept ones only.  A FORGET table is
    never larger than its child, so the cap has acted before any pruning.
    ResourceLimitError is raised as soon as an insert takes a table past
    table_cap, ValueError for a negative cap.  `stats` receives `width`
    and `nice_nodes` before the walk and `peak_table` (of the kept
    entries) after it; a capped run records as `peak_table` the size that
    crossed the cap before the error propagates.

    Returns None when the root table is empty.  Otherwise the first root
    signature is followed down its back-pointers.  The root bag is empty,
    so every vertex in a node's bag was forgotten at an ancestor and
    already has its coalition: only FORGET nodes assign one.  The leaving
    vertex joins a bag vertex that shares its class in the child
    signature, or opens a coalition of its own.  Vertices must be 1..n,
    each forgotten once, as in a validated decomposition.
    """
    _check_table_cap(table_cap)
    if stats is None:
        stats = {}
    stats["width"] = max(0, max(map(len, map(itemgetter(1), nodes)), default=0) - 1)
    stats["nice_nodes"] = len(nodes)

    def over_cap(idx: int, kind: str, size: int) -> ResourceLimitError:
        stats["peak_table"] = size
        return ResourceLimitError(f"signature table at node {idx} ({kind}) exceeds cap {table_cap}")

    tables: list[dict] = []
    peak = 0
    for idx, nd in enumerate(nodes):
        kind, _, _, kids = nd
        table: dict = {}
        insert = table.setdefault  # one hash per insert; the first derivation stays
        if kind == INTRODUCE:
            step = introduce(nd, nodes[kids[0]].bag)
            for old in tables[kids[0]]:
                for sig in step(old):
                    insert(sig, old)
                    if len(table) > table_cap:
                        raise over_cap(idx, kind, len(table))
        elif kind == FORGET:
            step = forget(nd, nodes[kids[0]].bag)
            # no cap check: each child signature maps to at most one signature
            for old in tables[kids[0]]:
                sig = step(old)
                if sig is not None:
                    insert(sig, old)
            if prune is not None:
                table = prune(table)
        elif kind == JOIN:
            by_classes: dict[tuple[int, ...], list] = {}
            for right in tables[kids[1]]:
                by_classes.setdefault(classes(right), []).append(right)
            for left in tables[kids[0]]:
                for right in by_classes.get(classes(left), ()):
                    sig = join(left, right)
                    if sig is not None:
                        insert(sig, (left, right))
                        if len(table) > table_cap:
                            raise over_cap(idx, kind, len(table))
        else:  # LEAF
            table[leaf] = None
        if len(table) > peak:
            peak = len(table)
        tables.append(table)

    stats["peak_table"] = peak

    root = len(nodes) - 1
    root_table = tables[root]
    if not root_table:
        return None
    assign: dict[int, int] = {}
    stack = [(root, next(iter(root_table)))]
    while stack:
        idx, sig = stack.pop()
        kind, bag, x, kids = nodes[idx]
        back = tables[idx][sig]
        if kind == JOIN:
            stack.append((kids[0], back[0]))
            stack.append((kids[1], back[1]))
        elif kind != LEAF:
            stack.append((kids[0], back))
            if kind == FORGET:
                labels = classes(back)
                p = nodes[kids[0]].bag.index(x)
                lab = labels[p]
                # the node's bag is the child's without x, position for position
                rest = labels[:p] + labels[p + 1 :]
                assign[x] = assign[bag[rest.index(lab)]] if lab in rest else x
    return Partition([assign[v] for v in range(1, len(assign) + 1)])


def square_instance(instance: AshgInstance) -> AshgInstance:
    """The square G^2: add zero-weight arc pairs between distance-2 vertices.

    Utilities are unchanged for every partition, and a coalition can be
    split along distance >= 3 gaps without changing anyone's utility, so G
    has a Nash stable partition exactly when G^2 has a connected one (for
    existence only: a stable coalition of G may be disconnected in G^2).
    `gen square` writes this instance.  G^2 is the graph in which x ~ y
    when some closed neighborhood N[u] holds both.
    """
    arcs = dict(instance.arcs)
    nbrs = instance.neighbors
    closed = [frozenset((u, *nbrs[u])) for u in range(1, instance.n + 1)]
    for u, row in _clique_adjacency(instance.n, closed).items():
        for x in row.difference(nbrs[u]):
            arcs[(u, x)] = 0
    return AshgInstance(instance.n, arcs)
