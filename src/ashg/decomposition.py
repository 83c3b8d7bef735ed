"""Tree decompositions: validation, heuristics, nice form, the DP engine, squaring.

A decomposition is a tree of bags satisfying the usual three axioms:
every vertex is in some bag, every underlying edge is inside some bag,
and the bags holding any fixed vertex form a connected subtree.  Width
is max bag size minus one, floored at 0 for the degenerate empty case.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import ResourceLimitError
from .game import AshgInstance, Partition

MIN_DEGREE = "min-degree"
MIN_FILL = "min-fill"


class TreeDecomposition:
    """Bags keyed by integer node id plus undirected tree edges."""

    __slots__ = ("bags", "edges", "_adj")

    def __init__(
        self,
        bags: Mapping[int, Iterable[int]],
        edges: Iterable[tuple[int, int]] = (),
    ):
        bag_map = {int(i): frozenset(b) for i, b in bags.items()}
        edge_list = []
        for a, b in edges:
            if a not in bag_map or b not in bag_map:
                raise ValueError(f"tree edge ({a},{b}) references a missing bag")
            if a == b:
                raise ValueError(f"tree edge ({a},{b}) is a self-loop")
            edge_list.append((a, b) if a < b else (b, a))
        if len(set(edge_list)) != len(edge_list):
            raise ValueError("duplicate tree edge")
        adj: dict[int, list[int]] = {i: [] for i in bag_map}
        for a, b in edge_list:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "bags", bag_map)
        object.__setattr__(self, "edges", tuple(sorted(edge_list)))
        object.__setattr__(self, "_adj", {i: tuple(sorted(v)) for i, v in adj.items()})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TreeDecomposition is immutable")

    @property
    def max_bag_size(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0)

    @property
    def width(self) -> int:
        return max(0, self.max_bag_size - 1)

    def neighbors_of(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def __repr__(self) -> str:
        return f"TreeDecomposition(bags={len(self.bags)}, width={self.width})"


def _root(td: TreeDecomposition) -> tuple[list[int], dict[int, int | None], list[str]]:
    """Root the tree at its lowest bag id by breadth-first search.

    Returns (order, parent, problems): the bags reached, in BFS order from
    the root; each reached bag's parent (None at the root); and what keeps
    the bags from forming a tree, if anything: no bags at all (order is
    then empty), a wrong edge count, or a bag the root cannot reach.
    """
    if not td.bags:
        return [], {}, ["decomposition has no bags"]
    problems: list[str] = []
    count = len(td.bags)
    if len(td.edges) != count - 1:
        problems.append(f"{len(td.edges)} tree edges for {count} bags (a tree needs {count - 1})")
    root = min(td.bags)
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for x in order:
        for y in td.neighbors_of(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != count:
        problems.append("tree is not connected")
    return order, parent, problems


def validate(td: TreeDecomposition, instance: AshgInstance) -> tuple[bool, list[str]]:
    """Check the three decomposition axioms plus tree shape.

    Returns (ok, violations); violations are human-readable strings and
    the list is empty iff ok.  One traversal roots the tree and one pass
    lists, per vertex, the bags that hold it.  An edge is then checked
    against the shorter holder list of its two ends, and the bags holding
    v form a connected subtree iff exactly one of them has a parent that
    does not hold v.  Cost O(sum |bag| * max degree + m), plus sorting
    the bag ids and the instance's edges.
    """
    order, parent, shape = _root(td)
    if not order:
        return False, shape

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
    violations.extend(shape)

    for v in range(1, n + 1):
        if not holders[v]:
            violations.append(f"vertex {v} is in no bag")

    for u, v in sorted(instance.underlying_edges()):
        short, other = (u, v) if len(holders[u]) <= len(holders[v]) else (v, u)
        if not any(other in bags[i] for i in holders[short]):
            violations.append(f"edge {{{u},{v}}} is in no bag")

    # connected subtree per vertex (only meaningful if the tree itself is ok)
    if not shape:
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
    the vertex whose elimination adds the fewest fill edges; both break
    ties toward the lowest vertex id.  Bags are the closed neighborhoods
    at elimination time; each bag hangs off the bag of its earliest
    later-eliminated neighbor.

    Both keep a lazy-deletion heap of (score, vertex) entries.  MIN_DEGREE
    re-pushes the eliminated vertex's neighbors, so its cost is
    O(sum |bag|^2 log n); MIN_FILL re-scores every vertex within distance
    2 of it, so its cost grows with the bags' neighborhoods, not with n.
    """
    nbrs = instance.neighbors
    return _eliminate({v: set(nbrs[v]) for v in range(1, instance.n + 1)}, strategy)


def decompose_square(instance: AshgInstance) -> TreeDecomposition:
    """MIN_DEGREE decomposition of the square G^2, built from G's neighbor lists.

    The same as heuristic_decompose(square_instance(instance)), bag for
    bag, without building the square's arcs or instance.
    """
    return _eliminate(_square_adjacency(instance), MIN_DEGREE)


def _square_adjacency(instance: AshgInstance) -> dict[int, set[int]]:
    """G^2's neighbor sets: N(v) ∪ N(N(v)) minus v, for every vertex v."""
    nbrs = instance.neighbors
    adj: dict[int, set[int]] = {}
    for v in range(1, instance.n + 1):
        row = set(nbrs[v])
        for u in nbrs[v]:
            row.update(nbrs[u])
        row.discard(v)
        adj[v] = row
    return adj


def _eliminate(adj: dict[int, set[int]], strategy: str) -> TreeDecomposition:
    """Eliminate the graph adj (vertices 1..n, consumed) by `strategy`; see
    heuristic_decompose."""
    if strategy not in (MIN_DEGREE, MIN_FILL):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = len(adj)
    if n == 0:
        return TreeDecomposition({1: frozenset()})

    def fill_count(nb: set[int]) -> int:
        # pairs of nb with no edge between them: nb - adj[a] holds a and
        # a's non-neighbors in nb, and adjacency is symmetric
        return (sum([len(nb - adj[a]) for a in nb]) - len(nb)) // 2

    # a lazy-deletion heap of (score, vertex) entries: a vertex is pushed
    # whenever its score may have moved, and an entry is stale once its
    # vertex is gone or its score differs from the vertex's current one
    by_degree = strategy == MIN_DEGREE
    score = len if by_degree else fill_count
    heap = [(score(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while adj:
        while True:
            s, v = heapq.heappop(heap)
            if v in adj and score(adj[v]) == s:
                break
        if len(adj[v]) == len(adj) - 1:
            # v sees every other vertex.  With the least degree, all do; with
            # the least fill, no pair is missing, since a vertex of a missing
            # pair would have less fill than v.  So what is left is a clique,
            # every score ties, and both heuristics eliminate it by id
            rest = sorted(adj)
            bags.extend([frozenset(rest[i:]) for i in range(len(rest))])
            order.extend(rest)
            break
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs) | {v})
        for a in nbrs:
            row = adj[a]
            row |= nbrs
            row.discard(a)
            row.discard(v)
        order.append(v)
        # degrees move only in N(v); a fill count moves only where a fill
        # edge lands between two of the vertex's neighbors, so within
        # distance 2 of v
        for a in nbrs if by_degree else nbrs.union(*[adj[a] for a in nbrs]):
            heapq.heappush(heap, (score(adj[a]), a))

    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i in range(n - 1):
        later = [pos[u] for u in bags[i] if pos[u] > i]
        parent = min(later) if later else i + 1
        edges.append((i + 1, parent + 1))
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

    The lowest bag id is taken as the root; between a bag and its parent
    the out-of-parent vertices are forgotten in ascending order and the
    new ones introduced in ascending order, leaves grow from an empty
    LEAF, and multiple children fold left-to-right through JOIN nodes.
    The final root forgets the root bag down to empty.  Every node's
    bag is a subset of an input bag and every input bag appears whole,
    so the nice form is a valid decomposition exactly when `td` is.
    Raises ValueError when the bags do not form a tree; the other
    axioms are left to validate.
    """
    order, parent, problems = _root(td)
    if problems:
        raise ValueError(problems[0])
    # neighbors_of is sorted, so each bag's children arrive in ascending order
    children: dict[int, list[int]] = {i: [] for i in order}
    for y in order[1:]:
        children[parent[y]].append(y)

    nodes: list[NiceNode] = []
    append = nodes.append

    def chain_to(bag_from: frozenset[int], bag_to: frozenset[int], top: int) -> int:
        cur = sorted(bag_from)
        for v in sorted(bag_from - bag_to):
            cur.remove(v)
            append(NiceNode(FORGET, tuple(cur), v, (top,)))
            top = len(nodes) - 1
        for v in sorted(bag_to - bag_from):
            insort(cur, v)
            append(NiceNode(INTRODUCE, tuple(cur), v, (top,)))
            top = len(nodes) - 1
        return top

    top_of: dict[int, int] = {}
    for b in reversed(order):  # children before parents
        bag = td.bags[b]
        pieces = [chain_to(td.bags[c], bag, top_of[c]) for c in children[b]]
        if not pieces:
            append(NiceNode(LEAF, (), None, ()))
            pieces.append(chain_to(frozenset(), bag, len(nodes) - 1))
        acc = pieces[0]
        for nxt in pieces[1:]:
            append(NiceNode(JOIN, tuple(sorted(bag)), None, (acc, nxt)))
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
    insertion order.  ResourceLimitError is raised as soon as an insert
    takes a table past table_cap, ValueError for a negative cap.  `stats`
    receives `width` and `nice_nodes` before the walk and `peak_table`
    after it; a capped run records as `peak_table` the size that crossed
    the cap before the error propagates.

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
    stats["width"] = max(0, max((len(nd.bag) for nd in nodes), default=0) - 1)
    stats["nice_nodes"] = len(nodes)

    def over_cap(idx: int, kind: str, size: int) -> ResourceLimitError:
        stats["peak_table"] = size
        return ResourceLimitError(f"signature table at node {idx} ({kind}) exceeds cap {table_cap}")

    tables: list[dict] = []
    peak = 0
    for idx, nd in enumerate(nodes):
        kind, _, _, kids = nd
        table: dict = {}
        if kind == INTRODUCE:
            step = introduce(nd, nodes[kids[0]].bag)
            for old in tables[kids[0]]:
                for sig in step(old):
                    if sig not in table:
                        table[sig] = old
                        if len(table) > table_cap:
                            raise over_cap(idx, kind, len(table))
        elif kind == FORGET:
            step = forget(nd, nodes[kids[0]].bag)
            for old in tables[kids[0]]:
                sig = step(old)
                if sig is not None and sig not in table:
                    table[sig] = old
                    if len(table) > table_cap:
                        raise over_cap(idx, kind, len(table))
        elif kind == JOIN:
            by_classes: dict[tuple[int, ...], list] = {}
            for right in tables[kids[1]]:
                by_classes.setdefault(classes(right), []).append(right)
            for left in tables[kids[0]]:
                for right in by_classes.get(classes(left), ()):
                    sig = join(left, right)
                    if sig is not None and sig not in table:
                        table[sig] = (left, right)
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
    `gen square` writes this instance; the nash solver never builds it and
    decomposes G^2 with decompose_square instead.
    """
    arcs = dict(instance.arcs)
    nbrs = instance.neighbors
    for u, row in _square_adjacency(instance).items():
        for x in row.difference(nbrs[u]):
            arcs[(u, x)] = 0
    return AshgInstance(instance.n, arcs)
