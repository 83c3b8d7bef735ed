"""Tree decompositions: validation, heuristics, nice form, the DP engine, squaring.

A decomposition is a tree of bags satisfying the usual three axioms:
every vertex is in some bag, every underlying edge is inside some bag,
and the bags holding any fixed vertex form a connected subtree.  Width
is max bag size minus one, floored at 0 for the degenerate empty case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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


def validate(td: TreeDecomposition, instance: AshgInstance) -> tuple[bool, list[str]]:
    """Check the three decomposition axioms plus tree shape.

    Returns (ok, violations); violations are human-readable strings and
    the list is empty iff ok.  One traversal roots the tree; the axioms
    are then checked by _axiom_violations.  Cost O(sum |bag| * max degree
    + m), plus sorting the bag ids and the instance's edges.
    """
    ids = sorted(td.bags)
    if not ids:
        return False, ["decomposition has no bags"]

    # tree shape: connected and acyclic
    shape: list[str] = []
    if len(td.edges) != len(ids) - 1:
        shape.append(
            f"{len(td.edges)} tree edges for {len(ids)} bags (a tree needs {len(ids) - 1})"
        )
    parent: dict[int, int | None] = {ids[0]: None}
    order = [ids[0]]
    for x in order:
        for y in td.neighbors_of(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(parent) != len(ids):
        shape.append("tree is not connected")

    violations = _axiom_violations(ids, td.bags, parent, shape, instance)
    return not violations, violations


def _axiom_violations(
    ids: Iterable[int],
    bags: Mapping[int, frozenset[int]] | Sequence[frozenset[int]],
    parent: Mapping[int, int | None] | Sequence[int | None],
    shape: list[str],
    instance: AshgInstance,
) -> list[str]:
    """The three axioms over the bags bags[i], i in ids, of a tree.

    `shape` holds the tree-shape violations, reported after any unknown
    vertex; parent[i] is bag i's parent (None at the root) and is read
    only when `shape` is empty.  One pass lists, per vertex, the bags
    that hold it.  An edge is then checked against the shorter holder
    list of its two ends, and the bags holding v form a connected
    subtree iff exactly one of them has a parent that does not hold v.
    """
    violations: list[str] = []
    n = instance.n
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    for i in ids:
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
    return violations


def heuristic_decompose(instance: AshgInstance, strategy: str = MIN_DEGREE) -> TreeDecomposition:
    """Elimination-ordering decomposition, deterministic for a fixed input.

    MIN_DEGREE picks the vertex with fewest remaining neighbors, MIN_FILL
    the vertex whose elimination adds the fewest fill edges; both break
    ties toward the lowest vertex id.  Bags are the closed neighborhoods
    at elimination time; each bag hangs off the bag of its earliest
    later-eliminated neighbor.

    MIN_DEGREE keeps a lazy-deletion heap of (degree, vertex) entries,
    one pushed whenever a degree changes, so its cost is
    O(sum |bag|^2 log n).  MIN_FILL still scores every remaining vertex
    at every step, which is quadratic in n; the benchmark does not run it.
    """
    if strategy not in (MIN_DEGREE, MIN_FILL):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = instance.n
    if n == 0:
        return TreeDecomposition({1: frozenset()})

    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in instance.underlying_edges():
        adj[u].add(v)
        adj[v].add(u)

    def fill_count(v: int) -> int:
        nbrs = sorted(adj[v])
        return sum(
            1
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1 :]
            if b not in adj[a]
        )

    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while adj:
        if strategy == MIN_DEGREE:
            # an entry is stale once its vertex is gone or its degree moved
            while True:
                d, v = heapq.heappop(heap)
                if v in adj and len(adj[v]) == d:
                    break
        else:
            v = min(adj, key=lambda x: (fill_count(x), x))
        nbrs = sorted(adj[v])
        bags.append(frozenset([v] + nbrs))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            adj[a].discard(v)
        del adj[v]
        order.append(v)
        if strategy == MIN_DEGREE:
            for a in nbrs:
                heapq.heappush(heap, (len(adj[a]), a))

    pos = {v: i for i, v in enumerate(order)}
    bag_ids = {i: i + 1 for i in range(n)}
    edges = []
    for i in range(n - 1):
        later = [pos[u] for u in bags[i] if pos[u] > i]
        parent = min(later) if later else i + 1
        edges.append((bag_ids[i], bag_ids[parent]))
    return TreeDecomposition({bag_ids[i]: bags[i] for i in range(n)}, edges)


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    kind: str
    bag: tuple[int, ...]
    vertex: int | None
    children: tuple[int, ...]


class NiceTreeDecomposition:
    """Rooted binary nice form: leaf/introduce/forget/join nodes.

    Nodes are stored children-before-parents, so iterating by index is a
    valid bottom-up order; the root is the last node and has an empty
    bag, as do all leaves.
    """

    __slots__ = ("nodes", "root", "_below")

    def __init__(self, nodes: list[NiceNode]):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "root", len(nodes) - 1)
        object.__setattr__(self, "_below", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NiceTreeDecomposition is immutable")

    @property
    def max_bag_size(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0)

    @property
    def width(self) -> int:
        return max(0, self.max_bag_size - 1)

    def vertices_below(self, node_id: int) -> frozenset[int]:
        """Union of bags in the subtree rooted at node_id (inclusive)."""
        cached = self._below
        if cached is None:
            cached = []
            for nd in self.nodes:
                acc = set(nd.bag)
                for c in nd.children:
                    acc |= cached[c]
                cached.append(frozenset(acc))
            object.__setattr__(self, "_below", tuple(cached))
        return self._below[node_id]

    def __repr__(self) -> str:
        return f"NiceTreeDecomposition(nodes={len(self.nodes)}, width={self.width})"


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a decomposition to nice form without increasing the width.

    The lowest bag id is taken as the root; between a bag and its parent
    the out-of-parent vertices are forgotten in ascending order and the
    new ones introduced in ascending order, leaves grow from an empty
    LEAF, and multiple children fold left-to-right through JOIN nodes.
    The final root forgets the root bag down to empty.  Raises
    ValueError when the bags do not form a tree; the other axioms are
    left to validate_nice.
    """
    ids = sorted(td.bags)
    if not ids:
        raise ValueError("decomposition has no bags")
    if len(td.edges) != len(ids) - 1:
        raise ValueError(
            f"{len(td.edges)} tree edges for {len(ids)} bags (a tree needs {len(ids) - 1})"
        )
    root = ids[0]

    parent: dict[int, int | None] = {root: None}
    bfs = [root]
    for x in bfs:
        for y in td.neighbors_of(x):
            if y not in parent:
                parent[y] = x
                bfs.append(y)
    if len(parent) != len(ids):
        raise ValueError("decomposition tree is not connected")
    children: dict[int, list[int]] = {i: [] for i in ids}
    for y, p in parent.items():
        if p is not None:
            children[p].append(y)
    for i in ids:
        children[i].sort()

    nodes: list[NiceNode] = []

    def emit(kind: str, bag: tuple[int, ...], vertex: int | None, kids: tuple[int, ...]) -> int:
        nodes.append(NiceNode(kind, bag, vertex, kids))
        return len(nodes) - 1

    def chain_to(bag_from: frozenset[int], bag_to: frozenset[int], top: int) -> int:
        cur = set(bag_from)
        for v in sorted(bag_from - bag_to):
            cur.discard(v)
            top = emit(FORGET, tuple(sorted(cur)), v, (top,))
        for v in sorted(bag_to - bag_from):
            cur.add(v)
            top = emit(INTRODUCE, tuple(sorted(cur)), v, (top,))
        return top

    top_of: dict[int, int] = {}
    for b in reversed(bfs):  # children before parents
        bag = td.bags[b]
        pieces = []
        for c in children[b]:
            pieces.append(chain_to(td.bags[c], bag, top_of[c]))
        if not pieces:
            top = emit(LEAF, (), None, ())
            cur: set[int] = set()
            for v in sorted(bag):
                cur.add(v)
                top = emit(INTRODUCE, tuple(sorted(cur)), v, (top,))
            pieces.append(top)
        acc = pieces[0]
        for nxt in pieces[1:]:
            acc = emit(JOIN, tuple(sorted(bag)), None, (acc, nxt))
        top_of[b] = acc

    chain_to(td.bags[root], frozenset(), top_of[root])
    return NiceTreeDecomposition(nodes)


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


def run_nice_dp(
    ntd: NiceTreeDecomposition,
    table_cap: int,
    leaf: Hashable,
    introduce: Callable[[NiceNode, tuple[int, ...]], Callable[[Hashable], Iterable[Hashable]]],
    forget: Callable[[NiceNode, tuple[int, ...]], Callable[[Hashable], Hashable | None]],
    join: Callable[[NiceNode], Callable[[Hashable, Hashable], Hashable | None]],
    classes: Callable[[Hashable], tuple[int, ...]],
    stats: dict | None = None,
) -> Partition | None:
    """Run a signature dynamic program bottom-up, then trace one answer back.

    The solver supplies the per-node transitions; each factory is called
    once per node and returns the step applied to that node's signatures:

      leaf                           signature of the empty bag
      introduce(node, child_bag)     sig -> signatures that add node.vertex
      forget(node, child_bag)        sig -> projection without node.vertex, or None
      join(node)                     (left, right) -> merged signature, or None
      classes(sig)                   coalition label of each bag vertex, in
                                     first-occurrence order (0, 1, 2, ...)

    A JOIN pairs only child signatures with equal classes.  Each table maps
    a signature to its back-pointer (the child signature, or the (left,
    right) pair at a JOIN); tables keep insertion order and the first
    derivation of a signature wins, so the traced answer is the first in
    insertion order.  ResourceLimitError is raised as soon as an insert
    takes a table past table_cap.  `stats` receives `width` before the
    walk (so a capped run still reports it), `peak_table` and
    `nice_nodes` after it.

    Returns None when the root table is empty.  Otherwise the first root
    signature is followed down, coalition ids are carried through the
    bags by their classes, and each vertex takes its coalition at its
    FORGET node; vertices must be 1..n, as in a validated decomposition.
    """
    nodes = ntd.nodes
    if stats is not None:
        stats["width"] = ntd.width
    tables: list[dict] = []
    peak = 0
    for idx, nd in enumerate(nodes):
        kind = nd.kind
        if kind == LEAF:
            pairs = ((leaf, None),)
        elif kind == JOIN:
            step2 = join(nd)
            by_classes: dict[tuple[int, ...], list] = {}
            for right in tables[nd.children[1]]:
                by_classes.setdefault(classes(right), []).append(right)
            pairs = (
                (step2(left, right), (left, right))
                for left in tables[nd.children[0]]
                for right in by_classes.get(classes(left), ())
            )
        elif kind == INTRODUCE:
            child = nd.children[0]
            step = introduce(nd, nodes[child].bag)
            pairs = ((sig, old) for old in tables[child] for sig in step(old))
        else:  # FORGET
            child = nd.children[0]
            step = forget(nd, nodes[child].bag)
            pairs = ((step(old), old) for old in tables[child])
        table: dict = {}
        for sig, back in pairs:
            if sig is not None and sig not in table:
                table[sig] = back
                if len(table) > table_cap:
                    raise ResourceLimitError(
                        f"signature table at node {idx} ({kind}) exceeds cap {table_cap}"
                    )
        peak = max(peak, len(table))
        tables.append(table)

    if stats is not None:
        stats["peak_table"] = peak
        stats["nice_nodes"] = len(nodes)

    root_table = tables[ntd.root]
    if not root_table:
        return None
    assign: dict[int, int] = {}
    fresh = 0
    stack = [(ntd.root, next(iter(root_table)), [])]
    while stack:
        idx, sig, ids = stack.pop()
        nd = nodes[idx]
        back = tables[idx][sig]
        if nd.kind == LEAF:
            continue
        if nd.kind == JOIN:
            stack.append((nd.children[0], back[0], ids))
            stack.append((nd.children[1], back[1], ids))
            continue
        child = nd.children[0]
        labels = classes(sig)
        child_labels = classes(back)
        # parent label of each child bag position; None for a forgotten vertex
        if nd.kind == INTRODUCE:
            p = nd.bag.index(nd.vertex)
            aligned = labels[:p] + labels[p + 1 :]
        else:
            p = nodes[child].bag.index(nd.vertex)
            aligned = labels[:p] + (None,) + labels[p:]
        child_ids = [0] * (max(child_labels, default=-1) + 1)
        for lab, parent_lab in zip(child_labels, aligned):
            if parent_lab is not None:
                child_ids[lab] = ids[parent_lab]
        if nd.kind == FORGET:
            lab = child_labels[p]
            if not child_ids[lab]:  # no other bag vertex shares the coalition
                fresh += 1
                child_ids[lab] = fresh
            assign[nd.vertex] = child_ids[lab]
        stack.append((child, back, child_ids))
    return Partition([assign[v] for v in range(1, len(assign) + 1)])


def validate_nice(ntd: NiceTreeDecomposition, instance: AshgInstance) -> tuple[bool, list[str]]:
    """Check nice-form structure plus the decomposition axioms.

    Structure: leaves and the root have empty bags, INTRODUCE adds its
    vertex to the child bag, FORGET removes it, JOIN has two distinct
    children with bags equal to its own.  The axioms are checked on the
    nodes themselves, with the same violations in the same order as
    validate reports for the tree of nodes and child links.
    """
    violations: list[str] = []
    nodes = ntd.nodes
    if not nodes:
        return False, ["nice decomposition has no nodes"]
    for i, nd in enumerate(nodes):
        if tuple(sorted(nd.bag)) != nd.bag:
            violations.append(f"node {i}: bag not sorted")
        # the checks below read child bags only when every child precedes i
        late = [c for c in nd.children if not (0 <= c < i)]
        for c in late:
            violations.append(f"node {i}: child {c} does not precede it")
        if nd.kind == LEAF:
            if nd.bag or nd.children:
                violations.append(f"node {i}: leaf must have empty bag and no children")
        elif nd.kind == INTRODUCE:
            if len(nd.children) != 1:
                violations.append(f"node {i}: introduce needs one child")
            elif not late:
                child = nodes[nd.children[0]]
                if nd.vertex in child.bag or set(nd.bag) != set(child.bag) | {nd.vertex}:
                    violations.append(f"node {i}: introduce of {nd.vertex} inconsistent")
        elif nd.kind == FORGET:
            if len(nd.children) != 1:
                violations.append(f"node {i}: forget needs one child")
            elif not late:
                child = nodes[nd.children[0]]
                if nd.vertex not in child.bag or set(nd.bag) != set(child.bag) - {nd.vertex}:
                    violations.append(f"node {i}: forget of {nd.vertex} inconsistent")
        elif nd.kind == JOIN:
            if len(nd.children) != 2:
                violations.append(f"node {i}: join needs two children")
            elif nd.children[0] == nd.children[1]:
                violations.append(f"node {i}: join children are the same node")
            elif not late and any(nodes[c].bag != nd.bag for c in nd.children):
                violations.append(f"node {i}: join children bags differ")
        else:
            violations.append(f"node {i}: unknown kind {nd.kind!r}")
    if nodes[ntd.root].bag:
        violations.append("root bag is not empty")
    if violations:
        return False, violations

    # tree shape: child links only point to earlier nodes, so when every
    # node but the root is somebody's child, all of them reach the root
    count = len(nodes)
    edges = 0
    parent: list[int | None] = [None] * count
    for i, nd in enumerate(nodes):
        edges += len(nd.children)
        for c in nd.children:
            parent[c] = i
    shape = []
    if edges != count - 1:
        shape.append(f"{edges} tree edges for {count} bags (a tree needs {count - 1})")
    if None in parent[:-1]:
        parent = _root_links(nodes)
        if None in parent[1:]:
            shape.append("tree is not connected")
    # frozen bags iterate and dedupe as a TreeDecomposition's do
    bags = [frozenset(nd.bag) for nd in nodes]
    violations = _axiom_violations(range(count), bags, parent, shape, instance)
    return not violations, violations


def _root_links(nodes: Sequence[NiceNode]) -> list[int | None]:
    """Parents of the nodes reached from node 0 along child links taken both ways.

    Node 0 and every node not reached get None.
    """
    adj: list[list[int]] = [[] for _ in nodes]
    for i, nd in enumerate(nodes):
        for c in nd.children:
            adj[i].append(c)
            adj[c].append(i)
    parent: list[int | None] = [None] * len(nodes)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                stack.append(y)
    return parent


def _distance_two_pairs(instance: AshgInstance) -> set[tuple[int, int]]:
    """Unordered pairs at distance exactly 2 in the underlying graph."""
    pairs: set[tuple[int, int]] = set()
    nbrs = instance.neighbors
    for y in range(1, instance.n + 1):
        row = nbrs[y]
        for i, u in enumerate(row):
            u_nbrs = set(nbrs[u])
            for x in row[i + 1 :]:
                if x not in u_nbrs:
                    pairs.add((u, x))
    return pairs


def square_instance(instance: AshgInstance) -> AshgInstance:
    """The square G^2: add zero-weight arc pairs between distance-2 vertices.

    Utilities are unchanged for every partition, and a coalition can be
    split along distance >= 3 gaps without changing anyone's utility, so G
    has a Nash stable partition exactly when G^2 has a connected one (for
    existence only: a stable coalition of G may be disconnected in G^2).
    """
    arcs = dict(instance.arcs)
    for u, x in _distance_two_pairs(instance):
        arcs[(u, x)] = 0
        arcs[(x, u)] = 0
    return AshgInstance(instance.n, arcs)

