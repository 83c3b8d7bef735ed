"""Instance generators that embed hard source problems, plus witnesses.

Each generator sizes its construction from the inputs and refuses one
past MAX_VERTICES or MAX_ARCS before building anything.  The four
embeddings return (instance, layout): the layout records the gadgets'
vertex ids and the vertex count `n`.  Each witness builder takes that
layout and a certificate of the source problem (satisfying assignment,
triple cover, packing) and returns a partition that passes the
stability verifiers, without building the instance again.
`square_instance`, which `gen square` writes, adds zero-weight arcs to a
given game and returns an instance with no layout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .game import _MAX_REPRESENTABLE, MAX_ARCS, MAX_VERTICES, AshgInstance, Partition


@dataclass(frozen=True)
class CnfFormula:
    """CNF with exactly three literal slots per clause.

    Variables are x_0..x_{num_vars-1}; a literal is the signed integer
    ±(index + 1) as in DIMACS.  Slots may repeat (shorter clauses are
    padded by repetition in from_clauses).
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for ci, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause {ci} does not have exactly 3 literal slots")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {ci} has invalid literal {lit}")

    @classmethod
    def from_clauses(cls, num_vars: int, clauses) -> "CnfFormula":
        padded = []
        for clause in clauses:
            lits = list(clause)
            if not 1 <= len(lits) <= 3:
                raise ValueError(f"clause {lits} must have 1..3 literals")
            while len(lits) < 3:
                lits.append(lits[-1])
            padded.append(tuple(lits))
        return cls(num_vars, tuple(padded))

    def is_satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError(
                f"assignment has {len(assignment)} values for {self.num_vars} variables"
            )
        return all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


class _Builder:
    """Arc accumulator that rejects accidental duplicate ordered pairs."""

    def __init__(self):
        self.arcs: dict[tuple[int, int], int] = {}
        self.count = 0

    def vertex(self) -> int:
        self.count += 1
        return self.count

    def arc(self, u: int, v: int, w: int) -> None:
        if (u, v) in self.arcs:
            raise AssertionError(f"generator bug: duplicate arc ({u},{v})")
        self.arcs[(u, v)] = w

    def instance(self) -> AshgInstance:
        return AshgInstance(self.count, self.arcs)


def _check_size(what: str, vertices: int, arcs: int) -> None:
    """Refuse a construction past MAX_VERTICES or MAX_ARCS before it is built."""
    if vertices > MAX_VERTICES:
        raise ValueError(f"{what} needs {vertices} vertices, above the limit {MAX_VERTICES}")
    if arcs > MAX_ARCS:
        raise ValueError(f"{what} needs {arcs} arcs, above the limit {MAX_ARCS}")


def square_instance(instance: AshgInstance) -> AshgInstance:
    """The square G^2: add zero-weight arc pairs between distance-2 vertices.

    Utilities are unchanged for every partition, and a coalition can be
    split along distance >= 3 gaps without changing anyone's utility, so G
    has a Nash stable partition exactly when G^2 has a connected one (for
    existence only: a stable coalition of G may be disconnected in G^2).
    `gen square` writes this instance.  G^2 is the graph in which x ~ y
    when some closed neighborhood N[u] holds both.  ValueError refuses a
    square past MAX_ARCS, counted one row at a time before it is built.
    """
    nbrs = instance.neighbors
    closed = [frozenset((u, *nbrs[u])) for u in range(1, instance.n + 1)]

    def new_rows():  # per u: the union of N[x] over x in N[u], minus N[u]
        return (frozenset().union(*[closed[x - 1] for x in row]) - row for row in closed)

    count = len(instance.arcs)
    for row in new_rows():
        count += len(row)
        if count > MAX_ARCS:
            raise ValueError(f"the square needs at least {count} arcs, above the limit {MAX_ARCS}")
    arcs = dict(instance.arcs)
    for u, row in enumerate(new_rows(), 1):
        arcs.update(((u, x), 0) for x in row)
    return AshgInstance(instance.n, arcs)


def _bits(assignment: Sequence[bool], start: int, width: int) -> int:
    """Integer whose bit i is assignment[start + i]; bits past the end read 0."""
    return sum(1 << i for i, value in enumerate(assignment[start : start + width]) if value)


def _first_satisfied_slot(clause: tuple[int, int, int], assignment: Sequence[bool]) -> int:
    """Index of the first literal slot of `clause` that `assignment` satisfies."""
    return next(a for a, lit in enumerate(clause) if assignment[abs(lit) - 1] == (lit > 0))


# ---------------------------------------------------------------------------
# SAT embedding with a degree parameter (weights up to 4^degree)


@dataclass(frozen=True)
class SatHighDegreeLayout:
    num_vars: int
    num_clauses: int
    degree: int  # rounded up to a power of two
    bit_width: int  # log2(degree): variables encoded per selection vertex
    block: int  # degree * bit_width: variables encoded per row
    rows: int  # encoding rows 0..rows-1; row `rows` is the anchor row
    palette: int
    palette_partner: int
    selection: dict[tuple[int, int, int], int]  # (row, slot, column) -> id
    consistency: dict[tuple[int, int], int]  # (row, column) -> id
    clause_hub: dict[int, int]  # column -> id
    clause_partner: dict[int, int]
    literal: dict[tuple[int, int], int]  # (column, slot 0..2) -> id
    n: int  # vertex count

    def var_coords(self, k: int) -> tuple[int, int, int]:
        """Row, slot and bit position encoding variable x_k."""
        i1, rest = divmod(k, self.block)
        i2, i3 = divmod(rest, self.bit_width)
        return i1, i2, i3


def gen_sat_high_degree(phi: CnfFormula, degree: int) -> tuple[AshgInstance, SatHighDegreeLayout]:
    """Embed a 3-CNF into a game whose stable partitions encode assignments.

    `degree` (rounded up to a power of two, at least 2) controls how many
    variables each selection vertex carries; weights reach 4^degree.  A
    grid of selection vertices (one row block per degree*log2(degree)
    variables, one column per clause, plus one anchor row) is pulled into
    `degree` row-coalitions seeded by an anchor pair; consistency
    vertices force equal choices across columns, and each clause column
    has a hub that a literal vertex can only leave when its literal is
    satisfied by the encoded assignment.  Raises ValueError, before
    building anything, when the construction would exceed MAX_VERTICES
    or MAX_ARCS or break AshgInstance's n*W guard.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    d = 1 << (degree - 1).bit_length()
    n, m = phi.num_vars, len(phi.clauses)
    log_d = d.bit_length() - 1
    block = d * log_d
    rows = -(-n // block)  # ceil; encoding rows 0..rows-1, anchor row = rows
    # size the construction before building any of it: palette pair,
    # selection grid, consistency vertices and five vertices per clause;
    # arcs: the palette's, 4d per consistency vertex, 10 + 3d per clause
    vertices = 2 + (rows + 1) * (d * m + max(m - 1, 0)) + 5 * m
    arcs = 2 + (2 * d if m else 0) + 4 * d * (rows + 1) * max(m - 1, 0) + (10 + 3 * d) * m
    _check_size(f"degree {d}", vertices, arcs)
    # consistency arcs (two or more clauses) weigh up to 4^d
    if m >= 2 and vertices * 4**d > _MAX_REPRESENTABLE // 4:
        raise ValueError(
            f"degree {d} needs weights up to 4^{d}, past the arithmetic guard "
            f"for {vertices} vertices"
        )
    if n >= 2 and d >= n / math.log2(n):
        warnings.warn(
            f"degree {d} is not below n/log2(n) = {n / math.log2(n):.2f}; "
            "the construction is emitted anyway",
            stacklevel=2,
        )

    b = _Builder()
    p = b.vertex()
    pp = b.vertex()
    row_ids = range(d if m >= 1 else 0)  # no clause, no selection vertex
    sel = {
        (i1, i2, j): b.vertex()
        for i1 in range(rows + 1)
        for i2 in row_ids
        for j in range(1, m + 1)
    }
    cons = {
        (i1, j): b.vertex()
        for i1 in range(rows + 1)
        for j in range(1, m)
    }
    hub = {}
    partner = {}
    lit_v = {}
    for j in range(1, m + 1):
        hub[j] = b.vertex()
        partner[j] = b.vertex()
        for a in range(3):
            lit_v[(j, a)] = b.vertex()

    b.arc(p, pp, 1)
    b.arc(pp, p, 1)
    for i2 in row_ids:
        b.arc(p, sel[(rows, i2, 1)], 1)
        b.arc(sel[(rows, i2, 1)], p, -1)

    for (i1, j), c in cons.items():
        for i2 in range(d):
            b.arc(c, sel[(i1, i2, j)], 4**i2)
            b.arc(c, sel[(i1, i2, j + 1)], -(4**i2))
            b.arc(sel[(i1, i2, j)], c, -(4**d))
            b.arc(sel[(i1, i2, j + 1)], c, -(4**d))

    layout = SatHighDegreeLayout(
        num_vars=n,
        num_clauses=m,
        degree=d,
        bit_width=log_d,
        block=block,
        rows=rows,
        palette=p,
        palette_partner=pp,
        selection=sel,
        consistency=cons,
        clause_hub=hub,
        clause_partner=partner,
        literal=lit_v,
        n=b.count,
    )

    for j, clause in enumerate(phi.clauses, start=1):
        b.arc(hub[j], partner[j], 2)
        for a, lit in enumerate(clause):
            lv = lit_v[(j, a)]
            b.arc(lv, hub[j], 2)
            b.arc(hub[j], lv, -1)
            k = abs(lit) - 1
            i1, i2, i3 = layout.var_coords(k)
            b.arc(lv, sel[(i1, i2, j)], 1)
            for alt in range(d):
                bit = (alt >> i3) & 1
                satisfied = bit == 1 if lit > 0 else bit == 0
                b.arc(lv, sel[(rows, alt, j)], 1 if satisfied else 0)

    return b.instance(), layout


def witness_sat_high_degree(
    phi: CnfFormula, layout: SatHighDegreeLayout, assignment: Sequence[bool]
) -> Partition:
    """Partition certifying stability for a satisfying assignment.

    `layout` is the one gen_sat_high_degree returned for `phi`.
    """
    if not phi.is_satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the formula")
    if (layout.num_vars, layout.num_clauses) != (phi.num_vars, len(phi.clauses)):
        raise ValueError("layout was generated for another formula")
    m, d, width = layout.num_clauses, layout.degree, layout.bit_width

    blocks: list[list[int]] = [[layout.palette, layout.palette_partner]]
    blocks.extend([c] for c in layout.consistency.values())
    row_ids = range(d if m >= 1 else 0)  # no clause, no selection vertex
    row_block: dict[int, list[int]] = {
        i2: [layout.selection[(layout.rows, i2, j)] for j in range(1, m + 1)] for i2 in row_ids
    }
    # selection vertex (i1, i2) carries the bits of x_k for k from
    # (i1 * d + i2) * width on; their value names its anchor row
    for i1 in range(layout.rows):
        for i2 in row_ids:
            choice = _bits(assignment, (i1 * d + i2) * width, width)
            row_block[choice].extend(
                layout.selection[(i1, i2, j)] for j in range(1, m + 1)
            )
    for j, clause in enumerate(phi.clauses, start=1):
        chosen = _first_satisfied_slot(clause, assignment)
        k = abs(clause[chosen]) - 1
        row_block[_bits(assignment, k - k % width, width)].append(layout.literal[(j, chosen)])
        blocks.append(
            [layout.clause_hub[j], layout.clause_partner[j]]
            + [layout.literal[(j, a)] for a in range(3) if a != chosen]
        )
    blocks.extend(row_block.values())
    return Partition.from_blocks(blocks, layout.n)


# ---------------------------------------------------------------------------
# SAT embedding with weights in {-2,-1,1,2} and constant degree


@dataclass(frozen=True)
class SatBoundedDegreeLayout:
    num_vars: int  # after rounding up to a power of 4
    original_vars: int
    num_clauses: int
    side: int  # sqrt(num_vars): number of palette paths
    half_bits: int  # log2(num_vars)/2: variables per selection path
    length: int  # path length: clauses + num_vars
    num_selection: int
    palette: dict[tuple[int, int], int]  # (path, column) -> id
    selection: dict[tuple[int, int], int]
    pair_a: dict[tuple[int, int], int]  # (path, path') -> id
    pair_b: dict[tuple[int, int], int]
    literal_path: dict[tuple[int, int, int], int]  # (column, slot, step) -> id
    checker: dict[tuple[int, int, int], int]  # (column, slot, palette path) -> id
    checker_order: dict[int, tuple[tuple[int, int, int], ...]]  # column -> keys
    or_main: dict[tuple[int, int], int]  # (column, 1-based index) -> id
    or_partner: dict[tuple[int, int], int]
    or_blocker: dict[tuple[int, int], int]
    n: int  # vertex count


def gen_sat_bounded_degree(phi: CnfFormula) -> tuple[AshgInstance, SatBoundedDegreeLayout]:
    """Embed a 3-CNF with all weights in {-2,-1,1,2} and bounded degree.

    The variable count is rounded up to a power of 4 with dummy
    variables.  sqrt(n) palette paths act as group identities; each
    selection path must follow one of them, encoding log2(n)/2 variable
    values by its choice.  Pair gadgets keep distinct palette paths in
    distinct coalitions, literal paths feed each clause's checkers, and
    a chain gadget per clause is stable exactly when at least one
    checker confirms its literal against the chosen palette path.
    Raises ValueError, before building anything, when the construction
    would exceed MAX_VERTICES or MAX_ARCS.
    """
    nv = 4
    while nv < phi.num_vars:
        nv *= 4
    s = math.isqrt(nv)
    logn = nv.bit_length() - 1
    half = logn // 2
    m = len(phi.clauses)
    length = m + nv
    n_sel = (2 * nv) // logn + 1
    # Each literal slot has s/2 checkers (one per palette path whose bit
    # matches the literal's sign), so a clause has 3s/2 checkers and as
    # many or-chain cells: 9s vertices and 15s - 2 arcs per clause.
    vertices = (s + n_sel) * length + s * (s - 1) + 9 * s * m
    arcs = (s + n_sel) * (length - 1) + 3 * s * (s - 1) + (15 * s - 2) * m
    _check_size(f"{phi.num_vars} variables and {m} clauses", vertices, arcs)

    b = _Builder()
    pal = {
        (i, j): b.vertex()
        for i in range(s)
        for j in range(1, length + 1)
    }
    sel = {
        (i, j): b.vertex()
        for i in range(n_sel)
        for j in range(1, length + 1)
    }
    for i in range(s):
        for j in range(1, length):
            b.arc(pal[(i, j + 1)], pal[(i, j)], 1)
    for i in range(n_sel):
        for j in range(1, length):
            b.arc(sel[(i, j + 1)], sel[(i, j)], 1)

    pair_a = {}
    pair_b = {}
    pairs = [(i, ip) for i in range(s) for ip in range(i + 1, s)]
    for offset, (i, ip) in enumerate(pairs):
        j = m + 1 + offset  # distinct column in m+1..m+nv-1
        va = b.vertex()
        vb = b.vertex()
        pair_a[(i, ip)] = va
        pair_b[(i, ip)] = vb
        b.arc(va, pal[(i, j)], 1)
        b.arc(va, pal[(ip, j)], -1)
        b.arc(va, vb, 1)
        b.arc(vb, va, -1)
        b.arc(vb, pal[(i, j)], -1)
        b.arc(vb, pal[(ip, j)], -1)

    lit_path: dict[tuple[int, int, int], int] = {}
    chk: dict[tuple[int, int, int], int] = {}
    chk_order: dict[int, tuple[tuple[int, int, int], ...]] = {}
    or_main: dict[tuple[int, int], int] = {}
    or_partner: dict[tuple[int, int], int] = {}
    or_blocker: dict[tuple[int, int], int] = {}

    for j, clause in enumerate(phi.clauses, start=1):
        keys = []
        for a, lit in enumerate(clause):
            k = abs(lit) - 1
            i_path, pos = k // half, k % half
            for beta in range(s):
                lit_path[(j, a, beta)] = b.vertex()
            for beta in range(s - 1):
                b.arc(lit_path[(j, a, beta)], lit_path[(j, a, beta + 1)], 1)
            b.arc(lit_path[(j, a, s - 1)], sel[(i_path, j)], 1)
            for ip in range(s):
                bit = (ip >> pos) & 1
                if (bit == 1) == (lit > 0):
                    c = b.vertex()
                    chk[(j, a, ip)] = c
                    keys.append((j, a, ip))
                    b.arc(c, pal[(ip, j)], 1)
                    b.arc(c, lit_path[(j, a, ip)], 1)
        chk_order[j] = tuple(keys)

        count = len(keys)
        for q in range(1, count + 1):
            or_main[(j, q)] = b.vertex()
            or_partner[(j, q)] = b.vertex()
            or_blocker[(j, q)] = b.vertex()
        for q in range(1, count + 1):
            b.arc(or_main[(j, q)], or_partner[(j, q)], 1)
            b.arc(or_main[(j, q)], or_blocker[(j, q)], -2)
            if q < count:
                b.arc(or_main[(j, q)], or_main[(j, q + 1)], 2)
                b.arc(or_main[(j, q + 1)], or_main[(j, q)], -1)
        for q, key in enumerate(keys, start=1):
            c = chk[key]
            if q == 1:
                b.arc(or_main[(j, 1)], c, -2)
                b.arc(c, or_main[(j, 1)], 2)
            else:
                b.arc(or_main[(j, q)], c, -1)
                b.arc(c, or_main[(j, q)], 2)

    layout = SatBoundedDegreeLayout(
        num_vars=nv,
        original_vars=phi.num_vars,
        num_clauses=m,
        side=s,
        half_bits=half,
        length=length,
        num_selection=n_sel,
        palette=pal,
        selection=sel,
        pair_a=pair_a,
        pair_b=pair_b,
        literal_path=lit_path,
        checker=chk,
        checker_order=chk_order,
        or_main=or_main,
        or_partner=or_partner,
        or_blocker=or_blocker,
        n=b.count,
    )
    return b.instance(), layout


def witness_sat_bounded_degree(
    phi: CnfFormula, layout: SatBoundedDegreeLayout, assignment: Sequence[bool]
) -> Partition:
    """Partition certifying stability for a satisfying assignment.

    `layout` is the one gen_sat_bounded_degree returned for `phi`.  Dummy
    variables from rounding are taken as false.  Per clause, the chain
    gadget is split at the confirmed checker's index.
    """
    if not phi.is_satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the formula")
    if (layout.original_vars, layout.num_clauses) != (phi.num_vars, len(phi.clauses)):
        raise ValueError("layout was generated for another formula")
    half = layout.half_bits

    # selection path i carries the bits of x_k for k from i * half on;
    # their value names the palette path it follows
    columns = range(1, layout.length + 1)
    group: dict[int, list[int]] = {
        i: [layout.palette[(i, j)] for j in columns] for i in range(layout.side)
    }
    for i in range(layout.num_selection):
        choice = _bits(assignment, i * half, half)
        group[choice].extend(layout.selection[(i, j)] for j in columns)
    blocks: list[list[int]] = []
    for (i, ip), va in layout.pair_a.items():
        group[i].append(va)
        blocks.append([layout.pair_b[(i, ip)]])

    for j, clause in enumerate(phi.clauses, start=1):
        for a, lit in enumerate(clause):
            k = abs(lit) - 1
            group[_bits(assignment, k - k % half, half)].extend(
                layout.literal_path[(j, a, beta)] for beta in range(layout.side)
            )
        chosen_slot = _first_satisfied_slot(clause, assignment)
        k = abs(clause[chosen_slot]) - 1
        ip = _bits(assignment, k - k % half, half)
        keys = layout.checker_order[j]
        split = keys.index((j, chosen_slot, ip)) + 1
        count = len(keys)
        group[ip].append(layout.checker[(j, chosen_slot, ip)])

        chain = []
        for q in range(1, split + 1):
            chain.append(layout.or_main[(j, q)])
            chain.append(layout.or_partner[(j, q)])
        chain.extend(layout.checker[key] for key in keys[: split - 1])
        blocks.append(chain)
        for q in range(split, count):
            blocks.append(
                [
                    layout.or_blocker[(j, q)],
                    layout.or_main[(j, q + 1)],
                    layout.or_partner[(j, q + 1)],
                    layout.checker[keys[q]],
                ]
            )
        for q in range(1, split):
            blocks.append([layout.or_blocker[(j, q)]])
        blocks.append([layout.or_blocker[(j, count)]])

    blocks.extend(group.values())
    return Partition.from_blocks(blocks, layout.n)


# ---------------------------------------------------------------------------
# 3-Partition star


@dataclass(frozen=True)
class ThreePartitionLayout:
    items: tuple[int, ...]
    target: int
    item_ids: tuple[int, ...]
    slot_ids: tuple[int, ...]  # one per triple to be formed
    center: int
    center_partner: int
    n: int  # vertex count


def gen_three_partition_star(
    items: Sequence[int], target: int
) -> tuple[AshgInstance, ThreePartitionLayout]:
    """Star-shaped instance whose stable partitions are triple packings.

    Requires the normal form: 3t items, each strictly between target/4
    and target/2, summing to t*target.  The center wants 2*target from
    each slot vertex and -weight from each item; everyone mildly
    dislikes the center, so a coalition with the center only breaks even
    for the center when it is the full star or a slot plus a triple
    summing exactly to target elsewhere is removed -- which is what
    forces the items into exact triples.  Raises ValueError, before
    building anything, when the star would exceed MAX_VERTICES or
    MAX_ARCS.
    """
    items = tuple(int(x) for x in items)
    if len(items) == 0 or len(items) % 3 != 0:
        raise ValueError(f"item count {len(items)} is not a positive multiple of 3")
    t = len(items) // 3
    for x in items:
        if not (4 * x > target and 2 * x < target):
            raise ValueError(f"item {x} is not strictly between {target}/4 and {target}/2")
    if sum(items) != t * target:
        raise ValueError(f"items sum to {sum(items)}, expected {t * target}")
    # 3t items, t slots, center and partner; two arcs per item and slot
    _check_size(f"the star for {len(items)} items", 4 * t + 2, 8 * t + 2)

    b = _Builder()
    item_ids = tuple(b.vertex() for _ in items)
    slot_ids = tuple(b.vertex() for _ in range(t))
    center = b.vertex()
    partner = b.vertex()
    for v in item_ids + slot_ids:
        b.arc(v, center, -1)
    for v in slot_ids:
        b.arc(center, v, 2 * target)
    for v, x in zip(item_ids, items):
        b.arc(center, v, -x)
    b.arc(center, partner, target)
    b.arc(partner, center, 1)
    layout = ThreePartitionLayout(
        items=items,
        target=target,
        item_ids=item_ids,
        slot_ids=slot_ids,
        center=center,
        center_partner=partner,
        n=b.count,
    )
    return b.instance(), layout


def witness_three_partition_star(
    layout: ThreePartitionLayout, triples: Sequence[Sequence[int]]
) -> Partition:
    """Partition for a valid triple cover (1-based item indices).

    `layout` is the one gen_three_partition_star returned.
    """
    items, target = layout.items, layout.target
    seen: set[int] = set()
    for triple in triples:
        if len(triple) != 3:
            raise ValueError(f"triple {triple} does not have 3 items")
        for i in triple:
            if not 1 <= i <= len(items):
                raise ValueError(f"triple {triple} names item {i}, outside 1..{len(items)}")
        if sum(items[i - 1] for i in triple) != target:
            raise ValueError(f"triple {triple} does not sum to {target}")
        seen.update(triple)
    if len(triples) != len(layout.slot_ids) or len(seen) != len(items):
        raise ValueError("triples do not cover every item exactly once")
    blocks = [[layout.center, layout.center_partner]]
    for slot, triple in zip(layout.slot_ids, triples):
        blocks.append([layout.item_ids[i - 1] for i in triple] + [slot])
    return Partition.from_blocks(blocks, layout.n)


# ---------------------------------------------------------------------------
# Bin packing


@dataclass(frozen=True)
class BinPackingLayout:
    items: tuple[int, ...]  # including padding
    original_count: int
    capacity: int
    bins: int
    bin_ids: tuple[int, ...]
    anchor_ids: tuple[int, ...]
    item_ids: tuple[int, ...]
    expansion: dict[tuple[int, int], tuple[int, ...]]  # arc -> relays; empty without unit_weights
    n: int  # vertex count


def gen_bin_packing(
    items: Sequence[int], capacity: int, bins: int, unit_weights: bool = False
) -> tuple[AshgInstance, BinPackingLayout]:
    """Instance whose connected stable partitions are exact packings.

    Items are padded with 1s until they total bins*capacity (an error if
    they already exceed it).  Every item is worth its negative weight to
    every bin vertex and 1 to itself in any bin, and each bin gets
    `capacity` from its anchor, so a bin breaks even exactly when full.
    With unit_weights every arc of weight |w| > 1 is expanded through
    |w| relay vertices, leaving all weights in {-1, 1}.  Raises
    ValueError, before building anything, when the construction would
    exceed MAX_VERTICES or MAX_ARCS.
    """
    items = tuple(int(x) for x in items)
    if any(x < 1 for x in items):
        raise ValueError("item weights must be positive")
    if capacity < 1 or bins < 1:
        raise ValueError("capacity and bin count must be positive")
    total = sum(items)
    if total > capacity * bins:
        raise ValueError(
            f"items sum to {total} > {capacity * bins}; padding cannot balance them"
        )
    padding = capacity * bins - total
    # base arcs by weight and count: bin -> anchor, item -> bin, and
    # bin -> item (1 for padding); an expanded arc of weight w becomes w
    # relays and 2w arcs
    relay_count = arc_count = 0
    for w, count in ((capacity, bins), (1, bins * (len(items) + 2 * padding)),
                     *((x, bins) for x in items)):
        if unit_weights and w > 1:
            relay_count += w * count
            arc_count += 2 * w * count
        else:
            arc_count += count
    _check_size(f"{bins} bins of capacity {capacity}",
                2 * bins + len(items) + padding + relay_count, arc_count)
    padded = items + (1,) * padding

    b = _Builder()
    bin_ids = tuple(b.vertex() for _ in range(bins))
    anchor_ids = tuple(b.vertex() for _ in range(bins))
    item_ids = tuple(b.vertex() for _ in padded)

    expansion: dict[tuple[int, int], tuple[int, ...]] = {}

    def base_arc(u: int, v: int, w: int) -> None:
        if unit_weights and abs(w) > 1:
            relays = tuple(b.vertex() for _ in range(abs(w)))
            expansion[(u, v)] = relays
            sign = 1 if w > 0 else -1
            for r in relays:
                b.arc(u, r, sign)
                b.arc(r, v, 1)
        else:
            b.arc(u, v, w)

    for bi, ai in zip(bin_ids, anchor_ids):
        base_arc(bi, ai, capacity)
    for v, x in zip(item_ids, padded):
        for bi in bin_ids:
            base_arc(v, bi, 1)
            base_arc(bi, v, -x)

    layout = BinPackingLayout(
        items=padded,
        original_count=len(items),
        capacity=capacity,
        bins=bins,
        bin_ids=bin_ids,
        anchor_ids=anchor_ids,
        item_ids=item_ids,
        expansion=expansion,
        n=b.count,
    )
    return b.instance(), layout


def witness_bin_packing(layout: BinPackingLayout, packing: Sequence[int]) -> Partition:
    """Partition for a feasible packing (bin index 1..bins per item).

    `layout` is the one gen_bin_packing returned; its relays, if any, go
    with the vertex their arc points to.  Padding items are placed
    greedily into the remaining capacity, which always works because
    padding balances the totals exactly.
    """
    capacity, bins = layout.capacity, layout.bins
    if len(packing) != layout.original_count:
        raise ValueError(f"packing assigns {len(packing)} of {layout.original_count} items")
    load = [0] * (bins + 1)
    full = list(packing)
    for t, bin_no in enumerate(packing):
        if not 1 <= bin_no <= bins:
            raise ValueError(f"bin index {bin_no} out of range")
        load[bin_no] += layout.items[t]
    for t in range(layout.original_count, len(layout.items)):
        bin_no = next(i for i in range(1, bins + 1) if load[i] < capacity)
        load[bin_no] += 1
        full.append(bin_no)
    if any(load[i] != capacity for i in range(1, bins + 1)):
        raise ValueError("packing does not fill every bin exactly")

    blocks: dict[int, list[int]] = {
        i: [layout.bin_ids[i - 1], layout.anchor_ids[i - 1]] for i in range(1, bins + 1)
    }
    item_bin: dict[int, int] = {}
    for t, bin_no in enumerate(full):
        blocks[bin_no].append(layout.item_ids[t])
        item_bin[layout.item_ids[t]] = bin_no
    for (u, v), relays in layout.expansion.items():
        if v in item_bin:
            blocks[item_bin[v]].extend(relays)  # relays of (bin -> item) arcs
        else:
            home = layout.anchor_ids.index(v) + 1  # relays of (bin -> anchor) arcs
            blocks[home].extend(relays)
    return Partition.from_blocks(blocks.values(), layout.n)

