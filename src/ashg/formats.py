"""Text formats: instance, partition, tree decomposition, int lists.

All serializers are canonical (fixed ordering, single spaces, trailing
newline), so parse -> serialize -> parse is the identity and canonical
files round-trip byte-exactly.  Parsers skip blank lines and `c`
comment lines and raise ValueError on anything malformed.
"""

from __future__ import annotations

from .decomposition import TreeDecomposition
from .errors import _check_nonnegative
from .game import MAX_VERTICES, AshgInstance, Partition

def _data_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        out.append(fields)
    return out


def _int(token: str, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{what}: not an integer: {token!r}") from None


# ---------------------------------------------------------------------------
# Instance: `p ashg <n> <arc-count>` then `a <u> <v> <w>` lines


def serialize_instance(instance: AshgInstance) -> str:
    lines = [f"p ashg {instance.n} {instance.arc_count()}"]
    lines.extend(f"a {u} {v} {w}" for (u, v), w in sorted(instance.arcs.items()))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> AshgInstance:
    rows = _data_lines(text)
    if not rows or rows[0][:2] != ["p", "ashg"] or len(rows[0]) != 4:
        raise ValueError("instance file must start with 'p ashg <n> <arc-count>'")
    n = _int(rows[0][2], "vertex count")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    arc_count = _int(rows[0][3], "arc count")
    arcs = []
    for fields in rows[1:]:
        if fields[0] != "a" or len(fields) != 4:
            raise ValueError(f"expected 'a <u> <v> <w>', got {' '.join(fields)!r}")
        try:
            arcs.append((int(fields[1], 10), int(fields[2], 10), int(fields[3], 10)))
        except ValueError:  # the same value through _int, which names the bad token
            arcs.append(tuple(_int(t, "arc field") for t in fields[1:]))
    if len(arcs) != arc_count:
        raise ValueError(f"header promises {arc_count} arcs, file has {len(arcs)}")
    return AshgInstance(n, arcs)


# ---------------------------------------------------------------------------
# Partition: `s part <n> <class-count>` then `<vertex> <class-id>` lines


def serialize_partition(partition: Partition) -> str:
    lines = [f"s part {partition.n} {partition.num_classes}"]
    lines.extend(f"{v} {cid}" for v, cid in enumerate(partition.labels, start=1))
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> Partition:
    rows = _data_lines(text)
    if not rows or rows[0][:2] != ["s", "part"] or len(rows[0]) != 4:
        raise ValueError("partition file must start with 's part <n> <class-count>'")
    n = _int(rows[0][2], "vertex count")
    _check_nonnegative(n, "vertex count")
    k = _int(rows[0][3], "class count")
    assign: dict[int, int] = {}
    for fields in rows[1:]:
        if len(fields) != 2:
            raise ValueError(f"expected '<vertex> <class-id>', got {' '.join(fields)!r}")
        try:
            v, cid = int(fields[0], 10), int(fields[1], 10)
        except ValueError:  # the same values through _int, which names the bad token
            v, cid = _int(fields[0], "vertex"), _int(fields[1], "class id")
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} outside 1..{n}")
        if v in assign:
            raise ValueError(f"vertex {v} assigned twice")
        assign[v] = cid
    if len(assign) != n:
        raise ValueError(f"{n - len(assign)} vertices have no class assignment")
    classes = len(set(assign.values()))
    if classes != k:
        raise ValueError(f"header promises {k} classes, file has {classes}")
    return Partition([assign[v] for v in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Tree decomposition: `s td <bags> <max-bag-size> <n>`, `b <id> <v...>`,
# then one `<id> <id>` line per tree edge


def serialize_decomposition(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {td.max_bag_size} {n}"]
    for bag_id in sorted(td.bags):
        lines.append(" ".join(["b", str(bag_id), *map(str, sorted(td.bags[bag_id]))]))
    lines.extend(f"{a} {b}" for a, b in td.edges)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> TreeDecomposition:
    rows = _data_lines(text)
    if not rows or rows[0][:2] != ["s", "td"] or len(rows[0]) != 5:
        raise ValueError("decomposition file must start with 's td <bags> <max-bag-size> <n>'")
    num_bags = _int(rows[0][2], "bag count")
    max_bag = _int(rows[0][3], "max bag size")
    n = _int(rows[0][4], "vertex count")
    _check_nonnegative(n, "vertex count")
    bags: dict[int, list[int]] = {}
    edges = []
    for fields in rows[1:]:
        if fields[0] == "b":
            if len(fields) < 2:
                raise ValueError("bag line needs an id: 'b <id> <v...>'")
            bag_id = _int(fields[1], "bag id")
            if bag_id in bags:
                raise ValueError(f"bag {bag_id} defined twice")
            bags[bag_id] = [_int(t, "bag vertex") for t in fields[2:]]
        elif len(fields) == 2:
            edges.append((_int(fields[0], "edge end"), _int(fields[1], "edge end")))
        else:
            raise ValueError(f"expected bag or edge line, got {' '.join(fields)!r}")
    # compare counts first: the header's bag count is not trusted to size a list
    if len(bags) != num_bags or sorted(bags) != list(range(1, num_bags + 1)):
        raise ValueError(f"bag ids must be exactly 1..{num_bags}")
    td = TreeDecomposition(bags, edges)
    if td.max_bag_size != max_bag:
        raise ValueError(f"header promises max bag size {max_bag}, bags say {td.max_bag_size}")
    for bag in td.bags.values():
        for v in bag:
            if not 1 <= v <= n:
                raise ValueError(f"bag vertex {v} outside 1..{n}")
    return td


# ---------------------------------------------------------------------------
# Plain integer lists


def parse_int_list(text: str) -> list[int]:
    return [_int(t, "list entry") for fields in _data_lines(text) for t in fields]
