"""Seeded inputs for the three benchmark workloads: paths, grids, suite.

Every generator takes a `random.Random` and returns plain data, so the
same seed always gives the same instances, byte for byte.  Instances are
written in the `p ashg` text format; nothing here imports the package
under test.

Each workload fixes its structure (sizes, shapes, counts) and lets the
seed draw only weights, tree shapes and reduction inputs.  Per-seed cost
still varies with the weights, so each workload holds many instances and
the per-pass sums average over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CLI_TABLE_CAP = 1_000_000  # the CLI's default `--table-cap`


@dataclass(frozen=True)
class Instance:
    """One game plus the commands the workload runs on it."""

    name: str
    n: int
    arcs: tuple[tuple[int, int, int], ...]
    modes: tuple[str, ...]  # `solve --mode` values, in call order
    max_steps: int = 1000  # `--max-steps` for dynamics
    oracle: bool = False  # also run `oracle` in both modes
    symmetric: bool = False  # w(u, v) == w(v, u) for every pair
    nonneg: bool = False  # every weight >= 0

    def text(self) -> str:
        lines = [f"p ashg {self.n} {len(self.arcs)}"]
        lines.extend(f"a {u} {v} {w}" for u, v, w in self.arcs)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GenInput:
    """One `ashg gen ... --witness` call and the `verify` of its witness."""

    name: str
    generator: str  # sat-hd, sat-bd, 3part or binpack
    source: str  # text of the source file
    witness: str  # text of the certificate file
    args: tuple[str, ...]  # extra generator arguments
    connected: bool = False  # verify the witness with --connected


@dataclass
class Plan:
    instances: list[Instance]
    gens: list[GenInput] = field(default_factory=list)
    table_cap: int = CLI_TABLE_CAP  # `--table-cap` of every DP solve

    def sizes(self) -> dict:
        """Input sizes for the run report."""
        ns = [inst.n for inst in self.instances]
        return {
            "instances": len(ns),
            "n_min": min(ns),
            "n_max": max(ns),
            "n_sum": sum(ns),
            "arcs_sum": sum(len(inst.arcs) for inst in self.instances),
            "gen_inputs": len(self.gens),
            "max_steps": sorted({i.max_steps for i in self.instances if "dynamics" in i.modes}),
        }


def _with_weights(edges, rng, lo, hi, symmetric=False):
    arcs = []
    for u, v in edges:
        w = rng.randint(lo, hi)
        arcs.append((u, v, w))
        arcs.append((v, u, w if symmetric else rng.randint(lo, hi)))
    return tuple(sorted(arcs))


# ---------------------------------------------------------------------------
# paths: width-1 instances large enough that the layers outside the DP dominate


PATH_SIZES = (800, 800)
TREE_SIZES = (800, 800)


def random_tree_edges(n: int, rng: random.Random, max_degree: int = 3):
    """Edges of a random tree on 1..n where every vertex has degree <= max_degree."""
    degree = [0] * (n + 1)
    open_vertices = [1]
    edges = []
    for v in range(2, n + 1):
        i = rng.randrange(len(open_vertices))
        u = open_vertices[i]
        edges.append((u, v))
        degree[u] += 1
        degree[v] = 1
        if degree[u] == max_degree:
            open_vertices[i] = open_vertices[-1]
            open_vertices.pop()
        open_vertices.append(v)
    return edges


def paths_plan(seed: int) -> Plan:
    rng = random.Random(f"paths-{seed}")
    instances = []
    for shape, sizes in (("path", PATH_SIZES), ("tree", TREE_SIZES)):
        for n in sizes:
            if shape == "path":
                edges = [(v, v + 1) for v in range(1, n)]
            else:
                edges = random_tree_edges(n, rng)
            instances.append(Instance(
                name=f"{shape}{n}-{len(instances)}",
                n=n,
                arcs=_with_weights(edges, rng, -3, 3, symmetric=True),
                modes=("nash", "connected-nash", "dynamics"),
                # dynamics takes about n/2 steps here; leave room for slow weights
                max_steps=4 * n,
                symmetric=True,
            ))
    return Plan(instances)


# ---------------------------------------------------------------------------
# grids: small r x c grids where nearly all time is in the DP tables


# (rows, cols, weight low, weight high, instances per pass, solve modes)
GRID_SHAPES = (
    (3, 5, -3, 3, 56, ("nash", "connected-nash", "dynamics")),  # dynamics usually cycles
    (3, 5, 0, 3, 56, ("nash", "connected-nash")),
    # width 4: most coloring solves end at the cap; the connected solve is
    # left out, its time varies too much with the weights
    (4, 4, 0, 3, 4, ("nash",)),
)
GRID_DYNAMICS_STEPS = 200
# Small enough that no call takes more than a few tens of milliseconds:
# a capped table bounds how far one grid's weights can move its time, and
# many such grids make the per-pass sums nearly the same for every seed.
GRID_TABLE_CAP = 2_000


def grid_edges(rows: int, cols: int):
    def vid(i, j):
        return i * cols + j + 1

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return edges


def grids_plan(seed: int) -> Plan:
    rng = random.Random(f"grids-{seed}")
    instances = []
    for rows, cols, lo, hi, count, modes in GRID_SHAPES:
        mixed = lo < 0
        for rep in range(count):
            instances.append(Instance(
                name=f"grid{rows}x{cols}{'m' if mixed else 'p'}-{rep}",
                n=rows * cols,
                arcs=_with_weights(grid_edges(rows, cols), rng, lo, hi),
                modes=modes,
                max_steps=GRID_DYNAMICS_STEPS,
                nonneg=lo >= 0,
            ))
    return Plan(instances, table_cap=GRID_TABLE_CAP)


# ---------------------------------------------------------------------------
# suite: many tiny instances plus reduction inputs


SUITE_INSTANCES = 180
SUITE_SIZES = (3, 4, 5, 6, 7, 8)  # cycled, so every seed has the same size mix
SUITE_DYNAMICS_STEPS = 100


def _sparse_pairs(n, rng, max_degree, density):
    degree = [0] * (n + 1)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    chosen = []
    for u, v in pairs:
        if degree[u] < max_degree and degree[v] < max_degree and rng.random() < density:
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
    return chosen


def uniform_arcs(n, rng):
    """Sparse digraph, weights uniform in -3..3, arcs one- or two-way."""
    arcs = []
    for u, v in _sparse_pairs(n, rng, 4, 0.55):
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v, rng.randint(-3, 3)))
        if rng.random() < 0.3:
            arcs.append((v, u, rng.randint(-3, 3)))
    return tuple(sorted(arcs))


def chase_arcs(n, rng):
    """Sparse digraph dominated by chase pairs: u wants v, v is repelled by u."""
    arcs = []
    for u, v in _sparse_pairs(n, rng, 4, 0.7):
        if rng.random() < 0.5:
            u, v = v, u
        r = rng.random()
        if r < 0.6:
            arcs.append((u, v, rng.randint(1, 3)))
            arcs.append((v, u, -rng.randint(1, 3)))
        elif r < 0.8:
            arcs.append((u, v, rng.randint(1, 3)))
        else:
            arcs.append((u, v, rng.randint(-3, 3)))
    return tuple(sorted(arcs))


def planted_cnf(num_vars, num_clauses, rng):
    """Random 3-CNF in DIMACS text, satisfied by a planted assignment."""
    assignment = [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(num_vars), min(3, num_vars))
        lits = [(x + 1) * (1 if rng.random() < 0.5 else -1) for x in picked]
        if not any(assignment[abs(l) - 1] == (l > 0) for l in lits):
            lits[0] = -lits[0]
        clauses.append(lits)
    text = f"p cnf {num_vars} {num_clauses}\n"
    text += "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return text, " ".join("1" if a else "0" for a in assignment) + "\n"


def three_partition_input(triples, target, rng):
    """Items and a triple cover (1-based indices) for the 3-Partition star."""
    items = []
    for _ in range(triples):
        while True:
            a = rng.randrange(target // 4 + 1, (target + 1) // 2)
            b = rng.randrange(target // 4 + 1, (target + 1) // 2)
            c = target - a - b
            if 4 * c > target and 2 * c < target:
                items.append((a, b, c))
                break
    flat = [x for triple in items for x in triple]
    order = list(range(len(flat)))
    rng.shuffle(order)
    shuffled = [flat[i] for i in order]
    position = {old: new + 1 for new, old in enumerate(order)}
    cover = [[position[3 * t + s] for s in range(3)] for t in range(triples)]
    return (
        " ".join(map(str, shuffled)) + "\n",
        "".join(" ".join(map(str, c)) + "\n" for c in cover),
    )


def bin_packing_input(bins, capacity, rng):
    """Items that fill `bins` bins of `capacity` exactly, and their packing."""
    items, packing = [], []
    for b in range(1, bins + 1):
        left = capacity
        while left > 0:
            x = rng.randint(1, min(left, 3))
            items.append(x)
            packing.append(b)
            left -= x
    order = list(range(len(items)))
    rng.shuffle(order)
    return (
        " ".join(str(items[i]) for i in order) + "\n",
        " ".join(str(packing[i]) for i in order) + "\n",
    )


GEN_PER_KIND = 6


def suite_gens(rng: random.Random) -> list[GenInput]:
    gens = []
    for i in range(GEN_PER_KIND):
        cnf, assign = planted_cnf(rng.randint(2, 4), rng.randint(2, 4), rng)
        gens.append(GenInput(f"sat-hd-{i}", "sat-hd", cnf, assign, ("--degree", "2")))
        cnf, assign = planted_cnf(rng.randint(2, 4), rng.randint(2, 4), rng)
        gens.append(GenInput(f"sat-bd-{i}", "sat-bd", cnf, assign, ()))
        target = rng.randint(20, 40)
        items, cover = three_partition_input(rng.randint(1, 3), target, rng)
        gens.append(GenInput(f"3part-{i}", "3part", items, cover,
                             ("--target", str(target))))
        for unit in (False, True):
            bins, capacity = rng.randint(1, 3), rng.randint(2, 4)
            items, packing = bin_packing_input(bins, capacity, rng)
            args = ("--capacity", str(capacity), "--bins", str(bins))
            gens.append(GenInput(
                f"binpack{'-unit' if unit else ''}-{i}", "binpack", items, packing,
                args + (("--unit-weights",) if unit else ()), connected=True,
            ))
    return gens


def suite_plan(seed: int) -> Plan:
    rng = random.Random(f"suite-{seed}")
    instances = []
    for i in range(SUITE_INSTANCES):
        n = SUITE_SIZES[i % len(SUITE_SIZES)]
        chase = i % 2 == 1
        arcs = chase_arcs(n, rng) if chase else uniform_arcs(n, rng)
        instances.append(Instance(
            name=f"{'chase' if chase else 'uniform'}{n}-{i}",
            n=n,
            arcs=arcs,
            modes=("nash", "connected-nash", "dynamics"),
            max_steps=SUITE_DYNAMICS_STEPS,
            oracle=True,
            nonneg=all(w >= 0 for _, _, w in arcs),
        ))
    return Plan(instances, suite_gens(rng))


PLANS = {"paths": paths_plan, "grids": grids_plan, "suite": suite_plan}
