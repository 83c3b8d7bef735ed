"""Print one SHA-256 per benchmark workload, seed and route of the library's outputs.

Two checkouts that print the same lines give the same answers on the
benchmark corpus.  The instances come from bench/workloads.py, read as
it is; the routes call the library directly, with the workload's table
cap and step budgets:

    nash, connected   answer (SOME, NONE or CAP), partition, width,
                      nice_nodes and peak_table of each DP solve
    dynamics          partition (or none) and steps of each run
    oracle            both brute-force oracles' partitions, where the
                      workload runs the oracle
    verify            is_nash_stable verdict and witness, and
                      is_connected_partition verdict, on each SOME
                      answer above and on 3 seeded random partitions
                      of each instance

Stdlib only; imports `ashg` from src/ of this checkout.

    python scripts/digest.py [--workload paths grids suite] [--seeds 0 1 2]
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from ashg import (  # noqa: E402
    AshgInstance,
    Partition,
    ResourceLimitError,
    better_response_dynamics,
    brute_force_connected_nash,
    brute_force_nash,
    is_connected_partition,
    is_nash_stable,
    solve_connected_nash,
    solve_nash_via_coloring,
)

ROUTES = ("nash", "connected", "dynamics", "oracle", "verify")
RANDOM_PARTITIONS = 3


def _labels(partition: Partition | None):
    return None if partition is None else partition.labels


def _solve(solver, instance: AshgInstance, table_cap: int):
    stats: dict = {}
    try:
        partition = solver(instance, table_cap=table_cap, stats=stats)
        answer = "NONE" if partition is None else "SOME"
    except ResourceLimitError:
        partition, answer = None, "CAP"
    counters = tuple(stats.get(k) for k in ("width", "nice_nodes", "peak_table"))
    return partition, (answer, _labels(partition), counters)


def _verdicts(instance: AshgInstance, partition: Partition):
    return is_nash_stable(instance, partition), is_connected_partition(instance, partition)


def route_records(plan: workloads.Plan, rng: random.Random) -> dict[str, list]:
    """Per route, one record per call, in the plan's instance order."""
    records: dict[str, list] = {route: [] for route in ROUTES}
    for inst in plan.instances:
        instance = AshgInstance(inst.n, inst.arcs)
        answers = []
        if "nash" in inst.modes:
            partition, record = _solve(solve_nash_via_coloring, instance, plan.table_cap)
            records["nash"].append((inst.name, record))
            answers.append(partition)
        if "connected-nash" in inst.modes:
            partition, record = _solve(solve_connected_nash, instance, plan.table_cap)
            records["connected"].append((inst.name, record))
            answers.append(partition)
        if "dynamics" in inst.modes:
            stats: dict = {}
            partition = better_response_dynamics(instance, max_steps=inst.max_steps, stats=stats)
            records["dynamics"].append((inst.name, _labels(partition), stats["steps"]))
            answers.append(partition)
        if inst.oracle:
            records["oracle"].append((inst.name, _labels(brute_force_nash(instance)),
                                      _labels(brute_force_connected_nash(instance))))
        answers.extend(Partition([rng.randrange(inst.n) for _ in range(inst.n)])
                       for _ in range(RANDOM_PARTITIONS))
        records["verify"].append((inst.name, [
            (p.labels, _verdicts(instance, p)) for p in answers if p is not None
        ]))
    return records


def digests(workload: str, seed: int) -> dict[str, str]:
    """SHA-256 hex digest per route that one workload and seed run."""
    plan = workloads.PLANS[workload](seed)
    records = route_records(plan, random.Random(f"digest-{workload}-{seed}"))
    return {route: hashlib.sha256(repr(rows).encode()).hexdigest()
            for route, rows in records.items() if rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.PLANS),
                        default=list(workloads.PLANS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    args = parser.parse_args(argv)
    for workload in args.workload:
        for seed in args.seeds:
            for route, digest in digests(workload, seed).items():
                print(f"{workload} {seed} {route} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
