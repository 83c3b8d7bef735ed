"""Command-line surface: solve, verify, gen, oracle, decompose.

Exit codes are a contract: 0 = SOME/stable, 1 = NONE/unstable,
2 = unknown (resource or step limit hit, or out of memory), 3 = input
error.  Reports are emitted as `c`-prefixed comment lines so that stdout
stays parseable when a partition or instance follows them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from pathlib import Path

from . import formats
from .coloring import solve_nash_via_coloring
from .connected import solve_connected_nash
from .decomposition import DEFAULT_TABLE_CAP, heuristic_decompose
from .errors import ResourceLimitError, _check_nonnegative
from .game import (
    DEFAULT_MAX_STEPS,
    AshgInstance,
    better_response_dynamics,
    is_connected_partition,
    is_nash_stable,
)
from .oracle import (
    DEFAULT_PARTITION_CAP,
    brute_force_connected_nash,
    brute_force_nash,
)

EXIT_SOME = 0
EXIT_NONE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3

_EXIT_BY_ANSWER = {"SOME": EXIT_SOME, "STABLE": EXIT_SOME,
                   "NONE": EXIT_NONE, "UNSTABLE": EXIT_NONE,
                   "UNKNOWN": EXIT_UNKNOWN}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_instance(path: str) -> AshgInstance:
    return formats.parse_instance(_read(path))


def _emit(path: str | None, text: str) -> None:
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _report(command: str, instance: AshgInstance, answer: str, t0: float,
            stats: dict | None = None) -> None:
    """Print the command's summary as `c` lines.

    `answer` is SOME, NONE, UNKNOWN, STABLE or UNSTABLE; width, peak
    table and steps print only when `stats` holds them.
    """
    lines = [
        f"c command {command}",
        f"c n {instance.n}",
        f"c arcs {instance.arc_count()}",
        f"c max-degree {instance.max_degree}",
        f"c max-weight {instance.max_abs_weight}",
    ]
    for key in ("width", "peak_table", "steps"):
        if stats and key in stats:
            lines.append(f"c {key.replace('_', '-')} {stats[key]}")
    lines.append(f"c answer {answer}")
    lines.append(f"c wall-time {time.perf_counter() - t0:.3f}s")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    if args.td and args.mode != "connected-nash":
        raise ValueError(f"--td applies to --mode connected-nash only, not {args.mode}")
    # every mode refuses a negative limit, also one it does not use
    _check_nonnegative(args.table_cap, "table cap")
    _check_nonnegative(args.max_steps, "max_steps")
    instance = _load_instance(args.instance)
    t0 = time.perf_counter()
    stats: dict[str, int] = {}
    partition = None
    if args.mode == "dynamics":
        partition = better_response_dynamics(
            instance, max_steps=args.max_steps, stats=stats
        )
        answer = "SOME" if partition is not None else "UNKNOWN"
        if partition is None:
            print(f"c no convergence within {args.max_steps} steps", file=sys.stderr)
    else:
        try:
            if args.mode == "nash":
                partition = solve_nash_via_coloring(
                    instance, table_cap=args.table_cap, stats=stats
                )
            else:
                # the solver validates a given tree; by default it builds its own
                td = formats.parse_decomposition(_read(args.td)) if args.td else None
                partition = solve_connected_nash(
                    instance, td, table_cap=args.table_cap, stats=stats
                )
            answer = "SOME" if partition is not None else "NONE"
        except ResourceLimitError as exc:
            print(f"c resource limit: {exc}", file=sys.stderr)
            answer = "UNKNOWN"
    _report("solve", instance, answer, t0, stats)
    if partition is not None:
        _emit(args.out, formats.serialize_partition(partition))
    return _EXIT_BY_ANSWER[answer]


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    partition = formats.parse_partition(_read(args.partition))
    t0 = time.perf_counter()
    answer = "STABLE"
    detail = None
    if args.connected:
        ok, bad = is_connected_partition(instance, partition)
        if not ok:
            answer, detail = "UNSTABLE", f"c coalition {bad} is disconnected"
    if answer == "STABLE":
        stable, witness = is_nash_stable(instance, partition)
        if not stable:
            target = "singleton" if witness.target is None else f"coalition {witness.target}"
            answer = "UNSTABLE"
            detail = (
                f"c vertex {witness.vertex} (utility {witness.current_utility}) "
                f"improves by moving to {target} (utility {witness.target_utility})"
            )
    _report("verify", instance, answer, t0)
    if detail:
        print(detail)
    return _EXIT_BY_ANSWER[answer]


# ---------------------------------------------------------------------------
# gen


def _parse_assignment(path: str, num_vars: int) -> list[bool]:
    bits = formats.parse_int_list(_read(path))
    if len(bits) != num_vars or any(b not in (0, 1) for b in bits):
        raise ValueError(
            f"assignment file must hold {num_vars} values from {{0,1}}, got {bits}"
        )
    return [b == 1 for b in bits]


def cmd_gen(args) -> int:
    if args.witness and args.witness_out is None and args.out is None:
        raise ValueError("--witness needs --witness-out when the instance goes to stdout")
    # imported here, so that no other command pays for the generators' import
    from .reductions import (
        gen_bin_packing,
        gen_sat_bounded_degree,
        gen_sat_high_degree,
        gen_three_partition_star,
        parse_cnf,
        square_instance,
        witness_bin_packing,
        witness_sat_bounded_degree,
        witness_sat_high_degree,
        witness_three_partition_star,
    )

    witness = None
    if args.generator == "square":
        instance = square_instance(_load_instance(args.source))
    elif args.generator in ("sat-hd", "sat-bd"):
        phi = parse_cnf(_read(args.source))
        if args.generator == "sat-hd":
            instance, layout = gen_sat_high_degree(phi, args.degree)
            build_witness = witness_sat_high_degree
        else:
            instance, layout = gen_sat_bounded_degree(phi)
            build_witness = witness_sat_bounded_degree
        if args.witness:
            assignment = _parse_assignment(args.witness, phi.num_vars)
            witness = build_witness(phi, layout, assignment)
    elif args.generator == "3part":
        items = formats.parse_int_list(_read(args.source))
        instance, layout = gen_three_partition_star(items, args.target)
        if args.witness:
            flat = formats.parse_int_list(_read(args.witness))
            if len(flat) % 3 != 0:
                raise ValueError("triple file must hold 3 indices per triple")
            triples = [flat[i : i + 3] for i in range(0, len(flat), 3)]
            witness = witness_three_partition_star(layout, triples)
    else:  # binpack
        items = formats.parse_int_list(_read(args.source))
        instance, layout = gen_bin_packing(items, args.capacity, args.bins, args.unit_weights)
        if args.witness:
            packing = formats.parse_int_list(_read(args.witness))
            witness = witness_bin_packing(layout, packing)
    _emit(args.out, formats.serialize_instance(instance))
    if witness is not None:
        _emit(args.witness_out, formats.serialize_partition(witness))
    return EXIT_SOME


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    t0 = time.perf_counter()
    partition = None
    try:
        if args.mode == "nash":
            partition = brute_force_nash(instance, cap=args.cap)
        else:
            partition = brute_force_connected_nash(instance, cap=args.cap)
        answer = "SOME" if partition is not None else "NONE"
    except ResourceLimitError as exc:
        print(f"c oracle cap: {exc}", file=sys.stderr)
        answer = "UNKNOWN"
    _report("oracle", instance, answer, t0)
    if partition is not None:
        _emit(args.out, formats.serialize_partition(partition))
    return _EXIT_BY_ANSWER[answer]


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    instance = _load_instance(args.instance)
    t0 = time.perf_counter()
    td = heuristic_decompose(instance)
    _report("decompose", instance, "SOME", t0, {"width": td.width})
    _emit(args.out, formats.serialize_decomposition(td, instance.n))
    return EXIT_SOME


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ashg", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="decide/construct a stable partition")
    p_solve.add_argument("instance", help="instance file")
    p_solve.add_argument("--mode", choices=["nash", "connected-nash", "dynamics"],
                         default="nash")
    p_solve.add_argument("--td", help="tree decomposition file for --mode connected-nash "
                         "(default: the tree of G that `ashg decompose` writes); "
                         "nash mode decomposes its check graph itself")
    p_solve.add_argument("--table-cap", type=int, default=DEFAULT_TABLE_CAP,
                         help="abort when a DP table would exceed this size")
    p_solve.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                         help="deviation budget for --mode dynamics")
    p_solve.add_argument("--out", help="write the partition here instead of stdout")

    p_verify = sub.add_parser("verify", help="check a partition for stability")
    p_verify.add_argument("instance")
    p_verify.add_argument("partition")
    p_verify.add_argument("--connected", action="store_true",
                          help="also require every coalition to be connected")

    p_gen = sub.add_parser("gen", help="generate instances from source problems")
    gsub = p_gen.add_subparsers(dest="generator", required=True)

    def add_common(g):
        g.add_argument("--out", help="instance output file (default stdout)")
        g.add_argument("--witness", help="certificate file; emits a witness partition")
        g.add_argument("--witness-out", help="witness partition output file")

    g_hd = gsub.add_parser("sat-hd", help="3-CNF embedding with a degree parameter")
    g_hd.add_argument("source", help="DIMACS CNF file")
    g_hd.add_argument("--degree", type=int, required=True,
                      help="degree parameter >= 2 (rounded up to a power of two)")
    add_common(g_hd)

    g_bd = gsub.add_parser("sat-bd", help="3-CNF embedding with weights in {-2..2}")
    g_bd.add_argument("source", help="DIMACS CNF file")
    add_common(g_bd)

    g_3p = gsub.add_parser("3part", help="star instance from 3-Partition items")
    g_3p.add_argument("source", help="plain integer list of items")
    g_3p.add_argument("--target", type=int, required=True, help="triple sum target")
    add_common(g_3p)

    g_bp = gsub.add_parser("binpack", help="instance from a Bin Packing input")
    g_bp.add_argument("source", help="plain integer list of item weights")
    g_bp.add_argument("--capacity", type=int, required=True)
    g_bp.add_argument("--bins", type=int, required=True)
    g_bp.add_argument("--unit-weights", action="store_true",
                      help="expand all weights to -1/1 via relay vertices")
    add_common(g_bp)

    g_sq = gsub.add_parser("square", help="add zero-weight arcs at distance two")
    g_sq.add_argument("source", help="instance file")
    g_sq.add_argument("--out", help="instance output file (default stdout)")
    g_sq.set_defaults(witness=None, witness_out=None)

    p_oracle = sub.add_parser("oracle", help="exhaustive search over all partitions")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--mode", choices=["nash", "connected-nash"], default="nash")
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_PARTITION_CAP,
                          help="refuse instances with more vertices than this")
    p_oracle.add_argument("--out", help="write the partition here instead of stdout")

    p_dec = sub.add_parser("decompose", help="min-fill tree decomposition of G")
    p_dec.add_argument("instance")
    p_dec.add_argument("--out", help="decomposition output file (default stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import: importing the package stays
    # cheap, and a process that calls `main` repeatedly pays for it once.
    return build_parser()


def main(argv=None) -> int:
    # The whole call, argument parsing included, runs with the cyclic
    # collector paused.  The command builds no reference cycles, but it
    # allocates millions of short-lived tuples, and each collection they
    # trigger rescans every live table (and, when `main` is called
    # in-process, the caller's whole heap) to find nothing.  Where a full
    # collection lands depends on the allocation counts of everything run
    # before, so it would add milliseconds to one command or another
    # unpredictably.  Parsing with the cached parser leaves no cycles after
    # a valid command line; a usage error or --help leaves a few dozen
    # objects, which the caller's next collection frees.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        # Looked up per call, not stored in the cached parser, so the
        # command run is the module's current `cmd_*` function.
        command = {"solve": cmd_solve, "verify": cmd_verify, "gen": cmd_gen,
                   "oracle": cmd_oracle, "decompose": cmd_decompose}[args.cmd]
        return command(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
