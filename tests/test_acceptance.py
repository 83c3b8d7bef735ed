"""Acceptance gate: the eight release criteria, one printed line each.

Every test prints exactly one `[PASS] criterion N: ...` (or `[FAIL]`)
line even under quiet pytest runs, then asserts.  The random suites are
seeded so the runs are reproducible.
"""

from __future__ import annotations

import random
import time
import warnings
from pathlib import Path

from ashg import (
    brute_force_connected_nash,
    brute_force_nash,
    brute_force_stable_coloring,
    gen_bin_packing,
    gen_sat_bounded_degree,
    gen_sat_high_degree,
    gen_three_partition_star,
    heuristic_decompose,
    is_connected_partition,
    is_nash_stable,
    make_nice,
    parse_decomposition,
    parse_instance,
    parse_partition,
    serialize_decomposition,
    serialize_instance,
    serialize_partition,
    solve_connected_nash,
    solve_nash_via_coloring,
    square_instance,
    trace_survives_forget_filters,
    witness_sat_bounded_degree,
    witness_sat_high_degree,
)
from ashg.cli import main
from helpers import (
    bin_packing_feasible,
    random_satisfiable_cnf,
    path_instance,
    suite_instance,
    three_partition_feasible,
)

GOLDEN = Path(__file__).parent / "golden"
SUITE_SEED = 20260814


def _verdict(capsys, ok: bool, num: int, label: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {num}: {label} ({detail})")


def _suite(count: int = 500, n_max: int = 8):
    rng = random.Random(SUITE_SEED)
    return [suite_instance(rng, t, n_max=n_max) for t in range(count)]


def test_criterion_1_oracle_equivalence_plain(capsys):
    t0 = time.perf_counter()
    mismatches = bad_some = nones = 0
    for inst in _suite():
        got = solve_nash_via_coloring(inst)
        ref = brute_force_nash(inst)
        if (got is None) != (ref is None):
            mismatches += 1
        if got is None:
            nones += 1
        elif not is_nash_stable(inst, got)[0]:
            bad_some += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and bad_some == 0 and nones >= 100 and elapsed < 60
    _verdict(
        capsys, ok, 1, "plain solver matches oracle on 500 instances",
        f"{mismatches} mismatches, {bad_some} bad SOME, {nones} NONE, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_oracle_equivalence_connected(capsys):
    t0 = time.perf_counter()
    mismatches = bad_some = nones = 0
    for inst in _suite():
        got = solve_connected_nash(inst, heuristic_decompose(inst))
        ref = brute_force_connected_nash(inst)
        if (got is None) != (ref is None):
            mismatches += 1
        if got is None:
            nones += 1
        elif not (is_nash_stable(inst, got)[0] and is_connected_partition(inst, got)[0]):
            bad_some += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and bad_some == 0 and elapsed < 60
    _verdict(
        capsys, ok, 2, "connected solver matches oracle on 500 instances",
        f"{mismatches} mismatches, {bad_some} bad SOME, {nones} NONE, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_stable_coloring_equivalence(capsys):
    rng = random.Random(SUITE_SEED + 3)
    mismatches = 0
    for t in range(200):
        inst = suite_instance(rng, t, n_max=7)
        k = max(1, heuristic_decompose(inst).max_bag_size * inst.max_degree)
        partition_exists = brute_force_nash(inst) is not None
        coloring_exists = brute_force_stable_coloring(inst, k) is not None
        if partition_exists != coloring_exists:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys, ok, 3,
        "stable partition iff stable (bag-size*degree)-coloring on 200 instances",
        f"{mismatches} mismatches",
    )
    assert ok


def test_criterion_4_signature_traces_survive_filters(capsys):
    rng = random.Random(SUITE_SEED + 4)
    failures = checked = attempts = 0
    while checked < 50 and attempts < 1000:
        inst = suite_instance(rng, attempts, n_max=6)
        attempts += 1
        part = brute_force_connected_nash(inst)
        if part is None:
            continue
        ntd = make_nice(heuristic_decompose(inst))
        if not trace_survives_forget_filters(inst, ntd, part):
            failures += 1
        checked += 1
    ok = failures == 0 and checked == 50
    _verdict(
        capsys, ok, 4, "stable-partition traces pass every forget filter",
        f"{failures} failures over {checked} instances",
    )
    assert ok


def test_criterion_5_reduction_witnesses_and_feasibility(capsys):
    rng = random.Random(SUITE_SEED + 5)
    failures = 0

    for _ in range(30):
        phi, sats = random_satisfiable_cnf(rng, max_vars=4, max_clauses=3)
        assignment = list(rng.choice(sats))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst_hd, lay_hd = gen_sat_high_degree(phi, 2)
            part_hd = witness_sat_high_degree(phi, lay_hd, assignment)
        if not is_nash_stable(inst_hd, part_hd)[0]:
            failures += 1
        inst_bd, lay_bd = gen_sat_bounded_degree(phi)
        part_bd = witness_sat_bounded_degree(phi, lay_bd, assignment)
        if not is_nash_stable(inst_bd, part_bd)[0]:
            failures += 1

    three_part_cases = [
        ([3, 3, 3], 9),
        ([4, 4, 4, 4, 4, 4], 12),
        ([5, 5, 6, 5, 5, 6], 16),
        ([5, 5, 5, 5, 5, 7], 16),  # no triple hits 16
    ]
    for items, target in three_part_cases:
        inst, _ = gen_three_partition_star(items, target)
        oracle_some = brute_force_nash(inst) is not None
        if oracle_some != three_partition_feasible(items, target):
            failures += 1

    bin_pack_cases = [
        ([1, 1, 2], 2, 2),
        ([2, 2], 2, 2),
        ([2, 1], 3, 1),
        ([3, 1], 2, 2),  # oversized item
        ([2, 2, 2], 3, 2),  # no balanced split
        ([4, 4, 4, 2, 2, 2], 9, 2),  # parity blocks an exact 9
        ([3, 3, 3, 1, 1, 1], 6, 2),
    ]
    for items, capacity, bins in bin_pack_cases:
        inst, _ = gen_bin_packing(items, capacity, bins)
        oracle_some = brute_force_connected_nash(inst) is not None
        if oracle_some != bin_packing_feasible(items, capacity, bins):
            failures += 1

    ok = failures == 0
    _verdict(
        capsys, ok, 5, "reduction witnesses stable; feasibility preserved",
        f"{failures} failures",
    )
    assert ok


def test_criterion_6_squared_connected_equals_plain(capsys):
    mismatches = 0
    for inst in _suite():
        plain = brute_force_nash(inst) is not None
        squared = brute_force_connected_nash(square_instance(inst)) is not None
        if plain != squared:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys, ok, 6,
        "connected stability on squared instance equals plain stability",
        f"{mismatches} mismatches over 500 instances",
    )
    assert ok


def test_criterion_7_performance_floor(capsys):
    rng = random.Random(SUITE_SEED + 7)

    long_path = path_instance(300, rng)
    t0 = time.perf_counter()
    part = solve_connected_nash(long_path, heuristic_decompose(long_path))
    connected_time = time.perf_counter() - t0
    if part is not None:
        assert is_nash_stable(long_path, part)[0]
        assert is_connected_partition(long_path, part)[0]

    short_path = path_instance(100, rng)
    stats: dict[str, int] = {}
    t0 = time.perf_counter()
    part = solve_nash_via_coloring(short_path, stats=stats)
    coloring_time = time.perf_counter() - t0
    if part is not None:
        assert is_nash_stable(short_path, part)[0]

    ok = connected_time < 5 and coloring_time < 5 and stats["width"] == 2
    _verdict(
        capsys, ok, 7, "performance floor on paths",
        f"connected 300: {connected_time:.2f}s, coloring 100 (width {stats['width']}): "
        f"{coloring_time:.2f}s",
    )
    assert ok


def test_criterion_8_round_trips_and_exit_codes(capsys):
    problems = []

    for name in sorted(GOLDEN.glob("*.ashg")):
        text = name.read_text(encoding="utf-8")
        if serialize_instance(parse_instance(text)) != text:
            problems.append(f"instance {name.name}")
    for name in sorted(GOLDEN.glob("*.part")):
        text = name.read_text(encoding="utf-8")
        if serialize_partition(parse_partition(text)) != text:
            problems.append(f"partition {name.name}")
    for name in sorted(GOLDEN.glob("*.td")):
        text = name.read_text(encoding="utf-8")
        n = int(text.splitlines()[0].split()[4])
        if serialize_decomposition(parse_decomposition(text), n) != text:
            problems.append(f"decomposition {name.name}")

    expected_codes = [
        (["solve", str(GOLDEN / "friends.ashg")], 0),
        (["solve", str(GOLDEN / "stalker.ashg")], 1),
        (["oracle", str(GOLDEN / "big13.ashg")], 2),
        (["solve", str(GOLDEN / "triples.txt")], 3),
        (["verify", str(GOLDEN / "friends.ashg"), str(GOLDEN / "grand2.part")], 0),
        (["verify", str(GOLDEN / "stalker.ashg"), str(GOLDEN / "grand2.part")], 1),
        (["decompose", str(GOLDEN / "path5.ashg")], 0),
    ]
    for argv, want in expected_codes:
        got = main(argv)
        if got != want:
            problems.append(f"{' '.join(argv[:1])} exited {got}, want {want}")
    capsys.readouterr()  # swallow CLI output; the verdict line follows

    ok = not problems
    _verdict(
        capsys, ok, 8, "golden files round-trip; exit codes honored",
        "; ".join(problems) if problems else "all byte-exact, codes 0-3 exercised",
    )
    assert ok
