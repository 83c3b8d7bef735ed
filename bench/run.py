#!/usr/bin/env python3
"""Benchmark of the `ashg` CLI: end-to-end times per command, per-layer trace.

    python3 bench/run.py --workload {paths,grids,suite} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One process, one closed-loop client: each
CLI call goes through `ashg.cli.main(argv)` in-process and starts only
after the previous one returned.  Set-up generates the workload from the
seed and writes the instance files; a pass then runs every call of the
workload once, and passes repeat until `--seconds` have gone by.  Every
answer is checked (see checker.py) outside the timed calls.

After every call the client also times a fixed piece of the
benchmark's own Python code, the reference (see `reference_work`).
With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics, built from each call's best time over the passes and
corrected for the host's speed by the reference's best times (see
`host_factor`).  With `--trace 1` passes
alternate untraced and traced; the traced ones wrap the package's public
functions (see tracing.py) and give the per-layer metrics, plus the
tracing overhead as traced minus untraced pass time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checker as checker_mod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0  # the seed whose answers are recorded in recorded_answers.json
RECORDED = BENCH_DIR / "recorded_answers.json"
SETUP_REPEATS = 7
# Best time of one `reference_work()` on a 2-core Xeon virtual machine
# (Python 3.11.7) in its fast phase; the unit the host factor is taken in.
REFERENCE_S = 0.000_16

SOLVE_KIND = {"nash": "solve_nash", "connected-nash": "solve_connected",
              "dynamics": "solve_dynamics"}
KINDS = ("solve_nash", "solve_connected", "solve_dynamics", "verify", "gen", "oracle")

# Metrics in the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_nash_s", "s"),
    ("solve_connected_s", "s"),
    ("solve_dynamics_s", "s"),
    ("verify_s", "s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("formats.parse_instance.s", "s"),
    ("formats.parse_partition.s", "s"),
    ("formats.serialize_partition.s", "s"),
    ("formats.bytes_read", "bytes"),
    ("decomposition.heuristic_decompose.s", "s"),
    ("decomposition.validate.s", "s"),
    ("decomposition.validate.calls", "count"),
    ("decomposition.validate.per_solve", "ratio"),
    ("decomposition.validate_nice.s", "s"),
    ("decomposition.make_nice.s", "s"),
    ("decomposition.square_augment.s", "s"),
    ("decomposition.square_instance.s", "s"),
    ("decomposition.width.max", "count"),
    ("decomposition.nice_nodes.sum", "count"),
    ("coloring.solve.self_s", "s"),
    ("coloring.capped", "count"),
    ("coloring.peak_table.max", "count"),
    ("coloring.peak_table.sum", "count"),
    ("coloring.k.max", "count"),
    ("connected.solve.self_s", "s"),
    ("connected.capped", "count"),
    ("connected.peak_table.max", "count"),
    ("connected.peak_table.sum", "count"),
    ("game.dynamics.s", "s"),
    ("game.dynamics.converged_ratio", "ratio"),
    ("game.is_nash_stable.s", "s"),
    ("game.is_connected_partition.s", "s"),
    ("oracle.calls", "count"),
    ("reductions.vertices", "count"),
    ("trace.overhead_s", "s"),
)
UNITS = {"_s": "s", "_ms": "ms", ".s": "s", "_mb": "MB", "_frac": "ratio", "_factor": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return dict(PER_LAYER).get(name, "count")


class SetupError(Exception):
    """The package cannot be found or imported from this checkout."""


def import_ashg():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "ashg" / "cli.py").is_file():
        raise SetupError(f"no package source at {SRC / 'ashg'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ashg" or m.startswith("ashg.")]:
        del sys.modules[name]
    ashg = importlib.import_module("ashg")
    cli = importlib.import_module("ashg.cli")
    if SRC.resolve() not in Path(ashg.__file__).resolve().parents:
        raise SetupError(f"imported ashg from {ashg.__file__}, not from {SRC}")
    return ashg, cli


def singletons_text(n: int) -> str:
    return f"s part {n} {n}\n" + "".join(f"{v} {v}\n" for v in range(1, n + 1))


def write_files(plan, work: Path) -> None:
    (work / "inst").mkdir(parents=True, exist_ok=True)
    (work / "gen").mkdir(exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    for inst in plan.instances:
        (work / "inst" / f"{inst.name}.ashg").write_text(inst.text(), encoding="utf-8")
    for n in {inst.n for inst in plan.instances}:
        (work / "inst" / f"single{n}.part").write_text(singletons_text(n), encoding="utf-8")
    for g in plan.gens:
        (work / "gen" / f"{g.name}.src").write_text(g.source, encoding="utf-8")
        (work / "gen" / f"{g.name}.cert").write_text(g.witness, encoding="utf-8")


def setup(workload: str, seed: int, work: Path):
    """Import, generate and write the workload; repeated, median reported.

    Every repetition writes the same files, so from the second one on they
    are overwritten: on a shared disk creating a file costs 0.1-1 ms and
    varies with the other tenants' traffic, rewriting one a few times less.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ashg, cli = import_ashg()
        plan = workloads.PLANS[workload](seed)
        write_files(plan, work)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ashg, cli, plan, work


# ---------------------------------------------------------------------------
# client


@dataclass
class CallResult:
    code: int | None  # None when the call raised
    answer: str | None  # value of the `c answer` line


def _c_value(lines, key):
    prefix = f"c {key} "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


@dataclass
class PassResult:
    traced: bool
    latency: dict = field(default_factory=dict)  # call label -> (kind, seconds)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # call label -> first reason
    solves: int = 0
    unknown: int = 0
    counters: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)  # call label -> seconds


def reference_work() -> int:
    """A fixed slice of interpreter work like the program's own: parse
    text lines, build tuples, dicts and frozensets.

    It belongs to the benchmark, so no change to the package moves it;
    only the host's speed does.
    """
    rows: dict[int, list] = {}
    for i in range(120):
        _, u, v, w = f"a {i % 31 + 1} {i % 29 + 1} {i % 7 - 3}".split()
        rows.setdefault(int(u), []).append((int(v), int(w)))
    table: dict[tuple, int] = {}
    for u, row in rows.items():
        key = tuple(sorted(v for v, _ in row))
        table[key] = table.get(key, 0) + u
    return len({frozenset(key) for key in table})


def time_reference() -> float:
    """Seconds of one `reference_work()`, with the cyclic collector off so
    that no collection owed to the program's own allocations lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Client:
    """One closed-loop client calling `ashg.cli.main` in-process."""

    def __init__(self, cli, tracer, work: Path):
        self.cli = cli
        self.tracer = tracer
        self.work = work
        self.result: PassResult | None = None

    def call(self, kind: str, argv: list[str], label: str) -> CallResult:
        out, err = io.StringIO(), io.StringIO()
        code = None
        error = None
        traced = self.result.traced
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.tracer.enabled = traced
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            self.tracer.enabled = False
        reference = time_reference()
        res = self.result
        res.latency[label] = (kind, seconds)
        res.reference[label] = reference
        res.attempted += 1
        lines = out.getvalue().splitlines()
        res.counters[label] = (_c_value(lines, "width"), _c_value(lines, "peak-table"))
        if error is not None:
            self.fail(label, error)
        return CallResult(code, _c_value(lines, "answer"))

    def fail(self, label: str, reason: str | None) -> None:
        if reason:
            self.result.failures.setdefault(label, reason)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def run_pass(plan, client: Client, check, traced: bool) -> PassResult:
    res = client.result = PassResult(traced)
    work = client.work
    cap = str(plan.table_cap)
    for inst in plan.instances:
        path = str(work / "inst" / f"{inst.name}.ashg")
        single = work / "inst" / f"single{inst.n}.part"
        answers = {}
        for mode in inst.modes:
            label = f"{inst.name}:solve:{mode}"
            out = work / "out" / f"{inst.name}.{mode}.part"
            out.unlink(missing_ok=True)
            argv = ["solve", path, "--mode", mode, "--out", str(out)]
            if mode == "dynamics":
                argv += ["--max-steps", str(inst.max_steps)]
            else:
                argv += ["--table-cap", cap]
            r = client.call(SOLVE_KIND[mode], argv, label)
            part = _read(out) if r.answer == "SOME" else None
            client.fail(label, check.solve(inst, mode, r.code, r.answer, part))
            answers[("solve", mode)] = r.answer
            res.answers[label] = r.answer
            res.solves += 1
            res.unknown += r.answer == "UNKNOWN"
            if mode == "dynamics":
                continue
            # verify the answer when it is a partition, else the singletons,
            # so every pass makes the same number of verify calls
            given = out if part is not None else single
            connected = mode == "connected-nash"
            argv = ["verify", path, str(given)] + (["--connected"] if connected else [])
            v = client.call("verify", argv, f"{label}:verify")
            client.fail(f"{label}:verify",
                        check.verify(inst, _read(given), connected, v.code, v.answer))
        if inst.oracle:
            for mode in ("nash", "connected-nash"):
                label = f"{inst.name}:oracle:{mode}"
                out = work / "out" / f"{inst.name}.oracle.{mode}.part"
                out.unlink(missing_ok=True)
                r = client.call("oracle", ["oracle", path, "--mode", mode, "--out", str(out)],
                                label)
                part = _read(out) if r.answer == "SOME" else None
                client.fail(label, check.oracle(inst, mode, r.code, r.answer, part))
                answers[("oracle", mode)] = r.answer
                res.answers[label] = r.answer
        client.fail(f"{inst.name}:solve:nash", check.consistency(answers))
    for g in plan.gens:
        label = f"{g.name}:gen"
        inst_out = work / "out" / f"{g.name}.ashg"
        wit_out = work / "out" / f"{g.name}.part"
        inst_out.unlink(missing_ok=True)
        wit_out.unlink(missing_ok=True)
        argv = ["gen", g.generator, str(work / "gen" / f"{g.name}.src"), *g.args,
                "--out", str(inst_out), "--witness", str(work / "gen" / f"{g.name}.cert"),
                "--witness-out", str(wit_out)]
        r = client.call("gen", argv, label)
        client.fail(label, check.gen(g, r.code, _read(inst_out), _read(wit_out)))
        argv = ["verify", str(inst_out), str(wit_out)] + (["--connected"] if g.connected else [])
        v = client.call("verify", argv, f"{label}:verify")
        if v.code != 0:
            client.fail(f"{label}:verify", f"witness verify exited {v.code}")
    if traced:
        res.spans = client.tracer.take()
    return res


# ---------------------------------------------------------------------------
# reporting


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def best_times(passes) -> dict:
    """Each call's best time over the passes, as label -> (kind, seconds).

    The host's speed drifts by tens of percent over seconds, and
    contention only ever slows a call down, so the best of several passes
    is far steadier than their mean or median.
    """
    best = {}
    for p in passes:
        for label, (kind, seconds) in p.latency.items():
            if label not in best or seconds < best[label][1]:
                best[label] = (kind, seconds)
    return best


def host_factor(passes) -> float:
    """How much slower than REFERENCE_S the host ran the reference.

    The reference runs after every call, so each call label has a best
    reference time over the passes just as it has a best call time; the
    factor is their mean over the labels in units of REFERENCE_S.  On a
    shared host the speed of the same code moves by up to 2x in phases
    that last minutes, longer than a run, and sustained load itself slows
    it within seconds; the program's times move with the reference's, so
    dividing by this factor removes the phase and leaves the program's
    own speed.
    """
    best = {}
    for p in passes:
        for label, seconds in p.reference.items():
            best[label] = min(seconds, best.get(label, seconds))
    return statistics.fmean(best.values()) / REFERENCE_S


def end_to_end(setup_s, passes) -> dict:
    """End-to-end metrics; times are divided by the run's host factor.

    The measured times are kept as `raw.` metrics.  Set-up is divided by
    the factor of the passes too: a reference timed between set-up's file
    writes runs up to 2x slow while the kernel flushes them, and the
    speed of the set-up itself followed the host's phase from one set of
    runs to the next much as the passes did.
    """
    best = best_times(passes)
    factor = host_factor(passes)
    lat = [seconds for _, seconds in best.values()]
    raw = {"setup_s": setup_s}
    for kind in KINDS:
        times = [seconds for k, seconds in best.values() if k == kind]
        if times:  # a workload omits the commands it does not run
            raw[f"{kind}_s"] = sum(times)
    raw["call_p50_ms"] = 1000 * statistics.median(lat)
    if len(lat) >= 1000:  # at least ten samples beyond the p99
        raw["call_p99_ms"] = 1000 * percentile(lat, 99)
    m = {name: value / factor for name, value in raw.items()}
    m.update({f"raw.{name}": value for name, value in raw.items()})
    m["host_factor"] = factor
    m["call_samples"] = len(lat)
    solves = sum(p.solves for p in passes)
    m["unknown_frac"] = sum(p.unknown for p in passes) / solves if solves else 0.0
    m["failed_frac"] = sum(len(p.failures) for p in passes) / sum(p.attempted for p in passes)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def per_layer(passes, tracer) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [tracing.layer_metrics(p.spans) for p in traced]
    problems = []
    m = {}
    for name in layers[0]:
        if name in tracing.COUNTERS:
            values = {layer[name] for layer in layers}
            if len(values) > 1:
                problems.append(f"counter {name} differs between passes: {sorted(values)}")
            m[name] = layers[0][name]
        else:
            m[name] = min(layer[name] for layer in layers)
    m["trace.overhead_s"] = (sum(s for _, s in best_times(traced).values())
                             - sum(s for _, s in best_times(plain).values()))
    return m, problems


def counter_problems(passes) -> list[str]:
    first = passes[0].counters
    return [f"pass {i}: CLI counters (width, peak-table) differ from pass 0"
            for i, p in enumerate(passes[1:], start=1) if p.counters != first]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def record_answers(workload: str, passes) -> None:
    """Store this run's answers for instances beyond the oracle limit."""
    data = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    plan = workloads.PLANS[workload](DEFAULT_SEED)
    big = {inst.name for inst in plan.instances if inst.n > checker_mod.ORACLE_LIMIT}
    data[workload] = {label: answer for label, answer in sorted(passes[0].answers.items())
                      if label.split(":")[0] in big}
    RECORDED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"store the answers of seed {DEFAULT_SEED} in {RECORDED.name}")
    args = ap.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        ap.error(f"--record needs --seed {DEFAULT_SEED}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, ashg, cli, plan, files = setup(args.workload, args.seed, work)
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2

    recorded = None
    if args.seed == DEFAULT_SEED and not args.record and RECORDED.exists():
        recorded = json.loads(RECORDED.read_text(encoding="utf-8")).get(args.workload, {})
    check = checker_mod.Checker(ashg, recorded)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    client = Client(cli, tracer, files)

    passes: list[PassResult] = []
    t_start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t_pass = time.perf_counter()
            passes.append(run_pass(plan, client, check, traced))
            now = time.perf_counter()
            # stop when the next pass would end past the deadline
            if (now - t_start + (now - t_pass) > args.seconds
                    and len({p.traced for p in passes}) == 1 + args.trace):
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    measured_s = time.perf_counter() - t_start

    if args.record:
        record_answers(args.workload, passes)

    failures = [f"{label}: {reason}" for p in passes for label, reason in p.failures.items()]
    problems = counter_problems(passes)
    attempted = sum(p.attempted for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced) in {measured_s:.1f} s, "
          f"{passes[0].attempted} calls per pass, one closed-loop client")
    print(f"sizes {json.dumps(plan.sizes())} table_cap {plan.table_cap}")
    print(f"counter digest {digest(sorted(passes[0].counters.items()))}")
    if recorded is None:
        print(f"held-out seed: {check.held_out_skips} NONE answers beyond the oracle "
              f"limit not compared with recorded answers")

    if args.trace:
        metrics, trace_problems = per_layer(passes, tracer)
        metrics["host_factor"] = host_factor(passes)
        problems += trace_problems
        for name in tracer.absent:
            print(f"absent {name}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.dump_spans([p for p in passes if p.traced][-1].spans, spans_path)
        print(f"spans of the last traced pass in {spans_path.relative_to(ROOT)}")
        names = PER_LAYER
    else:
        metrics = end_to_end(setup_s, passes)
        names = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    for line in failures[:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
