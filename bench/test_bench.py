"""Tests of the benchmark itself: checker, span arithmetic, seeded inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ashg  # noqa: E402
import pytest  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# 1 and 2 like each other, 3 dislikes both: {1,2},{3} is the stable partition
TRIANGLE = workloads.Instance(
    name="triangle", n=3,
    arcs=((1, 2, 2), (2, 1, 2), (3, 1, -1), (3, 2, -1)),
    modes=("nash",),
)
STABLE = "s part 3 2\n1 1\n2 1\n3 2\n"
GRAND = "s part 3 1\n1 1\n2 1\n3 1\n"  # 3 has utility -2 and leaves
# a chase pair: 1 wants 2, 2 is repelled by 1; no stable partition exists
CHASE = workloads.Instance(
    name="chase", n=2, arcs=((1, 2, 1), (2, 1, -1)), modes=("nash",))


@pytest.fixture
def check():
    return checker.Checker(ashg, recorded={})


class TestChecker:
    def test_accepts_stable_partition(self, check):
        assert check.solve(TRIANGLE, "nash", 0, "SOME", STABLE) is None

    def test_flags_corrupted_partition(self, check):
        assert "fails the verifier" in check.solve(TRIANGLE, "nash", 0, "SOME", GRAND)

    def test_flags_unreadable_partition(self, check):
        bad = STABLE.replace("3 2\n", "")
        assert "unreadable" in check.solve(TRIANGLE, "nash", 0, "SOME", bad)

    def test_flags_flipped_answer_against_oracle(self, check):
        assert "oracle" in check.solve(TRIANGLE, "nash", 1, "NONE", None)

    def test_flags_none_on_non_negative_instance(self, check):
        path = workloads.Instance(
            name="p", n=20, arcs=tuple((v, v + 1, 1) for v in range(1, 20)),
            modes=("nash",), nonneg=True)
        assert "always has" in check.solve(path, "connected-nash", 1, "NONE", None)

    def test_accepts_true_none(self, check):
        assert check.solve(CHASE, "nash", 1, "NONE", None) is None
        assert check.oracle(CHASE, "nash", 1, "NONE", None) is None

    def test_flags_exit_code_mismatch(self, check):
        assert "does not match" in check.solve(TRIANGLE, "nash", 1, "SOME", STABLE)

    def test_flags_wrong_verify_verdict(self, check):
        assert check.verify(TRIANGLE, GRAND, False, 1, "UNSTABLE") is None
        assert "checker says UNSTABLE" in check.verify(TRIANGLE, GRAND, False, 0, "STABLE")

    def test_flags_recorded_answer_flip(self):
        big = workloads.Instance(name="big", n=20, arcs=(), modes=("nash",))
        check = checker.Checker(ashg, recorded={"big:solve:nash": "SOME"})
        assert "recorded" in check.solve(big, "nash", 1, "NONE", None)

    def test_held_out_seed_counts_skips(self):
        big = workloads.Instance(name="big", n=20, arcs=(), modes=("nash",))
        check = checker.Checker(ashg, recorded=None)
        assert check.solve(big, "nash", 1, "NONE", None) is None
        assert check.held_out_skips == 1

    def test_cross_mode_consistency(self):
        flipped = {("solve", "nash"): "NONE", ("solve", "connected-nash"): "SOME"}
        assert checker.Checker.consistency(flipped) is not None
        oracle = {("solve", "nash"): "SOME", ("oracle", "nash"): "NONE"}
        assert checker.Checker.consistency(oracle) is not None
        agree = {("solve", "nash"): "NONE", ("oracle", "nash"): "NONE"}
        assert checker.Checker.consistency(agree) is None


class TestHostCorrection:
    @staticmethod
    def passes(scale_by_pass):
        """Passes of two calls whose times and references all scale together."""
        out = []
        for scale in scale_by_pass:
            p = run.PassResult(traced=False, attempted=2)
            p.latency = {"a": ("solve_nash", 2.0 * scale), "b": ("verify", 1.0 * scale)}
            p.reference = {"a": run.REFERENCE_S * scale, "b": run.REFERENCE_S * scale}
            out.append(p)
        return out

    def test_factor_is_mean_best_reference(self):
        p = self.passes([1.5, 2.0])
        p[1].reference["b"] = run.REFERENCE_S * 3.0  # b's best stays at 1.5
        assert run.host_factor(p) == pytest.approx(1.5)

    def test_slow_host_leaves_corrected_times(self):
        fast = run.end_to_end(0.1, self.passes([1.0, 1.2]))
        slow = run.end_to_end(0.16, self.passes([1.6, 1.9]))
        assert slow["raw.solve_nash_s"] == pytest.approx(3.2)
        assert slow["host_factor"] == pytest.approx(1.6)
        for name in ("setup_s", "solve_nash_s", "verify_s", "call_p50_ms"):
            assert slow[name] == pytest.approx(fast[name])
        assert fast["solve_nash_s"] == pytest.approx(2.0)
        assert slow["raw.setup_s"] == 0.16


class TestSpans:
    def test_self_time_on_nested_spans(self):
        spans = [
            tracing.Span("root", 0.0, 10.0),
            tracing.Span("a", 1.0, 4.0, parent=0),
            tracing.Span("a.inner", 2.0, 3.0, parent=1),
            tracing.Span("b", 5.0, 9.0, parent=0),
            tracing.Span("root", 20.0, 21.0),
        ]
        assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]

    def test_wrappers_record_nesting_and_absent_names(self, monkeypatch):
        mod = types.ModuleType("fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        mod.inner, mod.outer = inner, outer
        monkeypatch.setitem(sys.modules, "fake_layer", mod)
        tracer = tracing.Tracer()
        tracer.install((("fake_layer", "outer", "outer", None),
                        ("fake_layer", "inner", "inner", None),
                        ("fake_layer", "gone", "gone", None)))
        try:
            assert mod.outer(1) == 4  # disabled: no spans
            assert tracer.spans == []
            tracer.enabled = True
            mod.outer(1)
            mod.inner(1)
        finally:
            tracer.uninstall()
        assert mod.outer is outer and mod.inner is inner
        assert tracer.absent == ["fake_layer.gone"]
        spans = tracer.take()
        assert [(s.name, s.parent, s.call) for s in spans] == [
            ("outer", -1, 0), ("inner", 0, 0), ("inner", -1, 2)]
        assert all(s.end >= s.start for s in spans)

    def test_layer_metrics_cover_per_layer_names(self):
        names = set(tracing.layer_metrics([]))
        assert {name for name, _ in run.PER_LAYER} - names == {"trace.overhead_s"}


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.PLANS))
    def test_generator_is_deterministic(self, name):
        make = workloads.PLANS[name]
        assert make(7) == make(7)
        assert make(7) != make(8)

    def test_suite_mix(self):
        plan = workloads.suite_plan(0)
        chase = [i for i in plan.instances if i.name.startswith("chase")]
        assert len(chase) * 2 == len(plan.instances)
        assert max(i.n for i in plan.instances) <= 8
        assert {g.generator for g in plan.gens} == {"sat-hd", "sat-bd", "3part", "binpack"}

    def test_tree_degree_bound(self):
        import random
        degree = {}
        for u, v in workloads.random_tree_edges(500, random.Random(1)):
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert len(degree) == 500 and max(degree.values()) <= 3

    def test_benchmark_json_matches_run(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.PLANS)
