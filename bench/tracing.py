"""Spans around the package's public functions, recorded from outside.

The tracer replaces module attributes (for example `ashg.cli.validate`
or `ashg.coloring.square_augment`) with wrappers that record one span
per call: name, start, end, parent and the client call it belongs to.
Spans stay in memory; the run writes them out at the end.  Attributes
that no longer exist are skipped and reported as absent, so renaming or
deleting a function inside the package never breaks the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    call: int = -1  # index of the client call (root span) it belongs to
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous and single-threaded, so a child lies inside its
    parent and siblings do not overlap; the covered time is the sum of the
    children's durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _stat(stats, key):
    """Read a counter from the solvers' `stats=` record, dict or object."""
    if stats is None:
        return None
    if isinstance(stats, dict):
        return stats.get(key)
    return getattr(stats, key, None)


def _solver_hook(span, args, kwargs, result):
    stats = kwargs.get("stats")
    for key in ("k", "peak_table", "nice_nodes"):
        value = _stat(stats, key)
        if value is not None:
            span.attrs[key] = value


def _width_hook(span, args, kwargs, result):
    span.attrs["width"] = getattr(result, "width", None)


def _dynamics_hook(span, args, kwargs, result):
    span.attrs["converged"] = result is not None


def _bytes_hook(span, args, kwargs, result):
    text = args[0] if args else next(iter(kwargs.values()), "")
    span.attrs["bytes"] = len(text.encode("utf-8"))


def _vertices_hook(span, args, kwargs, result):
    instance = result[0] if isinstance(result, tuple) else result
    span.attrs["vertices"] = getattr(instance, "n", 0)


_GENS = ("gen_sat_high_degree", "gen_sat_bounded_degree",
         "gen_three_partition_star", "gen_bin_packing")
_WITNESSES = ("witness_sat_high_degree", "witness_sat_bounded_degree",
              "witness_three_partition_star", "witness_bin_packing")

# (module, attribute, span name, hook).  Functions are wrapped where their
# callers look them up: the CLI's own imports, the solvers' imports, and
# module globals used inside the same module.
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("ashg.cli", "main", "cli.main", None),
    ("ashg.formats", "parse_instance", "formats.parse_instance", _bytes_hook),
    ("ashg.formats", "parse_partition", "formats.parse_partition", _bytes_hook),
    ("ashg.formats", "parse_decomposition", "formats.parse_decomposition", _bytes_hook),
    ("ashg.formats", "parse_cnf", "formats.parse_cnf", _bytes_hook),
    ("ashg.formats", "parse_int_list", "formats.parse_int_list", _bytes_hook),
    ("ashg.formats", "serialize_partition", "formats.serialize_partition", None),
    ("ashg.formats", "serialize_instance", "formats.serialize_instance", None),
    ("ashg.cli", "heuristic_decompose", "decomposition.heuristic_decompose", _width_hook),
    ("ashg.cli", "validate", "decomposition.validate", None),
    ("ashg.cli", "make_nice", "decomposition.make_nice", None),
    ("ashg.coloring", "validate", "decomposition.validate", None),
    ("ashg.coloring", "make_nice", "decomposition.make_nice", None),
    ("ashg.coloring", "square_augment", "decomposition.square_augment", None),
    ("ashg.coloring", "square_instance", "decomposition.square_instance", None),
    ("ashg.coloring", "heuristic_decompose", "decomposition.heuristic_decompose", None),
    ("ashg.connected", "validate", "decomposition.validate", None),
    ("ashg.connected", "validate_nice", "decomposition.validate_nice", None),
    ("ashg.decomposition", "validate", "decomposition.validate", None),
    ("ashg.decomposition", "square_instance", "decomposition.square_instance", None),
    ("ashg.cli", "solve_nash_via_coloring", "coloring.solve", _solver_hook),
    ("ashg.cli", "solve_connected_nash", "connected.solve", _solver_hook),
    ("ashg.cli", "better_response_dynamics", "game.dynamics", _dynamics_hook),
    ("ashg.cli", "is_nash_stable", "game.is_nash_stable", None),
    ("ashg.cli", "is_connected_partition", "game.is_connected_partition", None),
    ("ashg.cli", "brute_force_nash", "oracle.brute_force_nash", None),
    ("ashg.cli", "brute_force_connected_nash", "oracle.brute_force_connected_nash", None),
    *(("ashg.cli", g, "reductions.gen", _vertices_hook) for g in _GENS),
    *(("ashg.reductions", g, "reductions.gen", None) for g in _GENS),
    *(("ashg.cli", w, "reductions.witness", None) for w in _WITNESSES),
)


class Tracer:
    """Installs wrappers, records spans while enabled, removes wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            span = Span(name, 0.0, parent=parent,
                        call=tracer.spans[parent].call if parent >= 0 else index)
            tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if hook is not None:
                    hook(span, args, kwargs, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def dump_spans(spans: list[Span], path) -> None:
    """Write spans as JSON lines, one object per span."""
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "call": s.call, "error": s.error,
                "attrs": s.attrs,
            }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


TIME_NAMES = (
    "formats.parse_instance", "formats.parse_partition",
    "formats.serialize_partition", "formats.serialize_instance",
    "decomposition.heuristic_decompose", "decomposition.validate",
    "decomposition.validate_nice", "decomposition.make_nice",
    "decomposition.square_augment", "decomposition.square_instance",
    "game.dynamics", "game.is_nash_stable", "game.is_connected_partition",
    "oracle.brute_force_nash", "oracle.brute_force_connected_nash",
    "reductions.gen", "reductions.witness",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times in s, counters as counts."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + t
        count[s.name] = count.get(s.name, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {"cli.main.self_s": total.get("cli.main", 0.0)}
    for name in TIME_NAMES:
        m[f"{name}.s"] = total.get(name, 0.0)
    m["formats.bytes_read"] = sum(
        s.attrs.get("bytes", 0) for s in spans if s.name.startswith("formats.parse_"))

    solves = count.get("coloring.solve", 0) + count.get("connected.solve", 0)
    validates = count.get("decomposition.validate", 0)
    m["decomposition.validate.calls"] = validates
    m["decomposition.validate.per_solve"] = validates / solves if solves else 0.0
    m["decomposition.width.max"] = max(
        (s.attrs.get("width") or 0 for s in named("decomposition.heuristic_decompose")),
        default=0)
    m["decomposition.nice_nodes.sum"] = sum(
        s.attrs.get("nice_nodes", 0) for s in spans
        if s.name in ("coloring.solve", "connected.solve"))

    for layer in ("coloring", "connected"):
        calls = named(f"{layer}.solve")
        capped = [s for s in calls if s.error == "ResourceLimitError"]
        peaks = [s.attrs["peak_table"] for s in calls if "peak_table" in s.attrs]
        m[f"{layer}.solve.self_s"] = total.get(f"{layer}.solve", 0.0)
        m[f"{layer}.calls"] = len(calls)
        m[f"{layer}.capped"] = len(capped)
        m[f"{layer}.capped_s"] = sum(s.duration for s in capped)
        m[f"{layer}.peak_table.max"] = max(peaks, default=0)
        m[f"{layer}.peak_table.sum"] = sum(peaks)
    m["coloring.k.max"] = max(
        (s.attrs["k"] for s in named("coloring.solve") if "k" in s.attrs), default=0)

    dynamics = named("game.dynamics")
    m["game.dynamics.converged_ratio"] = (
        sum(1 for s in dynamics if s.attrs.get("converged")) / len(dynamics)
        if dynamics else 0.0)
    m["oracle.calls"] = count.get("oracle.brute_force_nash", 0) + count.get(
        "oracle.brute_force_connected_nash", 0)
    m["reductions.vertices"] = sum(
        s.attrs.get("vertices", 0) for s in named("reductions.gen"))
    return m


COUNTERS = (
    "formats.bytes_read", "decomposition.validate.calls",
    "decomposition.validate.per_solve", "decomposition.width.max",
    "decomposition.nice_nodes.sum", "coloring.calls", "coloring.capped",
    "coloring.peak_table.max", "coloring.peak_table.sum", "coloring.k.max",
    "connected.calls", "connected.capped", "connected.peak_table.max",
    "connected.peak_table.sum", "game.dynamics.converged_ratio",
    "oracle.calls", "reductions.vertices",
)
"""Deterministic per-pass counters: they must repeat exactly between passes."""
