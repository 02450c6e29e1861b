"""In-memory span tracing of cleanbench's layers, wrapped from outside.

The tracer replaces the public attributes that callers actually resolve (for
example `cleanbench.bench.run_detector`, which `bench` imported by name) with
wrappers that record a span per call, and restores them on `close`. Nothing
under `src/` changes.

Parent rule: a span takes the innermost span open on its own thread. A thread
with no open span of its own (a `_run_with_timeout` helper or a grid pool
thread) takes the innermost span open on the thread that created the tracer,
which is the enclosing `bench.run` or `bench.build_versions` span.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("tabular", "inject", "detect", "repair", "models", "metrics", "store", "stats", "report", "bench")
DETECTORS = ("mvd", "fahes", "sd", "iqr", "if", "cl")
REPAIRS = ("mean", "delete", "knn", "iter")
MODEL_KINDS = ("logit", "dt", "knn")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters; spans stay in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, time.perf_counter(), float("nan"), parent, self.run_id))
        stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace `owner.attr` with a traced wrapper.

        `name` is a span name or a function of the call's arguments giving one;
        `after(result, args, kwargs)` may add counters from the call's result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            span_id = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from cleanbench import bench, metrics, models, report
    from cleanbench.models import DecisionTree
    from cleanbench.store import ResultsStore
    from cleanbench.tabular import Dataset

    tracer.wrap(bench, "load_csv", "tabular.load_csv")
    tracer.wrap(Dataset, "take_rows", "tabular.take_rows", lambda r, a, k: tracer.count("tabular.take_rows.calls"))
    tracer.wrap(
        Dataset, "replace_cells", "tabular.replace_cells", lambda r, a, k: tracer.count("tabular.replace_cells.calls")
    )

    def after_inject(result, args, kwargs):
        tracer.count("inject.calls")
        tracer.count("inject.cells", sum(len(m) for m in result[1].masks.values()))

    tracer.wrap(bench, "inject", "inject", after_inject)

    def after_detect(run, args, kwargs):
        tracer.count("detect.calls")
        tracer.count("detect.flagged_cells", len(run.mask))

    tracer.wrap(bench, "run_detector", lambda spec, *a, **k: f"detect.{spec.kind}", after_detect)

    def after_repair(repaired, args, kwargs):
        tracer.count("repair.calls")
        tracer.count("repair.cells_repaired", len(repaired.repaired_cells))
        tracer.count("repair.flagged_in", len(args[2]))

    tracer.wrap(bench, "apply_repair", lambda spec, *a, **k: f"repair.{spec.kind}", after_repair)

    tracer.wrap(models, "encode", "models.encode")
    tracer.wrap(models, "fit", lambda spec, *a, **k: f"models.fit.{spec.kind}")
    tracer.wrap(models, "predict", "models.predict")
    tracer.wrap(DecisionTree, "fit", "models.cart_fit", lambda r, a, k: tracer.count("models.cart_fit.calls"))

    tracer.wrap(bench, "model_metrics", "metrics.model_metrics")
    tracer.wrap(metrics, "detection_metrics", "metrics.detection_metrics")

    tracer.wrap(ResultsStore, "append", "store.append", lambda r, a, k: tracer.count("store.append.calls"))
    tracer.wrap(ResultsStore, "write_index", "store.write_index")
    tracer.wrap(ResultsStore, "query", "store.query")

    tracer.wrap(bench, "wilcoxon_signed_rank", "stats.wilcoxon", lambda r, a, k: tracer.count("stats.wilcoxon.calls"))
    tracer.wrap(report, "emit_report", "report.emit_report")

    tracer.wrap(bench, "build_versions", "bench.build_versions")
    tracer.wrap(bench, "run_benchmark", "bench.run")
    tracer.wrap(bench, "run_robustness_sweep", "bench.run")


# -- span-tree arithmetic -----------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap each other, so their covered time
    is a union of intervals clipped to the parent's own interval.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in kids.get(s.id, []) if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def _outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of the layer whose ancestors all lie outside it."""
    by_id = {s.id: s for s in spans}

    def inside(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if layer_of(by_id[p].name) == layer:
                return True
            p = by_id[p].parent
        return False

    return [s for s in spans if layer_of(s.name) == layer and not inside(s)]


def per_layer_metrics(spans: list[Span], counts: Counter, wall_s: float, workers: int, store_bytes: int) -> dict:
    """The per-layer metric set, named as in BENCHMARK.json.

    `.s` is busy time: the summed duration of a span name's calls. A layer's
    `share` is the part of `wall_s` during which one of its outermost spans
    was open; shares include nested work of other layers (CART fits inside
    `repair.iter` count for repair), so they may sum above 1.
    """
    busy: Counter = Counter()
    for s in spans:
        busy[s.name] += s.end - s.start
    m: dict[str, float] = {}

    def put(name, value):
        m[name] = float(value)

    put("tabular.load_csv.s", busy["tabular.load_csv"])
    for op in ("take_rows", "replace_cells"):
        put(f"tabular.{op}.s", busy[f"tabular.{op}"])
        put(f"tabular.{op}.calls", counts[f"tabular.{op}.calls"])
    put("inject.s", busy["inject"])
    put("inject.calls", counts["inject.calls"])
    put("inject.cells", counts["inject.cells"])
    for d in DETECTORS:
        put(f"detect.{d}.s", busy[f"detect.{d}"])
    put("detect.calls", counts["detect.calls"])
    put("detect.flagged_cells", counts["detect.flagged_cells"])
    for r in REPAIRS:
        put(f"repair.{r}.s", busy[f"repair.{r}"])
    put("repair.calls", counts["repair.calls"])
    put("repair.cells_repaired", counts["repair.cells_repaired"])
    put("repair.flagged_in", counts["repair.flagged_in"])
    flagged = counts["repair.flagged_in"]
    put("repair.fill_ratio", counts["repair.cells_repaired"] / flagged if flagged else 0.0)
    put("models.encode.s", busy["models.encode"])
    for k in MODEL_KINDS:
        put(f"models.fit.{k}.s", busy[f"models.fit.{k}"])
    put("models.predict.s", busy["models.predict"])
    put("models.cart_fit.s", busy["models.cart_fit"])
    put("models.cart_fit.calls", counts["models.cart_fit.calls"])
    put("metrics.model_metrics.s", busy["metrics.model_metrics"])
    put("metrics.detection_metrics.s", busy["metrics.detection_metrics"])
    put("store.append.s", busy["store.append"])
    put("store.append.calls", counts["store.append.calls"])
    put("store.bytes", store_bytes)
    put("store.write_index.s", busy["store.write_index"])
    put("store.query.s", busy["store.query"])
    put("stats.wilcoxon.s", busy["stats.wilcoxon"])
    put("stats.wilcoxon.calls", counts["stats.wilcoxon.calls"])
    put("report.emit_report.s", busy["report.emit_report"])

    selfs = self_times(spans)
    kids = children_of(spans)
    runs = [s for s in spans if s.name == "bench.run"]
    put("bench.run.self_s", sum(selfs[s.id] for s in runs))
    put("bench.build_versions.s", busy["bench.build_versions"])
    child_busy = sum(c.end - c.start for s in runs for c in kids.get(s.id, []))
    put("bench.pool_child_busy_s", child_busy)
    put("bench.workers", workers)
    put("bench.pool_busy_frac", child_busy / (wall_s * workers) if wall_s > 0 else 0.0)

    for layer in LAYERS:
        put(f"layer.{layer}.self_s", sum(selfs[s.id] for s in spans if layer_of(s.name) == layer))
        if layer != "bench":
            covered = union_length((s.start, s.end) for s in _outermost(spans, layer))
            put(f"layer.{layer}.share", covered / wall_s if wall_s > 0 else 0.0)
    return m
