"""Tests for the benchmark's own logic.

Run from the repository root: python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import spans  # noqa: E402
from cleanbench.bench import load_ground_truth  # noqa: E402
from cleanbench.store import ResultsStore  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree() -> list[Span]:
    # bench.run [0, 10] holds two overlapping children from different threads
    # and one that outlives it; repair.iter nests a CART fit.
    return [
        Span(0, "bench.run", 0.0, 10.0, None, "r"),
        Span(1, "repair.iter", 1.0, 4.0, 0, "r"),
        Span(2, "models.cart_fit", 2.0, 3.0, 1, "r"),
        Span(3, "models.fit.logit", 3.0, 6.0, 0, "r"),
        Span(4, "store.append", 9.0, 12.0, 0, "r"),
    ]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    selfs = spans.self_times(_tree())
    # children cover [1, 6] and [9, 10] of bench.run
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_layer_metrics_from_span_tree():
    counts = Counter({"repair.cells_repaired": 30, "repair.flagged_in": 20})
    m = spans.per_layer_metrics(_tree(), counts, wall_s=10.0, workers=2, store_bytes=7)
    assert m["bench.run.self_s"] == pytest.approx(4.0)
    assert m["repair.iter.s"] == pytest.approx(3.0)
    assert m["models.cart_fit.s"] == pytest.approx(1.0)
    assert m["layer.repair.self_s"] == pytest.approx(2.0)
    assert m["layer.models.self_s"] == pytest.approx(4.0)
    # the nested CART fit counts for the share of repair and of models
    assert m["layer.repair.share"] == pytest.approx(0.3)
    assert m["layer.models.share"] == pytest.approx(0.4)
    assert m["bench.pool_child_busy_s"] == pytest.approx(9.0)
    assert m["bench.pool_busy_frac"] == pytest.approx(9.0 / (10.0 * 2))
    assert m["repair.fill_ratio"] == pytest.approx(1.5)
    assert m["store.bytes"] == 7


def test_span_on_helper_thread_takes_main_threads_innermost_span_as_parent():
    class Box:
        def outer(self):
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def inner(self):
            pass

    tracer = spans.Tracer("t")
    tracer.wrap(Box, "outer", "bench.run")
    tracer.wrap(Box, "inner", "detect.if")
    try:
        Box().outer()
    finally:
        tracer.close()
    run, det = tracer.spans
    assert run.parent is None
    assert det.parent == run.id
    assert Box.outer.__name__ == "outer" and not hasattr(Box.outer, "__wrapped__")


def test_canonical_strips_only_timestamp_and_runtime_fields():
    record = {
        "value": 0.5,
        "timestamp": 123.0,
        "detect_runtime": 1.0,
        "repair_runtime": 2.0,
        "train_runtime": 3.0,
        "runtime": 4.0,
        "runtime_note": "kept",
    }
    assert outputs.strip(record) == {"value": 0.5, "runtime": 4.0, "runtime_note": "kept"}
    moved = dict(record, timestamp=999.0, train_runtime=9.0)
    assert outputs.digest([outputs.canonical(moved)]) == outputs.digest([outputs.canonical(record)])
    changed = dict(record, value=0.25)
    assert outputs.digest([outputs.canonical(changed)]) != outputs.digest([outputs.canonical(record)])


def test_digest_is_order_free_and_count_wrong_counts_each_record():
    assert outputs.digest(["a", "b"]) == outputs.digest(["b", "a"])
    want = {"k1": "a", "k2": "b", "k3": "c"}
    assert outputs.count_wrong(dict(want), want) == 0
    assert outputs.count_wrong({"k1": "a", "k2": "x", "k4": "d"}, want) == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_input_is_deterministic_in_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    workload.make_input(7, paths[0])
    workload.make_input(7, paths[1])
    workload.make_input(8, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


REDUCED_ROWS = {"grid_repair": 150, "grid_models": 150, "sweep_detect": 300}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_declares_categorical_label_and_fails_nothing(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], n=REDUCED_ROWS[name])
    csv_path = tmp_path / "input.csv"
    workload.make_input(0, csv_path)
    cfg = workload.config(csv_path, 0)
    assert load_ground_truth(cfg.dataset).column("label").declared_type == "categorical"

    store_path = tmp_path / "results.jsonl"
    workload.execute(cfg, ResultsStore(store_path), tmp_path)
    records = ResultsStore(store_path).records()
    assert len(records) == workload.expected(cfg)
    assert [r["error"] for r in records if r.get("error")] == []
