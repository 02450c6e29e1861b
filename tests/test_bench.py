import gc
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from cleanbench import bench, models
from cleanbench.bench import (
    BenchError,
    BenchmarkConfig,
    PlanningError,
    ab_compare,
    config_from_dict,
    materialize,
    plan_experiments,
    run_benchmark,
    run_robustness_sweep,
    run_scalability_sweep,
)
from cleanbench.detect import DetectorSpec
from cleanbench.inject import ErrorProfile, ErrorSpec
from cleanbench.metrics import model_metrics
from cleanbench.models import ModelSpec
from cleanbench.repair import RepairSpec
from cleanbench.seeding import derive_seed
from cleanbench.store import ResultsStore, make_record, record_key
from cleanbench.tabular import Dataset, SplitSpec, split_indices
from helpers import POOL_WORKERS


def stripped_lines(path) -> list[str]:
    """The store file's records in line order, without timestamp and runtimes."""
    return [
        json.dumps({k: v for k, v in json.loads(line).items() if k != "timestamp" and not k.endswith("_runtime")},
                   sort_keys=True)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def desk_config(**overrides):
    base = dict(
        dataset={
            "kind": "synthetic",
            "generator": "two_class",
            "n": 150,
            "seed": 1,
            "weights": (2.0, -2.0, 1.0),
            "name": "desk",
        },
        profile=ErrorProfile(
            [ErrorSpec("explicit_mv", 0.05), ErrorSpec("gaussian_outlier", 0.08, {"degree": 4.0})]
        ),
        detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 2.0})],
        repairs=[RepairSpec("mean"), RepairSpec("median"), RepairSpec("knn", {"k": 3})],
        models=[ModelSpec("logit", "classification"), ModelSpec("dt", "classification")],
        scenarios=["S1", "S4"],
        repeats=10,
        master_seed=7,
        label_column="label",
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestPlanning:
    def test_formula_on_desk_grid(self):
        cfg = desk_config()
        grid = plan_experiments(cfg, frozenset({"missing", "outliers"}))
        assert grid.epsilon == 6
        s1 = [c for c in grid.cells if c.scenario == "S1"]
        s4 = [c for c in grid.cells if c.scenario == "S4"]
        assert len(s1) == (6 + 1) * 2 * 10 == 140
        assert len(s4) == 2 * 10 == 20
        assert grid.total == 160

    def test_duplicates_only_skips_pointless_detectors(self):
        cfg = desk_config(detectors=[DetectorSpec("dedup"), DetectorSpec("sd", {"n": 2.0})],
                          key_columns=["x0"])
        grid = plan_experiments(cfg, frozenset({"duplicates"}))
        assert [d.kind for d, _ in grid.strategies] == ["dedup"] * 3
        assert any("duplicates" in reason for _, reason in grid.skipped)

    def test_all_detectors_skipped_is_error(self):
        cfg = desk_config(detectors=[DetectorSpec("sd", {"n": 2.0})])
        with pytest.raises(PlanningError):
            plan_experiments(cfg, frozenset({"duplicates"}))

    def test_rule_detector_needs_constraint_file(self):
        cfg = desk_config(detectors=[DetectorSpec("rule"), DetectorSpec("mvd")])
        grid = plan_experiments(cfg, frozenset())
        assert all(d.kind != "rule" for d, _ in grid.strategies)
        assert any("constraint" in reason for _, reason in grid.skipped)

    def test_mislabel_detector_needs_label(self):
        cfg = desk_config(detectors=[DetectorSpec("cl"), DetectorSpec("mvd")], label_column=None,
                          models=[ModelSpec("kmeans", "clustering")])
        grid = plan_experiments(cfg, frozenset())
        assert all(d.kind != "cl" for d, _ in grid.strategies)

    def test_clustering_models_skip_s5(self):
        cfg = desk_config(
            models=[ModelSpec("kmeans", "clustering"), ModelSpec("logit", "classification")],
            scenarios=["S5", "S4"],
        )
        grid = plan_experiments(cfg, frozenset())
        s5_models = {c.model for c in grid.cells if c.scenario == "S5"}
        assert s5_models == {"logit"}
        assert any("S5" in key for key, _ in grid.skipped)

    def test_cells_come_version_by_version_with_s4_last(self):
        cfg = desk_config(
            scenarios=["S5", "S4", "S1", "S3"], repeats=2,
            models=[ModelSpec("kmeans", "clustering"), ModelSpec("logit", "classification")],
        )
        grid = plan_experiments(cfg, frozenset())
        s4 = [c for c in grid.cells if c.scenario == "S4"]
        assert grid.cells[-len(s4):] == s4 and len(s4) == 2 * 2
        versions = [(c.detector, c.repair) for c in grid.cells[:-len(s4)]]
        starts = [v for i, v in enumerate(versions) if i == 0 or versions[i - 1] != v]
        # each version's cells are contiguous, in strategy order after the dirty version
        assert starts == [("none", "none")] + [(d.name, r.name) for d, r in grid.strategies]
        for version in starts:
            assert [(c.scenario, c.model, c.seed) for c in grid.cells if (c.detector, c.repair) == version] == [
                (s, m, rep) for s in ("S5", "S1", "S3") for m in ("kmeans", "logit") for rep in range(2)
                if (s, m) != ("S5", "kmeans")
            ]

    def test_s4_always_planned(self):
        cfg = desk_config(scenarios=["S4"])
        grid = plan_experiments(cfg, frozenset())
        assert {c.scenario for c in grid.cells} == {"S4"}

    def test_strategies_sharing_a_name_are_rejected(self):
        # both repairs are named "knn", so one version and its records would
        # overwrite the other's; the config itself rejects them
        with pytest.raises(PlanningError, match="shared: knn"):
            desk_config(repairs=[RepairSpec("knn", {"k": 1}), RepairSpec("knn", {"k": 9})])
        # a detector name leaves out list params, so these two mink specs share "mink(k=1)"
        mink = [DetectorSpec("mink", {"k": 1, "base": base}) for base in ([("mvd", {})], [("sd", {})])]
        with pytest.raises(PlanningError, match=r"shared: mink\(k=1\)"):
            desk_config(detectors=mink)


class TestRunBenchmark:
    def test_desk_grid_full_record_count(self):
        cfg = desk_config()
        store = run_benchmark(cfg)
        assert len(store) == 160
        assert store.failures() == []

    def test_rerun_into_same_store_is_idempotent(self, tmp_path):
        cfg = desk_config(repeats=2)
        store = ResultsStore(tmp_path / "results.jsonl")
        run_benchmark(cfg, store=store)
        first = len(store)
        run_benchmark(cfg, store=store)
        assert len(store) == first

    def test_s4_identical_across_reruns(self):
        cfg = desk_config(repeats=3)
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        va = sorted((r["seed"], r["value"]) for r in a.query(scenario="S4", model="logit"))
        vb = sorted((r["seed"], r["value"]) for r in b.query(scenario="S4", model="logit"))
        assert va == vb

    def test_gt_strategy_s1_equals_s4(self):
        cfg = desk_config(
            detectors=[DetectorSpec("mvd")],
            repairs=[RepairSpec("gt")],
            profile=ErrorProfile([ErrorSpec("explicit_mv", 0.1)]),
            repeats=4,
        )
        store = run_benchmark(cfg)
        for rep in range(4):
            s1 = store.query(scenario="S1", detector="mvd", repair="gt", model="logit", seed=rep)
            s4 = store.query(scenario="S4", model="logit", seed=rep)
            assert s1[0]["value"] == s4[0]["value"]

    def test_failures_recorded_not_raised(self):
        # classification without a label column fails per cell but not globally
        cfg = desk_config(label_column=None, repeats=2,
                          detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")])
        store = run_benchmark(cfg)
        assert len(store) == (1 + 1) * 2 * 2 + 2 * 2
        assert len(store.failures()) == len(store)

    def test_broken_detector_isolated_as_failures(self):
        # value swaps can corrupt the label column; cl's stratified folds then
        # reject the singleton class, and only that detector's cells fail
        cfg = desk_config(
            profile=ErrorProfile([ErrorSpec("value_swap", 0.05)]),
            detectors=[DetectorSpec("cl", {"folds": 30}), DetectorSpec("sd", {"n": 2.0})],
            repairs=[RepairSpec("mean")],
            repeats=2,
        )
        store = run_benchmark(cfg)
        assert len(store) == (2 + 1) * 2 * 2 + 2 * 2
        cl_records = store.query(detector="cl(folds=30)")
        assert cl_records and all(r.get("error") for r in cl_records)
        sd_records = store.query(detector="sd(n=2)", scenario="S1")
        assert sd_records and all(not r.get("error") for r in sd_records)

    def test_unknown_params_are_recorded_failures_naming_them(self):
        cfg = desk_config(
            detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 2.0, "bogus_det": 1})],
            repairs=[RepairSpec("mean"), RepairSpec("knn", {"bogus_rep": 1})],
            models=[ModelSpec("logit", "classification"), ModelSpec("dt", "classification", {"bogus_model": 1})],
            repeats=1,
        )
        store = run_benchmark(cfg)
        by_cause = Counter()
        for record in store.records():
            names = [n for n in ("bogus_det", "bogus_rep", "bogus_model") if n in (record.get("error") or "")]
            by_cause[names[0] if names else None] += 1
        # sd's four strategy cells; mvd+knn's two; dt's other S1 cells and its S4 cell
        assert by_cause == {"bogus_det": 4, "bogus_rep": 2, "bogus_model": 2 + 1, None: 3}
        assert len(store.failures()) == 9

    def test_scenarios_s2_s3_s5_run(self):
        cfg = desk_config(scenarios=["S2", "S3", "S5"], repeats=2,
                          detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")])
        store = run_benchmark(cfg)
        assert {r["scenario"] for r in store.records()} == {"S2", "S3", "S5"}
        assert store.failures() == []

    def test_a_version_with_no_test_rows_fails_its_cells(self):
        # dedup on the two-valued label flags every row after each label's
        # first, so delete keeps rows 0 and the first of the other label
        cfg = desk_config(
            dataset={"kind": "synthetic", "generator": "two_class", "n": 20, "seed": 1, "name": "tiny"},
            profile=None, detectors=[DetectorSpec("dedup")], repairs=[RepairSpec("delete")],
            models=[ModelSpec("logit", "classification")], scenarios=["S1", "S3"], repeats=3, master_seed=0,
            key_columns=["label"],
        )
        labels = bench.materialize(cfg).pair.ground_truth.column("label").raw.tolist()
        kept = {labels.index(label) for label in set(labels)}
        empty = {
            rep for rep in range(3)
            if not kept & set(split_indices(20, SplitSpec(0.2, derive_seed(0, "split", rep)))[1].tolist())
        }
        assert empty  # the split seeds leave some repeat without a kept test row
        store = run_benchmark(cfg)
        for record in store.query(detector="dedup"):
            assert record["value"] is None or record["value"] == record["value"]  # no NaN
            if record["seed"] in empty:
                assert record["error"] == "MetricError: no rows to score"


class TestStreamedGrid:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_crash_keeps_the_finished_prefix(self, tmp_path, monkeypatch, workers):
        cfg = desk_config(repeats=2, workers=workers)
        grid = plan_experiments(cfg, materialize(cfg).tags)
        # cell 17 is the first one on (sd, mean): mvd and sd are built by then
        k = 17
        assert (grid.cells[k - 1].detector, grid.cells[k - 1].repair) == ("sd(n=2)", "mean")
        run_cell = bench._run_cell

        def crash_at_k(cfg, cell, *args):
            if cell == grid.cells[k - 1]:
                raise KeyboardInterrupt  # not an Exception: no cell guard catches it
            return run_cell(cfg, cell, *args)

        monkeypatch.setattr(bench, "_run_cell", crash_at_k)
        path = tmp_path / "results.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(cfg, grid=grid, store=ResultsStore(path))
        records = ResultsStore(path).records()
        assert [(r["detector"], r["repair"], r["model"], r["scenario"], r["seed"]) for r in records] == [
            (c.detector, c.repair, c.model, c.scenario, c.seed) for c in grid.cells[: k - 1]
        ]
        assert not any(r.get("error") for r in records)

    def test_store_lines_equal_across_worker_counts(self, tmp_path):
        paths = []
        for workers in (1, POOL_WORKERS):
            paths.append(tmp_path / f"results-{workers}.jsonl")
            # every scenario, so that pooled cells share each kind of fit and encoding
            cfg = desk_config(
                repeats=2, scenarios=ALL_SCENARIOS, workers=workers,
                models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
            )
            run_benchmark(cfg, store=ResultsStore(paths[-1]))
        serial, pooled = (stripped_lines(p) for p in paths)
        assert len(serial) == 7 * 3 * 2 * 4 + 3 * 2 and serial == pooled

    def test_first_record_comes_before_any_other_cell_starts(self, monkeypatch):
        events = []
        run_cell, build = bench._run_cell, bench.build_versions

        def logged_cell(cfg, cell, *args):
            events.append(("cell", cell))
            return run_cell(cfg, cell, *args)

        def logged_build(cfg, mat, strategies, out_dir=None):
            events.append(("build", strategies[0][0].name))
            return build(cfg, mat, strategies, out_dir=out_dir)

        class LoggingStore(ResultsStore):
            def append(self, record):
                events.append(("append", record["detector"]))
                return super().append(record)

        monkeypatch.setattr(bench, "_run_cell", logged_cell)
        monkeypatch.setattr(bench, "build_versions", logged_build)
        cfg = desk_config(repeats=2, workers=POOL_WORKERS)
        grid = plan_experiments(cfg, materialize(cfg).tags)
        store = run_benchmark(cfg, grid=grid, store=LoggingStore())
        assert len(store) == len(grid.cells) and store.failures() == []
        assert events[:2] == [("cell", grid.cells[0]), ("append", "none")]

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_a_cells_timeout_leaves_out_its_versions_build(self, monkeypatch, workers):
        apply_repair = bench.apply_repair

        def slow_repair(*args, **kwargs):
            time.sleep(0.2)
            return apply_repair(*args, **kwargs)

        monkeypatch.setattr(bench, "apply_repair", slow_repair)
        # mvd's three repairs take 0.6 s, each within the timeout but together beyond it
        cfg = desk_config(detectors=[DetectorSpec("mvd")], repeats=1, timeout=0.3, workers=workers)
        store = run_benchmark(cfg)
        assert len(store) == 4 * 2 + 2 and store.failures() == []

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_each_detector_and_repair_runs_once(self, tmp_path, monkeypatch, workers):
        detected, repaired, saved = Counter(), Counter(), Counter()
        run_detector, apply_repair, save_mask = bench.run_detector, bench.apply_repair, bench.save_mask

        def count_detect(det, *args):
            detected[det.name] += 1
            return run_detector(det, *args)

        def count_repair(rep, *args, **kwargs):
            repaired[(args[1].source, rep.name)] += 1  # the mask carries its detector's name
            return apply_repair(rep, *args, **kwargs)

        def count_save(mask, path):
            saved[path.name] += 1
            return save_mask(mask, path)

        monkeypatch.setattr(bench, "run_detector", count_detect)
        monkeypatch.setattr(bench, "apply_repair", count_repair)
        monkeypatch.setattr(bench, "save_mask", count_save)
        cfg = desk_config(repeats=2, workers=workers)
        store = run_benchmark(cfg, out_dir=tmp_path)
        assert store.failures() == [] and len(store) == 32
        assert detected == {"mvd": 1, "sd(n=2)": 1}
        assert repaired == {(d, r): 1 for d in ("mvd", "sd(n=2)") for r in ("mean", "median", "knn")}
        assert saved == {"desk_truth.mask": 1, "desk_mvd.mask": 1, "desk_sd(n=2).mask": 1}


ALL_SCENARIOS = ["S1", "S2", "S3", "S4", "S5"]


def per_cell_run(cfg, cell, spec, version, pair, detect_runtime, fits):
    """A grid cell that splits, encodes, fits, predicts and scores on its own,
    ignoring `fits`: the reference the shared fits must reproduce."""
    train_idx, test_idx = split_indices(
        pair.ground_truth.row_count, SplitSpec(cfg.test_fraction, derive_seed(cfg.master_seed, "split", cell.seed))
    )
    train_ds, test_ds = bench._scenario_data(cell.scenario, version, pair, train_idx, test_idx)
    train_mat, test_mat = models.encode(train_ds, test_ds, target=cfg.target_for_task(spec.task))
    run_spec = ModelSpec(
        spec.kind, spec.task, dict(spec.params), seed=derive_seed(cfg.master_seed, "model", cell.model, cell.seed)
    )
    (fitted,) = models.fit(run_spec, [train_mat])
    score = model_metrics(spec.task, models.predict(fitted, test_mat), test_mat.target)
    return make_record(
        cell.dataset, cell.detector, cell.repair, cell.model, cell.scenario, cell.seed, score.metric_kind,
        score.value, detect_runtime=detect_runtime, repair_runtime=version.runtime,
        train_runtime=fitted.train_runtime,
    )


def spy_fits(monkeypatch) -> list:
    """Patch `models.fit` to note, for each training set of each finished
    call, lone or batched, the spec and a weak reference to its fitted model
    (None when the call raised)."""
    calls, fit = [], models.fit

    def spy(spec, trains):
        try:
            fitted = fit(spec, trains)
        except Exception:
            calls.extend((spec, None) for _ in trains)
            raise
        calls.extend((spec, weakref.ref(f)) for f in fitted)
        return fitted

    monkeypatch.setattr(models, "fit", spy)
    return calls


class TestSharedFits:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_one_fit_per_training_set(self, monkeypatch, workers):
        calls = spy_fits(monkeypatch)
        cfg = desk_config(repeats=2, scenarios=ALL_SCENARIOS, workers=workers)
        store = run_benchmark(cfg)
        assert store.failures() == [] and len(store) == 7 * 2 * 2 * 4 + 2 * 2
        # each version's fits (S1, S2, S5) and the ground truth's (S3, S4), per model and repeat
        assert len(calls) == 7 * 2 * 2 + 2 * 2
        assert Counter(spec.kind for spec, _ in calls) == {"logit": 16, "dt": 16}

    def test_records_equal_the_per_cell_path(self, tmp_path, monkeypatch):
        cfg = desk_config(
            repeats=2, scenarios=ALL_SCENARIOS, workers=POOL_WORKERS,
            models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
        )
        shared, per_cell = tmp_path / "shared.jsonl", tmp_path / "per_cell.jsonl"
        run_benchmark(cfg, store=ResultsStore(shared))
        monkeypatch.setattr(bench, "_run_cell", per_cell_run)
        run_benchmark(cfg, store=ResultsStore(per_cell))
        lines = stripped_lines(shared)
        assert len(lines) == 7 * 3 * 2 * 4 + 3 * 2 and not any('"error"' in line for line in lines)
        assert lines == stripped_lines(per_cell)

    def test_a_failed_fit_fails_every_cell_sharing_it_alike(self, monkeypatch):
        calls = spy_fits(monkeypatch)
        cfg = desk_config(
            detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")], scenarios=ALL_SCENARIOS, repeats=1,
            models=[ModelSpec("logit", "classification"), ModelSpec("dt", "classification", {"bogus_model": 1})],
        )
        store = run_benchmark(cfg)
        errors = Counter(r.get("error") for r in store.records() if r["model"] == "dt")
        assert len(errors) == 1 and "bogus_model" in next(iter(errors)) and sum(errors.values()) == 2 * 4 + 1
        assert not any(r.get("error") for r in store.records() if r["model"] == "logit")
        # one failed fit per training set: the two versions' and the ground truth's
        assert [ref for spec, ref in calls if spec.kind == "dt"] == [None] * 3

    def test_racing_cells_fit_each_key_once(self, monkeypatch):
        # 4 repeats x 5 scenarios: S1, S2 and S5 share a version key, S3 and S4 the ground truth's
        cells = [bench.GridCell("d", "mvd", "mean", "logit", s, rep) for s in ALL_SCENARIOS for rep in range(4)]
        fits, fitted, got = bench.SharedFits(cells), [], {}
        start = threading.Barrier(len(cells))

        def fake_fit(spec, trains):
            fitted.extend(object() for _ in trains)
            time.sleep(0.001)
            return fitted[-len(trains):]

        def run(cell):
            start.wait(timeout=10)
            got[cell.scenario, cell.seed] = fits.fit(cell, None, None, None)
            fits.release(cell)

        class SlowFuture(bench.Future):  # yields the thread between the memo's lookup and its store
            def __init__(self):
                time.sleep(0.001)
                super().__init__()

        monkeypatch.setattr(models, "fit", fake_fit)
        monkeypatch.setattr(bench, "Future", SlowFuture)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(cell,)) for cell in cells]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(got) == len(cells)
        assert len(fitted) == 4 * 2
        for rep in range(4):
            assert got["S1", rep] is got["S2", rep] is got["S5", rep] and got["S3", rep] is got["S4", rep]
        assert fits._shared == {}

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_no_fit_outlives_its_cells(self, monkeypatch, workers):
        calls = spy_fits(monkeypatch)
        built, build_versions = [], bench.build_versions

        def watched_build(cfg, mat, strategies, out_dir=None):
            versions, runs, broken = build_versions(cfg, mat, strategies, out_dir=out_dir)
            refs = [weakref.ref(v) for v in versions.values()] + [weakref.ref(r) for r in runs.values()]
            built.append((strategies[0][0].name, refs))
            return versions, runs, broken

        monkeypatch.setattr(bench, "build_versions", watched_build)
        cfg = desk_config(repeats=2, scenarios=ALL_SCENARIOS, workers=workers)
        grid = plan_experiments(cfg, materialize(cfg).tags)
        last = {cell.detector: i for i, cell in enumerate(grid.cells)}
        live_fits, live_other_fits, live_at_s4, outlived = [], [], [], []

        class WatchingStore(ResultsStore):
            def append(self, record):
                # every cell up to this record's has released what it shared
                gc.collect()
                live_fits.append(sum(ref() is not None for _, ref in calls))
                live_other_fits.append(sum(ref() is not None for spec, ref in calls if spec.kind != "logit"))
                if record["scenario"] == "S4":  # every version cell (S1, S2, S3, S5) is done by now
                    live_at_s4.append(live_fits[-1])
                outlived.extend(
                    (det, len(self)) for det, refs in built if last[det] <= len(self) and any(r() for r in refs)
                )
                return super().append(record)

        store = run_benchmark(cfg, grid=grid, store=WatchingStore())
        assert store.failures() == [] and len(store) == len(grid.cells)
        assert sorted(det for det, _ in built) == ["mvd", "sd(n=2)"] and outlived == []
        # at most the ground-truth fits (2 models x 2 repeats) are left for S4's cells
        assert len(live_at_s4) == 4 and max(live_at_s4) <= 4
        if workers == 1:
            # the ground truth's fits and one version's, for each of 2 models and 2 repeats (h*s + h*s),
            # and the logit batch's fits on the block's other 2 versions over 2 repeats ((|repairs| - 1)*s)
            assert max(live_fits) <= 2 * 2 + 2 * 2 + (3 - 1) * 2
            # a lone fit still lives only from its key's first cell to its last
            assert max(live_other_fits) <= 2 * 2 * 2
        gc.collect()
        assert len(calls) == 32 and all(ref() is None for _, ref in calls)
        assert not any(r() for _, refs in built for r in refs)


def spy_descents(monkeypatch) -> list:
    """Patch `models._softmax_descent` to note each call's design count."""
    calls, descent = [], models._softmax_descent

    def spy(designs, *args):
        calls.append(len(designs))
        return descent(designs, *args)

    monkeypatch.setattr(models, "_softmax_descent", spy)
    return calls


class TestBlockFits:
    def test_members_get_their_lone_fits_and_broken_versions_none(self, monkeypatch):
        fit, batches = models.fit, []

        def spy(spec, trains):
            fitted = fit(spec, trains)
            if spec.kind == "logit":
                batches.append(list(zip(trains, fitted)))
            return fitted

        monkeypatch.setattr(models, "fit", spy)
        descents = spy_descents(monkeypatch)
        # delete keeps fewer rows than mean; knn's unknown param breaks both its versions
        cfg = desk_config(
            repeats=2, scenarios=ALL_SCENARIOS,
            repairs=[RepairSpec("mean"), RepairSpec("delete"), RepairSpec("knn", {"bogus_rep": 1})],
        )
        store = run_benchmark(cfg)
        assert len(store) == 7 * 2 * 2 * 4 + 2 * 2
        assert {r["repair"] for r in store.failures()} == {"knn"} and len(store.failures()) == 2 * 2 * 2 * 4
        # the dirty version's and the ground truth's lone fits, then one batch per detector of
        # its 2 working repairs over 2 repeats, each in one lockstep descent
        assert sorted(len(batch) for batch in batches) == [1, 1, 1, 1, 4, 4]
        assert sorted(descents) == [1, 1, 1, 1, 4, 4]
        for batch in (batch for batch in batches if len(batch) > 1):
            assert len({train.features.shape[0] for train, _ in batch}) > 1  # unequal row counts
            for train, fitted in batch:
                (lone,) = fit(fitted.spec, [train])
                assert lone.model.W.shape == fitted.model.W.shape and (lone.model.W == fitted.model.W).all()

    def test_grid_models_shape_descends_six_times_with_the_per_cell_records(self, tmp_path, monkeypatch):
        cfg = desk_config(
            profile=ErrorProfile([
                ErrorSpec("explicit_mv", 0.05), ErrorSpec("gaussian_outlier", 0.05, {"degree": 4.0}),
                ErrorSpec("mislabel", 0.05, {"label_column": "label"}),
            ]),
            detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 3})],
            repairs=[RepairSpec("mean"), RepairSpec("delete")],
            models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
            scenarios=ALL_SCENARIOS, repeats=2, workers=1,
        )
        descents = spy_descents(monkeypatch)
        shared, per_cell = tmp_path / "shared.jsonl", tmp_path / "per_cell.jsonl"
        run_benchmark(cfg, store=ResultsStore(shared))
        # one lone descent per training set would be 12: 5 versions' and the ground truth's, over 2 repeats
        assert sorted(descents) == [1, 1, 1, 1, 4, 4]
        monkeypatch.setattr(bench, "_run_cell", per_cell_run)
        run_benchmark(cfg, store=ResultsStore(per_cell))
        lines = stripped_lines(shared)
        assert len(lines) == 5 * 3 * 2 * 4 + 3 * 2 and not any('"error"' in line for line in lines)
        assert lines == stripped_lines(per_cell)

    def test_racing_cells_fit_each_batch_once(self, monkeypatch):
        # 2 repairs x 4 repeats x 5 scenarios; S1, S2 and S5 of a version and repeat share a fit key
        repairs = ("mean", "delete")
        cells = [
            bench.GridCell("d", "mvd", rep, "logit", s, seed)
            for rep in repairs for s in ALL_SCENARIOS for seed in range(4)
        ]
        fits, calls, got = bench.SharedFits(cells, frozenset({"logit"})), [], {}
        versions = {("mvd", rep): object() for rep in repairs}
        start = threading.Barrier(len(cells))

        def fake_fit(spec, trains):
            calls.append(len(trains))
            time.sleep(0.001)
            return [(train, object()) for train in trains]

        def train_of(cell, version):
            assert version is versions[cell.detector, cell.repair]
            return cell.repair, cell.seed

        def run(cell):
            start.wait(timeout=10)
            fits.versions(cell, lambda: (versions, {}, {}))
            got[cell.repair, cell.scenario, cell.seed] = fits.fit(cell, None, None, train_of)
            fits.release(cell)

        class SlowFuture(bench.Future):  # yields the thread between the memo's lookup and its store
            def __init__(self):
                time.sleep(0.001)
                super().__init__()

        monkeypatch.setattr(models, "fit", fake_fit)
        monkeypatch.setattr(bench, "Future", SlowFuture)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(cell,)) for cell in cells]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(got) == len(cells)
        # one batch of the 8 version keys; S3 and S4 fit on the ground truth, each repeat's key alone
        assert sorted(calls) == [1] * 4 + [2 * 4]
        for rep in repairs:
            for seed in range(4):
                assert got[rep, "S1", seed] is got[rep, "S2", seed] is got[rep, "S5", seed]
                assert got[rep, "S1", seed][0] == (rep, seed)
                assert got[rep, "S3", seed] is got[rep, "S4", seed] is got[repairs[0], "S3", seed]
        assert fits._shared == {}

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_a_slow_batch_times_out_the_cell_that_runs_it(self, monkeypatch, workers):
        descent = models._softmax_descent

        def slow_lockstep(designs, *args):
            if len(designs) > 1:
                time.sleep(1.0)
            return descent(designs, *args)

        monkeypatch.setattr(models, "_softmax_descent", slow_lockstep)
        cfg = desk_config(
            detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean"), RepairSpec("delete")],
            models=[ModelSpec("logit", "classification")], repeats=2, timeout=0.3, workers=workers,
        )
        grid = plan_experiments(cfg, materialize(cfg).tags)
        started = time.monotonic()
        store = run_benchmark(cfg, grid=grid)
        assert time.monotonic() - started < 10 and len(store) == len(grid.cells)
        timed_out = "BenchError: timed out after 0.3s"
        # the block's first logit cell runs the batch, or waits for it with the other repeat's
        (owner,) = store.query(detector="mvd", repair="mean", scenario="S1", seed=0)
        assert owner["error"] == timed_out
        assert {r.get("error") for r in store.records()} <= {None, timed_out}


def data_keys(grid) -> set:
    return {(c.scenario, c.detector, c.repair, c.seed) for c in grid.cells}


def spy_encodes(monkeypatch) -> list:
    """Patch `models.encode` to note each call's target column."""
    calls, encode = [], models.encode

    def spy(train, test, target=None):
        calls.append(target)
        return encode(train, test, target=target)

    monkeypatch.setattr(models, "encode", spy)
    return calls


class TestSharedData:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_one_encoding_per_data_key(self, monkeypatch, workers):
        calls = spy_encodes(monkeypatch)
        cfg = desk_config(
            repeats=2, scenarios=ALL_SCENARIOS, workers=workers,
            models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
        )
        grid = plan_experiments(cfg, materialize(cfg).tags)
        store = run_benchmark(cfg, grid=grid)
        assert store.failures() == [] and len(store) == len(grid.cells) == 7 * 3 * 2 * 4 + 3 * 2
        # the grid_models workload's shape gives 42 keys for 126 cells
        assert len(calls) == len(data_keys(grid)) == 7 * 2 * 4 + 2

    def test_each_data_key_takes_only_the_rows_it_uses(self, monkeypatch):
        calls, take_rows = [], Dataset.take_rows

        def spy(self, indices, name=None):
            calls.append(len(indices))
            return take_rows(self, indices, name)

        monkeypatch.setattr(Dataset, "take_rows", spy)
        cfg = desk_config(
            repeats=2, scenarios=ALL_SCENARIOS,
            models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
        )
        grid = plan_experiments(cfg, materialize(cfg).tags)
        store = run_benchmark(cfg, grid=grid)
        assert store.failures() == [] and len(store) == len(grid.cells)
        # one training and one test selection per key; S3 trains on the ground truth only
        assert len(calls) == 2 * len(data_keys(grid)) == 2 * (7 * 2 * 4 + 2)

    def test_models_of_one_key_share_only_their_target_column(self, monkeypatch):
        calls = spy_encodes(monkeypatch)
        cfg = desk_config(
            repeats=2, detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")],
            models=[ModelSpec("logit", "classification"), ModelSpec("dt", "classification"),
                    ModelSpec("kmeans", "clustering")],
        )
        grid = plan_experiments(cfg, materialize(cfg).tags)
        store = run_benchmark(cfg, grid=grid)
        assert store.failures() == [] and len(store) == 2 * 3 * 2 + 3 * 2
        assert Counter(calls) == {"label": len(data_keys(grid)), None: len(data_keys(grid))}

    def test_a_failed_encoding_fails_every_cell_sharing_it_alike(self, monkeypatch):
        failed = Counter()

        def failing_encode(train, test, target=None):
            failed[target] += 1
            raise models.ModelError(f"encoding {target} #{failed[target]} failed")

        monkeypatch.setattr(models, "encode", failing_encode)
        # no label column: the classification models' own error keeps its precedence
        cfg = desk_config(
            repeats=2, scenarios=ALL_SCENARIOS, detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")],
            label_column=None,
            models=[ModelSpec("logit", "classification"), ModelSpec("kmeans", "clustering"),
                    ModelSpec("kmeans", "clustering", {"k": 3})],
        )
        grid = plan_experiments(cfg, materialize(cfg).tags)
        store = run_benchmark(cfg, grid=grid)
        assert len(store) == len(grid.cells) == len(store.failures())
        by_key = {}
        for r in store.records():
            if r["model"] == "logit":
                assert r["error"] == "BenchError: classification model logit needs a target column in the config"
            else:
                by_key.setdefault((r["scenario"], r["detector"], r["repair"], r["seed"]), set()).add(r["error"])
        # kmeans skips S5; each other key's two kmeans cells got the one failed encoding's text
        assert failed == {None: len(by_key)} and len(by_key) == 2 * 2 * 3 + 2
        texts = [next(iter(errors)) for errors in by_key.values()]
        assert all(len(errors) == 1 for errors in by_key.values())
        assert sorted(texts) == sorted(f"ModelError: encoding None #{i} failed" for i in range(1, len(by_key) + 1))

    def test_racing_cells_encode_each_key_once(self, monkeypatch):
        # 5 scenarios x 2 repeats; logit and dt share the label's encoding, kmeans encodes without a target
        targets = {"logit": "label", "dt": "label", "kmeans": None}
        cells = [
            bench.GridCell("d", "mvd", "mean", model, s, rep)
            for s in ALL_SCENARIOS for rep in range(2) for model in targets
        ]
        fits, encoded, got = bench.SharedFits(cells), [], {}
        start = threading.Barrier(len(cells))

        def encode():
            made = object()
            encoded.append(made)
            time.sleep(0.001)
            return made

        def run(cell):
            start.wait(timeout=10)
            got[cell.model, cell.scenario, cell.seed] = fits.data(cell, targets[cell.model], encode)
            fits.release(cell)

        class SlowFuture(bench.Future):  # yields the thread between the memo's lookup and its store
            def __init__(self):
                time.sleep(0.001)
                super().__init__()

        monkeypatch.setattr(bench, "Future", SlowFuture)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(cell,)) for cell in cells]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(got) == len(cells)
        assert len(encoded) == 5 * 2 * 2
        for s in ALL_SCENARIOS:
            for rep in range(2):
                assert got["logit", s, rep] is got["dt", s, rep] is not got["kmeans", s, rep]
        assert fits._shared == {}

    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_a_failed_split_reports_before_a_missing_target(self, label_column):
        cfg = desk_config(repeats=1, detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")],
                          test_fraction=0.0, label_column=label_column)
        store = run_benchmark(cfg)
        assert len(store) == 2 * 2 * 1 + 2 * 1
        assert {r["error"] for r in store.records()} == {
            "SplitError: test_fraction must lie in (0,1), got 0.0"
        }

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_no_encoding_outlives_its_cells(self, monkeypatch, workers):
        cfg = desk_config(repeats=2, scenarios=ALL_SCENARIOS, workers=workers)
        grid = plan_experiments(cfg, materialize(cfg).tags)
        last = {}
        for i, cell in enumerate(grid.cells):
            last[cell.scenario, cell.detector, cell.repair, cell.seed] = i
        encoded, data = [], bench.SharedFits.data

        def watched_data(self, cell, target, encode):
            def watched():
                train, test = encode()
                encoded.append((last[bench._data_key(cell)], weakref.ref(train), weakref.ref(test)))
                return train, test

            return data(self, cell, target, watched)

        monkeypatch.setattr(bench.SharedFits, "data", watched_data)
        stored, outlived = [], []

        class WatchingStore(ResultsStore):
            def append(self, record):
                # every cell up to this record's has released what it shared
                gc.collect()
                outlived.extend(
                    (end, len(stored)) for end, *refs in encoded if end <= len(stored) and any(r() for r in refs)
                )
                stored.append(record)
                return super().append(record)

        run_benchmark(cfg, grid=grid, store=WatchingStore())
        assert len(stored) == len(grid.cells) and len(encoded) == len(last)
        assert outlived == []
        gc.collect()
        assert not any(r() for _, *refs in encoded for r in refs)


SLOW_CELL_RUN = """
import json, sys, time
from cleanbench import bench
from cleanbench.models import ModelSpec

def slow_cell(*args):
    sys.stdout.write(f"{time.time()}\\n")  # one write per line: print's two writes let two cells' lines merge
    sys.stdout.flush()
    time.sleep(2.0)

bench._run_cell = slow_cell
cfg = bench.BenchmarkConfig(
    dataset={"kind": "synthetic", "generator": "two_class", "n": 60, "seed": 1, "name": "desk"},
    profile=None, detectors=[], repairs=[], models=[ModelSpec("logit", "classification")],
    scenarios=["S4"], repeats=2, label_column="label", timeout=0.2, workers=int(sys.argv[1]),
)
print(json.dumps([r["error"] for r in bench.run_benchmark(cfg).records()]), flush=True)
"""


def wait_for(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        gc.collect()
        time.sleep(0.001)
    return True


class TestAttempt:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_an_overrun_does_not_hold_up_process_exit(self, workers):
        src = str(Path(bench.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", SLOW_CELL_RUN, str(workers)], env=env, capture_output=True, text=True, timeout=60
        )
        exited = time.time()
        assert proc.returncode == 0, proc.stderr
        *starts, errors = proc.stdout.splitlines()
        assert json.loads(errors) == ["BenchError: timed out after 0.2s"] * 2
        # each cell sleeps 2 s: the process must not wait for the last one
        assert len(starts) == 2 and exited - max(float(t) for t in starts) < 1.5

    @staticmethod
    def assert_no_thread_left(before: set) -> None:
        """No thread started since `before` is alive after a bounded join."""
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=5)
        assert set(threading.enumerate()) <= before and threading.active_count() <= len(before)

    def test_helpers_end_with_their_run(self):
        before = set(threading.enumerate())
        for workers in (1, POOL_WORKERS):
            run_benchmark(desk_config(repeats=1, workers=workers))
            self.assert_no_thread_left(before)
        cfg = desk_config(detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 2.0})], repeats=2)
        run_robustness_sweep(cfg, "outlier_degree", [2.0, 4.0])
        self.assert_no_thread_left(before)

    def test_bounded_calls_reuse_one_helper_until_it_overruns(self):
        release, ran_on = threading.Event(), []

        def slow():
            ran_on.append(threading.current_thread())
            release.wait(timeout=10)

        def run():
            ran_on.append(bench._attempt(threading.current_thread, 5.0)[0])
            result = weakref.ref(bench._attempt(Counter, 5.0)[0])
            idle = wait_for(lambda: result() is None)  # an idle helper holds nothing of its last call
            ran_on.append(idle and bench._attempt(threading.current_thread, 5.0)[0])
            ran_on.append(bench._attempt(slow, 0.05))
            ran_on.append(bench._attempt(threading.current_thread, 5.0)[0])

        owner = threading.Thread(target=run)
        owner.start()
        owner.join(timeout=10)
        first, again, overrun, timed_out, fresh = ran_on
        assert again is first and overrun is first and first is not owner
        assert timed_out == (None, "BenchError: timed out after 0.05s")
        # the abandoned helper runs its call to the end and then exits
        assert first.is_alive()
        release.set()
        first.join(timeout=5)
        assert not first.is_alive()
        # the next call ran on a fresh helper, which exited with its owner thread
        assert fresh is not first and fresh is not owner
        fresh.join(timeout=5)
        assert not fresh.is_alive()

    def test_results_errors_and_interrupts(self):
        assert bench._attempt(lambda: 3, 1.0) == (3, None)
        assert bench._attempt(lambda: 3, None) == (3, None)
        for timeout in (1.0, None):
            assert bench._attempt(lambda: int("x"), timeout) == (
                None, "ValueError: invalid literal for int() with base 10: 'x'"
            )

            def interrupt():
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                bench._attempt(interrupt, timeout)


class TestDuplicateHandling:
    def test_duplicate_rows_follow_source_split_side(self):
        cfg = desk_config(
            profile=ErrorProfile([ErrorSpec("duplicate_row", 0.2, {"fuzzy": 0.0})]),
            detectors=[DetectorSpec("dedup")],
            repairs=[RepairSpec("delete")],
            key_columns=["x0", "x1", "x2", "label"],
            repeats=2,
        )
        store = run_benchmark(cfg)
        assert store.failures() == []
        # delete repair on perfect dedup restores the ground-truth row count
        mat = materialize(cfg)
        from cleanbench.detect import detect_duplicates
        from cleanbench.repair import repair_delete

        mask = detect_duplicates(mat.pair.dirty, cfg.key_columns)
        repaired = repair_delete(mat.pair.dirty, mask)
        assert repaired.data.row_count == mat.pair.ground_truth.row_count


class TestSweeps:
    def gaussian_config(self, **overrides):
        base = dict(
            dataset={
                "kind": "synthetic",
                "generator": "blobs",
                "n": 300,
                "seed": 3,
                "centers": ((0.0, 0.0, 0.0),),
                "name": "gauss",
            },
            detectors=[DetectorSpec("sd", {"n": 2.0}), DetectorSpec("iqr", {"k": 1.5})],
            repairs=[RepairSpec("mean")],
            models=[ModelSpec("kmeans", "clustering")],
            label_column=None,
            repeats=3,
        )
        base.update(overrides)
        return desk_config(**base)

    def test_robustness_sweep_is_deterministic(self):
        cfg = self.gaussian_config()
        a = run_robustness_sweep(cfg, "outlier_degree", [1.0, 3.0])
        b = run_robustness_sweep(cfg, "outlier_degree", [1.0, 3.0])
        av = sorted((r["detector"], r["metric"], r["seed"], r["value"]) for r in a.records())
        bv = sorted((r["detector"], r["metric"], r["seed"], r["value"]) for r in b.records())
        assert av == bv

    def test_zero_rate_scores_zero(self):
        cfg = self.gaussian_config()
        store = run_robustness_sweep(cfg, "error_rate", [0.0])
        values = [r["value"] for r in store.records()]
        assert values and all(v == 0.0 for v in values)

    def test_record_layout(self):
        cfg = self.gaussian_config()
        store = run_robustness_sweep(cfg, "outlier_degree", [2.0])
        assert len(store) == 2 * 3  # detectors x repeats
        assert all(r["sweep_value"] == 2.0 for r in store.records())

    def test_scalability_runtime_records(self):
        cfg = self.gaussian_config(
            dataset={
                "kind": "synthetic",
                "generator": "blobs",
                "n": 2000,
                "seed": 4,
                "centers": ((0.0, 0.0, 0.0),),
                "name": "scale",
            },
            profile=ErrorProfile([ErrorSpec("explicit_mv", 0.05)]),
            detectors=[DetectorSpec("mvd"), DetectorSpec("iqr", {"k": 1.5})],
        )
        store = run_scalability_sweep(cfg, [0.1, 0.5, 1.0])
        for det in ("mvd", "iqr(k=1.5)"):
            runtime_records = [
                r for r in store.records()
                if r["detector"] == det and r["metric"].startswith("detect_runtime")
            ]
            assert len(runtime_records) == 3

    def test_small_fraction_rejected(self):
        cfg = self.gaussian_config(profile=ErrorProfile([ErrorSpec("explicit_mv", 0.05)]))
        with pytest.raises(BenchError, match=">= 10"):
            run_scalability_sweep(cfg, [0.001])

    def test_missing_profile_rejected_before_sampling(self):
        # the profile check comes first, so even a fraction too small to
        # sample reports the missing profile
        cfg = self.gaussian_config(profile=None)
        with pytest.raises(BenchError, match="needs an error profile"):
            run_scalability_sweep(cfg, [0.001])

    def test_all_pairs_rule_checker_runtime_grows_with_fraction(self):
        # A DC with no equality predicate defeats blocking and forces the
        # quadratic scan, so runtime at the full fraction dominates.
        cfg = self.gaussian_config(
            dataset={
                "kind": "synthetic",
                "generator": "blobs",
                "n": 700,
                "seed": 6,
                "centers": ((0.0, 0.0),),
                "name": "quad",
            },
            profile=ErrorProfile([ErrorSpec("explicit_mv", 0.02)]),
            detectors=[DetectorSpec("rule")],
            constraints_text="DC: t1.x0 < t2.x0 AND t1.x1 > t2.x1 AND t1.x0 > 100",
        )
        store = run_scalability_sweep(cfg, [0.1, 1.0])
        runtimes = {
            r["sweep_value"]: r["value"]
            for r in store.records()
            if r["metric"].startswith("detect_runtime")
        }
        assert store.failures() == []
        assert runtimes[1.0] >= runtimes[0.1]

    def test_timeout_records_failure(self):
        # The blocking-free DC forces a quadratic scan (about a second), far
        # beyond the 10ms budget, so the timeout fires deterministically.
        cfg = self.gaussian_config(
            dataset={
                "kind": "synthetic",
                "generator": "blobs",
                "n": 900,
                "seed": 8,
                "centers": ((0.0, 0.0),),
                "name": "slow",
            },
            profile=ErrorProfile([ErrorSpec("explicit_mv", 0.05)]),
            detectors=[DetectorSpec("rule")],
            constraints_text="DC: t1.x0 < t2.x0 AND t1.x1 > t2.x1 AND t1.x0 > 100",
            timeout=0.01,
        )
        store = run_scalability_sweep(cfg, [1.0])
        assert store.failures()
        assert any("timed out" in r["error"] for r in store.failures())


class TestAbCompare:
    def test_pairs_by_seed_and_persists(self):
        store = ResultsStore()
        for rep in range(6):
            store.append(make_record("d", "none", "none", "ridge", "S1", rep, "rmse", 1.0 + rep))
            store.append(make_record("d", "gt", "gt", "ridge", "S4", rep, "rmse", 0.5 + rep))
        result = ab_compare(store, "ridge", "S1", "S4", detector="none", repair="none")
        assert result.n_effective == 6
        assert result.reject_h0  # all differences positive, exact p = 2/64
        assert store.query(metric="abtest_p")

    def test_gt_strategy_vs_s4_degenerate(self):
        # the GT-repaired version with a perfect detector equals the ground
        # truth, so S1 and S4 metrics tie on every seed
        cfg = desk_config(
            detectors=[DetectorSpec("mvd")],
            repairs=[RepairSpec("gt")],
            profile=ErrorProfile([ErrorSpec("explicit_mv", 0.1)]),
            repeats=4,
        )
        store = run_benchmark(cfg)
        result = ab_compare(store, "logit", "S1", "S4",
                            detector="mvd", repair="gt", persist=False)
        assert result.degenerate and not result.reject_h0

    def test_self_comparison_degenerate(self):
        store = ResultsStore()
        for rep in range(5):
            store.append(make_record("d", "gt", "gt", "m", "S4", rep, "rmse", 2.0))
        result = ab_compare(store, "m", "S4", "S4", persist=False)
        assert result.degenerate and not result.reject_h0

    def test_no_shared_seeds(self):
        store = ResultsStore()
        store.append(make_record("d", "none", "none", "m", "S1", 0, "rmse", 1.0))
        store.append(make_record("d", "gt", "gt", "m", "S4", 1, "rmse", 1.0))
        with pytest.raises(BenchError, match="shared seeds"):
            ab_compare(store, "m", "S1", "S4")


class TestStore:
    def test_upsert_idempotence(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultsStore(path)
        record = make_record("d", "a", "b", "m", "S1", 0, "rmse", 1.0)
        store.append(record)
        store.append(dict(record, value=2.0))
        assert len(store) == 1
        assert store.records()[0]["value"] == 2.0
        again = ResultsStore(path)
        assert len(again) == 1 and again.records()[0]["value"] == 2.0

    def test_query_filters(self):
        store = ResultsStore()
        store.append(make_record("d", "a", "b", "m", "S1", 0, "rmse", 1.0))
        store.append(make_record("d", "a", "b", "m", "S4", 0, "rmse", 2.0))
        assert len(store.query(scenario="S1")) == 1
        assert len(store.query(scenario="S1", model="m")) == 1
        assert store.query(scenario="S2") == []

    def test_index_sidecar(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultsStore(path)
        first = make_record("d", "a", "b", "m", "S1", 0, "rmse", 1.0)
        store.append(first)
        store.append(make_record("d", "a", "b", "m", "S4", 0, "rmse", 2.0))
        store.append(dict(first, value=3.0))  # an upsert: the key's last line wins
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")  # a blank line still counts as a line
        again = ResultsStore(path)
        again.append(make_record("d", "a", "b", "m", "S2", 1, "rmse", 4.0))
        again.append(dict(first, value=5.0))
        again.write_index()
        index = {}
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if line.strip():
                index[record_key(json.loads(line))] = line_no
        sidecar = tmp_path / "results.jsonl.idx.json"
        assert sidecar.read_text(encoding="utf-8") == json.dumps(index, indent=0, sort_keys=True)
        assert index[record_key(first)] == 6


class TestConfigDict:
    def test_round_trip_with_schema_field(self):
        spec = {
            "config_schema": "1",
            "dataset": {"kind": "synthetic", "generator": "two_class", "n": 50, "name": "x"},
            "profile": {"explicit_mv": {"rate": 0.1}},
            "detectors": [{"kind": "mvd"}],
            "repairs": [{"kind": "mean"}],
            "models": [{"kind": "logit", "task": "classification"}],
            "label_column": "label",
            "repeats": 2,
        }
        cfg = config_from_dict(spec)
        assert cfg.repeats == 2
        assert cfg.profile.get("explicit_mv").rate == 0.1
        assert cfg.detectors[0].kind == "mvd"

    def test_unknown_field_rejected(self):
        spec = {"config_schema": "1", "dataset": {"kind": "synthetic", "generator": "blobs", "n": 10},
                "models": [{"kind": "kmeans", "task": "clustering"}], "repeat": 3}
        with pytest.raises(BenchError, match="unknown config field.*repeat"):
            config_from_dict(spec)
        del spec["repeat"]
        assert config_from_dict(spec).repeats == BenchmarkConfig.repeats

    def test_schema_field_mandatory(self):
        with pytest.raises(BenchError, match="config_schema"):
            config_from_dict({"dataset": {"kind": "synthetic", "generator": "blobs", "n": 10}})
