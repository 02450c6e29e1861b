import pytest

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
from cleanbench.models import ModelSpec
from cleanbench.repair import RepairSpec
from cleanbench.store import ResultsStore, make_record


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

    def test_s4_always_planned(self):
        cfg = desk_config(scenarios=["S4"])
        grid = plan_experiments(cfg, frozenset())
        assert {c.scenario for c in grid.cells} == {"S4"}


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

    def test_scenarios_s2_s3_s5_run(self):
        cfg = desk_config(scenarios=["S2", "S3", "S5"], repeats=2,
                          detectors=[DetectorSpec("mvd")], repairs=[RepairSpec("mean")])
        store = run_benchmark(cfg)
        assert {r["scenario"] for r in store.records()} == {"S2", "S3", "S5"}
        assert store.failures() == []

    def test_parallel_matches_serial(self):
        cfg = desk_config(repeats=2)
        serial = run_benchmark(cfg)
        cfg_par = desk_config(repeats=2, workers=4)
        parallel = run_benchmark(cfg_par)
        key = lambda r: (r["detector"], r["repair"], r["model"], r["scenario"], r["seed"])
        sv = sorted((key(r), r["value"]) for r in serial.records())
        pv = sorted((key(r), r["value"]) for r in parallel.records())
        assert sv == pv


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
        store.append(make_record("d", "a", "b", "m", "S1", 0, "rmse", 1.0))
        store.write_index()
        sidecar = tmp_path / "results.jsonl.idx.json"
        assert sidecar.exists()


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

    def test_schema_field_mandatory(self):
        with pytest.raises(BenchError, match="config_schema"):
            config_from_dict({"dataset": {"kind": "synthetic", "generator": "blobs", "n": 10}})
