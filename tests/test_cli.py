import csv
import hashlib
import json

import pytest

from cleanbench.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main


@pytest.fixture
def desk_config_path(tmp_path):
    config = {
        "config_schema": "1",
        "dataset": {
            "kind": "synthetic",
            "generator": "two_class",
            "n": 120,
            "seed": 1,
            "weights": [2.0, -2.0, 1.0],
            "name": "desk",
        },
        "profile": {"explicit_mv": {"rate": 0.06}, "gaussian_outlier": {"rate": 0.08, "degree": 4.0}},
        "detectors": [{"kind": "mvd"}, {"kind": "sd", "n": 2.0}],
        "repairs": [{"kind": "mean"}, {"kind": "knn", "k": 3}],
        "models": [{"kind": "logit", "task": "classification"}],
        "scenarios": ["S1", "S4"],
        "repeats": 3,
        "master_seed": 5,
        "label_column": "label",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestInjectVerb:
    def test_writes_csvs_masks_report_manifest(self, desk_config_path, tmp_path):
        out = tmp_path / "artifacts"
        code = main(["inject", "--config", str(desk_config_path), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "desk_gt.csv").exists()
        assert (out / "desk_dirty.csv").exists()
        assert (out / "desk_explicit_mv.mask").exists()
        assert (out / "desk_truth.mask").exists()
        report = json.loads((out / "injection_report.json").read_text())
        assert report["totals"]["explicit_mv"] == round(0.06 * 120 * 4)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "desk_dirty.csv" in manifest["artifacts"]

    def test_seed_override_changes_output(self, desk_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["inject", "--config", str(desk_config_path), "--out", str(out_a), "--seed", "1"])
        main(["inject", "--config", str(desk_config_path), "--out", str(out_b), "--seed", "2"])
        assert (out_a / "desk_dirty.csv").read_text() != (out_b / "desk_dirty.csv").read_text()


class TestBenchVerb:
    def test_bench_then_report(self, desk_config_path, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--config", str(desk_config_path), "--out", str(out)])
        assert code == EXIT_OK
        store_path = out / "results.jsonl"
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(records) == (2 * 2 + 1) * 1 * 3 + 3  # (eps+1)*h*s + S4

        rep_out = tmp_path / "report"
        code = main(
            ["report", "--store", str(store_path), "--out", str(rep_out),
             "--masks", str(out / "masks")]
        )
        assert code == EXIT_OK
        table = rep_out / "report_f1_macro.csv"
        assert table.exists()
        with open(table) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["detector", "repair", "model", "scenario", "mean", "std", "n"]
        assert all(r[-1] == "3" for r in rows[1:])
        iou_table = rep_out / "iou_desk.csv"
        assert iou_table.exists()
        with open(iou_table) as fh:
            iou_rows = list(csv.reader(fh))
        names = iou_rows[0][1:]
        for i, row in enumerate(iou_rows[1:]):
            assert float(row[1 + i]) == 1.0  # diagonal

    def test_iou_tables_keep_names_with_underscores(self, desk_config_path, tmp_path):
        config = json.loads(desk_config_path.read_text())
        config["dataset"]["name"] = "front_desk"
        config["detectors"].append({"kind": "cl", "label_column": "label"})
        config["repairs"], config["repeats"] = [{"kind": "mean"}], 1
        path = tmp_path / "underscores.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == EXIT_OK
        # a second dataset whose name extends the first one's
        for mask in sorted((out / "masks").glob("front_desk_*.mask")):
            suffix = mask.name[len("front_desk_") :]
            if suffix != "cl(label_column=label).mask":
                (out / "masks" / f"front_desk_2_{suffix}").write_bytes(mask.read_bytes())
        rep_out = tmp_path / "report"
        args = ["report", "--store", str(out / "results.jsonl"), "--out", str(rep_out), "--masks", str(out / "masks")]
        assert main(args) == EXIT_OK
        headers = {}
        for name in ("front_desk", "front_desk_2"):
            with open(rep_out / f"iou_{name}.csv") as fh:
                headers[name] = next(csv.reader(fh))
        assert headers == {
            "front_desk": ["detector", "cl(label_column=label)", "mvd", "sd(n=2)"],
            "front_desk_2": ["detector", "mvd", "sd(n=2)"],
        }
        assert sorted(p.name for p in rep_out.glob("iou_*.csv")) == ["iou_front_desk.csv", "iou_front_desk_2.csv"]

    def test_report_is_reemission_stable(self, desk_config_path, tmp_path):
        out = tmp_path / "bench"
        main(["bench", "--config", str(desk_config_path), "--out", str(out)])
        rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
        main(["report", "--store", str(out / "results.jsonl"), "--out", str(rep1)])
        main(["report", "--store", str(out / "results.jsonl"), "--out", str(rep2)])
        a = (rep1 / "report_f1_macro.csv").read_bytes()
        b = (rep2 / "report_f1_macro.csv").read_bytes()
        assert a == b


@pytest.fixture
def failing_config_path(tmp_path):
    """The desk data with swapped values, so that some labels are blank: `cl`
    with 30 folds fails (a class has fewer members), and so does `dedup`,
    which has no key columns."""
    config = {
        "config_schema": "1",
        "dataset": {
            "kind": "synthetic",
            "generator": "two_class",
            "n": 120,
            "seed": 1,
            "weights": [2.0, -2.0, 1.0],
            "name": "desk",
        },
        "profile": {
            "explicit_mv": {"rate": 0.06},
            "gaussian_outlier": {"rate": 0.08, "degree": 4.0},
            "value_swap": {"rate": 0.05},
        },
        "detectors": [{"kind": "mvd"}, {"kind": "sd", "n": 2.0}, {"kind": "cl", "folds": 30}, {"kind": "dedup"}],
        "repairs": [{"kind": "mean"}, {"kind": "knn", "k": 3}],
        "models": [{"kind": "logit", "task": "classification"}],
        "master_seed": 5,
        "label_column": "label",
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_verb(verb, config_path, out, *extra):
    """Exit code, successful records as one digest, error records, and the
    artifacts beside the store with their sha256 (from the manifest)."""
    code = main([verb, "--config", str(config_path), "--out", str(out), *extra])
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    stripped = [
        json.dumps({k: v for k, v in r.items() if k != "timestamp" and not k.endswith("_runtime")}, sort_keys=True)
        for r in records
        if not r.get("error")
    ]
    errors = sorted((r["detector"], r["repair"], r["metric"], r["error"]) for r in records if r.get("error"))
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert "results.jsonl" in artifacts
    del artifacts["results.jsonl"]  # its lines carry timestamps
    digest = hashlib.sha256("\n".join(sorted(stripped)).encode("utf-8")).hexdigest()
    return code, len(stripped), digest, errors, artifacts


CL_FAILS = "DetectorError: class '' has 8 members, fewer than 30 folds"
DEDUP_FAILS = "DetectorError: dedup detector needs key columns"


class TestDetectVerb:
    def test_records_masks_and_partial_exit(self, failing_config_path, tmp_path):
        code, n, digest, errors, artifacts = run_verb("detect", failing_config_path, tmp_path / "d")
        assert code == EXIT_PARTIAL
        assert (n, digest) == (6, "cb4c94e2bbadd787b09ae5ecb917def91c6823f708b57b097f47e1e33b28fc5b")
        assert errors == [("cl(folds=30)", "", "detect_f1", CL_FAILS), ("dedup", "", "detect_f1", DEDUP_FAILS)]
        assert artifacts == {
            "desk_mvd.mask": "bd045787d3ac123e49adc375d3e2f9e5754f9dd5c6c82f3188deeb47b1dd71f5",
            "desk_sd(n=2).mask": "a0555b363a17b203fdf20122537f997c1dbe5b5f1049318f6bada6a4cf4b67a3",
        }

    def test_timeout_records_failure(self, tmp_path):
        path = slow_rule_config(tmp_path)
        code, n, _, errors, artifacts = run_verb("detect", path, tmp_path / "d", "--timeout", "0.01")
        assert code == EXIT_PARTIAL
        assert (n, artifacts) == (0, {})
        assert errors == [("rule", "", "detect_f1", "BenchError: timed out after 0.01s")]


class TestRepairVerb:
    def test_records_csvs_and_partial_exit(self, failing_config_path, tmp_path):
        code, n, digest, errors, artifacts = run_verb("repair", failing_config_path, tmp_path / "r")
        assert code == EXIT_PARTIAL
        assert (n, digest) == (16, "521e18958d2f16cd0bde3cc4670dca9e59c26f33c65351f3498004e9f1e5fa3d")
        assert errors == [
            ("cl(folds=30)", rep, "repair_rmse", f"detector failed: {CL_FAILS}") for rep in ("knn", "mean")
        ] + [("dedup", rep, "repair_rmse", f"detector failed: {DEDUP_FAILS}") for rep in ("knn", "mean")]
        assert artifacts == {
            "desk_mvd_knn.csv": "11ab54dccfc31cd3c5a029d6c3e93d7d1bf1ae1287b43de607d83e581d0268e8",
            "desk_mvd_mean.csv": "e5bd1fadbde9c1ac86fb0a9043d3e6aab32859a95a8c7b8de58667c1539ce3a6",
            "desk_sd(n=2)_knn.csv": "8c8ce3b6f367942ffde88f867667a29ce2a72fcbc9266ee8dcfbc25dccf28852",
            "desk_sd(n=2)_mean.csv": "ba1975197237f65e465f4477e06bc5905c35d2398b8f584e09469ad77c5e7928",
        }

    def test_timeout_records_failure(self, tmp_path):
        path = slow_rule_config(tmp_path)
        code, n, _, errors, artifacts = run_verb("repair", path, tmp_path / "r", "--timeout", "0.01")
        assert code == EXIT_PARTIAL
        assert (n, artifacts) == (0, {})
        assert errors == [("rule", "mean", "repair_rmse", "detector failed: BenchError: timed out after 0.01s")]


def slow_rule_config(tmp_path):
    # The blocking-free DC forces a quadratic scan (about a second), far
    # beyond the 10ms budget, so the timeout fires deterministically.
    config = {
        "config_schema": "1",
        "dataset": {"kind": "synthetic", "generator": "blobs", "n": 900, "seed": 8,
                    "centers": [[0.0, 0.0]], "name": "slow"},
        "profile": {"explicit_mv": {"rate": 0.05}},
        "detectors": [{"kind": "rule"}],
        "repairs": [{"kind": "mean"}],
        "models": [{"kind": "kmeans", "task": "clustering"}],
        "constraints_text": "DC: t1.x0 < t2.x0 AND t1.x1 > t2.x1 AND t1.x0 > 100",
    }
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestAbtestVerb:
    def test_abtest_prints_result(self, desk_config_path, tmp_path, capsys):
        out = tmp_path / "bench"
        main(["bench", "--config", str(desk_config_path), "--out", str(out)])
        code = main(
            ["abtest", "--store", str(out / "results.jsonl"), "--model", "logit",
             "--scenario-a", "S1", "--scenario-b", "S4",
             "--detector", "none", "--repair", "none"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["n_effective"] <= 3


class TestSweepVerb:
    def test_outlier_degree_sweep(self, tmp_path):
        config = {
            "config_schema": "1",
            "dataset": {"kind": "synthetic", "generator": "blobs", "n": 200, "seed": 2,
                        "centers": [[0.0, 0.0]], "name": "gauss"},
            "detectors": [{"kind": "sd", "n": 2.0}],
            "repairs": [{"kind": "mean"}],
            "models": [{"kind": "kmeans", "task": "clustering"}],
            "outlier_degrees": [1.0, 4.0],
            "repeats": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(path), "--axis", "outlier_degree", "--out", str(out)])
        assert code == EXIT_OK
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert {r["sweep_value"] for r in records} == {1.0, 4.0}


class TestSetOverrides:
    def test_dotted_override(self, desk_config_path, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            ["inject", "--config", str(desk_config_path), "--out", str(out),
             "--set", "profile.explicit_mv.rate=0.1", "--set", "dataset.n=50"]
        )
        assert code == EXIT_OK
        report = json.loads((out / "injection_report.json").read_text())
        assert report["totals"]["explicit_mv"] == round(0.1 * 50 * 4)


class TestEnvOutputRoot:
    def test_env_var_supplies_default_out(self, desk_config_path, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("CLEANBENCH_OUT", str(root))
        code = main(["inject", "--config", str(desk_config_path)])
        assert code == EXIT_OK
        assert (root / "desk_dirty.csv").exists()


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_config_flag_is_usage_error(self):
        assert main(["bench"]) == EXIT_USAGE

    def test_bad_config_is_execution_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bench", "--config", str(path)]) == EXIT_FAILURE
        err = json.loads(capsys.readouterr().err)
        assert err["verb"] == "bench" and "error" in err

    def test_partial_failure_exit(self, tmp_path):
        config = {
            "config_schema": "1",
            "dataset": {"kind": "synthetic", "generator": "blobs", "n": 60, "seed": 3,
                        "centers": [[0.0, 0.0]], "name": "gauss"},
            "profile": {"explicit_mv": {"rate": 0.05}},
            "detectors": [{"kind": "mvd"}],
            "repairs": [{"kind": "mean"}],
            # classification model but no label column: every cell fails
            "models": [{"kind": "logit", "task": "classification"}],
            "scenarios": ["S1"],
            "repeats": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["bench", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARTIAL
