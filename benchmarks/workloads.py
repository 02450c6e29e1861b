"""The three benchmark workloads, each driven through cleanbench's public API.

Every input is a `two_class` synthetic table generated from the workload
seed, written as CSV and loaded back with `label` declared categorical. The
seed also serves as the master seed of the run, so it fixes injection,
splits and model seeds too. Sizes are chosen so that one workload run takes
a few seconds on a 2-core machine while its dominant layer keeps its share:

- grid_repair: the cleaning layers (`repair`, then `detect`) dominate; the
  grid itself is one cheap model, and `build_versions` runs serially even
  though the cell pool has two workers.
- grid_models: the `models` layer dominates (CART, logit and kNN under all
  five scenarios, single-threaded); cleaning is cheap, and the store serves
  reads (A/B tests, report) beside its writes.
- sweep_detect: ten times grid_models' rows and no repair or grid cells, so
  the detector kernels and per-cell `tabular` cost dominate, and memory grows.

grid_repair's logit runs 100 epochs instead of the default 500 so that the
model stays the cheap part of that grid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cleanbench import bench, report
from cleanbench.bench import BenchmarkConfig
from cleanbench.detect import DetectorSpec
from cleanbench.inject import ErrorProfile, ErrorSpec, make_synthetic
from cleanbench.models import ModelSpec
from cleanbench.repair import RepairSpec
from cleanbench.store import ResultsStore
from cleanbench.tabular import save_csv

DATASET_NAME = "twoclass"
LABEL_SCHEMA = {"label": "categorical"}
SWEEP_DEGREES = [1.0, 4.0]


def _source(csv_path) -> dict:
    # A fixed name keeps store records independent of the input file's path.
    return {"kind": "csv", "path": str(csv_path), "schema": dict(LABEL_SCHEMA), "name": DATASET_NAME}


def _grid_records(cfg: BenchmarkConfig) -> int:
    """(epsilon + 1) * h * s records per non-S4 scenario, plus h * s for S4."""
    versions = len(cfg.detectors) * len(cfg.repairs) + 1
    runs = len(cfg.models) * cfg.repeats
    return versions * runs * len([s for s in cfg.scenarios if s != "S4"]) + runs * ("S4" in cfg.scenarios)


def _versions(cfg: BenchmarkConfig) -> list[tuple[str, str]]:
    return [("none", "none")] + [(d.name, r.name) for d in cfg.detectors for r in cfg.repairs]


def _grid_repair_config(csv_path, seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        dataset=_source(csv_path),
        profile=ErrorProfile(
            [ErrorSpec("explicit_mv", 0.05), ErrorSpec("gaussian_outlier", 0.05, {"degree": 4.0})]
        ),
        detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 2}), DetectorSpec("iqr"), DetectorSpec("if")],
        repairs=[RepairSpec("mean"), RepairSpec("knn", {"k": 3}), RepairSpec("iter")],
        models=[ModelSpec("logit", "classification", {"epochs": 100})],
        scenarios=["S1", "S4"],
        repeats=1,
        master_seed=seed,
        label_column="label",
        workers=min(2, os.cpu_count() or 1),
    )


def _grid_models_config(csv_path, seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        dataset=_source(csv_path),
        profile=ErrorProfile(
            [
                ErrorSpec("explicit_mv", 0.05),
                ErrorSpec("gaussian_outlier", 0.05, {"degree": 4.0}),
                ErrorSpec("mislabel", 0.05, {"label_column": "label"}),
            ]
        ),
        detectors=[DetectorSpec("mvd"), DetectorSpec("sd", {"n": 3})],
        repairs=[RepairSpec("mean"), RepairSpec("delete")],
        models=[ModelSpec(kind, "classification") for kind in ("logit", "dt", "knn")],
        scenarios=["S1", "S2", "S3", "S4", "S5"],
        repeats=2,
        master_seed=seed,
        label_column="label",
        workers=1,
    )


def _sweep_config(csv_path, seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        dataset=_source(csv_path),
        profile=None,
        detectors=[
            DetectorSpec(kind, params)
            for kind, params in (("mvd", {}), ("fahes", {}), ("sd", {"n": 2}), ("iqr", {}), ("if", {}), ("cl", {}))
        ],
        repairs=[],
        models=[ModelSpec("logit", "classification")],
        repeats=1,
        master_seed=seed,
        label_column="label",
        workers=1,
    )


def _run_grid(cfg: BenchmarkConfig, store: ResultsStore, out_dir: Path) -> None:
    bench.run_benchmark(cfg, store=store)


def _run_grid_with_reads(cfg: BenchmarkConfig, store: ResultsStore, out_dir: Path) -> None:
    bench.run_benchmark(cfg, store=store)
    for model in (spec.kind for spec in cfg.models):
        for detector, repair in _versions(cfg):
            bench.ab_compare(store, model, "S1", "S4", detector=detector, repair=repair)
    report.emit_report(store, out_dir / "report")


def _run_sweep(cfg: BenchmarkConfig, store: ResultsStore, out_dir: Path) -> None:
    bench.run_robustness_sweep(cfg, "outlier_degree", SWEEP_DEGREES, store=store)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    config: Callable[[str | Path, int], BenchmarkConfig]
    execute: Callable[[BenchmarkConfig, ResultsStore, Path], None]
    expected: Callable[[BenchmarkConfig], int]

    def make_input(self, seed: int, path: str | Path) -> None:
        save_csv(make_synthetic("two_class", self.n, seed), path)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_repair", 600, _grid_repair_config, _run_grid, _grid_records),
        Workload(
            "grid_models",
            250,
            _grid_models_config,
            _run_grid_with_reads,
            lambda cfg: _grid_records(cfg) + len(cfg.models) * len(_versions(cfg)),
        ),
        Workload(
            "sweep_detect",
            2500,
            _sweep_config,
            _run_sweep,
            lambda cfg: len(SWEEP_DEGREES) * len(cfg.detectors) * cfg.repeats,
        ),
    )
}
