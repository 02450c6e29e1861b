"""Benchmark controller: plans the experiment grid with skip logic, executes
detection -> repair -> scenario modeling, runs robustness and scalability
sweeps, and persists flat metric records.

For m surviving detectors and k repairs, epsilon = m * k cleaning strategies
produce repaired versions; the dirty version joins the grid as strategy
(none, none), and scenario S4 (train and test on ground truth) runs once per
(model, repeat) since it needs no repaired data.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, models
from .constraints import DenialConstraint, load_constraints, parse_constraints
from .detect import DetectorContext, DetectorRun, DetectorSpec, run_detector
from .inject import ErrorProfile, InjectionReport, inject, make_synthetic
from .metrics import model_metrics
from .repair import RepairSpec, RepairedDataset, apply_repair
from .seeding import derive_seed
from .stats import ABTestResult, PairedSample, wilcoxon_signed_rank
from .store import ResultsStore, make_record
from .tabular import (
    Dataset,
    DatasetPair,
    DetectionMask,
    SplitSpec,
    diff_cells,
    load_csv,
    save_mask,
    split_indices,
)

SCENARIOS = ("S1", "S2", "S3", "S4", "S5")

ERROR_KIND_TAGS = {
    "explicit_mv": "missing",
    "implicit_mv": "implicit_missing",
    "gaussian_outlier": "outliers",
    "keyboard_typo": "typos",
    "value_swap": "swaps",
    "duplicate_row": "duplicates",
    "mislabel": "mislabels",
    "rule_violation": "rule_violations",
}

# Detectors that are pointless on data whose only errors are duplicates.
_DUPLICATES_ONLY_SKIPS = {"sd", "iqr", "if", "rule", "mvd", "fahes"}

METRIC_FOR_TASK = {
    "classification": "f1_macro",
    "regression": "rmse",
    "clustering": "silhouette",
}


class BenchError(Exception):
    pass


class PlanningError(BenchError):
    pass


@dataclass
class BenchmarkConfig:
    dataset: dict
    profile: ErrorProfile | None
    detectors: list[DetectorSpec]
    repairs: list[RepairSpec]
    models: list[models.ModelSpec]
    scenarios: list[str] = field(default_factory=lambda: ["S1", "S4"])
    repeats: int = 10
    master_seed: int = 0
    test_fraction: float = 0.2
    constraint_file: str | None = None
    constraints_text: str | None = None
    label_column: str | None = None
    target_column: str | None = None
    key_columns: list[str] | None = None
    tags: list[str] | None = None  # user-declared for externally dirty data
    error_rates: list[float] = field(default_factory=list)
    outlier_degrees: list[float] = field(default_factory=list)
    data_fractions: list[float] = field(default_factory=list)
    timeout: float = 600.0
    workers: int = 1
    config_schema: str = "1"

    def __post_init__(self):
        if self.repeats < 1:
            raise BenchError("repeats must be >= 1")
        if not self.models:
            raise BenchError("at least one model spec is required")
        bad = [s for s in self.scenarios if s not in SCENARIOS]
        if bad or not self.scenarios:
            raise BenchError(f"scenarios must be a non-empty subset of {SCENARIOS}, got {self.scenarios}")

    def target_for_task(self, task: str) -> str | None:
        if task == "classification":
            return self.label_column
        if task == "regression":
            return self.target_column
        return None


def config_from_dict(spec: dict, base_dir: str | Path | None = None) -> BenchmarkConfig:
    """Build a config from parsed JSON; `config_schema` is mandatory."""
    spec = dict(spec)
    if "config_schema" not in spec:
        raise BenchError("config is missing the mandatory config_schema field")
    base = Path(base_dir) if base_dir else Path(".")

    profile = None
    if spec.get("profile"):
        profile = ErrorProfile.from_dict(spec["profile"])

    detectors = [
        DetectorSpec(d["kind"], {k: v for k, v in d.items() if k != "kind"})
        for d in spec.get("detectors", [])
    ]
    repairs = [
        RepairSpec(r["kind"], {k: v for k, v in r.items() if k != "kind"})
        for r in spec.get("repairs", [])
    ]
    model_specs = []
    for m in spec.get("models", []):
        params = {k: v for k, v in m.items() if k not in ("kind", "task", "seed")}
        model_specs.append(
            models.ModelSpec(m["kind"], m["task"], params, seed=m.get("seed", 0))
        )

    constraint_file = spec.get("constraint_file")
    if constraint_file:
        constraint_file = str(base / constraint_file)

    dataset = dict(spec["dataset"])
    if dataset.get("path"):
        dataset["path"] = str(base / dataset["path"])
    if dataset.get("gt_path"):
        dataset["gt_path"] = str(base / dataset["gt_path"])

    return BenchmarkConfig(
        dataset=dataset,
        profile=profile,
        detectors=detectors,
        repairs=repairs,
        models=model_specs,
        scenarios=spec.get("scenarios", ["S1", "S4"]),
        repeats=spec.get("repeats", 10),
        master_seed=spec.get("master_seed", 0),
        test_fraction=spec.get("test_fraction", 0.2),
        constraint_file=constraint_file,
        constraints_text=spec.get("constraints_text"),
        label_column=spec.get("label_column"),
        target_column=spec.get("target_column"),
        key_columns=spec.get("key_columns"),
        tags=spec.get("tags"),
        error_rates=spec.get("error_rates", []),
        outlier_degrees=spec.get("outlier_degrees", []),
        data_fractions=spec.get("data_fractions", []),
        timeout=spec.get("timeout", 600.0),
        workers=spec.get("workers", 1),
        config_schema=str(spec["config_schema"]),
    )


# -- materialization ---------------------------------------------------------


@dataclass
class MaterializedData:
    name: str
    pair: DatasetPair
    report: InjectionReport | None
    tags: frozenset[str]
    constraints: list[DenialConstraint] | None


def dataset_label(source: dict) -> str:
    """One name per dataset source, shared by planner, store records, and masks."""
    if source.get("name"):
        return source["name"]
    if source.get("kind") == "synthetic":
        return source.get("generator", "synthetic")
    path = source.get("path") or source.get("gt_path")
    return Path(path).stem if path else "dataset"


def load_ground_truth(source: dict) -> Dataset:
    kind = source.get("kind", "csv")
    if kind == "csv":
        return load_csv(source["path"], schema=source.get("schema"), name=dataset_label(source))
    if kind == "synthetic":
        params = {
            k: v
            for k, v in source.items()
            if k not in ("kind", "generator", "n", "seed", "name")
        }
        ds = make_synthetic(source["generator"], source["n"], source.get("seed", 0), **params)
        return ds.with_name(dataset_label(source))
    raise BenchError(f"unknown dataset source kind {kind!r}")


def _load_config_constraints(cfg: BenchmarkConfig) -> list[DenialConstraint] | None:
    if cfg.constraints_text:
        return parse_constraints(cfg.constraints_text)
    if cfg.constraint_file:
        return load_constraints(cfg.constraint_file)
    return None


def materialize(cfg: BenchmarkConfig) -> MaterializedData:
    """Load the ground truth, parse constraints, and produce the dirty pair.

    Injection runs in an offline phase before any experiment executes.
    """
    constraints = _load_config_constraints(cfg)

    source = cfg.dataset
    if source.get("kind") == "pair":
        gt = load_csv(source["gt_path"], schema=source.get("schema"), name=dataset_label(source))
        dirty = load_csv(source["path"], schema=gt.schema(), name=gt.name + "_dirty")
        pair = DatasetPair(gt, dirty, diff_cells(gt, dirty))
        tags = frozenset(cfg.tags or [])
        return MaterializedData(gt.name, pair, None, tags, constraints)

    gt = load_ground_truth(source)
    if cfg.profile is None:
        empty = DetectionMask(np.zeros((gt.row_count, gt.col_count), dtype=bool), source="injected")
        pair = DatasetPair(gt, gt, empty)
        return MaterializedData(gt.name, pair, None, frozenset(cfg.tags or []), constraints)
    pair, report = inject(gt, cfg.profile, derive_seed(cfg.master_seed, "inject"), constraints)
    tags = frozenset(ERROR_KIND_TAGS[k] for k in report.masks)
    return MaterializedData(gt.name, pair, report, tags, constraints)


# -- planning ----------------------------------------------------------------


@dataclass
class GridCell:
    dataset: str
    detector: str
    repair: str
    model: str
    scenario: str
    seed: int  # repeat index; the split seed derives from it


@dataclass
class ExperimentGrid:
    cells: list[GridCell]
    epsilon: int
    total: int
    skipped: list[tuple[str, str]]
    strategies: list[tuple[DetectorSpec, RepairSpec]]
    model_labels: list[str]


def label_models(specs: list[models.ModelSpec]) -> list[str]:
    """Unique store labels for model specs; duplicates get a #index suffix."""
    total = {}
    for spec in specs:
        total[spec.kind] = total.get(spec.kind, 0) + 1
    seen: dict[str, int] = {}
    labels = []
    for spec in specs:
        if total[spec.kind] == 1:
            labels.append(spec.kind)
        else:
            seen[spec.kind] = seen.get(spec.kind, 0) + 1
            labels.append(f"{spec.kind}#{seen[spec.kind]}")
    return labels


def plan_experiments(cfg: BenchmarkConfig, tags: frozenset[str]) -> ExperimentGrid:
    """Apply the skip table and lay out every (version, model, scenario, seed)."""
    skipped: list[tuple[str, str]] = []
    surviving: list[DetectorSpec] = []
    duplicates_only = tags == frozenset({"duplicates"})
    have_constraints = bool(cfg.constraint_file or cfg.constraints_text)
    for det in cfg.detectors:
        if duplicates_only and det.kind in _DUPLICATES_ONLY_SKIPS:
            skipped.append((det.name, "dataset carries only duplicates"))
        elif det.kind == "cl" and not (cfg.label_column or det.params.get("label_column")):
            skipped.append((det.name, "no label column configured"))
        elif det.kind == "rule" and not have_constraints:
            skipped.append((det.name, "no constraint file configured"))
        elif det.kind == "dedup" and not (cfg.key_columns or det.params.get("key_columns")):
            skipped.append((det.name, "no key columns configured"))
        else:
            surviving.append(det)
    if cfg.detectors and not surviving:
        raise PlanningError("no detector survived the skip table")

    strategies = [(d, r) for d in surviving for r in cfg.repairs]
    epsilon = len(strategies)
    labels = label_models(cfg.models)

    cells: list[GridCell] = []
    versions = [("none", "none")] + [(d.name, r.name) for d, r in strategies]
    dataset_name = dataset_label(cfg.dataset)
    for scenario in cfg.scenarios:
        if scenario == "S4":
            continue
        for det_name, rep_name in versions:
            for label, spec in zip(labels, cfg.models):
                if scenario == "S5" and spec.task == "clustering":
                    skip_key = f"{label}/{scenario}"
                    if (skip_key, "clustering models skip scenario S5") not in skipped:
                        skipped.append((skip_key, "clustering models skip scenario S5"))
                    continue
                for rep in range(cfg.repeats):
                    cells.append(GridCell(dataset_name, det_name, rep_name, label, scenario, rep))
    if "S4" in cfg.scenarios:
        for label in labels:
            for rep in range(cfg.repeats):
                cells.append(GridCell(dataset_name, "gt", "gt", label, "S4", rep))
    if not cells:
        raise PlanningError("experiment grid is empty")
    return ExperimentGrid(cells, epsilon, len(cells), skipped, strategies, labels)


# -- execution ---------------------------------------------------------------


def _attempt(fn, timeout: float | None):
    """Call `fn()`: (its result, None), or (None, "<ExcType>: <msg>") when it
    raised or did not finish within a positive `timeout`.

    The timeout is cooperative: an overrunning call keeps its worker thread
    until it finishes, but the caller moves on and records the failure.
    """
    try:
        if timeout is None or timeout <= 0:
            return fn(), None
        pool = ThreadPoolExecutor(max_workers=1)
        future = pool.submit(fn)
        try:
            return future.result(timeout=timeout), None
        except FutureTimeout:
            raise BenchError(f"timed out after {timeout:g}s") from None
        finally:
            pool.shutdown(wait=future.done(), cancel_futures=True)
    except Exception as exc:  # every detector, repair and cell failure becomes a record
        return None, f"{type(exc).__name__}: {exc}"


def _rows_on_side(version: RepairedDataset, pair: DatasetPair, side: set[int]) -> list[int]:
    """Version rows whose ground-truth origin (a duplicate's via provenance) is in `side`."""
    gt_rows = pair.ground_truth.row_count
    provenance = pair.row_provenance or {}
    return [i for i, row in enumerate(version.row_map) if (row if row < gt_rows else provenance[row]) in side]


def _scenario_data(
    scenario: str,
    version: RepairedDataset,
    dirty_version: RepairedDataset,
    pair: DatasetPair,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> tuple[Dataset, Dataset]:
    gt = pair.ground_truth
    train_set, test_set = set(train_idx.tolist()), set(test_idx.tolist())
    if scenario == "S4":
        return gt.take_rows(train_idx.tolist()), gt.take_rows(test_idx.tolist())
    v_train = version.data.take_rows(_rows_on_side(version, pair, train_set))
    if scenario == "S1":
        v_test = version.data.take_rows(_rows_on_side(version, pair, test_set))
        return v_train, v_test
    if scenario == "S2":
        return v_train, gt.take_rows(test_idx.tolist())
    if scenario == "S3":
        g_train = gt.take_rows(train_idx.tolist())
        v_test = version.data.take_rows(_rows_on_side(version, pair, test_set))
        return g_train, v_test
    if scenario == "S5":
        d_test = dirty_version.data.take_rows(_rows_on_side(dirty_version, pair, test_set))
        return v_train, d_test
    raise BenchError(f"unknown scenario {scenario!r}")


def _run_cell(
    cfg: BenchmarkConfig,
    cell: GridCell,
    spec: models.ModelSpec,
    version: RepairedDataset,
    dirty_version: RepairedDataset,
    pair: DatasetPair,
    detect_runtime: float,
) -> dict:
    train_idx, test_idx = split_indices(
        pair.ground_truth.row_count,
        SplitSpec(cfg.test_fraction, derive_seed(cfg.master_seed, "split", cell.seed)),
    )
    train_ds, test_ds = _scenario_data(
        cell.scenario, version, dirty_version, pair, train_idx, test_idx
    )
    target = cfg.target_for_task(spec.task)
    if spec.task in ("classification", "regression") and target is None:
        raise BenchError(f"{spec.task} model {cell.model} needs a target column in the config")
    train_mat, test_mat = models.encode(train_ds, test_ds, target=target)
    run_spec = models.ModelSpec(
        spec.kind,
        spec.task,
        dict(spec.params),
        seed=derive_seed(cfg.master_seed, "model", cell.model, cell.seed),
    )
    fitted = models.fit(run_spec, train_mat)
    predictions = models.predict(fitted, test_mat)
    if spec.task == "clustering":
        score = model_metrics("clustering", predictions, test_mat.features)
    else:
        score = model_metrics(spec.task, predictions, test_mat.target)
    return make_record(
        cell.dataset,
        cell.detector,
        cell.repair,
        cell.model,
        cell.scenario,
        cell.seed,
        score.metric_kind,
        score.value,
        detect_runtime=detect_runtime,
        repair_runtime=version.runtime,
        train_runtime=fitted.train_runtime,
    )


def detector_context(
    cfg: BenchmarkConfig,
    constraints: list[DenialConstraint] | None,
    truth: DetectionMask,
    report: InjectionReport | None,
    seed: int,
) -> DetectorContext:
    """What detectors may use besides the dirty data; `truth` is also what
    `score_detectors` scores them against."""
    return DetectorContext(
        constraints=constraints,
        key_columns=cfg.key_columns,
        label_column=cfg.label_column,
        oracle_mask=truth,
        contamination=max(report.achieved_rate, 1e-6) if report else 0.1,
        seed=seed,
    )


def build_versions(
    cfg: BenchmarkConfig,
    mat: MaterializedData,
    strategies: list[tuple[DetectorSpec, RepairSpec]],
    out_dir: str | Path | None = None,
) -> tuple[dict[tuple[str, str], RepairedDataset], dict[str, DetectorRun], dict[tuple[str, str], str]]:
    """Run each detector once and each strategy's repair once.

    Returns the versions by (detector, repair) name, with the dirty data as
    ("none", "none"); the detector runs by name; and `broken`, the reason
    for each strategy whose detector or repair failed. A failure does not
    abort the run: the grid turns it into failure records.
    """
    dirty = mat.pair.dirty
    ctx = detector_context(
        cfg, mat.constraints, mat.pair.error_mask, mat.report, derive_seed(cfg.master_seed, "detect")
    )
    nothing = DetectionMask(np.zeros((dirty.row_count, dirty.col_count), dtype=bool))
    versions = {("none", "none"): RepairedDataset(dirty, ("none", "none"), 0.0, nothing, list(range(dirty.row_count)))}
    runs: dict[str, DetectorRun] = {}
    failed: dict[str, str] = {}
    broken: dict[tuple[str, str], str] = {}
    masks_dir = None
    if out_dir is not None:
        masks_dir = Path(out_dir) / "masks"
        masks_dir.mkdir(parents=True, exist_ok=True)
        save_mask(mat.pair.error_mask, masks_dir / f"{mat.name}_truth.mask")

    for det, _ in strategies:
        if det.name in runs or det.name in failed:
            continue
        run, error = _attempt(lambda det=det: run_detector(det, dirty, ctx), cfg.timeout)
        if error is not None:
            failed[det.name] = error
            continue
        runs[det.name] = run
        if masks_dir is not None:
            save_mask(run.mask, masks_dir / f"{mat.name}_{det.name}.mask")

    for det, rep in strategies:
        key = (det.name, rep.name)
        if det.name in failed:
            broken[key] = f"detector failed: {failed[det.name]}"
            continue
        repaired, error = _attempt(
            lambda rep=rep, det=det: apply_repair(rep, dirty, runs[det.name].mask, pair=mat.pair, detector=det.name),
            cfg.timeout,
        )
        if error is not None:
            broken[key] = f"repair failed: {error}"
        else:
            versions[key] = repaired
    return versions, runs, broken


def run_benchmark(
    cfg: BenchmarkConfig,
    grid: ExperimentGrid | None = None,
    store: ResultsStore | None = None,
    out_dir: str | Path | None = None,
) -> ResultsStore:
    """Execute the planned grid; per-cell failures are recorded, not raised."""
    store = store if store is not None else ResultsStore()
    mat = materialize(cfg)
    if grid is None:
        grid = plan_experiments(cfg, mat.tags)
    versions, runs, broken = build_versions(cfg, mat, grid.strategies, out_dir=out_dir)
    spec_of = dict(zip(grid.model_labels, cfg.models))
    dirty_version = versions[("none", "none")]

    def failure(cell: GridCell, spec: models.ModelSpec, message: str) -> dict:
        return make_record(
            cell.dataset, cell.detector, cell.repair, cell.model, cell.scenario, cell.seed,
            METRIC_FOR_TASK[spec.task], None, error=message,
        )

    def execute(cell: GridCell) -> dict:
        spec = spec_of[cell.model]
        key = (cell.detector, cell.repair)
        version = dirty_version if cell.scenario == "S4" else versions.get(key)
        if version is None:
            return failure(cell, spec, broken[key])
        detect_runtime = runs[cell.detector].runtime if cell.detector in runs else 0.0
        record, error = _attempt(
            lambda: _run_cell(cfg, cell, spec, version, dirty_version, mat.pair, detect_runtime), None
        )
        return record if error is None else failure(cell, spec, error)

    if cfg.workers <= 1:
        results = [execute(cell) for cell in grid.cells]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(execute, cell) for cell in grid.cells]
            results = []
            for cell, future in zip(grid.cells, futures):
                try:
                    results.append(future.result(timeout=cfg.timeout))
                except FutureTimeout:
                    results.append(
                        failure(cell, spec_of[cell.model], f"timed out after {cfg.timeout:g}s")
                    )
    store.extend(results)
    store.write_index()
    return store


# -- sweeps ------------------------------------------------------------------


def _sweep_profile(axis: str, value: float) -> ErrorProfile:
    from .inject import ErrorSpec

    if axis == "error_rate":
        # Outliers plus missing values at the requested total rate, degree 4.
        return ErrorProfile(
            [
                ErrorSpec("explicit_mv", value / 2.0),
                ErrorSpec("gaussian_outlier", value / 2.0, {"degree": 4.0}),
            ]
        )
    if axis == "outlier_degree":
        return ErrorProfile([ErrorSpec("gaussian_outlier", 0.3, {"degree": value})])
    raise BenchError(f"unknown sweep axis {axis!r}")


def score_detectors(
    cfg: BenchmarkConfig, ds: Dataset, ctx: DetectorContext, store: ResultsStore, common: dict, scored: dict
) -> list[DetectorRun]:
    """Run each detector of `cfg` on `ds` under the timeout, score its mask
    against `ctx.oracle_mask`, and append its records to `store` as soon as
    it finishes; return the successful runs.

    `common` holds the record fields other than detector, metric and value.
    `scored` maps each metric name to a function of the detector run and its
    detection score that gives the record's `value` (and any runtime field).
    A failed detector gets one error record under the first metric name.
    """
    runs = []
    for det in cfg.detectors:
        run, error = _attempt(lambda det=det: run_detector(det, ds, ctx), cfg.timeout)
        if error is None:
            score, error = _attempt(lambda run=run: metrics.detection_metrics(run.mask, ctx.oracle_mask), None)
        if error is not None:
            store.append(make_record(detector=det.name, metric=next(iter(scored)), value=None, error=error, **common))
            continue
        runs.append(run)
        for name, fields in scored.items():
            store.append(make_record(detector=det.name, metric=name, **fields(run, score), **common))
    return runs


def _sweep_step(cfg, data, profile, constraints, inject_seed, detect_seed, store, common, scored) -> None:
    """Inject `profile` into `data`, then score every detector on the dirty copy."""
    pair, report = inject(data, profile, inject_seed, constraints)
    ctx = detector_context(cfg, constraints, report.union_mask(), report, detect_seed)
    score_detectors(cfg, pair.dirty, ctx, store, common, scored)


def run_robustness_sweep(
    cfg: BenchmarkConfig,
    axis: str,
    values: list[float],
    store: ResultsStore | None = None,
) -> ResultsStore:
    """Detection F1 across error rates or outlier degrees.

    Injection seeds derive from (master seed, axis, repeat) only, so every
    sweep value sees the same cell choices and noise draws: series across
    values are paired, and re-running a sweep reproduces it exactly.
    """
    store = store if store is not None else ResultsStore()
    gt = load_ground_truth(cfg.dataset)
    constraints = _load_config_constraints(cfg)
    for value in values:
        profile = _sweep_profile(axis, value)
        scored = {f"detect_f1@{value:g}": lambda run, score: dict(value=score.f1, detect_runtime=run.runtime)}
        for rep in range(cfg.repeats):
            common = dict(
                dataset=gt.name, repair="", model="", scenario=f"sweep:{axis}", seed=rep,
                sweep_axis=axis, sweep_value=value,
            )
            _sweep_step(
                cfg, gt, profile, constraints, derive_seed(cfg.master_seed, "sweep", axis, rep),
                derive_seed(cfg.master_seed, "sweep-detect", rep), store, common, scored,
            )
    store.write_index()
    return store


def run_scalability_sweep(
    cfg: BenchmarkConfig,
    fractions: list[float],
    store: ResultsStore | None = None,
) -> ResultsStore:
    """Detector runtime and F1 on seeded row-prefix samples of the data."""
    store = store if store is not None else ResultsStore()
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise BenchError("data fractions must lie in (0, 1]")
    if cfg.profile is None:
        raise BenchError("scalability sweep needs an error profile")
    gt = load_ground_truth(cfg.dataset)
    constraints = _load_config_constraints(cfg)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "scale-shuffle"))
    order = rng.permutation(gt.row_count)
    for fraction in fractions:
        n = int(round(fraction * gt.row_count))
        if n < 10:
            raise BenchError(f"fraction {fraction} keeps only {n} rows; need >= 10")
        common = dict(
            dataset=gt.name, repair="", model="", scenario="sweep:scalability", seed=0,
            sweep_axis="data_fraction", sweep_value=fraction,
        )
        scored = {
            f"detect_runtime@{fraction:g}": lambda run, score: dict(value=run.runtime),
            f"detect_f1@{fraction:g}": lambda run, score: dict(value=score.f1),
        }
        _sweep_step(
            cfg, gt.take_rows(order[:n].tolist()), cfg.profile, constraints,
            derive_seed(cfg.master_seed, "scale-inject", fraction),
            derive_seed(cfg.master_seed, "scale-detect", fraction), store, common, scored,
        )
    store.write_index()
    return store


# -- scenario A/B comparison --------------------------------------------------


def ab_compare(
    store: ResultsStore,
    model: str,
    scenario_a: str,
    scenario_b: str,
    alpha: float = 0.05,
    dataset: str | None = None,
    detector: str | None = None,
    repair: str | None = None,
    mode: str = "auto",
    persist: bool = True,
) -> ABTestResult:
    """Wilcoxon signed-rank test between two scenarios, paired by seed.

    Detector/repair filters apply to scenarios that involve repaired versions;
    S4 records are strategy-independent and match regardless.
    """

    def side(scenario: str) -> dict[int, float]:
        filters = {"model": model, "scenario": scenario, "dataset": dataset}
        if scenario != "S4":
            filters["detector"] = detector
            filters["repair"] = repair
        by_seed: dict[int, list[float]] = {}
        for record in store.query(**filters):
            if record.get("value") is None:
                continue
            by_seed.setdefault(record["seed"], []).append(record["value"])
        return {seed: float(np.mean(vals)) for seed, vals in by_seed.items()}

    a, b = side(scenario_a), side(scenario_b)
    shared = sorted(set(a) & set(b))
    if not shared:
        raise BenchError(
            f"no shared seeds between {scenario_a} and {scenario_b} for model {model!r}"
        )
    sample = PairedSample([(a[s], b[s]) for s in shared], labels=(scenario_a, scenario_b))
    result = wilcoxon_signed_rank(sample, alpha=alpha, mode=mode)
    if persist:
        store.append(
            make_record(
                dataset or "*",
                detector or "*",
                repair or "*",
                model,
                f"{scenario_a}-vs-{scenario_b}",
                -1,
                "abtest_p",
                result.p_value,
                w_statistic=result.w_statistic,
                reject_h0=result.reject_h0,
                n_effective=result.n_effective,
                alpha=alpha,
                mode=result.mode,
                degenerate=result.degenerate,
            )
        )
    return result


def config_digest(cfg: BenchmarkConfig) -> str:
    """Content hash of the config for manifest traceability."""
    import hashlib

    def default(obj):
        if isinstance(obj, (DetectorSpec, RepairSpec)):
            return {"kind": obj.kind, **obj.params}
        if isinstance(obj, models.ModelSpec):
            return {"kind": obj.kind, "task": obj.task, "seed": obj.seed, **obj.params}
        if isinstance(obj, ErrorProfile):
            return obj.to_dict()
        return str(obj)

    body = json.dumps(cfg.__dict__, sort_keys=True, default=default)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
