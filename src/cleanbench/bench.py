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
import queue
import threading
import weakref
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics, models
from .constraints import DenialConstraint, load_constraints, parse_constraints
from .detect import DetectorContext, DetectorRun, DetectorSpec, run_detector
from .inject import ErrorProfile, ErrorSpec, InjectionReport, inject, make_synthetic
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

# Each scenario's (training, test) data: the cell's version (the dirty data
# for strategy (none, none)), the ground truth or the dirty data. A side
# takes the rows of its split side; a version or dirty row goes with its
# ground-truth origin (`DatasetPair.origin`), a duplicate with its source.
SCENARIO_DATA = {
    "S1": ("version", "version"),
    "S2": ("version", "gt"),
    "S3": ("gt", "version"),
    "S4": ("gt", "gt"),
    "S5": ("version", "dirty"),
}
SCENARIOS = tuple(SCENARIO_DATA)


def _on_versions(scenario: str) -> bool:
    """Whether a scenario runs per version, not once as strategy (gt, gt)."""
    return SCENARIO_DATA.get(scenario) != ("gt", "gt")

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
        if self.workers < 1:
            raise BenchError(f"workers must be >= 1, got {self.workers}")
        if not self.timeout > 0:
            raise BenchError(f"timeout must be > 0 seconds, got {self.timeout}")
        if not self.models:
            raise BenchError("at least one model spec is required")
        bad = [s for s in self.scenarios if s not in SCENARIOS]
        if bad or not self.scenarios:
            raise BenchError(f"scenarios must be a non-empty subset of {SCENARIOS}, got {self.scenarios}")
        # Versions, masks, CSVs and records are keyed by strategy name, so
        # two specs sharing one would overwrite each other in every verb.
        for specs in (self.detectors, self.repairs):
            names = [spec.name for spec in specs]
            shared = sorted({name for name in names if names.count(name) > 1})
            if shared:
                raise PlanningError(f"strategy names must be unique; shared: {', '.join(shared)}")

    def target_for_task(self, task: str) -> str | None:
        if task == "classification":
            return self.label_column
        if task == "regression":
            return self.target_column
        return None


def config_from_dict(spec: dict, base_dir: str | Path | None = None) -> BenchmarkConfig:
    """Build a config from parsed JSON; `config_schema` is mandatory, and a
    top-level field `BenchmarkConfig` does not have is rejected. A field not
    given takes the `BenchmarkConfig` default."""
    spec = dict(spec)
    if "config_schema" not in spec:
        raise BenchError("config is missing the mandatory config_schema field")
    unknown = sorted(set(spec) - {f.name for f in fields(BenchmarkConfig)})
    if unknown:
        raise BenchError(f"unknown config field(s): {', '.join(unknown)}")
    base = Path(base_dir) if base_dir else Path(".")

    def params(entry: dict, *named: str) -> dict:
        return {k: v for k, v in entry.items() if k not in named}

    spec["profile"] = ErrorProfile.from_dict(spec["profile"]) if spec.get("profile") else None
    spec["detectors"] = [DetectorSpec(d["kind"], params(d, "kind")) for d in spec.get("detectors", [])]
    spec["repairs"] = [RepairSpec(r["kind"], params(r, "kind")) for r in spec.get("repairs", [])]
    spec["models"] = [
        models.ModelSpec(m["kind"], m["task"], params(m, "kind", "task", "seed"), seed=m.get("seed", 0))
        for m in spec.get("models", [])
    ]
    if spec.get("constraint_file"):
        spec["constraint_file"] = str(base / spec["constraint_file"])
    spec["dataset"] = dataset = dict(spec["dataset"])
    for key in ("path", "gt_path"):
        if dataset.get(key):
            dataset[key] = str(base / dataset[key])
    spec["config_schema"] = str(spec["config_schema"])
    return BenchmarkConfig(**spec)


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
    total, seen = Counter(spec.kind for spec in specs), Counter()
    labels = []
    for spec in specs:
        seen[spec.kind] += 1
        labels.append(spec.kind if total[spec.kind] == 1 else f"{spec.kind}#{seen[spec.kind]}")
    return labels


def plan_experiments(cfg: BenchmarkConfig, tags: frozenset[str]) -> ExperimentGrid:
    """Apply the skip table and lay out every (version, model, scenario, seed).

    Cells come version by version (the dirty one, then each detector's
    repairs), each with its S1, S2, S3 and S5 cells over models and repeats;
    the S4 cells come last. So each detector's versions form one block, and
    only the ground-truth fits of S3 and S4 outlive their version's cells.
    """
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
    for det_name, rep_name in versions:
        for scenario in filter(_on_versions, cfg.scenarios):
            for label, spec in zip(labels, cfg.models):
                if scenario == "S5" and spec.task == "clustering":
                    skip_key = f"{label}/{scenario}"
                    if (skip_key, "clustering models skip scenario S5") not in skipped:
                        skipped.append((skip_key, "clustering models skip scenario S5"))
                    continue
                for rep in range(cfg.repeats):
                    cells.append(GridCell(dataset_name, det_name, rep_name, label, scenario, rep))
    for scenario in [s for s in cfg.scenarios if not _on_versions(s)]:
        for label in labels:
            for rep in range(cfg.repeats):
                cells.append(GridCell(dataset_name, "gt", "gt", label, scenario, rep))
    if not cells:
        raise PlanningError("experiment grid is empty")
    return ExperimentGrid(cells, epsilon, len(cells), skipped, strategies, labels)


# -- execution ---------------------------------------------------------------


_helpers = threading.local()  # each thread's `_Helper`, made by its first bounded call


class _Helper:
    """A daemon thread that runs one owner thread's bounded calls, one at a
    time, in the order they are put on `calls`. It exits once it is dropped
    (its owner abandoned it after an overrun, or the owner thread ended) and
    the call it is running has returned."""

    def __init__(self):
        self.calls: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, args=(self.calls,), daemon=True).start()
        weakref.finalize(self, self.calls.put, None)

    @staticmethod
    def _serve(calls: queue.SimpleQueue) -> None:
        while (call := calls.get()) is not None:
            call()
            del call  # an idle helper holds nothing of its last call


def _attempt(fn, timeout: float | None):
    """Call `fn()`: (its result, None), or (None, "<ExcType>: <msg>") when it
    raised an Exception or did not finish within `timeout` seconds (None: no
    bound). Any other exception, such as KeyboardInterrupt, propagates.

    The timeout is cooperative. A bounded call runs on the calling thread's
    helper, one daemon thread that runs each of that thread's bounded calls
    in turn and exits when the thread ends. An overrun abandons the helper,
    which keeps running the call until it returns and then exits, while the
    caller records the failure; the caller's next bounded call starts a
    fresh helper.
    """
    outcome: list[tuple] = []
    done = threading.Lock()
    done.acquire()

    def call() -> None:
        nonlocal fn
        try:
            outcome.append((fn(), None))
        except BaseException as exc:  # the caller re-raises what is not an Exception
            outcome.append((None, exc))
        finally:
            fn = None  # what the call held goes with the caller, though this helper lingers
            done.release()

    if timeout is None:
        call()
    else:
        helper = getattr(_helpers, "helper", None)
        if helper is None:
            helper = _helpers.helper = _Helper()
        helper.calls.put(call)
        done.acquire(timeout=timeout)
        if not outcome:
            _end_helper()
            return None, f"BenchError: timed out after {timeout:g}s"
    result, exc = outcome.pop()  # so, too, an exception's frames
    if exc is None:
        return result, None
    if isinstance(exc, Exception):  # every detector, repair and cell failure becomes a record
        return None, f"{type(exc).__name__}: {exc}"
    raise exc


def _end_helper() -> None:
    """Drop the calling thread's helper: it exits once its running call, if
    any, returns."""
    _helpers.__dict__.pop("helper", None)


def _scenario_data(
    scenario: str, version: RepairedDataset, pair: DatasetPair, train_idx: np.ndarray, test_idx: np.ndarray
) -> tuple[Dataset, Dataset]:
    """The scenario's training and test data (see `SCENARIO_DATA`); a
    version or dirty row with no ground-truth origin raises KeyError."""
    sources = {"version": (version.data, version.rows), "dirty": (pair.dirty, np.arange(pair.dirty.row_count))}

    def side(source: str, idx: np.ndarray) -> Dataset:
        if source == "gt":
            return pair.ground_truth.take_rows(idx)
        data, rows = sources[source]
        origin = pair.origin[rows]
        if (origin < 0).any():
            raise KeyError(int(rows[np.argmax(origin < 0)]))
        on_side = np.zeros(pair.ground_truth.row_count, dtype=bool)
        on_side[idx] = True
        return data.take_rows(np.flatnonzero(on_side[origin]))

    train, test = SCENARIO_DATA[scenario]
    return side(train, train_idx), side(test, test_idx)


def _fit_key(cell: GridCell) -> tuple:
    """The training set a cell fits its model on: the ground truth's or the
    cell's version (see `SCENARIO_DATA`); the model label and the repeat fix
    the spec, the split and the model seed."""
    version = ("gt", "gt") if SCENARIO_DATA[cell.scenario][0] == "gt" else (cell.detector, cell.repair)
    return version, cell.model, cell.seed


def _data_key(cell: GridCell) -> tuple:
    """The rows a cell trains and tests on: its scenario and version pick
    them, and the repeat fixes the split. The models of a key share them."""
    return cell.scenario, cell.detector, cell.repair, cell.seed


class SharedFits:
    """What the grid cells share, each computed once: the versions of each
    detector (`build_versions` over its strategies), one `models.fit` per
    training set (`_fit_key`), and one split, row selection and
    `models.encode` per (`_data_key`, target column).

    All are deterministic in their inputs, so the first cell of a key
    computes the value and later cells wait for its result, or its
    exception. Each cell calls `release` when it is done; the last cell of a
    key drops what it shared, so in grid order (see `plan_experiments`) a
    detector's versions and runs go after its block of cells.
    """

    def __init__(self, cells: list[GridCell]):
        self._lock = threading.Lock()
        self._shared: dict[tuple, dict] = {}  # {(kind, key): {detail: Future}}
        self._left = Counter(key for cell in cells for key in self._keys(cell))

    @staticmethod
    def _keys(cell: GridCell) -> tuple:
        return ("build", cell.detector), ("fit", _fit_key(cell)), ("data", _data_key(cell))

    def _share(self, key: tuple, compute, detail=None):
        """compute(), or what the first call under (`key`, `detail`) gave,
        kept while cells of `key` are left."""
        with self._lock:
            shared = self._shared.get(key, {}).get(detail)
            owner = shared is None
            if owner:
                shared = Future()
                if self._left[key]:  # a cell that outlived its key's last cell shares nothing
                    self._shared.setdefault(key, {})[detail] = shared
        if owner:
            try:
                shared.set_result(compute())
            except BaseException as exc:  # result() raises it again, here and in every waiting cell
                shared.set_exception(exc)
        return shared.result()

    def versions(self, cell: GridCell, build):
        """`build()`, the versions, runs and `broken` of the cell's detector
        (see `build_versions`), shared by the cells of its block."""
        return self._share(("build", cell.detector), build)

    def fit(self, cell: GridCell, spec: models.ModelSpec, train: models.EncodedMatrix) -> models.FittedModel:
        return self._share(("fit", _fit_key(cell)), lambda: models.fit(spec, train))

    def data(self, cell: GridCell, target: str | None, encoded) -> tuple[models.EncodedMatrix, models.EncodedMatrix]:
        """`encoded()`, the cell's encoded (train, test) matrices, shared by
        the cells of its data key that encode the same target column."""
        return self._share(("data", _data_key(cell)), encoded, target)

    def release(self, cell: GridCell) -> None:
        with self._lock:
            for key in self._keys(cell):
                self._left[key] -= 1
                if not self._left[key]:
                    self._shared.pop(key, None)


def _cell_rows(
    cfg: BenchmarkConfig, cell: GridCell, version: RepairedDataset, pair: DatasetPair
) -> tuple[Dataset, Dataset]:
    """The cell's training and test rows (see `_data_key`)."""
    train_idx, test_idx = split_indices(
        pair.ground_truth.row_count,
        SplitSpec(cfg.test_fraction, derive_seed(cfg.master_seed, "split", cell.seed)),
    )
    return _scenario_data(cell.scenario, version, pair, train_idx, test_idx)


def _run_cell(
    cfg: BenchmarkConfig,
    cell: GridCell,
    spec: models.ModelSpec,
    version: RepairedDataset,
    pair: DatasetPair,
    detect_runtime: float,
    fits: SharedFits,
) -> dict:
    target = cfg.target_for_task(spec.task)
    if spec.task in ("classification", "regression") and target is None:
        _cell_rows(cfg, cell, version, pair)  # a failed split or row selection still reports first
        raise BenchError(f"{spec.task} model {cell.model} needs a target column in the config")
    train_mat, test_mat = fits.data(
        cell, target, lambda: models.encode(*_cell_rows(cfg, cell, version, pair), target=target)
    )
    run_spec = models.ModelSpec(
        spec.kind,
        spec.task,
        dict(spec.params),
        seed=derive_seed(cfg.master_seed, "model", cell.model, cell.seed),
    )
    fitted = fits.fit(cell, run_spec, train_mat)
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


def _dirty_version(dirty: Dataset) -> RepairedDataset:
    """The dirty data as the grid's ("none", "none") version."""
    nothing = DetectionMask(np.zeros((dirty.row_count, dirty.col_count), dtype=bool))
    return RepairedDataset(dirty, nothing, list(range(dirty.row_count)))


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
    abort the run: the grid turns it into failure records. With `out_dir`,
    each detector's mask is saved under `<out_dir>/masks`.
    """
    dirty = mat.pair.dirty
    ctx = detector_context(
        cfg, mat.constraints, mat.pair.error_mask, mat.report, derive_seed(cfg.master_seed, "detect")
    )
    versions = {("none", "none"): _dirty_version(dirty)}
    runs: dict[str, DetectorRun] = {}
    failed: dict[str, str] = {}
    broken: dict[tuple[str, str], str] = {}
    masks_dir = None
    if out_dir is not None:
        masks_dir = Path(out_dir) / "masks"
        masks_dir.mkdir(parents=True, exist_ok=True)

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
            lambda rep=rep, det=det: apply_repair(rep, dirty, runs[det.name].mask, pair=mat.pair),
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
    """Execute the planned grid; per-cell failures are recorded, not raised.

    The cells run in grid order, version by version (see
    `plan_experiments`), on a pool of `cfg.workers` threads. Each cell's
    record is appended to `store` as soon as its turn in grid order comes:
    a run that is killed keeps the records of every cell before the one it
    was on, and the store file lists records in grid order for any
    `cfg.workers`.

    Cells compute shared work once (see `SharedFits`). A detector runs,
    with each of its repairs, when the first cell of its block comes up;
    its versions are dropped after the block's last cell. The models of
    a (scenario, version, repeat) share its split, rows and encoding. Each
    model is fitted once per training set: S1, S2 and S5 share the fit on
    their version, and S3 and S4 the fit on the ground truth, for each
    model and repeat. Each cell predicts and scores on its own. The records
    of a shared fit carry its one `train_runtime`, and a failed encoding or
    fit gives each cell sharing it the same error text.

    Each cell runs within `cfg.timeout` seconds, as does each detector and
    repair call; the time its detector's versions take to build, or that it
    waits for them, does not count against it. A cell waiting on shared
    data or a shared fit counts the wait against its own timeout; when the
    cell computing it times out, its abandoned helper thread still finishes
    it, and later cells may reuse it. Each pool thread runs its bounded
    calls on one helper thread of its own (see `_attempt`), which exits
    with the pool.
    """
    store = store if store is not None else ResultsStore()
    mat = materialize(cfg)
    if grid is None:
        grid = plan_experiments(cfg, mat.tags)
    if out_dir is not None:
        masks_dir = Path(out_dir) / "masks"
        masks_dir.mkdir(parents=True, exist_ok=True)
        save_mask(mat.pair.error_mask, masks_dir / f"{mat.name}_truth.mask")
    spec_of = dict(zip(grid.model_labels, cfg.models))
    fits = SharedFits(grid.cells)
    dirty_version = _dirty_version(mat.pair.dirty)

    def failure(cell: GridCell, spec: models.ModelSpec, message: str) -> dict:
        return make_record(
            cell.dataset, cell.detector, cell.repair, cell.model, cell.scenario, cell.seed,
            METRIC_FOR_TASK[spec.task], None, error=message,
        )

    def execute(cell: GridCell) -> dict:
        try:
            spec = spec_of[cell.model]
            key = (cell.detector, cell.repair)
            version, detect_runtime = dirty_version, 0.0
            if _on_versions(cell.scenario) and key != ("none", "none"):
                versions, runs, broken = fits.versions(cell, lambda: build_versions(
                    cfg, mat, [s for s in grid.strategies if s[0].name == cell.detector], out_dir=out_dir
                ))
                if key not in versions:
                    return failure(cell, spec, broken[key])
                version, detect_runtime = versions[key], runs[cell.detector].runtime
            record, error = _attempt(
                lambda: _run_cell(cfg, cell, spec, version, mat.pair, detect_runtime, fits),
                cfg.timeout,
            )
            return record if error is None else failure(cell, spec, error)
        finally:
            fits.release(cell)

    pool = ThreadPoolExecutor(max_workers=cfg.workers)
    try:
        tasks = [pool.submit(execute, cell) for cell in grid.cells]
        for task in tasks:
            store.append(task.result())
    finally:
        pool.shutdown(cancel_futures=True)
    store.write_index()
    return store


# -- sweeps ------------------------------------------------------------------


def _sweep_profile(axis: str, value: float) -> ErrorProfile:
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
    try:
        score_detectors(cfg, pair.dirty, ctx, store, common, scored)
    finally:
        _end_helper()  # the step's detector calls ran on this thread's helper


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

    Detector/repair filters apply to scenarios that run on versions; the
    ground-truth-only ones (S4) are strategy-independent and match regardless.
    """

    def side(scenario: str) -> dict[int, float]:
        filters = {"model": model, "scenario": scenario, "dataset": dataset}
        if _on_versions(scenario):
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
