"""Repair strategies: turn (dirty dataset, detection mask) into a repaired dataset.

All imputers compute their statistics from unflagged cells only, and never
touch a cell outside the mask. Ties in modes and votes break lexicographically
so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import models
from .tabular import Column, Dataset, DatasetPair, DetectionMask

class RepairError(Exception):
    pass


@dataclass
class RepairSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in REPAIRS:
            raise RepairError(f"unknown repair kind {self.kind!r}")
        for kind, name, label in (("knn", "k", "knn repair"), ("iter", "max_rounds", "iterative repair")):
            if self.kind != kind or name not in self.params:
                continue
            value = self.params[name]
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise RepairError(f"{label} requires an integer {name}, got {value!r}")
            if value < 1:
                raise RepairError(f"{label} requires {name} >= 1")

    @property
    def name(self) -> str:
        return self.kind


@dataclass
class RepairedDataset:
    data: Dataset
    repaired_cells: DetectionMask
    # repaired row index -> row index in the input (dirty) dataset
    row_map: list[int]
    warning: str | None = None
    runtime: float = 0.0  # set by apply_repair

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """`row_map` as an index array, built once."""
        return np.asarray(self.row_map, dtype=np.intp)


def repair_delete(ds: Dataset, mask: DetectionMask) -> RepairedDataset:
    """Drop every row containing at least one flagged cell, keeping row order."""
    bad = mask.matrix((ds.row_count, ds.col_count)).any(axis=1)
    keep = np.flatnonzero(~bad).tolist()
    cells = np.repeat(bad[:, None], ds.col_count, axis=1)
    warning = "all rows were flagged; repaired dataset is empty" if not keep else None
    return RepairedDataset(ds.take_rows(keep), DetectionMask(cells), keep, warning)


def _numeric_stat(values: np.ndarray, stat: str) -> float:
    if stat == "mean":
        return models.sample_mean(values)
    if stat == "median":
        return float(np.median(values))
    if stat == "mode":
        # The smallest of the most frequent values; a Counter keeps the first
        # spelling of equal keys, so 0.0 and -0.0 count as one value.
        counts = Counter(values.tolist())
        top = max(counts.values())
        return float(min(v for v, c in counts.items() if c == top))
    raise RepairError(f"unknown numeric stat {stat!r}")


def _mode(counts: dict[str, int]) -> str | None:
    if not counts:
        return None
    return sorted(counts, key=lambda v: (-counts[v], v))[0]


def _missing(col: Column) -> np.ndarray:
    """Cells a column cannot take a value from: unparsed when numeric, empty otherwise."""
    return np.isnan(col.parsed) if col.is_numeric else col.empty


def _column_fill(col: Column, flagged: np.ndarray, numeric_stat: str) -> str | None:
    """Imputation text for a column from its unflagged cells; None when no
    cell is usable."""
    usable = ~flagged & ~_missing(col)
    if col.is_numeric:
        pool = col.parsed[usable]
        return repr(_numeric_stat(pool, numeric_stat)) if pool.size else None
    return _mode(Counter(col.raw[usable]))


def repair_impute_stat(ds: Dataset, mask: DetectionMask, numeric_stat: str = "mean") -> RepairedDataset:
    """Flagged numeric cells take the column mean/median/mode of unflagged
    values; flagged categorical cells take the unflagged mode."""
    flagged = mask.matrix((ds.row_count, ds.col_count))
    updates = {}
    repaired_cells = np.zeros_like(flagged)
    unfillable = 0
    for c in np.flatnonzero(flagged.any(axis=0)).tolist():
        rows = np.flatnonzero(flagged[:, c])
        value = _column_fill(ds.columns[c], flagged[:, c], numeric_stat)
        if value is None:
            unfillable += rows.size
            value = ""
        else:
            repaired_cells[rows, c] = True
        updates[c] = (rows, [value] * rows.size)
    repaired = ds.replace_cells(updates)
    warning = f"{unfillable} cells had no usable donor values" if unfillable else None
    return RepairedDataset(repaired, DetectionMask(repaired_cells), list(range(ds.row_count)), warning)


def _donor_distances(z: np.ndarray, donors_z: np.ndarray) -> np.ndarray:
    """Euclidean distance from z-score row `z` to each donor row over the
    dimensions both hold (NaN marks a missing one); inf where none is shared.

    Squared differences add up in column order, and np.float_power squares
    through pow() like Python's `x ** 2`, so every distance is the float a
    scalar loop over (row, donor, column) gives.
    """
    sq = np.float_power(z - donors_z, 2.0)
    shared = ~np.isnan(sq)
    dist2 = np.zeros(donors_z.shape[0])
    for j in range(sq.shape[1]):
        dist2 += np.where(shared[:, j], sq[:, j], 0.0)
    return np.where(shared.any(axis=1), np.sqrt(dist2), np.inf)


def repair_impute_knn(ds: Dataset, mask: DetectionMask, k: int = 5) -> RepairedDataset:
    """Impute each flagged cell from its k nearest fully-clean donor rows.

    Distances are z-scored Euclidean over numeric columns where both rows hold
    unflagged parsed values, ignoring missing dimensions. Donors closer than
    another come first, and equal distances go to the lower row index.
    """
    if k < 1:
        raise RepairError("knn repair requires k >= 1")
    flagged = mask.matrix((ds.row_count, ds.col_count))
    donors = np.flatnonzero(~flagged.any(axis=1))
    if donors.size == 0:
        raise RepairError("knn repair has no fully-unflagged donor rows")

    # z-scores of the numeric cells; NaN where a cell is flagged or unparsed,
    # or its column has fewer than two usable values or no spread.
    num_cols = ds.numeric_column_indices()
    Z = np.full((ds.row_count, len(num_cols)), np.nan)
    for j, c in enumerate(num_cols):
        parsed = ds.columns[c].parsed
        usable = ~flagged[:, c] & ~np.isnan(parsed)
        values = parsed[usable]
        if values.size >= 2:
            std = models.sample_std(values)
            if std > 0:
                Z[usable, j] = (values - models.sample_mean(values)) / std
    donors_z = Z[donors]

    # A flagged cell is NaN in Z, so its own column never adds to a distance.
    updates = {}
    repaired_cells = np.zeros_like(flagged)
    unfillable = 0
    for c in np.flatnonzero(flagged.any(axis=0)).tolist():
        col = ds.columns[c]
        eligible = ~_missing(col)[donors]
        usable, usable_z = donors[eligible], donors_z[eligible]
        rows, texts = [], []
        for r in np.flatnonzero(flagged[:, c]).tolist():
            distance = _donor_distances(Z[r], usable_z)
            nearest = np.argsort(distance, kind="stable")[:k]
            finite = nearest[np.isfinite(distance[nearest])]
            if finite.size:
                nearest = finite
            if nearest.size == 0:
                unfillable += 1
                continue
            chosen = usable[nearest]
            rows.append(r)
            if col.is_numeric:
                texts.append(repr(models.sample_mean(col.parsed[chosen])))
            else:
                texts.append(_mode(Counter(col.raw[chosen])))
        updates[c] = (rows, texts)
        repaired_cells[rows, c] = True
    repaired = ds.replace_cells(updates)
    warning = f"{unfillable} cells had no eligible donors" if unfillable else None
    return RepairedDataset(repaired, DetectionMask(repaired_cells), list(range(ds.row_count)), warning)


# RMS change of the imputed numeric values below which iterative repair stops.
ITERATIVE_TOLERANCE = 1e-4


def repair_impute_iterative(ds: Dataset, mask: DetectionMask, max_rounds: int = 3) -> RepairedDataset:
    """missForest-style iterative imputation with a single CART tree per column.

    Flagged cells start from mean/mode imputation; each round refits a tree per
    flagged column (ascending flagged count) on rows whose target cell is
    unflagged and overwrites the flagged cells with predictions. Stops when the
    RMS change of imputed numeric values drops below `ITERATIVE_TOLERANCE`
    and no categorical cell changes.
    """
    if max_rounds < 1:
        raise RepairError("iterative repair requires max_rounds >= 1")
    flagged = mask.matrix((ds.row_count, ds.col_count))
    clean_rows = ds.row_count - int(np.count_nonzero(flagged.any(axis=1)))
    if clean_rows < 10:
        raise RepairError(
            f"iterative repair needs >= 10 fully-unflagged rows, found {clean_rows}"
        )

    seeded = repair_impute_stat(ds, mask, "mean")
    working = seeded.data
    target_rows = {c: np.flatnonzero(flagged[:, c]) for c in np.flatnonzero(flagged.any(axis=0)).tolist()}
    col_order = sorted(target_rows, key=lambda c: (target_rows[c].size, c))
    fell_back = False

    for _ in range(max_rounds):
        numeric_change2, numeric_n, categorical_changed = 0.0, 0, False
        for c in col_order:
            col, rows = working.columns[c], target_rows[c]
            train_rows = np.flatnonzero(~flagged[:, c] & ~_missing(col)).tolist()
            if len(train_rows) < 2:
                fell_back = True
                continue
            try:
                train = working.take_rows(train_rows)
                predict_on = working.take_rows(rows)
                tr_mat, pr_mat = models.encode(train, predict_on, target=col.name)
                task = "regression" if col.is_numeric else "classification"
                if task == "classification" and len(set(tr_mat.target.tolist())) < 2:
                    raise models.ModelError("single-class training column")
                tree = models.DecisionTree(task, max_depth=8, min_leaf=5)
                tree.fit(tr_mat.features, tr_mat.target)
                preds = tree.predict(pr_mat.features)
            except models.ModelError:
                fell_back = True
                continue
            if col.is_numeric:
                texts = []
                for old, value in zip(col.parsed[rows].tolist(), preds):
                    new = float(value)
                    if not math.isnan(old):
                        numeric_change2 += (new - old) ** 2
                        numeric_n += 1
                    texts.append(repr(new))
            else:
                texts = [str(value) for value in preds]
                categorical_changed |= texts != col.raw[rows].tolist()
            working = working.replace_cells({c: (rows, texts)})
        rms = np.sqrt(numeric_change2 / numeric_n) if numeric_n else 0.0
        if rms < ITERATIVE_TOLERANCE and not categorical_changed:
            break

    warning = "degenerate training data; kept stat imputation for some columns" if fell_back else None
    return RepairedDataset(working, seeded.repaired_cells, list(range(ds.row_count)), warning)


def repair_ground_truth(pair: DatasetPair | None, mask: DetectionMask) -> RepairedDataset:
    """Replace flagged cells with ground-truth values; undetected errors persist.

    Flagged cells of appended duplicate rows resolve through `pair.origin`.
    """
    if pair is None:
        raise RepairError("ground-truth repair needs the dataset pair")
    gt, dirty, flagged = pair.ground_truth, pair.dirty, mask.flagged
    origin = np.concatenate([pair.origin, np.full(flagged.shape[0], -1, dtype=np.intp)])  # -1 past the dirty rows
    orphans = np.flatnonzero(flagged.any(axis=1) & (origin[: flagged.shape[0]] < 0))
    if orphans.size:
        raise RepairError(f"row {orphans[0]} is beyond ground truth and has no provenance")
    updates = {}
    for c in np.flatnonzero(flagged.any(axis=0)).tolist():
        rows = np.flatnonzero(flagged[:, c])
        updates[c] = (rows, gt.columns[c].raw[origin[rows]])
    repaired = dirty.replace_cells(updates)
    cells = DetectionMask(mask.matrix((dirty.row_count, dirty.col_count)))
    return RepairedDataset(repaired, cells, list(range(dirty.row_count)))


# Every repair kind: a function of (dirty data, mask, dataset pair, **spec params).
REPAIRS = {
    "delete": lambda ds, mask, pair, **p: repair_delete(ds, mask, **p),
    "mean": lambda ds, mask, pair, **p: repair_impute_stat(ds, mask, "mean", **p),
    "median": lambda ds, mask, pair, **p: repair_impute_stat(ds, mask, "median", **p),
    "mode": lambda ds, mask, pair, **p: repair_impute_stat(ds, mask, "mode", **p),
    "knn": lambda ds, mask, pair, **p: repair_impute_knn(ds, mask, **p),
    "iter": lambda ds, mask, pair, **p: repair_impute_iterative(ds, mask, **p),
    "gt": lambda ds, mask, pair, **p: repair_ground_truth(pair, mask, **p),
}


def apply_repair(
    spec: RepairSpec, ds: Dataset, mask: DetectionMask, pair: DatasetPair | None = None
) -> RepairedDataset:
    """Run `REPAIRS[spec.kind]` on `ds` and `mask` with the spec's params by
    keyword, timing it and labelling its repaired cells `repair:<kind>`. A
    param the repair does not take raises TypeError naming it."""
    start = time.perf_counter()
    out = REPAIRS[spec.kind](ds, mask, pair, **spec.params)
    out.runtime = time.perf_counter() - start
    out.repaired_cells = DetectionMask(out.repaired_cells.flagged, source=f"repair:{spec.kind}")
    return out
