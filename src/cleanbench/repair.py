"""Repair strategies: turn (dirty dataset, detection mask) into a repaired dataset.

All imputers compute their statistics from unflagged cells only, and never
touch a cell outside the mask. Ties in modes and votes break lexicographically
so repeated runs are bit-identical.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import models
from .tabular import CellRef, Column, Dataset, DatasetPair, DetectionMask, cells_of

REPAIR_KINDS = ("delete", "mean", "median", "mode", "knn", "iter", "gt")


class RepairError(Exception):
    pass


@dataclass
class RepairSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in REPAIR_KINDS:
            raise RepairError(f"unknown repair kind {self.kind!r}")
        if self.kind == "knn" and self.params.get("k", 5) < 1:
            raise RepairError("knn repair requires k >= 1")
        if self.kind == "iter" and self.params.get("max_rounds", 3) < 1:
            raise RepairError("iterative repair requires max_rounds >= 1")

    @property
    def name(self) -> str:
        return self.kind


@dataclass
class RepairedDataset:
    data: Dataset
    strategy: tuple[str, str]  # (detector id, repair id)
    runtime: float
    repaired_cells: DetectionMask
    # repaired row index -> row index in the input (dirty) dataset
    row_map: list[int]
    warning: str | None = None


def _result(ds, kind, detector, runtime, repaired, row_map, warning=None):
    return RepairedDataset(
        data=ds,
        strategy=(detector, kind),
        runtime=runtime,
        repaired_cells=DetectionMask(repaired, source=f"repair:{kind}"),
        row_map=row_map,
        warning=warning,
    )


def repair_delete(ds: Dataset, mask: DetectionMask, detector: str = "") -> RepairedDataset:
    """Drop every row containing at least one flagged cell, keeping row order."""
    start = time.perf_counter()
    bad = mask.matrix((ds.row_count, ds.col_count)).any(axis=1)
    keep = np.flatnonzero(~bad).tolist()
    cells = np.repeat(bad[:, None], ds.col_count, axis=1)
    warning = "all rows were flagged; repaired dataset is empty" if not keep else None
    return _result(ds.take_rows(keep), "delete", detector, time.perf_counter() - start, cells, keep, warning)


def _numeric_stat(values: np.ndarray, stat: str) -> float:
    if stat == "mean":
        return float(values.mean())
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
    return np.isnan(col.parsed_values()) if col.is_numeric else col.empty_flags()


def _column_fill(col: Column, flagged: np.ndarray, numeric_stat: str) -> str | None:
    """Imputation text for a column from its unflagged cells; None when no
    cell is usable."""
    usable = ~flagged & ~_missing(col)
    if col.is_numeric:
        pool = col.parsed_values()[usable]
        return repr(_numeric_stat(pool, numeric_stat)) if pool.size else None
    return _mode(Counter(col.raw_values()[usable]))


def repair_impute_stat(
    ds: Dataset, mask: DetectionMask, numeric_stat: str = "mean", detector: str = ""
) -> RepairedDataset:
    """Flagged numeric cells take the column mean/median/mode of unflagged
    values; flagged categorical cells take the unflagged mode."""
    start = time.perf_counter()
    flagged = mask.matrix((ds.row_count, ds.col_count))
    fills: dict[int, str | None] = {}
    updates: dict[CellRef, str] = {}
    repaired_cells = np.zeros_like(flagged)
    unfillable = 0
    for ref in cells_of(flagged):
        if ref.col not in fills:
            fills[ref.col] = _column_fill(ds.columns[ref.col], flagged[:, ref.col], numeric_stat)
        value = fills[ref.col]
        if value is None:
            unfillable += 1
            updates[ref] = ""
            continue
        updates[ref] = value
        repaired_cells[ref] = True
    repaired = ds.replace_cells(updates)
    warning = f"{unfillable} cells had no usable donor values" if unfillable else None
    return _result(
        repaired,
        numeric_stat,
        detector,
        time.perf_counter() - start,
        repaired_cells,
        list(range(ds.row_count)),
        warning,
    )


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


def repair_impute_knn(
    ds: Dataset, mask: DetectionMask, k: int = 5, detector: str = ""
) -> RepairedDataset:
    """Impute each flagged cell from its k nearest fully-clean donor rows.

    Distances are z-scored Euclidean over numeric columns where both rows hold
    unflagged parsed values, ignoring missing dimensions. Donors closer than
    another come first, and equal distances go to the lower row index.
    """
    start = time.perf_counter()
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
        parsed = ds.columns[c].parsed_values()
        usable = ~flagged[:, c] & ~np.isnan(parsed)
        values = parsed[usable]
        if values.size >= 2:
            std = float(values.std(ddof=1))
            if std > 0:
                Z[usable, j] = (values - float(values.mean())) / std
    donors_z = Z[donors]
    eligible = [~_missing(col)[donors] for col in ds.columns]

    # A flagged row's own cell in the target column is NaN in Z, so one
    # distance vector per row serves every flagged cell of that row.
    row, distance = -1, None
    updates: dict[CellRef, str] = {}
    repaired_cells = np.zeros_like(flagged)
    unfillable = 0
    for ref in cells_of(flagged):
        if ref.row != row:
            row, distance = ref.row, _donor_distances(Z[ref.row], donors_z)
        target_col = ds.columns[ref.col]
        usable, usable_distance = donors[eligible[ref.col]], distance[eligible[ref.col]]
        nearest = np.argsort(usable_distance, kind="stable")[:k]
        finite = nearest[np.isfinite(usable_distance[nearest])]
        if finite.size:
            nearest = finite
        if nearest.size == 0:
            unfillable += 1
            continue
        chosen = usable[nearest]
        if target_col.is_numeric:
            updates[ref] = repr(float(np.mean(target_col.parsed_values()[chosen])))
        else:
            updates[ref] = _mode(Counter(target_col.raw_values()[chosen]))
        repaired_cells[ref] = True
    repaired = ds.replace_cells(updates)
    warning = f"{unfillable} cells had no eligible donors" if unfillable else None
    return _result(
        repaired,
        "knn",
        detector,
        time.perf_counter() - start,
        repaired_cells,
        list(range(ds.row_count)),
        warning,
    )


def repair_impute_iterative(
    ds: Dataset,
    mask: DetectionMask,
    max_rounds: int = 3,
    detector: str = "",
    tolerance: float = 1e-4,
) -> RepairedDataset:
    """missForest-style iterative imputation with a single CART tree per column.

    Flagged cells start from mean/mode imputation; each round refits a tree per
    flagged column (ascending flagged count) on rows whose target cell is
    unflagged and overwrites the flagged cells with predictions. Stops when the
    RMS change of imputed numeric values drops below `tolerance` and no
    categorical cell changes.
    """
    start = time.perf_counter()
    if max_rounds < 1:
        raise RepairError("iterative repair requires max_rounds >= 1")
    flagged = mask.matrix((ds.row_count, ds.col_count))
    clean_rows = ds.row_count - int(np.count_nonzero(flagged.any(axis=1)))
    if clean_rows < 10:
        raise RepairError(
            f"iterative repair needs >= 10 fully-unflagged rows, found {clean_rows}"
        )

    seeded = repair_impute_stat(ds, mask, "mean", detector)
    working = seeded.data
    by_col: dict[int, list[CellRef]] = {}
    for ref in cells_of(flagged):
        by_col.setdefault(ref.col, []).append(ref)
    col_order = sorted(by_col, key=lambda c: (len(by_col[c]), c))
    fell_back = False

    for _ in range(max_rounds):
        numeric_change2, numeric_n, categorical_changed = 0.0, 0, False
        for c in col_order:
            col = working.columns[c]
            target_rows = [ref.row for ref in by_col[c]]
            train_rows = np.flatnonzero(~flagged[:, c] & ~_missing(col)).tolist()
            if len(train_rows) < 2:
                fell_back = True
                continue
            try:
                train = working.take_rows(train_rows)
                predict_on = working.take_rows(target_rows)
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
            updates = {}
            for ref, value in zip(by_col[c], preds):
                if col.is_numeric:
                    old = working.cell(ref.row, ref.col).parsed
                    new = float(value)
                    if old is not None:
                        numeric_change2 += (new - old) ** 2
                        numeric_n += 1
                    updates[ref] = repr(new)
                else:
                    new = str(value)
                    if new != working.raw(ref.row, ref.col):
                        categorical_changed = True
                    updates[ref] = new
            working = working.replace_cells(updates)
        rms = np.sqrt(numeric_change2 / numeric_n) if numeric_n else 0.0
        if rms < tolerance and not categorical_changed:
            break

    warning = "degenerate training data; kept stat imputation for some columns" if fell_back else None
    return _result(
        working,
        "iter",
        detector,
        time.perf_counter() - start,
        seeded.repaired_cells.flagged,
        list(range(ds.row_count)),
        warning,
    )


def repair_ground_truth(
    pair: DatasetPair, mask: DetectionMask, detector: str = ""
) -> RepairedDataset:
    """Replace flagged cells with ground-truth values; undetected errors persist.

    Flagged cells of appended duplicate rows resolve through the provenance map.
    """
    start = time.perf_counter()
    gt, dirty = pair.ground_truth, pair.dirty
    updates: dict[CellRef, str] = {}
    for ref in mask.sorted_cells():
        if ref.row < gt.row_count:
            updates[ref] = gt.raw(ref.row, ref.col)
        else:
            if not pair.row_provenance or ref.row not in pair.row_provenance:
                raise RepairError(
                    f"row {ref.row} is beyond ground truth and has no provenance"
                )
            updates[ref] = gt.raw(pair.row_provenance[ref.row], ref.col)
    repaired = dirty.replace_cells(updates)
    return _result(
        repaired,
        "gt",
        detector,
        time.perf_counter() - start,
        mask.matrix((dirty.row_count, dirty.col_count)),
        list(range(dirty.row_count)),
    )


def apply_repair(
    spec: RepairSpec,
    ds: Dataset,
    mask: DetectionMask,
    pair: DatasetPair | None = None,
    detector: str = "",
) -> RepairedDataset:
    """Dispatch a repair spec against a dataset and mask."""
    if spec.kind == "delete":
        return repair_delete(ds, mask, detector)
    if spec.kind in ("mean", "median", "mode"):
        return repair_impute_stat(ds, mask, spec.kind, detector)
    if spec.kind == "knn":
        return repair_impute_knn(ds, mask, k=spec.params.get("k", 5), detector=detector)
    if spec.kind == "iter":
        return repair_impute_iterative(
            ds, mask, max_rounds=spec.params.get("max_rounds", 3), detector=detector
        )
    if spec.kind == "gt":
        if pair is None:
            raise RepairError("ground-truth repair needs the dataset pair")
        return repair_ground_truth(pair, mask, detector)
    raise RepairError(f"unknown repair kind {spec.kind!r}")
