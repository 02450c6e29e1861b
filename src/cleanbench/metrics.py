"""Metric computation for the detection, repair, and modeling stages.

Conventions: every precision/recall/F1 ratio uses 0/0 -> 0; the IoU of two
empty true-positive sets is 1.0; numeric repair RMSE is computed on z-scored
values using the ground-truth column mean and sample std; multiclass F1 is
macro-averaged over the classes present in the test truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import models
from .tabular import Dataset, DetectionMask


class MetricError(Exception):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _f1(precision: float, recall: float) -> float:
    return _ratio(2 * precision * recall, precision + recall)


@dataclass
class DetectionScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass
class RepairScore:
    numeric_rmse: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    compared_cell_count: int = 0
    excluded_unparsable: int = 0


@dataclass
class ModelScore:
    metric_kind: str  # f1_macro | rmse | silhouette
    value: float
    per_class: dict[str, float] | None = None


def _true_positives(detected: DetectionMask, truth: DetectionMask) -> np.ndarray:
    """The detected cells that are in the truth, on the truth's grid."""
    return detected.matrix(truth.flagged.shape) & truth.flagged


def detection_metrics(detected: DetectionMask, truth: DetectionMask) -> DetectionScore:
    tp = int(np.count_nonzero(_true_positives(detected, truth)))
    fp = len(detected) - tp
    fn = len(truth) - tp
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return DetectionScore(tp, fp, fn, precision, recall, _f1(precision, recall))


def iou(a: DetectionMask, b: DetectionMask, truth: DetectionMask) -> float:
    """Intersection over union of the two detectors' true-positive cell sets.

    Both sets empty after truth filtering returns 1.0 by convention.
    """
    ta, tb = _true_positives(a, truth), _true_positives(b, truth)
    union = int(np.count_nonzero(ta | tb))
    return int(np.count_nonzero(ta & tb)) / union if union else 1.0


def _aligned_rows(
    rows: np.ndarray, gt: Dataset, row_map: list[int] | None, origin: np.ndarray | None, repaired_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dirty rows' rows in the repaired data by `row_map` (None: the identity) and
    in gt by `origin` (None: a row below gt's row count is its own), -1 for none."""
    row_map = np.arange(repaired_rows) if row_map is None else np.asarray(row_map, dtype=np.intp)
    origin = np.arange(gt.row_count) if origin is None else origin
    size = max(rows.max(initial=-1), row_map.max(initial=-1), origin.size - 1) + 1
    repaired_at, gt_at = np.full(size, -1, dtype=np.intp), np.full(size, -1, dtype=np.intp)
    repaired_at[row_map] = np.arange(row_map.size)
    gt_at[: origin.size] = origin
    return repaired_at[rows], gt_at[rows]


def _gt_column_scale(gt: Dataset, col: int) -> tuple[float, float]:
    parsed = gt.columns[col].parsed
    finite = parsed[~np.isnan(parsed)]
    mean = models.sample_mean(finite) if finite.size else 0.0
    std = models.sample_std(finite) if finite.size >= 2 else 0.0
    return mean, (std if std > 0 else 1.0)


def repair_metrics_numeric(
    repaired: Dataset,
    gt: Dataset,
    truth_mask: DetectionMask,
    row_map: list[int] | None = None,
    origin: np.ndarray | None = None,
) -> RepairScore:
    """RMSE over numeric erroneous cells that were repaired or still parse.

    Erroneous cells whose repaired text no longer parses (undetected typos
    turning numbers into text) are excluded and counted, mirroring the
    detected-and-repaired filtering rule, as are cells of deleted rows and
    of rows with no ground-truth origin (see `DatasetPair.origin`).
    """
    rows, cols = np.nonzero(truth_mask.flagged)
    numeric = np.isin(cols, gt.numeric_column_indices())
    rows, cols = rows[numeric], cols[numeric]
    rep_rows, gt_rows = _aligned_rows(rows, gt, row_map, origin, repaired.row_count)

    residuals = []
    excluded = 0
    scale_cache: dict[int, tuple[float, float]] = {}
    for rep_row, gt_row, col in zip(rep_rows.tolist(), gt_rows.tolist(), cols.tolist()):
        if rep_row < 0 or gt_row < 0:
            excluded += 1  # row deleted during repair, or not in the ground truth; nothing to compare
            continue
        rep_cell = repaired.cell(rep_row, col)
        gt_cell = gt.cell(gt_row, col)
        if rep_cell.parsed is None or gt_cell.parsed is None:
            excluded += 1
            continue
        if col not in scale_cache:
            scale_cache[col] = _gt_column_scale(gt, col)
        _, std = scale_cache[col]
        residuals.append((rep_cell.parsed - gt_cell.parsed) / std)
    if not residuals:
        return RepairScore(numeric_rmse=None, compared_cell_count=0, excluded_unparsable=excluded)
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    return RepairScore(
        numeric_rmse=rmse, compared_cell_count=len(residuals), excluded_unparsable=excluded
    )


def repair_metrics_categorical(
    repaired: Dataset,
    gt: Dataset,
    truth_mask: DetectionMask,
    repaired_mask: DetectionMask,
    row_map: list[int] | None = None,
    origin: np.ndarray | None = None,
) -> RepairScore:
    """Precision/recall of categorical repairs against the ground truth; no
    cell of a deleted row, or of a row with no ground-truth origin, is correct."""
    # Both masks on one grid of gt's columns, with the numeric ones cleared.
    shape = (max(truth_mask.flagged.shape[0], repaired_mask.flagged.shape[0]), gt.col_count)
    is_cat = np.isin(np.arange(gt.col_count), gt.categorical_column_indices())
    repaired_cat = repaired_mask.matrix(shape) & is_cat
    truth_cat = truth_mask.matrix(shape) & is_cat
    rows, cols = np.nonzero(repaired_cat & truth_cat)
    rep_rows, gt_rows = _aligned_rows(rows, gt, row_map, origin, repaired.row_count)
    correct = sum(
        1
        for rep_row, gt_row, col in zip(rep_rows.tolist(), gt_rows.tolist(), cols.tolist())
        if rep_row >= 0 and gt_row >= 0 and repaired.raw(rep_row, col) == gt.raw(gt_row, col)
    )
    precision = _ratio(correct, int(np.count_nonzero(repaired_cat)))
    recall = _ratio(correct, int(np.count_nonzero(truth_cat)))
    return RepairScore(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        compared_cell_count=rows.size,
    )


def f1_macro(predictions, truth) -> tuple[float, dict[str, float]]:
    """Macro-averaged F1 over the classes present in the truth labels.

    Each label is coded once by its position in the sorted truth classes (a
    dict, so a tuple label stays one label), and tp, fp and fn are integer
    counts of those codes."""
    truth = list(truth)
    predictions = list(predictions)
    if len(truth) != len(predictions):
        raise MetricError("prediction/truth length mismatch")
    if not truth:
        raise MetricError("no rows to score")
    classes = sorted(set(truth))
    code = {cls: i for i, cls in enumerate(classes)}
    k = len(classes)
    t = np.fromiter(map(code.__getitem__, truth), dtype=np.intp, count=len(truth))
    p = np.fromiter(map(code.get, predictions, repeat(k)), dtype=np.intp, count=len(predictions))
    tp = np.bincount(t[p == t], minlength=k).tolist()
    predicted = np.bincount(p, minlength=k + 1).tolist()  # tp + fp; code k counts the classes not in the truth
    actual = np.bincount(t, minlength=k).tolist()  # tp + fn
    per_class = {
        str(cls): _f1(_ratio(tp[i], predicted[i]), _ratio(tp[i], actual[i])) for i, cls in enumerate(classes)
    }
    return float(np.mean(list(per_class.values()))), per_class


def rmse(predictions, truth) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise MetricError("prediction/truth length mismatch")
    if not t.size:
        raise MetricError("no rows to score")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def model_metrics(task: str, predictions, truth_or_data) -> ModelScore:
    """Task-level score: macro F1, RMSE on the raw target scale, or silhouette."""
    if task == "classification":
        value, per_class = f1_macro(predictions, truth_or_data)
        return ModelScore("f1_macro", value, per_class)
    if task == "regression":
        return ModelScore("rmse", rmse(predictions, truth_or_data))
    if task == "clustering":
        return ModelScore("silhouette", models.silhouette(truth_or_data, predictions))
    raise MetricError(f"unknown task {task!r}")
