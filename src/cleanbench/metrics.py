"""Metric computation for the detection, repair, and modeling stages.

Conventions: every precision/recall/F1 ratio uses 0/0 -> 0; the IoU of two
empty true-positive sets is 1.0; numeric repair RMSE is computed on z-scored
values using the ground-truth column mean and sample std; multiclass F1 is
macro-averaged over the classes present in the test truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .tabular import Dataset, DetectionMask, cells_of


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


def _aligned_gt_row(row: int, gt: Dataset, row_map: list[int] | None, provenance: dict[int, int] | None):
    """Resolve a repaired-dataset row to its ground-truth row, or None."""
    dirty_row = row_map[row] if row_map is not None else row
    if dirty_row < gt.row_count:
        return dirty_row
    if provenance and dirty_row in provenance:
        return provenance[dirty_row]
    return None


def _gt_column_scale(gt: Dataset, col: int) -> tuple[float, float]:
    parsed = gt.columns[col].parsed_values()
    finite = parsed[~np.isnan(parsed)]
    mean = float(finite.mean()) if finite.size else 0.0
    std = float(finite.std(ddof=1)) if finite.size >= 2 else 0.0
    return mean, (std if std > 0 else 1.0)


def repair_metrics_numeric(
    repaired: Dataset,
    gt: Dataset,
    truth_mask: DetectionMask,
    row_map: list[int] | None = None,
    provenance: dict[int, int] | None = None,
) -> RepairScore:
    """RMSE over numeric erroneous cells that were repaired or still parse.

    Erroneous cells whose repaired text no longer parses (undetected typos
    turning numbers into text) are excluded and counted, mirroring the
    detected-and-repaired filtering rule.
    """
    numeric_cols = set(gt.numeric_column_indices())
    dirty_to_repaired: dict[int, int] = {}
    if row_map is None:
        row_map = list(range(repaired.row_count))
    for rep_row, dirty_row in enumerate(row_map):
        dirty_to_repaired[dirty_row] = rep_row

    residuals = []
    excluded = 0
    scale_cache: dict[int, tuple[float, float]] = {}
    for ref in truth_mask.sorted_cells():
        if ref.col not in numeric_cols:
            continue
        rep_row = dirty_to_repaired.get(ref.row)
        if rep_row is None:
            excluded += 1  # row deleted during repair; nothing to compare
            continue
        gt_row = _aligned_gt_row(rep_row, gt, row_map, provenance)
        if gt_row is None:
            excluded += 1
            continue
        rep_cell = repaired.cell(rep_row, ref.col)
        gt_cell = gt.cell(gt_row, ref.col)
        if rep_cell.parsed is None or gt_cell.parsed is None:
            excluded += 1
            continue
        if ref.col not in scale_cache:
            scale_cache[ref.col] = _gt_column_scale(gt, ref.col)
        _, std = scale_cache[ref.col]
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
    provenance: dict[int, int] | None = None,
) -> RepairScore:
    """Precision/recall of categorical repairs against the ground truth."""
    if row_map is None:
        row_map = list(range(repaired.row_count))
    dirty_to_repaired = {dirty_row: rep_row for rep_row, dirty_row in enumerate(row_map)}

    # Both masks on one grid of gt's columns, with the numeric ones cleared.
    shape = (max(truth_mask.flagged.shape[0], repaired_mask.flagged.shape[0]), gt.col_count)
    is_cat = np.isin(np.arange(gt.col_count), gt.categorical_column_indices())
    repaired_cat = repaired_mask.matrix(shape) & is_cat
    truth_cat = truth_mask.matrix(shape) & is_cat
    both = cells_of(repaired_cat & truth_cat)
    correct = 0
    for ref in both:
        rep_row = dirty_to_repaired.get(ref.row)
        if rep_row is None:
            continue  # deleted rows cannot match the ground truth value
        gt_row = _aligned_gt_row(rep_row, gt, row_map, provenance)
        if gt_row is None:
            continue
        if repaired.raw(rep_row, ref.col) == gt.raw(gt_row, ref.col):
            correct += 1
    precision = _ratio(correct, int(np.count_nonzero(repaired_cat)))
    recall = _ratio(correct, int(np.count_nonzero(truth_cat)))
    return RepairScore(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        compared_cell_count=len(both),
    )


def f1_macro(predictions, truth) -> tuple[float, dict[str, float]]:
    """Macro-averaged F1 over the classes present in the truth labels."""
    truth = list(truth)
    predictions = list(predictions)
    if len(truth) != len(predictions):
        raise MetricError("prediction/truth length mismatch")
    classes = sorted(set(truth))
    per_class = {}
    for cls in classes:
        tp = sum(1 for p, t in zip(predictions, truth) if p == cls and t == cls)
        fp = sum(1 for p, t in zip(predictions, truth) if p == cls and t != cls)
        fn = sum(1 for p, t in zip(predictions, truth) if p != cls and t == cls)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        per_class[str(cls)] = _f1(precision, recall)
    return float(np.mean(list(per_class.values()))), per_class


def rmse(predictions, truth) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise MetricError("prediction/truth length mismatch")
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
