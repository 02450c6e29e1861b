import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanbench.metrics import (
    MetricError,
    detection_metrics,
    f1_macro,
    iou,
    model_metrics,
    repair_metrics_categorical,
    repair_metrics_numeric,
    rmse,
)
from cleanbench.tabular import Dataset, mask_from
from helpers import mask_cells


def random_mask(rng, rows=20, cols=5, density=0.3):
    cells = [
        (r, c) for r in range(rows) for c in range(cols) if rng.random() < density
    ]
    return mask_from(cells)


class TestDetectionMetrics:
    def test_direct_formula(self):
        detected = mask_from([(0, i) for i in range(10)])
        truth = mask_from([(0, i) for i in range(2, 12)])
        score = detection_metrics(detected, truth)
        assert score.tp == 8 and score.fp == 2 and score.fn == 2
        assert score.precision == 0.8 and score.recall == 0.8 and score.f1 == pytest.approx(0.8)

    def test_zero_conventions(self):
        empty = mask_from([])
        truth = mask_from([(0, 0)])
        score = detection_metrics(empty, truth)
        assert score.precision == 0.0 and score.recall == 0.0 and score.f1 == 0.0
        both_empty = detection_metrics(empty, empty)
        assert both_empty.f1 == 0.0

    def test_matches_brute_force_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = random_mask(rng), random_mask(rng)
            score = detection_metrics(a, b)
            cells_a, cells_b = mask_cells(a), mask_cells(b)
            tp = sum(1 for c in cells_a if c in cells_b)
            fp = sum(1 for c in cells_a if c not in cells_b)
            fn = sum(1 for c in cells_b if c not in cells_a)
            assert (score.tp, score.fp, score.fn) == (tp, fp, fn)

    def test_min_side_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            score = detection_metrics(random_mask(rng), random_mask(rng))
            m = min(score.precision, score.recall)
            assert score.f1 <= 2 * m / (1 + m) + 1e-12 if m else score.f1 == 0.0


class TestIou:
    def test_identity_and_disjoint(self):
        truth = mask_from([(0, i) for i in range(10)])
        a = mask_from([(0, 0), (0, 1)])
        b = mask_from([(0, 2), (0, 3)])
        assert iou(a, a, truth) == 1.0
        assert iou(a, b, truth) == 0.0

    def test_worked_example(self):
        truth = mask_from([(0, i) for i in range(20)])
        a = mask_from([(0, i) for i in range(4)])
        b = mask_from([(0, i) for i in range(2, 8)])
        assert iou(a, b, truth) == pytest.approx(0.25)

    def test_false_positives_filtered(self):
        truth = mask_from([(0, 0)])
        a = mask_from([(0, 0), (5, 5), (6, 6)])
        b = mask_from([(0, 0), (7, 7)])
        assert iou(a, b, truth) == 1.0

    def test_both_empty_convention(self):
        truth = mask_from([(9, 9)])
        assert iou(mask_from([]), mask_from([]), truth) == 1.0

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a, b, t = random_mask(rng), random_mask(rng), random_mask(rng)
        ab, ba = iou(a, b, t), iou(b, a, t)
        assert ab == ba
        assert 0.0 <= ab <= 1.0


def gt_dirty_repaired():
    gt = Dataset.from_columns(
        "gt",
        [
            ("x", "numeric", ["1", "2", "3", "4"]),
            ("c", "categorical", ["a", "b", "a", "b"]),
        ],
    )
    dirty = gt.replace_cells({0: ([0, 1], ["10", "12x"]), 1: ([2], ["zzz"])})
    return gt, dirty


class TestRepairNumeric:
    def test_identity_rmse_zero(self):
        gt, dirty = gt_dirty_repaired()
        truth = mask_from([(0, 0), (1, 0), (2, 1)])
        repaired = dirty.replace_cells({0: ([0, 1], ["1", "2"])})
        score = repair_metrics_numeric(repaired, gt, truth)
        assert score.numeric_rmse == 0.0
        assert score.compared_cell_count == 2

    def test_undetected_typo_excluded(self):
        gt, dirty = gt_dirty_repaired()
        truth = mask_from([(0, 0), (1, 0)])
        # nothing repaired: cell (0,0) still parses and is compared; (1,0)="12x" is excluded
        score = repair_metrics_numeric(dirty, gt, truth)
        assert score.compared_cell_count == 1
        assert score.excluded_unparsable == 1
        assert score.numeric_rmse > 0

    def test_known_residuals(self):
        gt = Dataset.from_columns("gt", [("x", "numeric", ["0", "1", "2", "3"])])
        # gt column std (ddof=1) of {0,1,2,3} = 1.29099...
        std = float(np.std([0, 1, 2, 3], ddof=1))
        repaired = gt.replace_cells({0: ([0, 1], [repr(0 + std), repr(1 + 2 * std)])})
        truth = mask_from([(0, 0), (1, 0)])
        score = repair_metrics_numeric(repaired, gt, truth)
        assert score.numeric_rmse == pytest.approx(np.sqrt((1 + 4) / 2))

    def test_gt_column_whose_sum_overflows(self):
        gt = Dataset.from_columns("gt", [("x", "numeric", ["1.5e308", "1.6e308", "1.7e308", "1"])])
        repaired = gt.replace_cells({0: ([3], ["8e300"])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = repair_metrics_numeric(repaired, gt, mask_from([(3, 0)]))
        # the residual is taken in units of the gt column's sample std, 8.04e307
        assert score.numeric_rmse == pytest.approx(8e300 / (np.std([1.5, 1.6, 1.7, 0.0], ddof=1) * 1e308), rel=1e-12)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(12)
        noisy = base + rng.standard_normal(12) * 0.5
        for a, b in [(1.0, 0.0), (7.0, -3.0), (0.2, 100.0)]:
            gt = Dataset.from_columns(
                "gt", [("x", "numeric", [repr(float(a * v + b)) for v in base])]
            )
            rep = Dataset.from_columns(
                "r", [("x", "numeric", [repr(float(a * v + b)) for v in noisy])]
            )
            truth = mask_from([(i, 0) for i in range(12)])
            score = repair_metrics_numeric(rep, gt, truth)
            if a == 1.0:
                reference = score.numeric_rmse
            else:
                assert score.numeric_rmse == pytest.approx(reference, rel=1e-9)

    def test_empty_comparable_set(self):
        gt = Dataset.from_columns("gt", [("c", "categorical", ["a", "b"])])
        score = repair_metrics_numeric(gt, gt, mask_from([(0, 0)]))
        assert score.numeric_rmse is None and score.compared_cell_count == 0

    def test_deleted_rows_excluded_and_counted(self):
        gt = Dataset.from_columns("gt", [("x", "numeric", ["1", "2", "3"])])
        repaired = gt.take_rows([0, 2])
        truth = mask_from([(1, 0)])
        score = repair_metrics_numeric(repaired, gt, truth, row_map=[0, 2])
        assert score.numeric_rmse is None and score.excluded_unparsable == 1


class TestRepairCategorical:
    def test_worked_ratios(self):
        gt = Dataset.from_columns("gt", [("c", "categorical", [f"v{i}" for i in range(20)])])
        truth = mask_from([(i, 0) for i in range(10)])
        repaired_mask = mask_from([(i, 0) for i in range(12)])
        repaired = gt.replace_cells({0: (list(range(8, 12)), ["wrong"] * 4)})
        score = repair_metrics_categorical(repaired, gt, truth, repaired_mask)
        assert score.precision == pytest.approx(8 / 12)
        assert score.recall == pytest.approx(8 / 10)

    def test_perfect_oracle(self):
        gt = Dataset.from_columns("gt", [("c", "categorical", ["a", "b", "c"])])
        truth = mask_from([(0, 0), (2, 0)])
        score = repair_metrics_categorical(gt, gt, truth, truth)
        assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0

    def test_zero_repairs(self):
        gt = Dataset.from_columns("gt", [("c", "categorical", ["a"])])
        score = repair_metrics_categorical(gt, gt, mask_from([(0, 0)]), mask_from([]))
        assert score.precision == 0.0 and score.recall == 0.0 and score.f1 == 0.0


class TestModelMetrics:
    def test_all_correct_f1(self):
        score = model_metrics("classification", ["a", "b", "a"], ["a", "b", "a"])
        assert score.value == 1.0

    def test_macro_over_truth_classes(self):
        value, per_class = f1_macro(["a", "a", "b"], ["a", "b", "b"])
        assert set(per_class) == {"a", "b"}
        assert value == pytest.approx(np.mean(list(per_class.values())))

    def test_constant_offset_rmse(self):
        preds = np.arange(10.0) + 2.5
        truth = np.arange(10.0)
        assert rmse(preds, truth) == pytest.approx(2.5)
        assert model_metrics("regression", preds, truth).value == pytest.approx(2.5)

    @pytest.mark.parametrize("score", [f1_macro, rmse])
    def test_no_rows_to_score_raises(self, score):
        with pytest.raises(MetricError, match="no rows to score"):
            score([], [])
        with pytest.raises(MetricError, match="length mismatch"):
            score([], [1.0])

    def test_silhouette_surfaces_model_value(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        score = model_metrics("clustering", np.array([0, 0, 1, 1]), X)
        assert score.value == pytest.approx(0.8997, abs=1e-4)
