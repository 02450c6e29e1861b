import warnings

import numpy as np
import pytest

from cleanbench.detect import detect_missing
from cleanbench.inject import ErrorProfile, ErrorSpec, inject, make_synthetic
from cleanbench.repair import (
    REPAIRS,
    RepairError,
    RepairSpec,
    apply_repair,
    repair_delete,
    repair_ground_truth,
    repair_impute_iterative,
    repair_impute_knn,
    repair_impute_stat,
)
from cleanbench.tabular import Dataset, DatasetPair, diff_cells, mask_from
from helpers import mask_cells


def simple(values, kind="numeric", name="v"):
    return Dataset.from_columns("t", [(name, kind, values)])


class TestDelete:
    def test_empty_mask_is_identity(self):
        ds = simple(["1", "2", "3"])
        out = repair_delete(ds, mask_from([]))
        assert out.data.row_count == 3 and out.row_map == [0, 1, 2]

    def test_flagged_rows_removed_in_order(self):
        ds = simple([str(i) for i in range(5)])
        out = repair_delete(ds, mask_from([(0, 0), (3, 0)]))
        assert [out.data.raw(r, 0) for r in range(3)] == ["1", "2", "4"]
        assert out.row_map == [1, 2, 4]
        assert len(out.repaired_cells) == 2

    def test_all_rows_flagged_warns(self):
        ds = simple(["1", "2"])
        out = repair_delete(ds, mask_from([(0, 0), (1, 0)]))
        assert out.data.row_count == 0 and out.warning is not None

    def test_duplicate_scenario_restores_row_multiset(self):
        gt = make_synthetic("two_class", 80, 3)
        profile = ErrorProfile([ErrorSpec("duplicate_row", 0.2, {"fuzzy": 0.0})])
        pair, report = inject(gt, profile, 5)
        out = repair_delete(pair.dirty, report.masks["duplicate_row"])
        assert sorted(out.data.iter_rows()) == sorted(gt.iter_rows())


class TestImputeStat:
    def test_mean_example(self):
        ds = simple(["1", "2", "?", "3"])
        out = repair_impute_stat(ds, mask_from([(2, 0)]), "mean")
        assert out.data.cell(2, 0).parsed == 2.0

    def test_median_and_mode(self):
        ds = simple(["1", "2", "2", "9", ""])
        med = repair_impute_stat(ds, mask_from([(4, 0)]), "median")
        assert med.data.cell(4, 0).parsed == 2.0
        mode = repair_impute_stat(ds, mask_from([(4, 0)]), "mode")
        assert mode.data.cell(4, 0).parsed == 2.0

    def test_categorical_mode(self):
        ds = simple(["a", "a", "b", "?"], kind="categorical")
        out = repair_impute_stat(ds, mask_from([(3, 0)]), "mean")
        assert out.data.raw(3, 0) == "a"

    def test_mode_tie_breaks_lexicographically(self):
        ds = simple(["a", "b", "?"], kind="categorical")
        out = repair_impute_stat(ds, mask_from([(2, 0)]), "mean")
        assert out.data.raw(2, 0) == "a"

    def test_flagged_cells_excluded_from_stats(self):
        ds = simple(["1", "1000", "3"])
        out = repair_impute_stat(ds, mask_from([(1, 0)]), "mean")
        assert out.data.cell(1, 0).parsed == 2.0  # mean of {1, 3}

    def test_unflagged_cells_untouched(self):
        ds = simple(["1", "2", ""])
        out = repair_impute_stat(ds, mask_from([(2, 0)]), "mean")
        assert out.data.raw(0, 0) == "1" and out.data.raw(1, 0) == "2"

    def test_idempotent(self):
        ds = simple(["1", "2", "", "4"])
        mask = mask_from([(2, 0)])
        once = repair_impute_stat(ds, mask, "mean")
        twice = repair_impute_stat(once.data, mask, "mean")
        assert list(once.data.iter_rows()) == list(twice.data.iter_rows())

    def test_no_donors_leaves_empty_and_warns(self):
        ds = simple(["", ""])
        out = repair_impute_stat(ds, mask_from([(0, 0), (1, 0)]), "mean")
        assert out.data.raw(0, 0) == "" and out.warning is not None


class TestImputeKnn:
    def base(self):
        return Dataset.from_columns(
            "t",
            [
                ("x", "numeric", ["1", "2", "", "4"]),
                ("y", "numeric", ["1", "2", "3", "4"]),
            ],
        )

    def test_worked_example(self):
        out = repair_impute_knn(self.base(), mask_from([(2, 0)]), k=2)
        assert out.data.cell(2, 0).parsed == pytest.approx(3.0)

    def test_k_covering_all_donors_equals_donor_mean(self):
        out = repair_impute_knn(self.base(), mask_from([(2, 0)]), k=10)
        assert out.data.cell(2, 0).parsed == pytest.approx(np.mean([1.0, 2.0, 4.0]))

    def test_single_donor_copied(self):
        ds = Dataset.from_columns(
            "t",
            [("x", "numeric", ["7", ""]), ("y", "numeric", ["0", "0.1"])],
        )
        out = repair_impute_knn(ds, mask_from([(1, 0)]), k=1)
        assert out.data.cell(1, 0).parsed == 7.0

    def test_categorical_majority_vote(self):
        ds = Dataset.from_columns(
            "t",
            [
                ("c", "categorical", ["a", "a", "b", "?"]),
                ("y", "numeric", ["0", "0.1", "5", "0.05"]),
            ],
        )
        out = repair_impute_knn(ds, mask_from([(3, 0)]), k=3)
        assert out.data.raw(3, 0) == "a"

    def test_no_donor_rows(self):
        ds = simple(["", ""])
        with pytest.raises(RepairError, match="donor"):
            repair_impute_knn(ds, mask_from([(0, 0), (1, 0)]), k=1)


class TestImputeIterative:
    def linear_pair(self, n=60, flagged=6):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, n)
        ds = Dataset.from_columns(
            "t",
            [
                ("x", "numeric", [repr(float(v)) for v in x]),
                ("y", "numeric", [repr(float(2 * v)) for v in x]),
            ],
        )
        mask = mask_from([(i, 1) for i in range(flagged)])
        return ds, mask, x

    def test_tree_tracks_deterministic_relation(self):
        ds, mask, x = self.linear_pair()
        out = repair_impute_iterative(ds, mask, max_rounds=3)
        for i in range(6):
            imputed = out.data.cell(i, 1).parsed
            assert imputed == pytest.approx(2 * x[i], abs=1.5)

    def test_single_round_equals_one_sweep(self):
        ds, mask, _ = self.linear_pair()
        out = repair_impute_iterative(ds, mask, max_rounds=1)
        assert out.data.row_count == ds.row_count
        with pytest.raises(RepairError):
            repair_impute_iterative(ds, mask, max_rounds=0)

    def test_round_changes_shrink(self):
        shrank = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 10, 80)
            noise = rng.normal(0, 0.3, 80)
            ds = Dataset.from_columns(
                "t",
                [
                    ("x", "numeric", [repr(float(v)) for v in x]),
                    ("y", "numeric", [repr(float(2 * v + e)) for v, e in zip(x, noise)]),
                ],
            )
            mask = mask_from([(i, 1) for i in range(8)])
            first = repair_impute_iterative(ds, mask, max_rounds=1)
            second = repair_impute_iterative(ds, mask, max_rounds=2)
            seeded = repair_impute_stat(ds, mask, "mean")
            d1 = _imputed_rms_delta(seeded.data, first.data, mask)
            d2 = _imputed_rms_delta(first.data, second.data, mask)
            if d2 <= d1 + 1e-12:
                shrank += 1
        assert shrank >= 9

    def test_needs_ten_clean_rows(self):
        ds = simple([str(i) for i in range(8)])
        with pytest.raises(RepairError, match="10"):
            repair_impute_iterative(ds, mask_from([(0, 0)]), max_rounds=1)


class TestExtremeValues:
    def test_z_score_std_of_a_typo_near_the_float_limit(self):
        # A keyboard typo turned a digit into "e": x0 holds 0.7754990495961e288,
        # whose square overflows in the z-score std of both repairs.
        pair, _ = inject(make_synthetic("two_class", 300, 2), ErrorProfile([ErrorSpec("keyboard_typo", 0.1)]), 2)
        assert np.nanmax(pair.dirty.column("x0").parsed) == 0.7754990495961e288
        mask = detect_missing(pair.dirty)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for repair in (repair_impute_knn, repair_impute_iterative):
                out = repair(pair.dirty, mask)
                assert out.repaired_cells.flagged.tolist() == mask.flagged.tolist()

    def test_means_whose_sums_overflow(self):
        # The sum of column a's values exceeds the largest float, and so does
        # the sum of the blank's three nearest donors by b (rows 3, 2 and 1).
        ds = Dataset.from_columns(
            "t", [("a", "numeric", ["1.5e308", "1.6e308", "1.7e308", "1", ""]), ("b", "numeric", ["1", "2", "3", "4", "5"])]
        )
        mask = mask_from([(4, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            by_mean = repair_impute_stat(ds, mask, "mean")
            by_knn = repair_impute_knn(ds, mask, k=3)
        assert by_mean.data.column("a").parsed[4] == pytest.approx(1.2e308, rel=1e-15)
        assert by_knn.data.column("a").parsed[4] == pytest.approx(1.1e308, rel=1e-15)

    def test_mean_whose_partial_sums_reach_both_infinities(self):
        # the column's pairwise sum reaches inf and -inf; the blank still gets a number
        ds = simple(["1e308", "-1e308", "1", "2"] * 5 + [""])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = repair_impute_stat(ds, mask_from([(20, 0)]), "mean")
        assert out.repaired_cells.flagged[20, 0] and not out.data.column("v").empty[20]
        assert np.isfinite(out.data.column("v").parsed[20])


def _imputed_rms_delta(before, after, mask):
    deltas = [
        (after.cell(r, c).parsed - before.cell(r, c).parsed) ** 2
        for r, c in mask.sorted_cells()
    ]
    return float(np.sqrt(np.mean(deltas)))


class TestGroundTruth:
    def test_full_mask_restores_ground_truth(self):
        gt = make_synthetic("two_class", 120, 1)
        profile = ErrorProfile(
            [ErrorSpec("explicit_mv", 0.08), ErrorSpec("keyboard_typo", 0.05)]
        )
        pair, report = inject(gt, profile, 2)
        out = repair_ground_truth(pair, report.union_mask())
        assert len(diff_cells(gt, out.data)) == 0

    def test_empty_mask_keeps_dirty(self):
        gt = make_synthetic("two_class", 50, 2)
        pair, _ = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.1)]), 3)
        out = repair_ground_truth(pair, mask_from([]))
        assert mask_cells(diff_cells(pair.dirty, out.data)) == frozenset()

    def test_false_negatives_persist_exactly(self):
        gt = make_synthetic("two_class", 127, 4)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.5)]), 5)
        full = report.union_mask().sorted_cells()
        half = mask_from(full[: len(full) // 2])
        out = repair_ground_truth(pair, half)
        remaining = diff_cells(gt, out.data)
        assert len(remaining) == len(full) - len(half)

    def test_duplicate_rows_need_provenance(self):
        gt = make_synthetic("two_class", 40, 6)
        profile = ErrorProfile([ErrorSpec("duplicate_row", 0.2, {"fuzzy": 1.0})])
        pair, report = inject(gt, profile, 7)
        out = repair_ground_truth(pair, report.masks["duplicate_row"])
        for new_row, src in pair.row_provenance.items():
            assert out.data.row(new_row) == gt.row(src)

    def test_rows_beyond_ground_truth_need_a_provenance_entry(self):
        gt = make_synthetic("two_class", 40, 6)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("duplicate_row", 0.2)]), 7)
        orphan = min(pair.row_provenance)
        provenance = {row: src for row, src in pair.row_provenance.items() if row != orphan}
        partial = DatasetPair(gt, pair.dirty, pair.error_mask, provenance)
        with pytest.raises(RepairError, match=f"row {orphan} is beyond ground truth"):
            repair_ground_truth(partial, report.masks["duplicate_row"])
        plain, _ = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.1)]), 7)
        with pytest.raises(RepairError, match="row 40 is beyond ground truth"):
            repair_ground_truth(plain, mask_from([(3, 0), (40, 1)]))


class TestOnlyFlaggedCellsChange:
    @pytest.mark.parametrize("kind", ["mean", "median", "mode", "knn", "iter", "gt"])
    def test_unflagged_cells_raw_identical(self, kind):
        gt = make_synthetic("two_class", 60, 9, weights=(2.0, -1.0))
        pair, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.1)]), 10)
        mask = report.union_mask()
        out = apply_repair(RepairSpec(kind), pair.dirty, mask, pair=pair)
        changed = diff_cells(pair.dirty, out.data)
        assert mask_cells(changed) <= mask_cells(mask)


class TestDispatch:
    def test_spec_validation(self):
        with pytest.raises(RepairError):
            RepairSpec("polish")
        with pytest.raises(RepairError):
            RepairSpec("knn", {"k": 0})

    @pytest.mark.parametrize("kind, name", [("knn", "k"), ("iter", "max_rounds")])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
    def test_non_integer_counts_are_rejected_when_built(self, kind, name, value):
        with pytest.raises(RepairError, match=f"requires an integer {name}, got {value!r}"):
            RepairSpec(kind, {name: value})

    @pytest.mark.parametrize("kind, name", [("knn", "k"), ("iter", "max_rounds")])
    def test_integer_counts_of_numpy_type_are_accepted(self, kind, name):
        assert RepairSpec(kind, {name: np.int64(2)}).params[name] == 2

    def test_apply_routes_all_kinds(self):
        ds = simple(["1", "2", "", "4", "5", "6", "7", "8", "9", "10", "11", "12"])
        mask = mask_from([(2, 0)])
        direct = {
            "delete": repair_delete(ds, mask),
            "mean": repair_impute_stat(ds, mask, "mean"),
            "median": repair_impute_stat(ds, mask, "median"),
            "mode": repair_impute_stat(ds, mask, "mode"),
            "knn": repair_impute_knn(ds, mask),
        }
        for kind, expected in direct.items():
            out = apply_repair(RepairSpec(kind), ds, mask)
            assert list(out.data.iter_rows()) == list(expected.data.iter_rows())

    @pytest.mark.parametrize("kind", sorted(REPAIRS))
    def test_every_kind_runs_with_its_defaults(self, kind):
        gt = make_synthetic("two_class", 60, 4)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.05)]), 2)
        out = apply_repair(RepairSpec(kind), pair.dirty, report.union_mask(), pair=pair)
        assert out.runtime > 0 and out.repaired_cells.source == f"repair:{kind}"
        assert out.data.row_count == len(out.row_map)

    def test_gt_requires_pair(self):
        with pytest.raises(RepairError, match="pair"):
            apply_repair(RepairSpec("gt"), simple(["1"]), mask_from([]))
