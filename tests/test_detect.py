import re
import warnings

import numpy as np
import pytest

from cleanbench.constraints import parse_constraints
from cleanbench.detect import (
    DETECTORS,
    DetectorContext,
    DetectorError,
    DetectorSpec,
    confident_learning_flags,
    detect_disguised,
    detect_duplicates,
    detect_mislabels,
    detect_missing,
    detect_outliers_iforest,
    detect_outliers_iqr,
    detect_outliers_sd,
    ensemble_max_entropy,
    ensemble_min_k,
    run_detector,
    subsample_mask,
)
from cleanbench.inject import ErrorProfile, ErrorSpec, inject, make_synthetic
from cleanbench.metrics import detection_metrics
from cleanbench.tabular import CellRef, Dataset, mask_from
from helpers import mask_cells


def column(values, kind="numeric", name="v"):
    return Dataset.from_columns("t", [(name, kind, values)])


class TestMissing:
    def test_no_empty_cells(self):
        assert len(detect_missing(column(["1", "2"]))) == 0

    def test_blank_and_nan_flagged(self):
        ds = column(["", "NaN", "3"])
        assert mask_cells(detect_missing(ds)) == frozenset({CellRef(0, 0), CellRef(1, 0)})

    def test_perfect_against_explicit_mv_injection(self):
        gt = make_synthetic("two_class", 200, 3)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.1)]), 5)
        score = detection_metrics(detect_missing(pair.dirty), report.masks["explicit_mv"])
        assert score.precision == 1.0 and score.recall == 1.0


class TestDisguised:
    def test_code_in_numeric_column(self):
        ds = column(["10", "12", "11", "13", "9999"])
        assert mask_cells(detect_disguised(ds)) == frozenset({CellRef(4, 0)})

    def test_ordinary_value_not_flagged(self):
        ds = column([str(v) for v in range(0, 101, 7)] + ["42"])
        assert CellRef(15, 0) not in mask_cells(detect_disguised(ds))

    def test_repeated_digit_inside_fence_not_flagged(self):
        ds = column(["95", "99", "97", "96", "98"])
        assert len(detect_disguised(ds)) == 0

    def test_categorical_tokens_and_repeats(self):
        ds = column(["none", "red", "xxxx", "blue", "?"], kind="categorical")
        assert mask_cells(detect_disguised(ds)) == frozenset(
            {CellRef(0, 0), CellRef(2, 0), CellRef(4, 0)}
        )


class TestSdOutliers:
    def test_worked_example(self):
        ds = column(["1"] * 9 + ["11"])
        assert mask_cells(detect_outliers_sd(ds, n=2)) == frozenset({CellRef(9, 0)})

    def test_constant_column_empty(self):
        assert len(detect_outliers_sd(column(["5", "5", "5", "5"]), n=2)) == 0

    def test_unparsable_flagged(self):
        ds = column(["1", "2", "abc", "3"])
        assert CellRef(2, 0) in mask_cells(detect_outliers_sd(ds, n=3))

    def test_requires_positive_n(self):
        with pytest.raises(DetectorError):
            detect_outliers_sd(column(["1"]), n=0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            values = rng.standard_normal(rng.integers(5, 60)) * rng.uniform(0.5, 20)
            ds = column([repr(float(v)) for v in values])
            got = {ref.row for ref in mask_cells(detect_outliers_sd(ds, n=2))}
            mean, std = values.mean(), values.std(ddof=1)
            want = {i for i, v in enumerate(values) if abs(v - mean) > 2 * std}
            assert got == want


# Near the float limit: a sum over the column overflows, so its mean does.
BEYOND_SUM = ["1.5e308", "1.6e308", "1.7e308", "1"]


class TestExtremeValues:
    def test_sd_std_of_a_typo_near_the_float_limit(self):
        # A keyboard typo turned a digit into "e": x0 holds 0.7754990495961e288,
        # whose square overflows in the sample std.
        pair, _ = inject(make_synthetic("two_class", 300, 2), ErrorProfile([ErrorSpec("keyboard_typo", 0.1)]), 2)
        x0 = pair.dirty.column("x0").parsed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flagged = detect_outliers_sd(pair.dirty, n=2).flagged[:, 0]
        assert flagged[np.nanargmax(x0)]

    def test_sd_mean_whose_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = detect_outliers_sd(column(BEYOND_SUM), n=1)
        # mean 1.2e308 and std 8.0e307, so only the 1 lies beyond one std
        assert mask_cells(mask) == frozenset({CellRef(3, 0)})

    def test_sd_distance_beyond_the_float_range(self):
        # mean 8.5e307 and std 1.7e308: the -1.7e308 lies 2.55e308 from the
        # mean, beyond the largest float, and is the one value beyond one std
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = detect_outliers_sd(column(["1.7e308"] * 3 + ["-1.7e308"]), n=1)
        assert mask_cells(mask) == frozenset({CellRef(3, 0)})

    def test_fahes_fence_beyond_the_float_range(self):
        # q1 = -1.7e308 and q3 = -1.6e308: the lower fence q1 - 3 * IQR lies
        # beyond the largest float, so it is -inf; the upper one is -1.3e308
        values = ["-1.7e308"] * 3 + ["-1.6e308"] * 4 + ["99999"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = detect_disguised(column(values))
            assert len(detect_disguised(column(BEYOND_SUM))) == 0  # the upper fence is +inf
        assert mask_cells(mask) == frozenset({CellRef(7, 0)})


class TestIqrOutliers:
    def test_worked_example(self):
        ds = column(["2", "4", "4", "5", "5", "5", "6", "6", "9", "50"])
        assert {r.row for r in mask_cells(detect_outliers_iqr(ds, k=1.5))} == {8, 9}

    def test_tight_data_empty(self):
        assert len(detect_outliers_iqr(column(["5", "5", "5", "5"]), k=1.5)) == 0

    def test_matches_fence_oracle_on_random_columns(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            values = rng.standard_normal(rng.integers(4, 80)) * rng.uniform(0.1, 50)
            ds = column([repr(float(v)) for v in values])
            got = {ref.row for ref in mask_cells(detect_outliers_iqr(ds, k=1.5))}
            v = np.sort(values)
            q1, q3 = np.quantile(v, 0.25), np.quantile(v, 0.75)
            lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            want = {i for i, x in enumerate(values) if x < lo or x > hi}
            assert got == want


class TestIsolationForest:
    def test_far_point_has_top_score(self):
        for seed in range(10):
            ds = make_synthetic("blobs", 99, seed, centers=((0.0, 0.0),), spread=1.0)
            far = ds.append_rows([["50.0", "50.0"]])
            mask = detect_outliers_iforest(far, trees=100, subsample=64, seed=seed,
                                           contamination=1 / 100)
            assert {ref.row for ref in mask_cells(mask)} == {99}

    def test_zero_contamination_empty(self):
        ds = make_synthetic("blobs", 50, 0, centers=((0.0, 0.0),))
        assert len(detect_outliers_iforest(ds, trees=10, seed=0, contamination=0.0)) == 0

    def test_deterministic_given_seed(self):
        ds = make_synthetic("blobs", 60, 1, centers=((0.0, 0.0),))
        a = detect_outliers_iforest(ds, trees=25, seed=9, contamination=0.1)
        b = detect_outliers_iforest(ds, trees=25, seed=9, contamination=0.1)
        assert mask_cells(a) == mask_cells(b)

    def test_identical_rows_score_identically(self):
        from cleanbench.detect import iforest_scores

        base = make_synthetic("blobs", 30, 2, centers=((0.0, 0.0),))
        doubled = base.append_rows([base.row(r) for r in range(base.row_count)])
        scores = iforest_scores(doubled, trees=50, seed=4)
        for r in range(30):
            assert scores[r] == scores[r + 30]

    def test_all_categorical_rejected(self):
        ds = column(["a", "b"], kind="categorical")
        with pytest.raises(DetectorError):
            detect_outliers_iforest(ds)

    def test_range_beyond_the_largest_float_rejected(self):
        # 1e308 - (-1e308) overflows, so no threshold can be drawn between them.
        ds = column(["1e308", "-1e308", "1", "2"], name="wide")
        with pytest.raises(DetectorError, match="'wide'"):
            detect_outliers_iforest(ds, trees=3, contamination=0.5)
        # A wide but finite range still splits.
        assert len(detect_outliers_iforest(column(["1e308", "0", "1", "2"]), trees=3, contamination=0.25)) == 1


    @pytest.mark.parametrize("subsample", [0, -3])
    def test_subsample_below_one_rejected(self, subsample):
        from cleanbench.detect import iforest_scores

        ds = make_synthetic("two_class", 50, 0)
        with pytest.raises(DetectorError, match="subsample >= 1"):
            detect_outliers_iforest(ds, trees=3, subsample=subsample)
        with pytest.raises(DetectorError, match="subsample >= 1"):
            iforest_scores(ds, trees=3, subsample=subsample)
        with pytest.raises(DetectorError, match="subsample >= 1"):
            run_detector(DetectorSpec("if", {"subsample": subsample}), ds)

    @pytest.mark.parametrize("param, value", [
        ("subsample", 2.5), ("trees", 2.5), ("subsample", True), ("trees", True), ("trees", "3"),
    ])
    def test_parameter_that_is_not_an_integer_rejected(self, param, value):
        from cleanbench.detect import iforest_scores

        ds = make_synthetic("two_class", 50, 0)
        message = f"iforest requires an integer {param}, got {value!r}"
        with pytest.raises(DetectorError, match=re.escape(message)):
            detect_outliers_iforest(ds, **{param: value})
        with pytest.raises(DetectorError, match=re.escape(message)):
            iforest_scores(ds, **{param: value})
        with pytest.raises(DetectorError, match=re.escape(message)):
            run_detector(DetectorSpec("if", {param: value}), ds)

    def test_parameters_are_checked_before_the_columns(self):
        from cleanbench.detect import iforest_scores

        ds = column(["a", "b"], kind="categorical")
        for detect in (detect_outliers_iforest, iforest_scores):
            with pytest.raises(DetectorError, match="trees >= 1"):
                detect(ds, trees=0)

    @pytest.mark.parametrize("contamination", [-0.5, 1.5, float("nan")])
    def test_contamination_outside_zero_to_one_rejected(self, contamination):
        ds = make_synthetic("two_class", 50, 0)
        with pytest.raises(DetectorError, match="contamination"):
            detect_outliers_iforest(ds, trees=3, contamination=contamination)

    def test_contamination_bounds_accepted(self):
        ds = make_synthetic("two_class", 50, 0)
        assert len(detect_outliers_iforest(ds, trees=3, contamination=0.0)) == 0
        flagged = detect_outliers_iforest(ds, trees=3, contamination=1.0)
        assert {ref.row for ref in mask_cells(flagged)} == set(range(50))

    def test_blank_filled_with_a_median_whose_sum_overflows(self):
        from cleanbench.detect import _iforest_features, iforest_scores

        # np.median takes (a + b) / 2 of the two middle values, and a + b overflows here
        a, b = 1.5e308, 1.6e308
        ds = column([repr(a), repr(b), ""])
        X, median, mad = _iforest_features(ds, [0])
        assert median.tolist() == [a + (b - a) / 2] and X[2, 0] == median[0]
        assert mad.tolist() == [(b - a) / 2]
        assert iforest_scores(ds, trees=3, seed=0).shape == (3,)
        assert len(detect_outliers_iforest(ds, trees=3, contamination=0.5)) == 2


class TestDuplicates:
    def test_second_occurrence_flagged_whole(self):
        ds = Dataset.from_rows("t", ["k", "v"], [["a", "1"], ["a", "2"], ["b", "3"]])
        mask = detect_duplicates(ds, ["k"])
        assert mask_cells(mask) == frozenset({CellRef(1, 0), CellRef(1, 1)})

    def test_unique_keys_empty(self):
        ds = Dataset.from_rows("t", ["k"], [["a"], ["b"], ["c"]])
        assert len(detect_duplicates(ds, ["k"])) == 0

    def test_empty_key_list_rejected(self):
        with pytest.raises(DetectorError):
            detect_duplicates(column(["1"]), [])


class TestMislabels:
    def test_threshold_rule_worked_example(self):
        # Sample 2 is labeled A with p(A)=0.1 while t_A = mean(0.95, 0.95, 0.1,
        # 0.9...) over A-labeled samples; it sits below threshold with argmax B.
        probs = np.array([[0.95, 0.05], [0.95, 0.05], [0.10, 0.90], [0.20, 0.80]])
        labels = ["A", "A", "A", "B"]
        flagged = confident_learning_flags(probs, labels, ["A", "B"])
        assert flagged == [2]

    def test_perfect_predictions_unflagged(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert confident_learning_flags(probs, ["A", "B"], ["A", "B"]) == []

    def test_recall_on_flipped_labels(self):
        recalls = []
        for seed in range(10):
            gt = make_synthetic("two_class", 300, seed, weights=(4.0, -4.0))
            profile = ErrorProfile([ErrorSpec("mislabel", 0.1, {"label_column": "label"})])
            pair, report = inject(gt, profile, seed)
            mask = detect_mislabels(pair.dirty, "label", folds=5, base="logit", seed=seed)
            score = detection_metrics(mask, report.masks["mislabel"])
            recalls.append(score.recall)
        assert float(np.mean(recalls)) >= 0.7

    def test_class_smaller_than_folds(self):
        ds = Dataset.from_columns(
            "t",
            [
                ("x", "numeric", ["0.1", "0.4", "0.9", "0.3", "0.7", "0.2"]),
                ("label", "categorical", ["a", "a", "a", "a", "a", "b"]),
            ],
        )
        with pytest.raises(DetectorError, match="fewer"):
            detect_mislabels(ds, "label", folds=3)


class TestMinK:
    def test_counting_example(self):
        c1, c2, c3 = CellRef(0, 0), CellRef(0, 1), CellRef(0, 2)
        masks = [
            mask_from([c1, c3]),
            mask_from([c1, c2]),
            mask_from([c1, c3]),
        ]
        out = ensemble_min_k(masks, 2)
        assert mask_cells(out) == frozenset({c1, c3})

    def test_k_one_is_union(self):
        masks = [mask_from([(0, 0)]), mask_from([(1, 1)])]
        assert mask_cells(ensemble_min_k(masks, 1)) == frozenset({CellRef(0, 0), CellRef(1, 1)})

    def test_anti_monotone_in_k(self):
        rng = np.random.default_rng(2)
        masks = [
            mask_from((int(r), int(c)) for r, c in rng.integers(0, 8, size=(12, 2)))
            for _ in range(4)
        ]
        previous = None
        for k in range(1, 5):
            cells = mask_cells(ensemble_min_k(masks, k))
            if previous is not None:
                assert cells <= previous
            previous = cells

    def test_bad_k(self):
        with pytest.raises(DetectorError):
            ensemble_min_k([mask_from([(0, 0)])], 2)


class TestMaxEntropy:
    def test_single_perfect_detector_returns_full_mask(self):
        ds = column([str(i) for i in range(20)])
        truth = mask_from([(i, 0) for i in range(5)], source="truth")
        result = ensemble_max_entropy([("d", truth)], truth, label_budget=4, seed=0)
        assert mask_cells(result.mask) == mask_cells(truth)
        assert result.rounds[0].accepted

    def test_pure_noise_contributes_nothing(self):
        ds = column([str(i) for i in range(20)])
        truth = mask_from([(0, 0)], source="truth")
        noise = mask_from([(i, 0) for i in range(5, 15)], source="noise")
        result = ensemble_max_entropy([("noise", noise)], truth, label_budget=6, seed=1)
        assert len(result.mask) == 0
        assert not result.rounds[0].accepted

    def test_signal_vs_noise_over_seeds(self):
        ds = column([str(i) for i in range(40)])
        truth = mask_from([(i, 0) for i in range(10)], source="truth")
        signal = mask_from([(i, 0) for i in range(10)], source="signal")
        noise = mask_from([(i, 0) for i in range(20, 35)], source="noise")
        for seed in range(10):
            result = ensemble_max_entropy(
                [("signal", signal), ("noise", noise)], truth, label_budget=20, seed=seed
            )
            assert mask_cells(result.mask) == mask_cells(signal)
            assert len(result.rounds) == 2


class TestSubsample:
    def test_fractions(self):
        mask = mask_from([(i, 0) for i in range(10)])
        assert len(subsample_mask(mask, 1.0)) == 10
        assert len(subsample_mask(mask, 0.2, seed=3)) == 2
        assert len(subsample_mask(mask, 0.0)) == 0


class TestMaskBounds:
    def test_every_detector_mask_fits_the_grid(self):
        gt = make_synthetic("two_class", 80, 5, weights=(2.0, -1.0, 0.5))
        profile = ErrorProfile(
            [
                ErrorSpec("explicit_mv", 0.05),
                ErrorSpec("implicit_mv", 0.03),
                ErrorSpec("gaussian_outlier", 0.05, {"degree": 3.0}),
                ErrorSpec("duplicate_row", 0.1),
            ]
        )
        pair, report = inject(gt, profile, 12)
        ctx = DetectorContext(
            key_columns=gt.column_names,
            label_column="label",
            oracle_mask=pair.error_mask,
            contamination=0.1,
            seed=3,
        )
        specs = [
            DetectorSpec("mvd"),
            DetectorSpec("fahes"),
            DetectorSpec("sd", {"n": 2.0}),
            DetectorSpec("iqr", {"k": 1.5}),
            DetectorSpec("if", {"trees": 20}),
            DetectorSpec("dedup"),
            DetectorSpec("cl", {"folds": 3}),
            DetectorSpec("mink", {"k": 1, "base": [("mvd", {}), ("sd", {"n": 2.0})]}),
            DetectorSpec("maxent", {"label_budget": 10, "base": [("mvd", {}), ("sd", {"n": 2.0})]}),
        ]
        for spec in specs:
            try:
                run = run_detector(spec, pair.dirty, ctx)
            except DetectorError:
                # only cl may reject this data (injection can empty label
                # cells, leaving a class smaller than the fold count)
                assert spec.kind == "cl"
                continue
            run.mask.validate(pair.dirty)  # raises on out-of-grid cells


class TestRegistry:
    def test_run_detector_times_and_names(self):
        ds = column(["1", "2", "100"])
        run = run_detector(DetectorSpec("sd", {"n": 2.0}), ds)
        assert run.spec.name == "sd(n=2)"
        assert run.runtime >= 0
        assert run.mask.source == "sd(n=2)"

    def test_min_k_via_registry(self):
        ds = column(["", "2", "100"])
        spec = DetectorSpec(
            "mink", {"k": 1, "base": [("mvd", {}), ("sd", {"n": 2.0})]}
        )
        run = run_detector(spec, ds)
        assert CellRef(0, 0) in mask_cells(run.mask)

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_every_kind_runs_with_its_defaults(self, kind):
        gt = make_synthetic("two_class", 60, 4)
        # outliers only: an emptied label cell would be a class too small for cl's folds
        pair, report = inject(gt, ErrorProfile([ErrorSpec("gaussian_outlier", 0.1)]), 2)
        ctx = DetectorContext(
            constraints=parse_constraints("DC: t1.x0 > 1.5"),
            key_columns=["label"],
            label_column="label",
            oracle_mask=report.union_mask(),
            seed=3,
        )
        # the ensembles have no default base
        params = {"base": [("mvd", {}), ("sd", {})]} if kind in ("mink", "maxent") else {}
        run = run_detector(DetectorSpec(kind, params), pair.dirty, ctx)
        run.mask.validate(pair.dirty)
        assert run.mask.source == run.spec.name

    def test_rule_detector_needs_constraints(self):
        ds = column(["1"])
        with pytest.raises(DetectorError):
            run_detector(DetectorSpec("rule"), ds, DetectorContext())
