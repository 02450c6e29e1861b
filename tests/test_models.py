import warnings

import numpy as np
import pytest

from cleanbench.inject import make_synthetic
from cleanbench.models import (
    DEFAULT_PARAMS,
    MODELS,
    DecisionTree,
    KMeansModel,
    KNNModel,
    LogisticModel,
    ModelError,
    ModelSpec,
    RidgeModel,
    build_model,
    encode,
    fit,
    logistic_loss_and_grad,
    parse_model_spec,
    predict,
    sample_mean,
    sample_std,
    silhouette,
)
from cleanbench.tabular import Dataset


def two_col(train_vals, test_vals, kind="numeric"):
    train = Dataset.from_columns("train", [("a", kind, train_vals)])
    test = Dataset.from_columns("test", [("a", kind, test_vals)])
    return train, test


class TestEncode:
    def test_zscore_uses_sample_std(self):
        train, test = two_col(["0", "10"], ["5"])
        tr, te = encode(train, test)
        # sample std of {0,10} is 7.071..., so values sit at +-0.7071
        assert tr.features[:, 0] == pytest.approx([-0.70710678, 0.70710678])
        assert te.features[0, 0] == pytest.approx(0.0)

    def test_std_whose_squares_overflow_scales_first(self):
        values = np.array([1.0, 2.0, 4.0])
        assert sample_std(values) == values.std(ddof=1)  # a finite std keeps numpy's float
        assert sample_std(values * 1e300) == pytest.approx(values.std(ddof=1) * 1e300, rel=1e-15)
        train, test = two_col(["1e300", "2e300", "4e300"], ["2e300"])
        tr, _ = encode(train, test)  # at 1e300 the squares overflow; the column stays
        assert tr.feature_names == ["a"]

    def test_mean_whose_sum_overflows_scales_first(self):
        values = np.array([1.0, 2.0, 4.0])
        assert sample_mean(values) == values.mean()  # a finite mean keeps numpy's float
        extreme = np.array([1.5e308, 1.6e308, 1.7e308, 1.0])
        assert sample_mean(extreme) == pytest.approx(1.2e308, rel=1e-15)
        train, test = two_col(["1.5e308", "1.6e308", "1.7e308", "1"], ["1e308"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr, te = encode(train, test)
        assert tr.feature_names == ["a"] and np.isfinite(tr.features).all() and np.isfinite(te.features).all()

    def test_mean_whose_partial_sums_reach_both_infinities_scales_first(self):
        # the pairwise sum reaches inf and -inf, whose sum is NaN
        values = np.array([1e308, -1e308, 1.0, 2.0] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = sample_mean(values)
        assert mean == pytest.approx(0.75, rel=1e-15)

    def test_numeric_target_mean_whose_sum_overflows(self):
        train = Dataset.from_columns(
            "t", [("x", "numeric", ["0", "1", "2", "3"]), ("y", "numeric", ["1.5e308", "1.6e308", "1.7e308", "1"])]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr, _ = encode(train, train, target="y")
        assert tr.state.target_mean == pytest.approx(1.2e308, rel=1e-15)

    def test_one_hot_two_categories(self):
        train, test = two_col(["a", "b", "a"], ["b"], kind="categorical")
        tr, te = encode(train, test)
        assert tr.features.shape[1] == 2
        assert te.features[0].tolist() == [0.0, 1.0]

    def test_unseen_category_maps_to_zero_block(self):
        train, test = two_col(["a", "b"], ["zzz"], kind="categorical")
        _, te = encode(train, test)
        assert te.features[0].tolist() == [0.0, 0.0]

    def test_constant_numeric_dropped(self):
        train = Dataset.from_columns(
            "t", [("flat", "numeric", ["1", "1"]), ("x", "numeric", ["0", "2"])]
        )
        tr, _ = encode(train, train)
        assert tr.feature_names == ["x"]
        assert "flat" in tr.state.dropped

    def test_unparsable_imputed_with_train_mean(self):
        train, test = two_col(["0", "10", "abc"], ["oops"])
        tr, te = encode(train, test)
        assert tr.features[2, 0] == pytest.approx(0.0)  # mean-imputed, z = 0
        assert te.features[0, 0] == pytest.approx(0.0)

    def test_target_split_off(self):
        train = Dataset.from_columns(
            "t",
            [("x", "numeric", ["1", "2", "3"]), ("y", "categorical", ["a", "b", "a"])],
        )
        tr, _ = encode(train, train, target="y")
        assert tr.feature_names == ["x"]
        assert tr.target.tolist() == ["a", "b", "a"]

    def test_all_dropped_is_error(self):
        train = Dataset.from_columns("t", [("flat", "numeric", ["1", "1"])])
        with pytest.raises(ModelError):
            encode(train, train)


class TestRidge:
    def test_recovers_exact_linear_weights(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 2))
        y = X @ np.array([3.0, -2.0])
        model = RidgeModel(lam=1e-10).fit(X, y)
        assert model.w[:2] == pytest.approx([3.0, -2.0], abs=1e-6)
        assert model.predict(X) == pytest.approx(y, abs=1e-6)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        model = RidgeModel(lam=1.0).fit(X, y)
        Xb = RidgeModel.design(X)
        A = Xb.T @ Xb + 1.0 * np.eye(5)
        residual = np.linalg.norm(A @ model.w - Xb.T @ y)
        assert residual <= 1e-8 * np.linalg.norm(Xb.T @ y)

    def test_singular_system_reported(self):
        X = np.ones((10, 2))  # collinear with the bias column
        y = np.arange(10.0)
        with pytest.raises(ModelError, match="singular"):
            RidgeModel(lam=0.0).fit(X, y)


class TestTree:
    def test_perfect_split_single_feature(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]] * 5)
        y = np.array(["n", "n", "p", "p"] * 5, dtype=object)
        tree = DecisionTree("classification", max_depth=8, min_leaf=1).fit(X, y)
        left = tree.kids_[0]
        assert left != 0 and tree.kids_[2 * left] == left  # the root splits and its left child is a leaf
        assert (tree.predict(X) == y).all()

    def test_regression_tracks_linear_function(self):
        X = np.linspace(0, 10, 200).reshape(-1, 1)
        y = 2.0 * X[:, 0]
        tree = DecisionTree("regression", max_depth=8, min_leaf=5).fit(X, y)
        preds = tree.predict(X)
        assert np.abs(preds - y).max() < 1.0  # within leaf resolution of 2x

    def test_min_leaf_respected(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.array(["a"] * 5 + ["b"] * 5, dtype=object)
        tree = DecisionTree("classification", max_depth=3, min_leaf=6).fit(X, y)
        assert tree.kids_[0] == 0  # the root is a leaf: it cannot split without starving a side


class TestLogistic:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, d, c = 12, 3, 3
            Xb = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
            Y = np.eye(c)[rng.integers(c, size=n)]
            W = rng.standard_normal((d + 1, c))
            _, grad = logistic_loss_and_grad(W, Xb, Y, l2=0.01)
            eps = 1e-6
            numeric = np.zeros_like(W)
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    up, down = W.copy(), W.copy()
                    up[i, j] += eps
                    down[i, j] -= eps
                    numeric[i, j] = (
                        logistic_loss_and_grad(up, Xb, Y, 0.01)[0]
                        - logistic_loss_and_grad(down, Xb, Y, 0.01)[0]
                    ) / (2 * eps)
            rel = np.linalg.norm(grad - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-5

    def test_separable_data_classified(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-3, 0.5, (40, 2)), rng.normal(3, 0.5, (40, 2))])
        y = np.array(["lo"] * 40 + ["hi"] * 40, dtype=object)
        model = LogisticModel(lr=0.5, epochs=300, l2=1e-4).fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        y = np.array(list("ab" * 15), dtype=object)
        a = LogisticModel().fit(X, y).predict_proba(X)
        b = LogisticModel().fit(X, y).predict_proba(X)
        assert (a == b).all()


class TestKnn:
    def test_k1_reproduces_training_labels(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 3))
        y = np.array([str(i % 3) for i in range(25)], dtype=object)
        model = KNNModel(k=1, task="classification").fit(X, y)
        assert (model.predict(X) == y).all()

    def test_regression_mean_of_neighbors(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0])
        model = KNNModel(k=3, task="regression").fit(X, y)
        assert model.predict(np.array([[1.0]]))[0] == pytest.approx(1.0)

    def test_vote_tie_breaks_lexicographically(self):
        X = np.array([[0.0], [2.0]])
        y = np.array(["b", "a"], dtype=object)
        model = KNNModel(k=2, task="classification").fit(X, y)
        assert model.predict(np.array([[1.0]]))[0] == "a"


class TestKMeans:
    def test_recovers_blob_centers(self):
        for seed in range(10):
            ds = make_synthetic("blobs", 120, seed, centers=((0.0, 0.0), (10.0, 10.0)))
            X = np.column_stack([ds.column(f"x{j}").parsed for j in range(2)])
            model = KMeansModel(k=2, restarts=5, seed=seed).fit(X)
            centers = model.centers_[np.argsort(model.centers_[:, 0])]
            assert np.abs(centers[0] - [0.0, 0.0]).max() < 0.5
            assert np.abs(centers[1] - [10.0, 10.0]).max() < 0.5

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((80, 2))
        model = KMeansModel(k=3, restarts=1, seed=2).fit(X)
        history = model.inertia_history_
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_assignment_is_argmin_distance(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0], [0.1, 0.0], [9.9, 10.0]])
        model = KMeansModel(k=2, restarts=3, seed=0).fit(X)
        preds = model.predict(X)
        assert preds[0] == preds[2] and preds[1] == preds[3]

    @pytest.mark.parametrize("param", ["max_iter", "restarts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_no_iteration_or_restart_rejected_at_construction(self, param, value):
        with pytest.raises(ModelError, match=f"kmeans requires {param} >= 1"):
            KMeansModel(k=2, **{param: value})


class TestSilhouette:
    def test_worked_example(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        value = silhouette(X, np.array([0, 0, 1, 1]))
        assert value == pytest.approx(0.8997, abs=1e-4)

    def test_coincident_clusters_non_positive(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        assert silhouette(X, np.array([0, 0, 1, 1])) <= 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ModelError):
            silhouette(np.zeros((4, 1)), np.zeros(4, dtype=int))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, k = int(rng.integers(6, 40)), int(rng.integers(2, 4))
            X = rng.standard_normal((n, 2))
            labels = rng.integers(k, size=n)
            if len(set(labels.tolist())) < 2:
                continue
            fast = silhouette(X, labels)
            slow = brute_force_silhouette(X, labels)
            assert fast == pytest.approx(slow, abs=1e-12)


def brute_force_silhouette(X, labels):
    scores = []
    for i in range(len(X)):
        same = [j for j in range(len(X)) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(X[i] - X[j]) for j in same]))
        b = min(
            float(np.mean([np.linalg.norm(X[i] - X[j]) for j in range(len(X)) if labels[j] == c]))
            for c in set(labels.tolist())
            if c != labels[i]
        )
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))


class TestRegistry:
    def test_spec_defaults_and_overrides(self):
        spec = parse_model_spec("knn:k=3", "classification")
        assert spec.params["k"] == 3
        spec2 = ModelSpec("logit", "classification")
        assert spec2.params["epochs"] == 500

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_every_kind_builds_with_its_params(self, kind):
        task = {"ridge": "regression", "kmeans": "clustering"}.get(kind, "classification")
        model = build_model(ModelSpec(kind, task, seed=4))
        for name, value in DEFAULT_PARAMS[kind].items():
            assert getattr(model, name) == value

    def test_task_compatibility(self):
        with pytest.raises(ModelError):
            ModelSpec("ridge", "classification")

    @pytest.mark.parametrize("kind", ["knn", "dt"])
    def test_models_that_need_a_target_reject_clustering_when_built(self, kind):
        with pytest.raises(ModelError, match=f"{kind} needs a target"):
            ModelSpec(kind, "clustering")
        for task in ("classification", "regression"):
            assert ModelSpec(kind, task).task == task

    def test_fit_predict_round_trip(self):
        train = Dataset.from_columns(
            "t",
            [
                ("x", "numeric", [repr(float(v)) for v in np.linspace(-2, 2, 40)]),
                ("label", "categorical", ["n" if v < 0 else "p" for v in np.linspace(-2, 2, 40)]),
            ],
        )
        tr, te = encode(train, train, target="label")
        (fitted,) = fit(ModelSpec("dt", "classification"), [tr])
        preds = predict(fitted, te)
        assert (preds == tr.target).mean() > 0.9

    def test_dimension_mismatch(self):
        from cleanbench.models import FittedModel

        rng = np.random.default_rng(11)
        model = build_model(ModelSpec("ridge", "regression"))
        model.fit(rng.standard_normal((10, 2)), rng.standard_normal(10))
        fitted = FittedModel(ModelSpec("ridge", "regression"), model, 0.0)
        wrong = type("D", (), {"features": np.ones((3, 5))})()
        with pytest.raises(ModelError, match="width"):
            predict(fitted, wrong)
