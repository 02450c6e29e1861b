"""Exact equivalence of the array kernels with scalar reference loops.

The CART split search, kNN imputation, isolation-forest scoring, tree
prediction, the numeric mode and the column-wise detectors (mvd, fahes, sd,
iqr and the isolation forest's cell selection) are checked against
straightforward per-element implementations kept here as references. Results must be equal
with `==`, not approximately: the kernels promise the same floats and the
same tie rules. The bool-matrix detection masks are checked the same way
against set arithmetic on cell coordinates.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanbench import detect
from cleanbench.metrics import RepairScore, detection_metrics, iou, repair_metrics_categorical
from cleanbench.models import DecisionTree
from cleanbench.repair import RepairError, _donor_distances, _mode, _numeric_stat, repair_impute_knn
from cleanbench.seeding import derive_rng
from cleanbench.tabular import (
    CellRef,
    CsvFormatError,
    Dataset,
    DetectionMask,
    TabularError,
    diff_cells,
    load_mask,
    mask_from,
    save_mask,
    union_masks,
)

# -- scalar references ---------------------------------------------------------


def ref_split_gains(tree: DecisionTree, col: np.ndarray, y: np.ndarray) -> list:
    """(gain, threshold) of every valid split, from running counts."""
    order = np.argsort(col, kind="stable")
    cs, ys = col[order], y[order]
    n = len(ys)
    out = []
    if tree.task == "classification":
        k = len(tree.classes_)
        left = np.zeros(k)
        right = np.bincount(ys, minlength=k).astype(float)
        total_gini = 1.0 - np.sum((right / n) ** 2)
        for i in range(n - 1):
            left[ys[i]] += 1
            right[ys[i]] -= 1
            if cs[i] == cs[i + 1]:
                continue
            nl, nr = i + 1, n - i - 1
            if nl < tree.min_leaf or nr < tree.min_leaf:
                continue
            gini = (
                nl / n * (1.0 - np.sum((left / nl) ** 2))
                + nr / n * (1.0 - np.sum((right / nr) ** 2))
            )
            out.append((total_gini - gini, (cs[i] + cs[i + 1]) / 2.0))
    else:
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys**2)
        total_var = csum2[-1] - csum[-1] ** 2 / n
        for i in range(n - 1):
            if cs[i] == cs[i + 1]:
                continue
            nl, nr = i + 1, n - i - 1
            if nl < tree.min_leaf or nr < tree.min_leaf:
                continue
            left_ss = csum2[i] - csum[i] ** 2 / nl
            right_ss = (csum2[-1] - csum2[i]) - (csum[-1] - csum[i]) ** 2 / nr
            out.append((total_var - left_ss - right_ss, (cs[i] + cs[i + 1]) / 2.0))
    return out


def ref_impurity_gain(tree: DecisionTree, col: np.ndarray, y: np.ndarray):
    best = None
    for gain, threshold in ref_split_gains(tree, col, y):
        if best is None or gain > best[0] + 1e-15:
            best = (gain, threshold)
    return best


def ref_tree_leaf(tree: DecisionTree, x: np.ndarray):
    node = tree.root
    while node.left is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def ref_iso_path_length(x: np.ndarray, node) -> float:
    depth = 0
    while node.feature is not None:
        node = node.left if x[node.feature] < node.threshold else node.right
        depth += 1
    return depth + detect._c_factor(node.size)


def ref_iforest_scores(ds: Dataset, trees: int, subsample: int, seed: int) -> np.ndarray:
    num_cols = ds.numeric_column_indices()
    n = ds.row_count
    X, _, _ = detect._iforest_features(ds, num_cols)
    psi = min(subsample, n)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    rng = derive_rng(seed, "iforest")
    paths = np.zeros(n)
    for _ in range(trees):
        idx = rng.choice(n, size=psi, replace=False)
        root = detect._grow_iso_tree(X[idx], 0, limit, rng)
        for i in range(n):
            paths[i] += ref_iso_path_length(X[i], root)
    return np.power(2.0, -(paths / trees) / detect._c_factor(psi))


def ref_knn_updates(ds: Dataset, mask: DetectionMask, k: int):
    """Per-cell kNN imputation: (updates, repaired cells, unfillable count)."""
    flagged_rows = mask.rows()
    donors = [r for r in range(ds.row_count) if r not in flagged_rows]
    if not donors:
        raise RepairError("knn repair has no fully-unflagged donor rows")
    num_cols = ds.numeric_column_indices()
    stats = {}
    for c in num_cols:
        values = [
            cell.parsed
            for i, cell in enumerate(ds.cell(r, c) for r in range(ds.row_count))
            if CellRef(i, c) not in mask.cells and cell.parsed is not None
        ]
        if len(values) >= 2:
            arr = np.asarray(values)
            std = float(arr.std(ddof=1))
            if std > 0:
                stats[c] = (float(arr.mean()), std)

    def z(row, c):
        cell = ds.cell(row, c)
        if CellRef(row, c) in mask.cells or cell.parsed is None or c not in stats:
            return None
        mean, std = stats[c]
        return (cell.parsed - mean) / std

    updates, repaired, unfillable = {}, set(), 0
    for ref in mask.sorted_cells():
        if ref.row >= ds.row_count:
            continue
        target_col = ds.columns[ref.col]
        usable = []
        for d in donors:
            donor_cell = ds.cell(d, ref.col)
            if target_col.is_numeric:
                if donor_cell.parsed is None:
                    continue
            elif donor_cell.is_empty:
                continue
            dist2, dims = 0.0, 0
            for c in num_cols:
                if c == ref.col:
                    continue
                a, b = z(ref.row, c), z(d, c)
                if a is None or b is None:
                    continue
                dist2 += (a - b) ** 2
                dims += 1
            distance = np.sqrt(dist2) if dims else np.inf
            usable.append((distance, d, donor_cell))
        usable.sort(key=lambda t: (t[0], t[1]))
        nearest = usable[: min(k, len(usable))]
        nearest = [t for t in nearest if np.isfinite(t[0])] or nearest
        if not nearest:
            unfillable += 1
            continue
        if target_col.is_numeric:
            updates[ref] = repr(float(np.mean([t[2].parsed for t in nearest])))
        else:
            votes = {}
            for _, _, cell in nearest:
                votes[cell.raw] = votes.get(cell.raw, 0) + 1
            updates[ref] = _mode(votes)
        repaired.add(ref)
    return updates, repaired, unfillable


def ref_cells(ds: Dataset, j: int):
    return [(i, ds.cell(i, j)) for i in range(ds.row_count)]


def ref_detect_missing(ds: Dataset) -> set:
    return {CellRef(i, j) for j in range(ds.col_count) for i, cell in ref_cells(ds, j) if cell.is_empty}


def ref_detect_disguised(ds: Dataset) -> set:
    cells = set()
    for j, col in enumerate(ds.columns):
        if col.is_numeric:
            parsed = col.parsed_values()
            finite = parsed[~np.isnan(parsed)]
            if finite.size == 0:
                continue
            q1, q3 = np.quantile(finite, [0.25, 0.75])
            lo, hi = q1 - 3.0 * (q3 - q1), q3 + 3.0 * (q3 - q1)
            for i, cell in ref_cells(ds, j):
                if cell.parsed is None or not detect._is_repeated_digit(cell.raw):
                    continue
                if cell.parsed < lo or cell.parsed > hi:
                    cells.add(CellRef(i, j))
        else:
            for i, cell in ref_cells(ds, j):
                raw = cell.raw
                if raw in detect._DISGUISE_DICTIONARY or (len(raw) >= 2 and len(set(raw)) == 1):
                    cells.add(CellRef(i, j))
    return cells


def ref_unparsable(ds: Dataset, j: int) -> set:
    return {CellRef(i, j) for i, cell in ref_cells(ds, j) if not cell.is_empty and cell.parsed is None}


def ref_detect_sd(ds: Dataset, n: float) -> set:
    cells = set()
    for j in ds.numeric_column_indices():
        cells |= ref_unparsable(ds, j)
        parsed = ds.columns[j].parsed_values()
        finite = parsed[~np.isnan(parsed)]
        if finite.size < 3:
            continue
        mean, threshold = finite.mean(), n * finite.std(ddof=1)
        for i, value in enumerate(parsed):
            if not np.isnan(value) and abs(value - mean) > threshold:
                cells.add(CellRef(i, j))
    return cells


def ref_detect_iqr(ds: Dataset, k: float) -> set:
    cells = set()
    for j in ds.numeric_column_indices():
        cells |= ref_unparsable(ds, j)
        parsed = ds.columns[j].parsed_values()
        finite = parsed[~np.isnan(parsed)]
        if finite.size == 0:
            continue
        q1, q3 = detect.quantile(finite, 0.25), detect.quantile(finite, 0.75)
        lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        for i, value in enumerate(parsed):
            if not np.isnan(value) and (value < lo or value > hi):
                cells.add(CellRef(i, j))
    return cells


def ref_iforest_cells(ds: Dataset, trees: int, subsample: int, seed: int, contamination: float) -> set:
    """The cells of the top-scored rows whose robust z-score exceeds 3, or all
    numeric cells of a row where none does."""
    num_cols = ds.numeric_column_indices()
    n = ds.row_count
    _, col_median, col_mad = detect._iforest_features(ds, num_cols)
    scores = detect.iforest_scores(ds, trees=trees, subsample=subsample, seed=seed)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    cells = set()
    for r in order[: math.ceil(contamination * n)]:
        strong = []
        for j, c in enumerate(num_cols):
            cell = ds.cell(r, c)
            if cell.parsed is None:
                continue
            dev = abs(cell.parsed - col_median[j])
            if col_mad[j] > 0:
                z = dev / (1.4826 * col_mad[j])
            else:
                z = math.inf if dev > 0 else 0.0
            if z > 3.0:
                strong.append(CellRef(r, c))
        cells.update(strong or [CellRef(r, c) for c in num_cols])
    return cells


def ref_numeric_mode(values: list[float]) -> float:
    best, best_count = None, -1
    for v in sorted(set(values)):
        count = values.count(v)
        if count > best_count:
            best, best_count = v, count
    return float(best)


# -- CART split search ---------------------------------------------------------


def make_tree(task: str, min_leaf: int, n_classes: int = 2) -> DecisionTree:
    tree = DecisionTree(task, max_depth=8, min_leaf=min_leaf)
    if task == "classification":
        tree.classes_ = list(range(n_classes))
    return tree


def assert_same_split(tree, col, y):
    got, want = tree._impurity_gain(col, y), ref_impurity_gain(tree, col, y)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0] and got[1] == want[1]


@pytest.mark.parametrize(
    "task, y",
    [
        ("classification", [1, 1, 0, 1, 1, 1, 0, 1]),
        ("regression", [0.1, 0.1, 0.2, 0.1, 0.1]),
    ],
)
def test_near_tie_keeps_first_gain_within_1e15(task, y):
    col = np.arange(len(y), dtype=float)
    y = np.array(y) if task == "classification" else np.array(y, dtype=float)
    tree = make_tree(task, min_leaf=1)
    # the two best gains differ by less than 1e-15, so argmax picks another split
    gains = ref_split_gains(tree, col, y)
    argmax = max(gains, key=lambda g: g[0])
    assert argmax[1] != ref_impurity_gain(tree, col, y)[1]
    assert_same_split(tree, col, y)


def test_regression_squares_round_like_pow():
    # squaring the left or the right sum with x * x instead of pow() changes
    # the winning gain of each case
    tree = make_tree("regression", min_leaf=1)
    assert_same_split(tree, np.arange(3.0), np.array([8.4, 3.7, 8.3]))
    assert_same_split(tree, np.arange(4.0), np.array([6.7, 6.9, -1.6, 8.4]))


@pytest.mark.parametrize(
    "col, y, n_classes",
    [
        # a left-to-right sum of the left side's class terms changes the gain
        (
            [0, 4, 2, 0, 3, 2, 7, 1, 3, 5, 2, 5, 2, 2, 3, 7, 2, 1, 0, 0, 3],
            [3, 4, 6, 4, 9, 6, 5, 3, 1, 4, 5, 1, 0, 0, 8, 2, 3, 5, 1, 7, 1],
            10,
        ),
        # ... and of the right side's here
        (
            [4, 2, 3, 5, 0, 1, 0, 4, 0, 4, 2, 4, 5, 1, 6, 6],
            [5, 4, 5, 6, 7, 5, 7, 2, 1, 6, 5, 3, 1, 8, 6, 4],
            9,
        ),
    ],
)
def test_many_classes_and_duplicated_values(col, y, n_classes):
    # with 9 or more classes the class sums run past np.sum's 8-wide unrolled block
    col, y = np.array(col, dtype=float), np.array(y)
    for min_leaf in (1, 3, 7):
        assert_same_split(make_tree("classification", min_leaf, n_classes), col, y)


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 11), st.sampled_from([0.1, 0.2, 0.3, -1.5, 1e3, 7.25])),
        min_size=1,
        max_size=40,
    ),
    n_classes=st.integers(1, 12),
    min_leaf=st.integers(1, 5),
)
def test_split_search_matches_scalar_scan(data, n_classes, min_leaf):
    col = np.array([d[0] for d in data], dtype=float)
    codes = np.array([d[1] % n_classes for d in data])
    targets = np.array([d[2] for d in data])
    assert_same_split(make_tree("classification", min_leaf, n_classes), col, codes)
    assert_same_split(make_tree("regression", min_leaf), col, targets)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"])),
        min_size=2,
        max_size=50,
    ),
    task=st.sampled_from(["classification", "regression"]),
)
def test_tree_fit_and_predict_match_row_walk(rows, task):
    X = np.array([[r[0], r[1]] for r in rows], dtype=float)
    if task == "classification":
        y = np.array([r[2] for r in rows], dtype=object)
    else:
        y = np.array([ord(r[2]) / 7.0 for r in rows])
    tree = DecisionTree(task, max_depth=4, min_leaf=1).fit(X, y)
    probe = np.vstack([X, [[-1.0, 9.0], [2.5, np.nan]]])
    leaves = [ref_tree_leaf(tree, x) for x in probe]
    if task == "regression":
        assert tree.predict(probe).tolist() == [leaf.value for leaf in leaves]
    else:
        assert tree.predict(probe).tolist() == [tree.classes_[int(np.argmax(leaf.value))] for leaf in leaves]
        want = [(leaf.value / leaf.value.sum()).tolist() for leaf in leaves]
        assert tree.predict_proba(probe).tolist() == want


# -- kNN imputation ------------------------------------------------------------


def ref_donor_distance(z: np.ndarray, donor: np.ndarray) -> float:
    dist2, dims = 0.0, 0
    for a, b in zip(z.tolist(), donor.tolist()):
        if math.isnan(a) or math.isnan(b):
            continue
        dist2 += (a - b) ** 2
        dims += 1
    return np.sqrt(dist2) if dims else np.inf


Z_SCORES = st.one_of(st.just(math.nan), st.floats(-4, 4))


@settings(max_examples=200, deadline=None)
@given(
    z=st.lists(Z_SCORES, min_size=3, max_size=3),
    donors=st.lists(st.lists(Z_SCORES, min_size=3, max_size=3), min_size=1, max_size=8),
)
def test_donor_distances_match_scalar_loop(z, donors):
    got = _donor_distances(np.array(z), np.array(donors))
    assert got.tolist() == [ref_donor_distance(np.array(z), np.array(d)) for d in donors]


@pytest.mark.parametrize(
    "z, donor",
    [
        # (a - b) ** 2 through x * x instead of pow() changes this distance
        ([2.295687373294724, 1.326281246096741, np.nan], [-1.6441082029850893, 0.625591598710014, 2.0]),
        # adding the squares in reverse column order changes this one
        ([0.19501684023357857, 2.2739900403855815, 1.0836554830409568], [0.8216709028699443, 0.6162614848131351, 0.035702052495683034]),
    ],
)
def test_donor_distance_rounding(z, donor):
    z, donors = np.array(z), np.array([donor])
    assert _donor_distances(z, donors).tolist() == [ref_donor_distance(z, donors[0])]


def assert_knn_matches(ds: Dataset, mask: DetectionMask, k: int):
    try:
        updates, repaired, unfillable = ref_knn_updates(ds, mask, k)
    except RepairError:
        with pytest.raises(RepairError):
            repair_impute_knn(ds, mask, k=k)
        return
    out = repair_impute_knn(ds, mask, k=k)
    want = ds.replace_cells(updates)
    assert list(out.data.iter_rows()) == list(want.iter_rows())
    assert out.repaired_cells.cells == frozenset(repaired)
    assert (out.warning is None) == (unfillable == 0)


def test_knn_equal_distances_go_to_lower_donor():
    ds = Dataset.from_columns(
        "t",
        [("a", "numeric", ["0", "1", "1", "1", "2", "1"]), ("b", "numeric", ["5", "7", "6", "9", "4", "5"])],
    )
    # donors 1, 2 and 3 are all at distance 0 from row 5 over column a
    mask = mask_from([(5, 1), (0, 1)])
    assert_knn_matches(ds, mask, k=2)
    assert repair_impute_knn(ds, mask, k=2).data.raw(5, 1) == repr(6.5)


def test_knn_donors_without_shared_dimension_fall_back_to_inf():
    ds = Dataset.from_columns(
        "t",
        [
            ("a", "numeric", ["1", "", "", "", "5", "x"]),
            ("b", "numeric", ["2", "3", "4", "6", "", "8"]),
            ("c", "categorical", ["p", "q", "q", "p", "q", "p"]),
        ],
    )
    # row 0 shares no usable dimension with any donor, so all are at inf
    mask = mask_from([(0, 1), (0, 2), (4, 0)])
    assert_knn_matches(ds, mask, k=2)
    assert repair_impute_knn(ds, mask, k=2).data.raw(0, 1) == repr(3.5)


def test_knn_categorical_votes():
    ds = Dataset.from_columns(
        "t",
        [
            ("a", "numeric", ["1", "1.1", "1.2", "9", "9.5", "1.05"]),
            ("c", "categorical", ["x", "y", "x", "y", "y", ""]),
        ],
    )
    mask = mask_from([(5, 1)])
    for k in (1, 2, 3, 5):
        assert_knn_matches(ds, mask, k=k)


NUMERIC_TEXT = st.sampled_from(["0", "1", "2", "2.5", "-3", "1e2", "", "x", "7"])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(NUMERIC_TEXT, NUMERIC_TEXT, st.sampled_from(["4", "4", "4.0"]), st.sampled_from(["a", "b", "c", ""])),
        min_size=2,
        max_size=25,
    ),
    flags=st.sets(st.tuples(st.integers(0, 27), st.integers(0, 3)), min_size=1, max_size=30),
    k=st.integers(1, 4),
)
def test_knn_matches_per_cell_reference(rows, flags, k):
    # column c is constant, so it has no spread and never counts as a dimension
    cols = [
        (name, kind, [r[j] for r in rows])
        for j, (name, kind) in enumerate([("a", "numeric"), ("b", "numeric"), ("c", "numeric"), ("d", "categorical")])
    ]
    ds = Dataset.from_columns("t", cols)
    assert_knn_matches(ds, mask_from(flags), k)


# -- isolation-forest scoring --------------------------------------------------


def test_iso_path_lengths_send_threshold_ties_right():
    leaf = detect._IsoNode
    root, inner = leaf(6), leaf(4)
    root.feature, root.threshold, root.left, root.right = 0, 1.0, leaf(2), inner
    inner.feature, inner.threshold, inner.left, inner.right = 1, 5.0, leaf(1), leaf(3)
    X = np.array([[0.5, 9.0], [1.0, 5.0], [1.0, 4.0], [2.0, 6.0], [1.0, 5.5]])
    got = detect._iso_path_lengths(X, root)
    assert got.tolist() == [ref_iso_path_length(x, root) for x in X]


def test_iforest_scores_with_a_constant_column():
    rng = np.random.default_rng(5)
    ds = Dataset.from_columns(
        "t",
        [
            ("a", "numeric", [repr(v) for v in rng.normal(size=80)]),
            ("k", "numeric", ["3"] * 80),
            ("b", "numeric", [str(int(v)) for v in rng.integers(0, 4, 80)]),
        ],
    )
    got = detect.iforest_scores(ds, trees=20, subsample=32, seed=1)
    assert got.tolist() == ref_iforest_scores(ds, 20, 32, 1).tolist()


@settings(max_examples=60, deadline=None)
@given(
    cols=st.lists(st.lists(st.sampled_from(["0", "1", "1.5", "-2", "", "9"]), min_size=2, max_size=30), min_size=1, max_size=3),
    trees=st.integers(1, 5),
    subsample=st.integers(2, 16),
    seed=st.integers(0, 3),
)
def test_iforest_scores_match_per_row_walk(cols, trees, subsample, seed):
    n = min(len(c) for c in cols)
    ds = Dataset.from_columns("t", [(f"c{j}", "numeric", c[:n]) for j, c in enumerate(cols)])
    got = detect.iforest_scores(ds, trees=trees, subsample=subsample, seed=seed)
    assert got.tolist() == ref_iforest_scores(ds, trees, subsample, seed).tolist()


# -- numeric mode --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 7.0]), min_size=1, max_size=30))
def test_mode_keeps_smallest_most_frequent_value(values):
    got = _numeric_stat(np.array(values), "mode")
    assert repr(got) == repr(ref_numeric_mode(values))


# -- column-wise detectors -----------------------------------------------------

# Repeated digits in and outside the fences, disguise tokens, unparsable text,
# null tokens and a wide spread of magnitudes.
DETECTOR_TEXT = st.sampled_from(
    ["0", "1", "1.5", "-2", "3", "7", "999", "-11", "99999", "1e5", "inf", "", "NA", "?", "x", "none", "aa", "-0.0", " 3"]
)


@st.composite
def detector_datasets(draw, min_numeric=0):
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4))
    kinds += ["numeric"] * max(0, min_numeric - kinds.count("numeric"))
    cols = [(f"c{j}", kind, draw(st.lists(DETECTOR_TEXT, min_size=n, max_size=n))) for j, kind in enumerate(kinds)]
    return Dataset.from_columns("t", cols)


@settings(max_examples=200, deadline=None)
@given(ds=detector_datasets(), n=st.sampled_from([0.5, 1, 2, 3]), k=st.sampled_from([0.25, 1.5, 3.0]))
def test_columnwise_detectors_match_per_cell_loops(ds, n, k):
    assert detect.detect_missing(ds).cells == ref_detect_missing(ds)
    assert detect.detect_disguised(ds).cells == ref_detect_disguised(ds)
    assert detect.detect_outliers_sd(ds, n=n).cells == ref_detect_sd(ds, n)
    assert detect.detect_outliers_iqr(ds, k=k).cells == ref_detect_iqr(ds, k)


@settings(max_examples=80, deadline=None)
@given(
    ds=detector_datasets(min_numeric=1),
    contamination=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 3),
)
def test_iforest_cell_selection_matches_per_cell_loop(ds, contamination, seed):
    got = detect.detect_outliers_iforest(ds, trees=3, subsample=8, seed=seed, contamination=contamination)
    assert got.cells == ref_iforest_cells(ds, 3, 8, seed, contamination)


def test_iforest_scores_of_one_row_subsamples_are_one_half():
    # c(1) = 0, so 2^(-h / c) has no value; every row scores 0.5 instead.
    one_row = Dataset.from_columns("t", [("a", "numeric", ["1"])])
    rows = Dataset.from_columns("t", [("a", "numeric", ["1", "5", "2"])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert detect.iforest_scores(one_row, trees=3, subsample=8).tolist() == [0.5]
        assert detect.iforest_scores(rows, trees=3, subsample=1).tolist() == [0.5] * 3


# -- detection masks -------------------------------------------------------------


def ref_detection_counts(detected: set, truth: set) -> tuple[int, int, int]:
    return len(detected & truth), len(detected - truth), len(truth - detected)


def ref_iou(a: set, b: set, truth: set) -> float:
    ta, tb = a & truth, b & truth
    if not ta and not tb:
        return 1.0
    inter = len(ta & tb)
    return inter / (len(ta) + len(tb) - inter)


def ref_min_k(runs: list[set], k: int) -> set:
    counts: dict = {}
    for cells in runs:
        for ref in cells:
            counts[ref] = counts.get(ref, 0) + 1
    return {ref for ref, c in counts.items() if c >= k}


def ref_max_entropy(base: list[tuple[str, set]], oracle: set, label_budget: int, seed: int):
    """(accepted cells, rounds) of the greedy entropy-ordered ensemble."""
    rng = derive_rng(seed, "maxent")
    per_round = label_budget // len(base)
    unexecuted = list(range(len(base)))
    decided, accepted, rounds = set(), set(), []
    while unexecuted:
        share = max(1, per_round // len(unexecuted))
        stats = []
        for pos in unexecuted:
            candidates = sorted(base[pos][1] - decided)
            size = min(share, len(candidates))
            precision = 0.0
            if size:
                chosen = rng.choice(len(candidates), size=size, replace=False)
                sample = [candidates[i] for i in sorted(chosen.tolist())]
                precision = sum(1 for ref in sample if ref in oracle) / size
            stats.append((pos, size, detect._binary_entropy(precision), precision))
        pos, size, entropy, precision = max(stats, key=lambda s: (s[2], -s[0]))
        name, cells = base[pos]
        if precision >= 0.5:
            accepted |= cells
        decided |= cells
        unexecuted.remove(pos)
        rounds.append(detect.MaxEntropyRound(name, size, entropy, precision, precision >= 0.5))
    return accepted, rounds


def ref_repair_categorical(repaired, gt, truth: set, repaired_cells: set, row_map) -> RepairScore:
    cat_cols = set(gt.categorical_column_indices())
    dirty_to_repaired = {dirty_row: rep_row for rep_row, dirty_row in enumerate(row_map)}
    repaired_cat = {ref for ref in repaired_cells if ref[1] in cat_cols}
    truth_cat = {ref for ref in truth if ref[1] in cat_cols}
    correct = 0
    for row, col in repaired_cat & truth_cat:
        rep_row = dirty_to_repaired.get(row)
        if rep_row is not None and repaired.raw(rep_row, col) == gt.raw(row, col):
            correct += 1
    precision = correct / len(repaired_cat) if repaired_cat else 0.0
    recall = correct / len(truth_cat) if truth_cat else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return RepairScore(precision=precision, recall=recall, f1=f1, compared_cell_count=len(repaired_cat & truth_cat))


@st.composite
def cell_sets(draw):
    """Sets of (row, col) within a drawn bound of up to 8 rows and 5 columns."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 4))
    return draw(st.sets(st.tuples(st.integers(0, rows), st.integers(0, cols)), max_size=16))


CELL_SETS = cell_sets()


@st.composite
def masks(draw, cell_sets=CELL_SETS):
    """(cells, mask): the mask on its smallest grid or on a larger one."""
    cells = draw(cell_sets)
    mask = mask_from(cells, source="m")
    rows, cols = mask.flagged.shape
    pad_rows, pad_cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if pad_rows or pad_cols:
        mask = DetectionMask(mask.matrix((rows + pad_rows, cols + pad_cols)), source="m")
    return {CellRef(r, c) for r, c in cells}, mask


@settings(max_examples=300, deadline=None)
@given(a=masks(), b=masks(), truth=masks())
def test_mask_metrics_match_set_arithmetic(a, b, truth):
    (a_cells, a_mask), (b_cells, b_mask), (t_cells, t_mask) = a, b, truth
    assert len(a_mask) == len(a_cells) and a_mask.cells == a_cells
    assert a_mask.sorted_cells() == sorted(a_cells)
    assert all(ref in a_mask for ref in a_cells) and (8, 0) not in a_mask and (0, 5) not in a_mask
    score = detection_metrics(a_mask, t_mask)
    assert (score.tp, score.fp, score.fn) == ref_detection_counts(a_cells, t_cells)
    assert iou(a_mask, b_mask, t_mask) == ref_iou(a_cells, b_cells, t_cells)
    assert union_masks([a_mask, b_mask, t_mask]).cells == a_cells | b_cells | t_cells
    assert union_masks([]).cells == frozenset()


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(masks(), min_size=1, max_size=4), data=st.data())
def test_min_k_matches_counting(runs, data):
    k = data.draw(st.integers(1, len(runs)))
    got = detect.ensemble_min_k([m for _, m in runs], k)
    assert got.cells == ref_min_k([cells for cells, _ in runs], k)


@settings(max_examples=200, deadline=None)
@given(
    base=st.lists(masks(), min_size=1, max_size=4),
    oracle=masks(),
    extra_budget=st.integers(0, 12),
    seed=st.integers(0, 3),
)
def test_max_entropy_matches_set_ensemble(base, oracle, extra_budget, seed):
    named = [(f"d{i}", mask) for i, (_, mask) in enumerate(base)]
    budget = len(base) + extra_budget
    got = detect.ensemble_max_entropy(named, oracle[1], budget, seed=seed)
    cells, rounds = ref_max_entropy([(f"d{i}", c) for i, (c, _) in enumerate(base)], oracle[0], budget, seed)
    assert got.mask.cells == cells and got.rounds == rounds


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4),
    texts=st.lists(st.sampled_from(["a", "b", "1"]), min_size=24, max_size=24),
    wrong=st.sets(st.integers(0, 23)),
    deleted=st.sets(st.integers(0, 5), max_size=2),
    truth=masks(),
    data=st.data(),
)
def test_repair_metrics_categorical_matches_set_counts(kinds, texts, wrong, deleted, truth, data):
    # six rows; the masks reach up to eight rows and five columns, and the
    # repaired cells share some of the truth's
    gt = Dataset.from_columns("gt", [(f"c{j}", kind, texts[6 * j:6 * j + 6]) for j, kind in enumerate(kinds)])
    texts = ["z" if i in wrong else t for i, t in enumerate(texts)]
    row_map = [r for r in range(6) if r not in deleted]
    repaired = Dataset.from_columns(
        "r", [(f"c{j}", kind, texts[6 * j:6 * j + 6]) for j, kind in enumerate(kinds)]
    ).take_rows(row_map)
    shared = data.draw(st.sets(st.sampled_from(sorted(truth[0])))) if truth[0] else set()
    repaired_mask = data.draw(masks(CELL_SETS.map(shared.union)))
    got = repair_metrics_categorical(repaired, gt, truth[1], repaired_mask[1], row_map=row_map)
    assert got == ref_repair_categorical(repaired, gt, truth[0], repaired_mask[0], row_map)


@settings(max_examples=100, deadline=None)
@given(cells=CELL_SETS)
def test_save_mask_writes_sorted_row_col_source_lines(cells):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mask"
        save_mask(mask_from(cells, source="sd"), path)
        assert path.read_bytes() == "".join(f"{r},{c},sd\n" for r, c in sorted(cells)).encode()
        assert load_mask(path).cells == {CellRef(r, c) for r, c in cells}


def test_negative_mask_coordinates_are_rejected(tmp_path):
    path = tmp_path / "m.mask"
    path.write_text("0,0,sd\n-1,2,sd\n")
    with pytest.raises(CsvFormatError, match=":2: negative"):
        load_mask(path)
    with pytest.raises(TabularError):
        mask_from([(0, -1)])


def test_mask_matrices_are_read_only():
    ds = Dataset.from_columns("t", [("a", "numeric", ["1", "", "3"])])
    dirty = ds.replace_cells({CellRef(0, 0): "2"})
    produced = [mask_from([(1, 0)]), detect.detect_missing(ds), diff_cells(ds, dirty), union_masks([])]
    for mask in produced:
        with pytest.raises(ValueError):
            mask.flagged[...] = True
        assert mask.matrix(mask.flagged.shape) is mask.flagged
