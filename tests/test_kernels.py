"""Exact equivalence of the array kernels with scalar reference loops.

The CART split search and level-by-level tree growth (its flat node arrays,
turned into nested nodes, against the recursive grower node by node), kNN
imputation, kNN model votes and neighbour selection (against a full
stable argsort, on ties, ±inf and NaN distances), isolation-tree growth on
rank-space bitsets with its replayed generator draws (against the recursive grower and the
forest's list grower, bit for bit and on the generator state after, also
on the replay's rare paths: a Lemire rejection, a buffered half-word at the
start, nodes with one usable column, a draw block that runs out, bitsets of
several words, signed zeros and ties, and an overflowing range), the level
walk that CART and the isolation forest share (against per-row walks,
CART's over its flat arrays and the forest's over the recursive grower's
tree, on one hand-built tree under both tie rules, and on stacked trees
against each tree's walk), the numeric mode, the logit's softmax and
gradient descent, the lockstep descent of several logit designs (each
against its lone epoch loop), the confident-learning folds and flags and
the cross-fitting of every fold together (against fold-by-fold fits), the
silhouette, the Wilcoxon exact p, column parsing (against a `make_cell` loop), the
scenarios' row selection and the repair metrics' row alignment by
`DatasetPair.origin` (against per-row provenance lookups) and the
column-wise detectors (mvd, fahes, sd, iqr and the isolation forest's cell
selection) are checked against straightforward per-element implementations
kept here as references. Results must be equal
with `==`, not approximately: the kernels promise the same floats and the
same tie rules. The bool-matrix detection masks are checked the same way
against set arithmetic on cell coordinates.
"""

import copy
import functools
import math
import re
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanbench import bench, detect, models
from cleanbench.metrics import (
    RepairScore,
    _gt_column_scale,
    detection_metrics,
    f1_macro,
    iou,
    repair_metrics_categorical,
    repair_metrics_numeric,
)
from cleanbench.models import (
    DecisionTree,
    KNNModel,
    LogisticModel,
    _softmax,
    _softmax_descent,
    logistic_loss_and_grad,
    silhouette,
)
from cleanbench.repair import RepairError, RepairedDataset, _donor_distances, _mode, _numeric_stat, repair_impute_knn
from cleanbench.seeding import derive_rng
from cleanbench.stats import PairedSample, _average_ranks, _exact_p, wilcoxon_signed_rank
from cleanbench.tabular import (
    DEFAULT_NULL_TOKENS,
    CellRef,
    CsvFormatError,
    Dataset,
    DatasetPair,
    DetectionMask,
    TabularError,
    _parse_texts,
    diff_cells,
    load_mask,
    make_cell,
    mask_from,
    save_mask,
    union_masks,
)
from helpers import mask_cells

# -- scalar references ---------------------------------------------------------


def ref_midpoint(lo: float, hi: float) -> float:
    """The split threshold between adjacent sorted values lo < hi: their
    midpoint, or lo where the midpoint rounds up to hi or overflows."""
    mid = (float(lo) + float(hi)) / 2.0
    return mid if mid < hi else float(lo)


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
            out.append((total_gini - gini, ref_midpoint(cs[i], cs[i + 1])))
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
            out.append((total_var - left_ss - right_ss, ref_midpoint(cs[i], cs[i + 1])))
    return out


def ref_impurity_gain(tree: DecisionTree, col: np.ndarray, y: np.ndarray):
    best = None
    for gain, threshold in ref_split_gains(tree, col, y):
        if best is None or gain > best[0] + 1e-15:
            best = (gain, threshold)
    return best


def impurity_gain(tree: DecisionTree, col: np.ndarray, y: np.ndarray):
    """`tree._best_splits` on one feature of one node: its best (gain,
    threshold), or None if it has no split point."""
    order = np.argsort(col, kind="stable")
    gains, thresholds = tree._best_splits(col[order][None, :], y[order][None, :], np.array([len(y)]))
    return None if np.isnan(gains[0, 0]) else (float(gains[0, 0]), float(thresholds[0, 0]))


@dataclass
class RefNode:
    """A node of the recursive grower; a node without a left child is a leaf."""

    feature: int = -1
    threshold: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None
    value: np.ndarray | float | None = None  # class counts or mean at leaves


def nested_tree(tree: DecisionTree, node: int = 0) -> RefNode:
    """A fitted tree's flat node and its subtree as nested nodes."""
    left, right = tree.kids_[2 * node], tree.kids_[2 * node + 1]
    if left == node:
        assert right == node and tree.feature_[node] == 0 and tree.threshold_[node] == 0.0
        return RefNode(value=tree.value_[node])
    assert not tree.value_[node].any()
    feature, threshold = int(tree.feature_[node]), float(tree.threshold_[node])
    return RefNode(feature, threshold, nested_tree(tree, left), nested_tree(tree, right))


class RefTree(DecisionTree):
    """The recursive grower: one node at a time, one split search per feature."""

    def _leaf(self, y: np.ndarray) -> RefNode:
        if self.task == "classification":
            counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
            return RefNode(value=counts)
        return RefNode(value=float(y.mean()))

    def _impurity_gain(self, col: np.ndarray, y: np.ndarray):
        order = np.argsort(col, kind="stable")
        cs, ys = col[order], y[order]
        n = len(ys)
        nl = np.arange(1, n)
        nr = n - nl
        split = np.flatnonzero((cs[:-1] != cs[1:]) & (nl >= self.min_leaf) & (nr >= self.min_leaf))
        if split.size == 0:
            return None
        nl, nr = nl[split], nr[split]
        if self.task == "classification":
            k = len(self.classes_)
            onehot = np.zeros((n, k))
            onehot[np.arange(n), ys] = 1.0
            left = np.cumsum(onehot, axis=0)[split]
            total = np.bincount(ys, minlength=k).astype(float)
            right = total - left
            total_gini = 1.0 - np.sum((total / n) ** 2)
            gini = (
                nl / n * (1.0 - np.sum((left / nl[:, None]) ** 2, axis=1))
                + nr / n * (1.0 - np.sum((right / nr[:, None]) ** 2, axis=1))
            )
            gains = total_gini - gini
        else:
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys**2)
            total_var = csum2[-1] - csum[-1] ** 2 / n
            left_ss = csum2[split] - np.float_power(csum[split], 2.0) / nl
            right_ss = (csum2[-1] - csum2[split]) - np.float_power(csum[-1] - csum[split], 2.0) / nr
            gains = total_var - left_ss - right_ss
        best_gain, best_at = None, 0
        for at, gain in enumerate(gains.tolist()):
            if best_gain is None or gain > best_gain + 1e-15:
                best_gain, best_at = gain, at
        i = split[best_at]
        return best_gain, ref_midpoint(cs[i], cs[i + 1])

    def _grow(self, X: np.ndarray, y: np.ndarray) -> None:
        self.root = self._grow_node(X, y, 0)

    def _grow_node(self, X: np.ndarray, y: np.ndarray, depth: int) -> RefNode:
        n = len(y)
        pure = (
            len(set(y.tolist())) == 1
            if self.task == "classification"
            else float(np.var(y)) == 0.0
        )
        if depth >= self.max_depth or n < 2 * self.min_leaf or pure:
            return self._leaf(y)
        best = None
        for j in range(X.shape[1]):
            cand = self._impurity_gain(X[:, j], y)
            if cand is not None and cand[0] > 1e-12 and (best is None or cand[0] > best[0] + 1e-15):
                best = (cand[0], j, cand[1])
        if best is None:
            return self._leaf(y)
        _, j, thr = best
        go_left = X[:, j] <= thr
        node = RefNode(feature=j, threshold=thr)
        node.left = self._grow_node(X[go_left], y[go_left], depth + 1)
        node.right = self._grow_node(X[~go_left], y[~go_left], depth + 1)
        return node


def ref_knn_votes(model: KNNModel, data: np.ndarray):
    """Per-row vote dicts: (labels by most votes then smallest, vote shares)."""
    order = model._neighbor_labels(data)
    labels, probs = [], np.zeros((data.shape[0], len(model.classes_)))
    class_index = {c: i for i, c in enumerate(model.classes_)}
    for r, row in enumerate(order):
        votes: dict[object, int] = {}
        for idx in row:
            votes[model.y[idx]] = votes.get(model.y[idx], 0) + 1
            probs[r, class_index[model.y[idx]]] += 1.0
        labels.append(sorted(votes, key=lambda c: (-votes[c], c))[0])
    return labels, probs / probs.sum(axis=1, keepdims=True)


def ref_silhouette(X: np.ndarray, labels: np.ndarray) -> float:
    """Silhouette over the full n x n x d difference tensor."""
    clusters = sorted(set(labels.tolist()))
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, labels == c].mean() for c in clusters if c != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def ref_exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """Two-tailed Wilcoxon p by enumerating all 2^n sign assignments."""
    n = len(ranks)
    count = 0
    for bits in range(1 << n):
        w_plus = 0.0
        for i in range(n):
            if bits >> i & 1:
                w_plus += ranks[i]
        if w_plus <= w_obs + 1e-9:
            count += 1
    return min(1.0, 2.0 * count / (1 << n))


def ref_tree_leaf(tree: DecisionTree, x: np.ndarray) -> int:
    """The leaf that row x reaches in the flat arrays, one node at a time."""
    node = 0
    while tree.kids_[2 * node] != node:
        node = tree.kids_[2 * node + (0 if x[tree.feature_[node]] <= tree.threshold_[node] else 1)]
    return node


class RefIsoNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, size):
        self.size = size
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None


def ref_grow_iso_tree(X: np.ndarray, depth: int, limit: int, rng: np.random.Generator) -> RefIsoNode:
    """The recursive isolation-tree grower: numpy min/max per node, then the
    feature and threshold draws, then the left and right subtrees."""
    node = RefIsoNode(X.shape[0])
    if depth >= limit or X.shape[0] <= 1:
        return node
    lows, highs = X.min(axis=0), X.max(axis=0)
    usable = np.flatnonzero(highs - lows > 0)
    if usable.size == 0:
        return node
    q = int(usable[rng.integers(usable.size)])
    lo, hi = float(lows[q]), float(highs[q])
    p = float(rng.uniform(lo, hi))
    mask = X[:, q] < p
    node.feature, node.threshold = q, p
    node.left = ref_grow_iso_tree(X[mask], depth + 1, limit, rng)
    node.right = ref_grow_iso_tree(X[~mask], depth + 1, limit, rng)
    return node


def ref_iso_path_length(x: np.ndarray, node) -> float:
    depth = 0
    while node.feature is not None:
        node = node.left if x[node.feature] < node.threshold else node.right
        depth += 1
    return depth + detect._c_factor(node.size)


def ref_iso_depth(node) -> int:
    if node.feature is None:
        return 0
    return 1 + max(ref_iso_depth(node.left), ref_iso_depth(node.right))


def ref_iforest_scores(ds: Dataset, trees: int, subsample: int, seed: int) -> np.ndarray:
    num_cols = ds.numeric_column_indices()
    n = ds.row_count
    X, _, _ = detect._iforest_features(ds, num_cols)
    psi = min(subsample, n)
    if psi <= 1:
        return np.full(n, 0.5)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    rng = derive_rng(seed, "iforest")
    paths = np.zeros(n)
    for _ in range(trees):
        idx = rng.choice(n, size=psi, replace=False)
        root = ref_grow_iso_tree(X[idx], 0, limit, rng)
        for i in range(n):
            paths[i] += ref_iso_path_length(X[i], root)
    return np.power(2.0, -(paths / trees) / detect._c_factor(psi))


def ref_knn_updates(ds: Dataset, mask: DetectionMask, k: int):
    """Per-cell kNN imputation: (updates, repaired cells, unfillable count)."""
    flagged = mask_cells(mask)
    flagged_rows = {ref.row for ref in flagged}
    donors = [r for r in range(ds.row_count) if r not in flagged_rows]
    if not donors:
        raise RepairError("knn repair has no fully-unflagged donor rows")
    num_cols = ds.numeric_column_indices()
    stats = {}
    for c in num_cols:
        values = [
            cell.parsed
            for i, cell in enumerate(ds.cell(r, c) for r in range(ds.row_count))
            if CellRef(i, c) not in flagged and cell.parsed is not None
        ]
        if len(values) >= 2:
            arr = np.asarray(values)
            std = float(arr.std(ddof=1))
            if std > 0:
                stats[c] = (float(arr.mean()), std)

    def z(row, c):
        cell = ds.cell(row, c)
        if CellRef(row, c) in flagged or cell.parsed is None or c not in stats:
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
            parsed = col.parsed
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
        parsed = ds.columns[j].parsed
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
        parsed = ds.columns[j].parsed
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


def ref_softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def ref_logistic_loss_and_grad(W: np.ndarray, Xb: np.ndarray, Y: np.ndarray, l2: float):
    n = Xb.shape[0]
    P = ref_softmax(Xb @ W)
    eps = 1e-12
    loss = -float(np.sum(Y * np.log(P + eps))) / n
    penalty = W.copy()
    penalty[-1, :] = 0.0
    loss += 0.5 * l2 * float(np.sum(penalty**2))
    grad = Xb.T @ (P - Y) / n + l2 * penalty
    return loss, grad


def ref_logistic_fit(X: np.ndarray, y: np.ndarray, lr: float, epochs: int, l2: float):
    """(classes, W) from a per-row one-hot and an epoch loop through the loss."""
    classes = sorted(set(y.tolist()))
    index = {c: i for i, c in enumerate(classes)}
    Y = np.zeros((len(y), len(classes)))
    for i, label in enumerate(y):
        Y[i, index[label]] = 1.0
    return classes, ref_descent(np.hstack([X, np.ones((X.shape[0], 1))]), Y, lr, epochs, l2)


def ref_descent(Xb: np.ndarray, Y: np.ndarray, lr: float, epochs: int, l2: float) -> np.ndarray:
    """W after an epoch loop through the loss from zero, for one design alone."""
    W = np.zeros((Xb.shape[1], Y.shape[1]))
    for _ in range(epochs):
        _, grad = ref_logistic_loss_and_grad(W, Xb, Y, l2)
        W -= lr * grad
    return W


def ref_logistic_predict(classes: list, W: np.ndarray, data: np.ndarray):
    probs = ref_softmax(np.hstack([data, np.ones((data.shape[0], 1))]) @ W)
    return probs, [classes[int(i)] for i in np.argmax(probs, axis=1)]


def ref_stratified_folds(labels, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Each class's shuffled rows dealt to the folds in turn, one row at a time."""
    assignment = np.zeros(len(labels), dtype=int)
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab in sorted(by_class):
        idx = np.array(by_class[lab])
        if len(idx) < folds:
            raise detect.DetectorError(f"class {lab!r} has {len(idx)} members, fewer than {folds} folds")
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            assignment[i] = pos % folds
    return assignment


def ref_detect_mislabels(ds: Dataset, label_column: str, folds: int, base: str, seed: int) -> set:
    """The flagged cells of fold-by-fold cross-fitting: one lone fit per fold
    (the epoch loop for the logit), its probability columns placed by class."""
    labels = ds.column(label_column).raw
    classes = sorted(set(labels))
    X = models.encode(ds, ds, target=label_column)[0].features
    fold_of = ref_stratified_folds(labels, folds, derive_rng(seed, "mislabel-folds"))
    probs = np.zeros((ds.row_count, len(classes)))
    for f in range(folds):
        train, test = fold_of != f, fold_of == f
        if base == "logit":
            p = models.DEFAULT_PARAMS["logit"]
            fold_classes, W = ref_logistic_fit(X[train], labels[train], p["lr"], p["epochs"], p["l2"])
            fold_probs, _ = ref_logistic_predict(fold_classes, W, X[test])
        else:
            model = models.build_model(models.ModelSpec(base, "classification", seed=seed))
            model.fit(X[train], labels[train])
            fold_classes, fold_probs = model.classes_, model.predict_proba(X[test])
        for col, cls in enumerate(fold_classes):
            probs[test, classes.index(cls)] = fold_probs[:, col]
    label_idx = ds.col_index(label_column)
    return {CellRef(r, label_idx) for r in ref_confident_learning_flags(probs, list(labels), classes)}


def ref_confident_learning_flags(probs: np.ndarray, labels: list, classes: list) -> set:
    members = {cls: [i for i, lab in enumerate(labels) if lab == cls] for cls in classes}
    thresholds = {
        cls: float(np.mean(probs[rows, k])) if rows else 1.0 for k, (cls, rows) in enumerate(members.items())
    }
    flagged = set()
    for i, lab in enumerate(labels):
        own = probs[i, classes.index(lab)]
        top = classes[int(np.argmax(probs[i]))]
        if own < thresholds[lab] and top != lab:
            flagged.add(i)
    return flagged


# -- CART split search ---------------------------------------------------------


def make_tree(task: str, min_leaf: int, n_classes: int = 2) -> DecisionTree:
    tree = DecisionTree(task, max_depth=8, min_leaf=min_leaf)
    if task == "classification":
        tree.classes_ = list(range(n_classes))
    return tree


def assert_same_split(tree, col, y):
    got, want = impurity_gain(tree, col, y), ref_impurity_gain(tree, col, y)
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
    values = [tree.value_[ref_tree_leaf(tree, x)] for x in probe]
    if task == "regression":
        assert tree.predict(probe).tolist() == values
    else:
        assert tree.predict(probe).tolist() == [tree.classes_[int(np.argmax(value))] for value in values]
        want = [(value / value.sum()).tolist() for value in values]
        assert tree.predict_proba(probe).tolist() == want


def assert_same_tree(got, want, path="root"):
    """Node by node: the same features, thresholds and leaf values."""
    assert (got.left is None) == (want.left is None), path
    if want.left is None:
        if isinstance(want.value, np.ndarray):
            assert got.value.tolist() == want.value.tolist(), path
        else:
            assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value)), path
        return
    assert got.feature == want.feature and got.threshold == want.threshold, path
    assert_same_tree(got.left, want.left, path + ".left")
    assert_same_tree(got.right, want.right, path + ".right")


def tree_depth(node: RefNode) -> int:
    return 0 if node.left is None else 1 + max(tree_depth(node.left), tree_depth(node.right))


def assert_same_fit(task, X, y, max_depth=8, min_leaf=1):
    got = DecisionTree(task, max_depth=max_depth, min_leaf=min_leaf).fit(X, y)
    want = RefTree(task, max_depth=max_depth, min_leaf=min_leaf).fit(X, y)
    assert_same_tree(nested_tree(got), want.root)
    assert got.depth_ == tree_depth(want.root)
    return got


# Feature values with duplicates; targets whose sums round differently in
# another order or from another start.
TARGETS = [0.1, 0.2, 0.3, -1.5, 1e3, 7.25, 100000000.1]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 60),
    d=st.integers(1, 4),
    n_classes=st.integers(1, 12),
    min_leaf=st.integers(1, 6),
    max_depth=st.integers(1, 8),
    shape=st.sampled_from(["plain", "constant", "duplicated"]),
)
def test_level_grower_matches_recursive_grower(data, n, d, n_classes, min_leaf, max_depth, shape):
    X = np.array(data.draw(st.lists(st.lists(st.integers(0, 7), min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    if shape == "constant":
        X[:, 0] = 3.0
    elif shape == "duplicated" and d > 1:
        X[:, 1] = X[:, 0]
    codes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    targets = data.draw(st.lists(st.sampled_from(TARGETS), min_size=n, max_size=n))
    assert_same_fit("classification", X, np.array(codes, dtype=object), max_depth, min_leaf)
    assert_same_fit("regression", X, np.array(targets), max_depth, min_leaf)


def test_constant_targets_whose_variance_is_not_zero_are_searched():
    X = np.arange(3.0)[:, None]
    # np.var of both is above 0, because their mean rounds off the value; the
    # second one's rounding errors even make a split worth more than 1e-12
    for value in (0.1, 100000000.1):
        assert np.var(np.full(3, value)) > 0.0
        assert_same_fit("regression", X, np.full(3, value))
    assert assert_same_fit("regression", X, np.full(3, 100000000.1)).kids_[0] != 0  # the root splits


def test_targets_spread_below_1e150_with_zero_variance_are_pure():
    X = np.arange(4.0)[:, None]
    y = np.array([1e-200, 3e-200, 1e-200, 3e-200])
    assert np.var(y) == 0.0
    tree = assert_same_fit("regression", X, y)
    assert tree.kids_[0] == 0  # the root is a leaf


@pytest.mark.parametrize(
    "task, y",
    [
        ("classification", [1, 1, 0, 1, 1, 1, 0, 1]),
        ("regression", [0.1, 0.1, 0.2, 0.1, 0.1]),
    ],
)
def test_near_ties_take_the_scan_fallback(task, y, monkeypatch):
    scans = []

    def counting(gains):
        scans.append(gains)
        return first_best(gains)

    first_best = models._first_best
    monkeypatch.setattr(models, "_first_best", counting)
    X = np.arange(len(y), dtype=float)[:, None]
    assert_same_fit(task, X, np.array(y, dtype=object if task == "classification" else float))
    assert scans


@pytest.mark.parametrize("n_classes", [8, 9, 10])
def test_trees_around_the_eight_wide_row_sum(n_classes):
    rng = np.random.default_rng(n_classes)
    X = rng.integers(0, 6, size=(80, 3)).astype(float)
    y = np.array(rng.integers(0, n_classes, size=80), dtype=object)
    for min_leaf in (1, 2, 5):
        assert_same_fit("classification", X, y, min_leaf=min_leaf)


@pytest.mark.parametrize(
    "a, b, beyond",
    [(np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 3.0), (1e308, 1.7e308, np.inf)],
    ids=["midpoint-rounds-up", "sum-overflows"],
)
def test_threshold_that_would_not_split_adjacent_values_takes_the_left_value(a, b, beyond):
    with np.errstate(over="ignore"):
        assert not (a + b) / 2.0 < b  # the midpoint would send b left too
    X = np.array([[a], [b], [a], [b]])
    tree = assert_same_fit("classification", X, np.array(["x", "y", "x", "y"], dtype=object), max_depth=2)
    assert tree.threshold_[0] == a
    assert tree.value_[tree.kids_[:2]].tolist() == [[2.0, 0.0], [0.0, 2.0]]
    tree = assert_same_fit("regression", X, np.array([1.0, 2.0, 1.0, 2.0]), max_depth=2)
    assert tree.threshold_[0] == a
    assert tree.value_[tree.kids_[:2]].tolist() == [1.0, 2.0]
    assert tree.predict(np.array([[a], [b], [beyond]])).tolist() == [1.0, 2.0, 2.0]


def test_tree_fits_on_real_columns_match_recursive_grower():
    from cleanbench.inject import make_synthetic

    ds = make_synthetic("two_class", 250, 3)
    X = np.column_stack([ds.columns[c].parsed for c in ds.numeric_column_indices()])
    labels = np.array(ds.column("label").raw, dtype=object)
    assert_same_fit("classification", X, labels, min_leaf=5)
    for j in range(X.shape[1]):
        assert_same_fit("regression", np.delete(X, j, axis=1), X[:, j].copy(), min_leaf=5)


@pytest.mark.parametrize("labels", [["a", "b"], [(1, "a"), (2, "b")]])
def test_tree_and_knn_predict_object_labels(labels):
    X = np.array([[0.0], [0.5], [5.0], [5.5]])
    y = np.empty(4, dtype=object)
    y[:] = [labels[0], labels[0], labels[1], labels[1]]
    for model in (DecisionTree("classification", max_depth=3, min_leaf=1), KNNModel(k=1)):
        assert model.fit(X, y).predict(X).tolist() == y.tolist()


# -- softmax logit -------------------------------------------------------------

# Moderate logits, magnitudes up to 1e300 (their differences stay finite) and a
# few repeated values, so that rows tie on their max.
LOGITS = st.one_of(
    st.floats(-30, 30),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 700.0, -745.0, 1e300, -1e300]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 10), n=st.integers(1, 12))
def test_softmax_matches_row_reduction(data, k, n):
    Z = np.array(data.draw(st.lists(st.lists(LOGITS, min_size=k, max_size=k), min_size=n, max_size=n)))
    assert np.array_equal(_softmax(Z), ref_softmax(Z))


@pytest.mark.parametrize("k", [7, 8, 9])
def test_softmax_around_the_eight_wide_row_sum(k):
    Z = np.random.default_rng(k).normal(scale=5.0, size=(64, k))
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    sequential = E / functools.reduce(np.add, E.T)[:, None]
    # A left-to-right sum of the columns is numpy's row sum up to 7 columns;
    # from 8 it rounds differently, so this case tells the two apart.
    assert np.array_equal(sequential, ref_softmax(Z)) == (k <= 7)
    assert np.array_equal(_softmax(Z), ref_softmax(Z))


def assert_logit_matches(X, y, lr, epochs, l2):
    model = LogisticModel(lr=lr, epochs=epochs, l2=l2).fit(X, y)
    classes, W = ref_logistic_fit(X, y, lr, epochs, l2)
    assert model.classes_ == classes
    assert np.array_equal(model.W, W)
    probe = np.vstack([X, np.full((1, X.shape[1]), 3.0)])
    probs, labels = ref_logistic_predict(classes, W, probe)
    assert np.array_equal(model.predict_proba(probe), probs)
    got = model.predict(probe)
    assert got.dtype == object and got.shape == (len(probe),) and got.tolist() == labels
    return model


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n_features=st.integers(1, 3),
    n_classes=st.integers(1, 10),
    lr=st.sampled_from([0.1, 0.5]),
    epochs=st.integers(1, 15),
    l2=st.sampled_from([0.0, 1e-3, 0.5]),
)
def test_logit_fit_matches_epoch_loop(data, n_features, n_classes, lr, epochs, l2):
    rows = data.draw(
        st.lists(
            st.tuples(st.lists(st.floats(-5, 5), min_size=n_features, max_size=n_features), st.integers(0, n_classes - 1)),
            min_size=1,
            max_size=30,
        )
    )
    X = np.array([r[0] for r in rows])
    y = np.array([f"c{r[1]}" for r in rows], dtype=object)
    assert_logit_matches(X, y, lr, epochs, l2)


def test_logit_fit_with_l2_matches_epoch_loop():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = np.array(["b", "a", "c", "a"] * 10, dtype=object)
    assert_logit_matches(X, y, lr=0.1, epochs=50, l2=0.01)


def test_logit_with_one_class():
    X = np.arange(10.0).reshape(5, 2)
    y = np.array(["only"] * 5, dtype=object)
    model = assert_logit_matches(X, y, lr=0.1, epochs=20, l2=1e-3)
    assert model.predict(X).tolist() == ["only"] * 5
    assert model.predict_proba(X).tolist() == [[1.0]] * 5


@pytest.mark.parametrize("names", [["low", "mid", "high"], [(1, "low"), (2, "mid"), (3, "high")]])
def test_logit_predicts_object_labels(names):
    X = np.array([[0.0], [0.1], [2.0], [2.1], [4.0], [4.1]])
    y = np.empty(6, dtype=object)
    y[:] = [names[i // 2] for i in range(6)]
    assert assert_logit_matches(X, y, lr=0.5, epochs=200, l2=1e-3).predict(X).tolist() == y.tolist()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(1, 10), n=st.integers(1, 12), l2=st.sampled_from([0.0, 0.3]))
def test_logistic_loss_and_grad_unchanged(data, k, n, l2):
    def matrix(rows, cols):
        return np.array(data.draw(st.lists(st.lists(st.floats(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)))

    d = data.draw(st.integers(1, 3))
    Xb = np.hstack([matrix(n, d), np.ones((n, 1))])
    W = matrix(d + 1, k)
    Y = np.zeros((n, k))
    Y[np.arange(n), data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))] = 1.0
    loss, grad = logistic_loss_and_grad(W, Xb, Y, l2)
    want_loss, want_grad = ref_logistic_loss_and_grad(W, Xb, Y, l2)
    assert loss == want_loss and np.array_equal(grad, want_grad)


def random_design(data, n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """An (Xb, Y) design: n drawn rows of d features plus the ones column,
    and one-hot rows over k classes."""
    X = np.array(data.draw(st.lists(st.lists(st.floats(-5, 5), min_size=d, max_size=d), min_size=n, max_size=n)))
    Y = np.zeros((n, k))
    Y[np.arange(n), data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))] = 1.0
    return np.hstack([X.reshape(n, d), np.ones((n, 1))]), Y


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal floats bit for bit, so that 0.0 and -0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    problems=st.integers(1, 5),
    d=st.integers(1, 3),
    k=st.integers(1, 10),
    lr=st.floats(1e-3, 1.0),
    epochs=st.integers(1, 15),
    l2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_lockstep_descent_matches_lone_epoch_loops(data, problems, d, k, lr, epochs, l2):
    designs = [random_design(data, data.draw(st.integers(1, 30)), d, k) for _ in range(problems)]
    W = _softmax_descent(designs, lr, epochs, l2)
    assert W.shape == (problems, d + 1, k)
    for (Xb, Y), got in zip(designs, W):
        assert same_bits(got, ref_descent(Xb, Y, lr, epochs, l2))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["logit", "dt", "knn"]), problems=st.integers(0, 4))
def test_fit_many_matches_lone_fits(data, kind, problems):
    # Training sets of two widths and varied class sets: logit fits of one
    # weight shape descend together, the others alone.
    params = {"logit": {"epochs": 7}, "dt": {"min_leaf": 1}, "knn": {"k": 3}}[kind]
    spec = models.ModelSpec(kind, "classification", params)
    sets = []
    for _ in range(problems):
        n, d = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 2))
        X = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n * d, max_size=n * d))).reshape(n, d)
        y = np.array(data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)), dtype=object)
        sets.append((X, y))
    fitted = models.fit_many(spec, sets)
    assert len(fitted) == problems
    for model, (X, y) in zip(fitted, sets):
        lone = models.build_model(spec).fit(X, y)
        assert type(model) is type(lone) and model.classes_ == lone.classes_
        assert np.array_equal(model.predict_proba(X), lone.predict_proba(X))
        if kind == "logit":
            classes, W = ref_logistic_fit(X, y, 0.1, 7, 1e-3)
            assert model.classes_ == classes and same_bits(model.W, W)


# -- confident-learning folds ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=40),
    folds=st.integers(1, 6),
    seed=st.integers(0, 3),
)
def test_stratified_folds_match_per_row_loop(labels, folds, seed):
    got_rng, want_rng = derive_rng(seed, "folds"), derive_rng(seed, "folds")
    try:
        want = ref_stratified_folds(labels, folds, want_rng)
    except detect.DetectorError as exc:
        with pytest.raises(detect.DetectorError, match=re.escape(str(exc))):
            detect._stratified_folds(labels, folds, got_rng)
        return
    got = detect._stratified_folds(labels, folds, got_rng)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


FEATURE_TEXT = st.one_of(st.floats(-5, 5).map(repr), st.sampled_from(["", "x", "-0.0", "3", "1e3"]))


@st.composite
def labelled_tables(draw):
    """(table, folds): numeric and categorical features, and a label column
    of 2 to 9 classes with folds to folds + 4 rows each, in drawn order, so
    that folds often differ in size."""
    folds = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(folds, folds + 4), min_size=2, max_size=9))
    labels = draw(st.permutations([f"k{c}" for c, count in enumerate(counts) for _ in range(count)]))
    n = len(labels)
    cols = [(f"x{j}", "numeric", draw(st.lists(FEATURE_TEXT, min_size=n, max_size=n))) for j in range(draw(st.integers(1, 2)))]
    # a one-hot block is never dropped, so the table always encodes
    cols.append(("cat", "categorical", draw(st.lists(st.sampled_from(["p", "q"]), min_size=n, max_size=n))))
    cols.append(("label", "categorical", labels))
    return Dataset.from_columns("t", cols), folds


@settings(max_examples=30, deadline=None)
@given(table=labelled_tables(), base=st.sampled_from(["logit", "dt", "knn"]), seed=st.integers(0, 3))
def test_mislabel_folds_fitted_together_match_fold_by_fold(table, base, seed):
    ds, folds = table
    got = detect.detect_mislabels(ds, "label", folds=folds, base=base, seed=seed)
    assert mask_cells(got) == ref_detect_mislabels(ds, "label", folds, base, seed)


def test_mislabel_folds_of_unequal_size_with_nine_classes():
    # 9 classes of 7 rows in 5 folds: two folds hold 18 rows, three hold 9
    rng = np.random.default_rng(5)
    labels = [f"k{c}" for c in range(9) for _ in range(7)]
    rng.shuffle(labels)
    codes = np.array([int(lab[1:]) for lab in labels])
    x = [repr(float(v)) for v in codes + rng.normal(scale=2.0, size=codes.size)]
    ds = Dataset.from_columns("t", [("x", "numeric", x), ("label", "categorical", labels)])
    fold_sizes = np.bincount(ref_stratified_folds(labels, 5, derive_rng(0, "mislabel-folds")))
    assert sorted(fold_sizes.tolist()) == [9, 9, 9, 18, 18]
    got = detect.detect_mislabels(ds, "label", folds=5, seed=0)
    assert mask_cells(got) == ref_detect_mislabels(ds, "label", 5, "logit", 0) != set()


# -- confident-learning flags --------------------------------------------------


def assert_cl_flags_match(probs, labels, classes):
    got = detect.confident_learning_flags(probs, labels, classes)
    assert got == sorted(ref_confident_learning_flags(probs, labels, classes))
    assert all(type(i) is int for i in got)


def test_cl_flags_with_an_empty_class():
    # nothing is labelled C; row 1 (labelled A) has argmax C and p(A) below t_A
    probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.1, 0.7], [0.1, 0.9, 0.0], [0.6, 0.4, 0.0]])
    labels = ["A", "A", "B", "B"]
    assert_cl_flags_match(probs, labels, ["A", "B", "C"])
    assert detect.confident_learning_flags(probs, labels, ["A", "B", "C"]) == [1, 3]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 5), n=st.integers(0, 30))
def test_cl_flags_match_set_reference(data, k, n):
    classes = [f"k{j}" for j in range(k)]
    used = data.draw(st.integers(1, k))  # classes past `used` have no rows
    labels = data.draw(st.lists(st.sampled_from(classes[:used]), min_size=n, max_size=n))
    prob = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    probs = np.array(data.draw(st.lists(st.lists(prob, min_size=k, max_size=k), min_size=n, max_size=n))).reshape(n, k)
    assert_cl_flags_match(probs, labels, classes)
    assert_cl_flags_match(probs, np.array(labels, dtype=object), classes)


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
    want = [list(row) for row in ds.iter_rows()]
    for (row, col), text in updates.items():
        want[row][col] = text
    assert [list(row) for row in out.data.iter_rows()] == want
    assert mask_cells(out.repaired_cells) == frozenset(repaired)
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


def iso_names(X: np.ndarray) -> list:
    return [f"c{j}" for j in range(X.shape[1])]


def grow_flat_iso_tree(X: np.ndarray, limit: int, rng: np.random.Generator):
    return detect._grow_iso_tree(np.ascontiguousarray(X.T), limit, rng, detect._IsoTables(*X.shape), iso_names(X))


def assert_grows_like_references(X: np.ndarray, limit: int, rng: np.random.Generator):
    """Grow X on copies of rng with the forest's bitset grower, its list
    grower (the flat reference: the generator's own calls over the rows as
    Python lists) and the recursive reference: the same flat arrays bit for
    bit, the same path lengths and the same generator state after. Returns
    the bitset grower's tree."""
    flat_rng, reference = copy.deepcopy(rng), copy.deepcopy(rng)
    tree = grow_flat_iso_tree(X, limit, rng)
    flat = detect._grow_iso_tree_lists(
        np.ascontiguousarray(X.T), limit, flat_rng, detect._IsoTables(*X.shape), iso_names(X)
    )
    root = ref_grow_iso_tree(X, 0, limit, reference)
    for got, want in zip(tree, flat):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == flat_rng.bit_generator.state == reference.bit_generator.state
    got = iso_path_lengths(X, tree, limit)
    assert got.tolist() == [ref_iso_path_length(x, root) for x in X]
    return tree


def iso_path_lengths(X: np.ndarray, tree, limit: int) -> np.ndarray:
    """Each row's path length in a flat isolation tree, walked as the forest does."""
    feature, threshold, kids, h = tree
    return h[models.tree_leaves(np.ascontiguousarray(X.T), feature, threshold, kids, limit, np.less)]


def test_iso_path_lengths_send_threshold_ties_right():
    leaf = RefIsoNode
    root, inner = leaf(6), leaf(4)
    root.feature, root.threshold, root.left, root.right = 0, 1.0, leaf(2), inner
    inner.feature, inner.threshold, inner.left, inner.right = 1, 5.0, leaf(1), leaf(3)
    # The same tree as flat nodes: 0 root, 1 leaf(2), 2 inner, 3 leaf(1), 4 leaf(3).
    c = detect._c_factor
    flat = (
        np.array([0, 0, 1, 0, 0]),
        np.array([1.0, 0.0, 5.0, 0.0, 0.0]),
        np.array([1, 2, 1, 1, 3, 4, 3, 3, 4, 4]),
        np.array([0.0, 1 + c(2), 0.0, 2 + c(1), 2 + c(3)]),
    )
    X = np.array([[0.5, 9.0], [1.0, 5.0], [1.0, 4.0], [2.0, 6.0], [1.0, 5.5]])
    got = iso_path_lengths(X, flat, 2)
    assert got.tolist() == [ref_iso_path_length(x, root) for x in X]
    assert got.tolist() == [1 + c(2), 2 + c(3), 2 + c(1), 2 + c(3), 2 + c(3)]
    # One walk serves both trees: CART's rule sends a tie left, the forest's
    # sends it right, and NaN goes right under both.
    X = np.vstack([X, [[2.0, 5.0], [np.nan, 0.0], [2.0, np.nan]]])
    Xt = np.ascontiguousarray(X.T)
    assert models.tree_leaves(Xt, *flat[:3], 2, np.less).tolist() == [1, 4, 3, 4, 4, 4, 3, 4]
    assert models.tree_leaves(Xt, *flat[:3], 2, np.less_equal).tolist() == [1, 1, 1, 4, 1, 3, 3, 4]


def test_level_walk_of_stacked_trees_matches_each_trees_walk():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3))
    Xt = np.ascontiguousarray(X.T)
    trees = [grow_flat_iso_tree(X[rng.choice(50, size=16, replace=False)], 4, rng) for _ in range(3)]
    feature, threshold, kids, h, roots = detect._stack_trees(trees)
    got = models.tree_leaves(Xt, feature, threshold, kids, 4, np.less, roots)
    for tree, root, leaves in zip(trees, roots, got):
        want = models.tree_leaves(Xt, *tree[:3], 4, np.less)
        assert (leaves - root).tolist() == want.tolist()
        assert h[leaves].tolist() == tree[3][want].tolist()


def test_iforest_scores_with_a_constant_column():
    rng = np.random.default_rng(5)
    ds = Dataset.from_columns(
        "t",
        [
            ("a", "numeric", [repr(float(v)) for v in rng.normal(size=80)]),
            ("k", "numeric", ["3"] * 80),
            ("b", "numeric", [str(int(v)) for v in rng.integers(0, 4, 80)]),
        ],
    )
    got = detect.iforest_scores(ds, trees=20, subsample=32, seed=1)
    assert got.tolist() == ref_iforest_scores(ds, 20, 32, 1).tolist()


# Signed zeros, ties, tiny and huge magnitudes and blanks (filled with the median).
ISO_TEXT = st.sampled_from(["0", "-0.0", "0.0", "1", "1.5", "-2", "", "9", "5e-324", "1e300"])


@st.composite
def iforest_tables(draw):
    n = draw(st.integers(1, 30))
    cols = draw(st.lists(st.lists(ISO_TEXT, min_size=n, max_size=n), min_size=1, max_size=3))
    for extra in draw(st.lists(st.sampled_from(["constant", "duplicate"]), max_size=2)):
        cols.append([draw(ISO_TEXT)] * n if extra == "constant" else list(draw(st.sampled_from(cols))))
    return Dataset.from_columns("t", [(f"c{j}", "numeric", c) for j, c in enumerate(cols)])


@settings(max_examples=150, deadline=None)
@given(ds=iforest_tables(), trees=st.integers(1, 12), subsample=st.integers(1, 40), seed=st.integers(0, 3))
def test_iforest_scores_match_per_row_walk(ds, trees, subsample, seed):
    got = detect.iforest_scores(ds, trees=trees, subsample=subsample, seed=seed)
    assert got.tolist() == ref_iforest_scores(ds, trees, subsample, seed).tolist()


def test_iforest_scores_match_per_row_walk_at_the_depth_limit():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(600, 3))
    values[:40, 2] = values[:40, 0]  # duplicate values in two columns
    values[40:80] = values[80:120]  # duplicate rows
    ds = Dataset.from_columns("t", [(f"c{j}", "numeric", [repr(float(v)) for v in values[:, j]]) for j in range(3)])
    X, _, _ = detect._iforest_features(ds, [0, 1, 2])
    grown = derive_rng(0, "iforest")
    sample = X[grown.choice(600, size=256, replace=False)]
    reference = copy.deepcopy(grown)
    tree = assert_grows_like_references(sample, 8, grown)
    root = ref_grow_iso_tree(sample, 0, 8, reference)
    assert ref_iso_depth(root) == 8
    got = iso_path_lengths(X, tree, 8)
    assert got.tolist() == [ref_iso_path_length(x, root) for x in X]
    for seed in (0, 1, 7):
        got = detect.iforest_scores(ds, trees=4, subsample=256, seed=seed)
        assert got.tolist() == ref_iforest_scores(ds, 4, 256, seed).tolist()


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 2.5000000000000004, 1e300]), min_size=3, max_size=3),
        min_size=2,
        max_size=40,
    ),
    limit=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_iso_tree_growth_makes_the_recursive_growers_draws(rows, limit, seed):
    assert_grows_like_references(np.array(rows), limit, np.random.default_rng(seed))


# PCG64's LCG multiplier: the state steps to state * multiplier + increment
# (mod 2**128), and a raw output is a function of the stepped state that
# maps 0 to 0.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generator_whose_next_word_is_zero(inc: int = 2 * 12345 + 1) -> np.random.Generator:
    state = -inc * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def test_iso_tree_replays_a_lemire_rejection():
    rng = generator_whose_next_word_is_zero()
    assert copy.deepcopy(rng).bit_generator.random_raw(2)[0] == 0
    # integers(3) rejects both zero halves of that word (Lemire's threshold
    # is 2**32 % 3 == 1) and takes the low half of the next one.
    probe, skipped = copy.deepcopy(rng), copy.deepcopy(rng)
    probe.integers(3)
    skipped.bit_generator.advance(2)
    assert probe.bit_generator.state["state"] == skipped.bit_generator.state["state"]
    assert probe.bit_generator.state["has_uint32"] == 1
    # The root of a three-column sample draws integers(3) first.
    X = np.random.default_rng(4).normal(size=(40, 3))
    tree = assert_grows_like_references(X, 6, rng)
    assert len(tree[0]) > 1


def test_iso_tree_starts_on_a_buffered_half_word():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 3))[rng.choice(100, size=50, replace=False)]
    assert rng.bit_generator.state["has_uint32"] == 1
    assert_grows_like_references(X, 6, rng)


def test_iso_tree_nodes_with_one_usable_column_draw_no_integer():
    rng = np.random.default_rng(2)
    rng.integers(5)  # leave a half-word buffered, which no split may take
    start = rng.bit_generator.state
    X = rng.normal(size=(30, 1))
    after_sample = copy.deepcopy(rng)
    tree = assert_grows_like_references(X, 5, rng)
    # Every split took one whole word for its threshold and nothing else.
    splits = int((tree[2][::2] != np.arange(len(tree[0]))).sum())
    after_sample.bit_generator.advance(splits)
    state = after_sample.bit_generator.state
    state["has_uint32"], state["uinteger"] = start["has_uint32"], start["uinteger"]
    assert rng.bit_generator.state == state
    # Below the root each half holds one value of column 0, so only column 1
    # is usable there.
    X = np.column_stack([np.repeat([0.0, 1.0], 20), np.random.default_rng(3).normal(size=40)])
    for seed in range(5):
        assert_grows_like_references(X, 6, np.random.default_rng(seed))


def test_iso_tree_draw_block_that_runs_out(monkeypatch):
    X = np.random.default_rng(6).normal(size=(300, 3))
    for block in (1, 3):
        monkeypatch.setattr(detect, "_DRAW_BLOCK", block)
        assert_grows_like_references(X, 9, np.random.default_rng(block))


@pytest.mark.parametrize("psi", [63, 64, 65, 300])
def test_iso_tree_bitsets_across_word_boundaries(psi):
    rng = np.random.default_rng(psi)
    X = rng.normal(size=(psi, 3))
    X[: psi // 4, 1] = X[psi // 4 : 2 * (psi // 4), 1]  # ties in one column
    assert_grows_like_references(X, math.ceil(math.log2(psi)), rng)


def test_iso_tree_signed_zeros_and_ties():
    rng = np.random.default_rng(8)
    X = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, 2.0], size=(64, 3))
    for seed in range(10):
        assert_grows_like_references(X, 6, np.random.default_rng(seed))
    # Adjacent floats: a threshold drawn in the lower half of the gap rounds
    # to the column's least value, and the split sends every row right.
    X = np.column_stack([np.repeat([0.0, -0.0], 8), np.tile([1.0, 1.0000000000000002], 8)])
    for seed in range(10):
        assert_grows_like_references(X, 4, np.random.default_rng(seed))


def test_iso_tree_range_that_overflows_raises_the_same_error():
    X = np.array([[1e308, 0.0], [-1e308, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(detect.DetectorError) as want:
        detect._grow_iso_tree_lists(X.T.copy(), 2, np.random.default_rng(0), detect._IsoTables(4, 2), iso_names(X))
    with pytest.raises(detect.DetectorError, match=re.escape(str(want.value))):
        grow_flat_iso_tree(X, 2, np.random.default_rng(0))
    assert "column 'c0'" in str(want.value) and "overflows" in str(want.value)


@pytest.mark.parametrize("bits", [0, 64])
def test_iforest_scores_of_samples_too_wide_for_bitsets(monkeypatch, bits):
    # Samples wider than `_BITSET_BITS` grow on lists; at 64 bits the
    # 40-row samples do and the 20-row ones of two columns do not.
    rng = np.random.default_rng(12)
    ds = Dataset.from_columns("t", [(f"c{j}", "numeric", [repr(float(v)) for v in rng.normal(size=60)]) for j in range(2)])
    monkeypatch.setattr(detect, "_BITSET_BITS", bits)
    for subsample in (20, 40):
        got = detect.iforest_scores(ds, trees=7, subsample=subsample, seed=3)
        assert got.tolist() == ref_iforest_scores(ds, 7, subsample, 3).tolist()


# -- numeric mode --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 7.0]), min_size=1, max_size=30))
def test_mode_keeps_smallest_most_frequent_value(values):
    got = _numeric_stat(np.array(values), "mode")
    assert repr(got) == repr(ref_numeric_mode(values))


# -- column parsing --------------------------------------------------------------

# Null tokens, non-finite spellings, signed zero, padding, overflow to inf,
# digit separators and other text Python's float() may or may not take.
PARSE_TEXT = st.one_of(
    st.sampled_from(
        ["", "NA", "N/A", "NaN", "nan", "null", "NULL", "?", "inf", "-inf", "Infinity", "-nan", "-0.0", "0",
         " 3", "3 ", "1e309", "-1e309", "1_000", "1__0", "_1", "x", "1.5", "5e-324", "1e-400"]
    ),
    st.floats().map(repr),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(PARSE_TEXT, max_size=20), null_tokens=st.sampled_from([DEFAULT_NULL_TOKENS, frozenset({"x", "-0.0"})]))
def test_parse_texts_match_make_cell_loop(texts, null_tokens):
    raw, parsed, empty = _parse_texts(texts, null_tokens)
    cells = [make_cell(text, null_tokens) for text in texts]
    want = np.array([math.nan if c.parsed is None else c.parsed for c in cells], dtype=float)
    assert raw.dtype == object and raw.shape == (len(texts),) and raw.tolist() == [c.raw for c in cells]
    assert parsed.dtype == np.float64 and np.array_equal(parsed, want, equal_nan=True)
    assert np.signbit(parsed).tolist() == np.signbit(want).tolist()
    assert empty.dtype == bool and empty.tolist() == [c.is_empty for c in cells]


def test_parse_texts_of_edge_spellings():
    texts = ["NA", "inf", "-inf", "nan", "-0.0", " 3", "1e309", "1_000", "x"]
    raw, parsed, empty = _parse_texts(texts, DEFAULT_NULL_TOKENS)
    assert raw.tolist() == texts
    assert empty.tolist() == [True, False, False, True, False, False, False, False, False]
    assert np.isnan(parsed).tolist() == [True, True, True, True, False, False, True, False, True]
    assert parsed[[4, 5, 7]].tolist() == [0.0, 3.0, 1000.0] and np.signbit(parsed[4])


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
    assert mask_cells(detect.detect_missing(ds)) == ref_detect_missing(ds)
    assert mask_cells(detect.detect_disguised(ds)) == ref_detect_disguised(ds)
    assert mask_cells(detect.detect_outliers_sd(ds, n=n)) == ref_detect_sd(ds, n)
    assert mask_cells(detect.detect_outliers_iqr(ds, k=k)) == ref_detect_iqr(ds, k)


@settings(max_examples=80, deadline=None)
@given(
    ds=detector_datasets(min_numeric=1),
    contamination=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 3),
)
def test_iforest_cell_selection_matches_per_cell_loop(ds, contamination, seed):
    got = detect.detect_outliers_iforest(ds, trees=3, subsample=8, seed=seed, contamination=contamination)
    assert mask_cells(got) == ref_iforest_cells(ds, 3, 8, seed, contamination)


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


def ref_aligned_gt_row(row: int, gt: Dataset, row_map: list[int] | None, provenance: dict[int, int] | None):
    """Resolve a repaired-dataset row to its ground-truth row, or None."""
    dirty_row = row_map[row] if row_map is not None else row
    if dirty_row < gt.row_count:
        return dirty_row
    if provenance and dirty_row in provenance:
        return provenance[dirty_row]
    return None


def ref_repair_categorical(repaired, gt, truth: set, repaired_cells: set, row_map, provenance=None) -> RepairScore:
    cat_cols = set(gt.categorical_column_indices())
    dirty_to_repaired = {dirty_row: rep_row for rep_row, dirty_row in enumerate(row_map)}
    repaired_cat = {ref for ref in repaired_cells if ref[1] in cat_cols}
    truth_cat = {ref for ref in truth if ref[1] in cat_cols}
    correct = 0
    for row, col in repaired_cat & truth_cat:
        rep_row = dirty_to_repaired.get(row)
        gt_row = None if rep_row is None else ref_aligned_gt_row(rep_row, gt, row_map, provenance)
        if gt_row is not None and repaired.raw(rep_row, col) == gt.raw(gt_row, col):
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
    assert len(a_mask) == len(a_cells) and mask_cells(a_mask) == a_cells
    assert a_mask.sorted_cells() == sorted(a_cells)
    assert all(ref in a_mask for ref in a_cells) and (8, 0) not in a_mask and (0, 5) not in a_mask
    score = detection_metrics(a_mask, t_mask)
    assert (score.tp, score.fp, score.fn) == ref_detection_counts(a_cells, t_cells)
    assert iou(a_mask, b_mask, t_mask) == ref_iou(a_cells, b_cells, t_cells)
    assert mask_cells(union_masks([a_mask, b_mask, t_mask])) == a_cells | b_cells | t_cells
    assert mask_cells(union_masks([])) == frozenset()


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(masks(), min_size=1, max_size=4), data=st.data())
def test_min_k_matches_counting(runs, data):
    k = data.draw(st.integers(1, len(runs)))
    got = detect.ensemble_min_k([m for _, m in runs], k)
    assert mask_cells(got) == ref_min_k([cells for cells, _ in runs], k)


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
    assert mask_cells(got.mask) == cells and got.rounds == rounds


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
        assert mask_cells(load_mask(path)) == {CellRef(r, c) for r, c in cells}


def test_negative_mask_coordinates_are_rejected(tmp_path):
    path = tmp_path / "m.mask"
    path.write_text("0,0,sd\n-1,2,sd\n")
    with pytest.raises(CsvFormatError, match=":2: negative"):
        load_mask(path)
    with pytest.raises(TabularError):
        mask_from([(0, -1)])


def test_mask_matrices_are_read_only():
    ds = Dataset.from_columns("t", [("a", "numeric", ["1", "", "3"])])
    dirty = ds.replace_cells({0: ([0], ["2"])})
    produced = [mask_from([(1, 0)]), detect.detect_missing(ds), diff_cells(ds, dirty), union_masks([])]
    for mask in produced:
        with pytest.raises(ValueError):
            mask.flagged[...] = True
        assert mask.matrix(mask.flagged.shape) is mask.flagged


# -- row selection and repair alignment by origin ------------------------------


def ref_rows_on_side(version: RepairedDataset, pair: DatasetPair, side: set[int]) -> list[int]:
    """Version rows whose ground-truth origin (a duplicate's via provenance) is in `side`."""
    gt_rows = pair.ground_truth.row_count
    provenance = pair.row_provenance or {}
    return [i for i, row in enumerate(version.row_map) if (row if row < gt_rows else provenance[row]) in side]


def ref_scenario_data(scenario, version, pair, train_idx, test_idx):
    gt = pair.ground_truth
    dirty_version = RepairedDataset(pair.dirty, mask_from([]), list(range(pair.dirty.row_count)))
    if scenario == "S4":
        return gt.take_rows(train_idx.tolist()), gt.take_rows(test_idx.tolist())
    train_set, test_set = set(train_idx.tolist()), set(test_idx.tolist())

    def side(of, rows):
        return of.data.take_rows(ref_rows_on_side(of, pair, rows))

    if scenario == "S1":
        return side(version, train_set), side(version, test_set)
    if scenario == "S2":
        return side(version, train_set), gt.take_rows(test_idx.tolist())
    if scenario == "S3":
        return gt.take_rows(train_idx.tolist()), side(version, test_set)
    return side(version, train_set), side(dirty_version, test_set)


def ref_repair_numeric(repaired, gt, truth: set, row_map, provenance) -> RepairScore:
    numeric_cols = set(gt.numeric_column_indices())
    dirty_to_repaired = {dirty_row: rep_row for rep_row, dirty_row in enumerate(row_map)}
    residuals, excluded = [], 0
    for row, col in sorted(truth):
        if col not in numeric_cols:
            continue
        rep_row = dirty_to_repaired.get(row)
        gt_row = None if rep_row is None else ref_aligned_gt_row(rep_row, gt, row_map, provenance)
        if gt_row is None or repaired.cell(rep_row, col).parsed is None or gt.cell(gt_row, col).parsed is None:
            excluded += 1
            continue
        residuals.append((repaired.cell(rep_row, col).parsed - gt.cell(gt_row, col).parsed) / _gt_column_scale(gt, col)[1])
    if not residuals:
        return RepairScore(compared_cell_count=0, excluded_unparsable=excluded)
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    return RepairScore(numeric_rmse=rmse, compared_cell_count=len(residuals), excluded_unparsable=excluded)


@st.composite
def pairs_with_versions(draw):
    """(pair, version): a ground truth of up to 8 rows, a dirty
    copy with up to 3 appended duplicates (some may lack provenance), and a
    version that keeps a subset of the dirty rows, as `delete` does. Every
    row's `id` text is unique, so a selection shows in its texts."""
    n = draw(st.integers(1, 8))
    texts = st.sampled_from(["1", "2.5", "-0.0", "a", ""])
    x = draw(st.lists(texts, min_size=n, max_size=n))
    c = draw(st.lists(st.sampled_from(["a", "b", ""]), min_size=n, max_size=n))
    gt = Dataset.from_columns(
        "gt", [("id", "categorical", [f"g{r}" for r in range(n)]), ("x", "numeric", x), ("c", "categorical", c)]
    )
    sources = draw(st.lists(st.integers(0, n - 1), max_size=3))
    dirty_x = draw(st.lists(texts, min_size=n + len(sources), max_size=n + len(sources)))
    dirty_c = c + [c[src] for src in sources]
    dirty = Dataset.from_columns(
        "dirty",
        [("id", "categorical", [f"d{r}" for r in range(n + len(sources))]), ("x", "numeric", dirty_x),
         ("c", "categorical", dirty_c)],
    )
    provenance = {n + i: src for i, src in enumerate(sources)}
    if provenance and draw(st.booleans()):
        del provenance[draw(st.sampled_from(sorted(provenance)))]
    pair = DatasetPair(gt, dirty, mask_from([]), provenance if sources else None)
    kept = sorted(draw(st.sets(st.integers(0, dirty.row_count - 1))))
    row_map = kept if draw(st.booleans()) else list(range(dirty.row_count))
    version = RepairedDataset(dirty.take_rows(row_map), mask_from([]), row_map)
    return pair, version


@settings(max_examples=300, deadline=None)
@given(data=pairs_with_versions(), sides=st.data())
def test_row_selection_by_origin_matches_provenance_lookups(data, sides):
    pair, version = data
    n = pair.ground_truth.row_count
    train = np.array(sorted(sides.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
    test = np.setdiff1d(np.array(sorted(sides.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp), train)
    for scenario in bench.SCENARIOS:
        try:
            want = ref_scenario_data(scenario, version, pair, train, test)
        except KeyError as exc:
            with pytest.raises(KeyError) as got:
                bench._scenario_data(scenario, version, pair, train, test)
            assert got.value.args == exc.args
            continue
        got = bench._scenario_data(scenario, version, pair, train, test)
        assert [list(ds.iter_rows()) for ds in got] == [list(ds.iter_rows()) for ds in want]


@settings(max_examples=300, deadline=None)
@given(data=pairs_with_versions(), truth=masks(), repaired=masks(), with_origin=st.booleans())
def test_repair_metrics_by_origin_match_provenance_lookups(data, truth, repaired, with_origin):
    pair, version = data
    gt, row_map = pair.ground_truth, version.row_map
    origin, provenance = (pair.origin, pair.row_provenance) if with_origin else (None, None)
    got = repair_metrics_numeric(version.data, gt, truth[1], row_map, origin)
    assert got == ref_repair_numeric(version.data, gt, truth[0], row_map, provenance)
    got = repair_metrics_categorical(version.data, gt, truth[1], repaired[1], row_map, origin)
    assert got == ref_repair_categorical(version.data, gt, truth[0], repaired[0], row_map, provenance)


# -- kNN votes, silhouette and the Wilcoxon exact p -----------------------------


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 25),
    k=st.integers(1, 7),
    n_classes=st.integers(1, 5),
)
def test_knn_votes_match_vote_dicts(data, n, k, n_classes):
    X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)[:, None]
    y = np.array([f"c{v}" for v in data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))], dtype=object)
    probe = np.array([[-1.0], [0.0], [1.5], [3.0], [9.0]])
    model = KNNModel(k=k).fit(X, y)
    labels, probs = ref_knn_votes(model, probe)
    assert model.predict(probe).tolist() == labels
    assert model.predict_proba(probe).tolist() == probs.tolist()


def ref_k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest columns by a full stable argsort of its distances."""
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


# few distinct values, so that most rows tie at their k-th distance
KNN_DISTANCES = [0.0, -0.0, 0.5, 1.0, 1.0, 2.0, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 12))
def test_k_nearest_matches_full_argsort(data, m, n):
    k = data.draw(st.integers(1, n))
    dist = np.array(data.draw(st.lists(st.sampled_from(KNN_DISTANCES), min_size=m * n, max_size=m * n))).reshape(m, n)
    before = dist.copy()
    got = models.k_nearest(dist, k)
    assert got.dtype == np.intp and got.shape == (m, k)
    assert (got == ref_k_nearest(dist, k)).all()
    assert np.array_equal(dist, before, equal_nan=True)  # the distances are left as they are


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), m=st.integers(1, 5), k=st.integers(1, 25))
def test_knn_neighbours_match_full_argsort(data, n, m, k):
    # integer coordinates tie often; +-inf and 1e200 give inf and NaN distances
    values = st.sampled_from([0.0, 1.0, 2.0, -1.0, 1e200, np.inf, -np.inf])
    X = np.array(data.draw(st.lists(values, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    probe = np.array(data.draw(st.lists(values, min_size=2 * m, max_size=2 * m))).reshape(m, 2)
    model = KNNModel(k=k).fit(X, np.array(["a"] * n, dtype=object))
    with np.errstate(all="ignore"):
        got = model._neighbor_labels(probe)
        dist = models._pairwise_distances(probe, X)
    assert (got == ref_k_nearest(dist, min(k, n))).all()


def test_k_nearest_edge_cases():
    dist = np.array([[3.0, 1.0, 1.0, 0.0, 1.0]])  # one row; three columns tie at the 2nd distance
    assert models.k_nearest(dist, 2).tolist() == [[3, 1]]
    assert models.k_nearest(dist, 5).tolist() == ref_k_nearest(dist, 5).tolist() == [[3, 1, 2, 4, 0]]
    assert models.k_nearest(np.array([[np.nan, 1.0, np.inf]]), 2).tolist() == [[1, 2]]
    assert models.k_nearest(np.zeros((3, 0)), 0).shape == (3, 0)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 30),
    d=st.integers(1, 12),
    n_clusters=st.integers(2, 4),
)
def test_silhouette_matches_difference_tensor(data, n, d, n_clusters):
    X = np.array(
        data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d), min_size=n, max_size=n))
    )
    labels = np.array(data.draw(st.lists(st.integers(0, n_clusters - 1), min_size=n, max_size=n)))
    if len(set(labels.tolist())) < 2:
        labels[0], labels[1] = 0, 1
    assert silhouette(X, labels) == ref_silhouette(X, labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=14), st.data())
def test_exact_p_count_matches_enumeration(magnitudes, data):
    # small integer magnitudes tie often, so many ranks are averages
    ranks = _average_ranks(np.array(magnitudes, dtype=float))
    positive = np.array(data.draw(st.lists(st.booleans(), min_size=len(ranks), max_size=len(ranks))))
    w_plus = float(ranks[positive].sum())
    w = min(w_plus, float(ranks[~positive].sum()))
    assert _exact_p(ranks, w) == ref_exact_p(ranks, w)


def test_exact_p_for_forty_pairs_is_fast():
    rng = np.random.default_rng(40)
    diffs = np.round(rng.standard_normal(40), 1)
    diffs[diffs == 0.0] = 0.05
    start = time.perf_counter()
    result = wilcoxon_signed_rank(PairedSample([(float(v), 0.0) for v in diffs]), mode="exact")
    assert time.perf_counter() - start < 1.0
    assert result.mode == "exact" and result.n_effective == 40 and 0.0 < result.p_value <= 1.0


# -- macro F1 --------------------------------------------------------------------


def ref_f1_macro(predictions, truth) -> tuple[float, dict[str, float]]:
    """Three counting passes per truth class, comparing labels with `==`."""
    truth, predictions = list(truth), list(predictions)
    per_class = {}
    for cls in sorted(set(truth)):
        tp = sum(1 for p, t in zip(predictions, truth) if p == cls and t == cls)
        fp = sum(1 for p, t in zip(predictions, truth) if p == cls and t != cls)
        fn = sum(1 for p, t in zip(predictions, truth) if p != cls and t == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[str(cls)] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return float(np.mean(list(per_class.values()))), per_class


def assert_f1_macro_matches(predictions, truth):
    value, per_class = f1_macro(predictions, truth)
    ref_value, ref_per_class = ref_f1_macro(predictions, truth)
    assert value == ref_value and per_class == ref_per_class
    assert type(value) is float and all(type(f) is float for f in per_class.values())


# sorted() orders the truth classes, so one draw's labels are all strings or all tuples
F1_LABELS = [["a", "b", "c", "10", "9", "zzz"], [("a", 1), ("a", 2), ("b", 1), ("a",), ("q", 0, 1)]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(F1_LABELS), st.data())
def test_f1_macro_matches_per_class_loops(labels, data):
    truth_pool = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    # predictions may name classes absent from the truth
    pred_pool = truth_pool + data.draw(st.lists(st.sampled_from(labels), max_size=3))
    n = data.draw(st.integers(1, 40))
    truth = data.draw(st.lists(st.sampled_from(truth_pool), min_size=n, max_size=n))
    predictions = data.draw(st.lists(st.sampled_from(pred_pool), min_size=n, max_size=n))
    assert_f1_macro_matches(predictions, truth)
    assert_f1_macro_matches(models._label_array(predictions), models._label_array(truth))


def test_f1_macro_edge_cases():
    tuples = [("a", 1), ("a", 2), ("a", 1), ("b", 1)]
    assert_f1_macro_matches(tuples[::-1], tuples)
    assert set(f1_macro(tuples[::-1], tuples)[1]) == {"('a', 1)", "('a', 2)", "('b', 1)"}
    assert_f1_macro_matches(["x", "y", "z", "x"], ["x", "x", "x", "x"])  # absent classes; one-class truth
    assert_f1_macro_matches(["y", "y"], ["x", "x"])  # nothing right
    assert_f1_macro_matches(["x"], ["x"])
    with pytest.raises(Exception, match="length mismatch"):
        f1_macro(["x"], ["x", "y"])


@pytest.mark.parametrize("kind", ["logit", "dt", "knn"])
def test_f1_macro_on_a_grid_cells_object_arrays(kind):
    # what a grid cell scores: predictions from `models.predict`, truth from the encoded test target
    from cleanbench.inject import make_synthetic

    ds = make_synthetic("two_class", 120, 3)
    train, test = models.encode(ds.take_rows(list(range(80))), ds.take_rows(list(range(80, 120))), target="label")
    (fitted,) = models.fit(models.ModelSpec(kind, "classification"), [train])
    predictions = models.predict(fitted, test)
    assert predictions.dtype == object and test.target.dtype == object
    assert_f1_macro_matches(predictions, test.target)
    assert_f1_macro_matches(np.full(test.target.shape, "9", dtype=object), test.target)
