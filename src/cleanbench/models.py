"""From-scratch predictive models and the train/test feature encoder.

Encoders fit on training rows only: numeric columns are z-scored with the
train mean and sample std, categorical columns are one-hot over the top train
categories, and unseen test categories map to an all-zero block. Every model
is deterministic for a fixed (data, spec, seed).
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .seeding import derive_rng
from .tabular import Dataset

MAX_ONE_HOT = 20

TASKS = ("classification", "regression", "clustering")


class ModelError(Exception):
    pass


# -- encoding ----------------------------------------------------------------


@dataclass
class EncoderState:
    numeric: list[tuple[str, float, float]]            # (column, train mean, train sample std)
    categorical: list[tuple[str, list[str], set[str]]]  # (column, kept categories, bucketed-to-other)
    dropped: list[str]
    target_column: str | None
    target_kind: str | None  # "numeric" | "categorical"
    target_mean: float = 0.0


@dataclass
class EncodedMatrix:
    features: np.ndarray
    target: np.ndarray | None
    feature_names: list[str]
    state: EncoderState


def sample_mean(values: np.ndarray) -> float:
    """values.mean() of finite values; where their sum overflows (to inf, or
    to NaN where partial sums reach both infinities), the exactly rounded sum
    (`math.fsum`) of the values over their largest magnitude, divided by
    their count and scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
    if not math.isfinite(mean):
        scale = float(np.abs(values).max())
        mean = math.fsum((values / scale).tolist()) / values.size * scale
    return mean


def sample_std(values: np.ndarray) -> float:
    """values.std(ddof=1) of finite values; where its squares overflow, that
    of the values over their largest magnitude, times that magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(values.std(ddof=1))
    if not math.isfinite(std):
        scale = float(np.abs(values).max())
        std = float((values / scale).std(ddof=1)) * scale
    return std


def _fit_encoder(train: Dataset, target: str | None) -> EncoderState:
    numeric, categorical, dropped = [], [], []
    for col in train.columns:
        if target is not None and col.name == target:
            continue
        if col.is_numeric:
            parsed = col.parsed
            finite = parsed[~np.isnan(parsed)]
            if finite.size < 2:
                dropped.append(col.name)
                continue
            mean = sample_mean(finite)
            std = sample_std(finite)
            if std == 0.0 or not np.isfinite(std):
                dropped.append(col.name)
                continue
            numeric.append((col.name, mean, std))
        else:
            counts = Counter(col.raw)
            ranked = sorted(counts, key=lambda cat: (-counts[cat], cat))
            kept = sorted(ranked[:MAX_ONE_HOT])
            other = set(ranked[MAX_ONE_HOT:])
            categorical.append((col.name, kept, other))

    target_kind = None
    target_mean = 0.0
    if target is not None:
        tcol = train.column(target)
        target_kind = "numeric" if tcol.is_numeric else "categorical"
        if target_kind == "numeric":
            parsed = tcol.parsed
            finite = parsed[~np.isnan(parsed)]
            target_mean = sample_mean(finite) if finite.size else 0.0
    return EncoderState(numeric, categorical, dropped, target, target_kind, target_mean)


def _transform(ds: Dataset, state: EncoderState) -> EncodedMatrix:
    blocks: list[np.ndarray] = []
    names: list[str] = []
    n = ds.row_count
    for col_name, mean, std in state.numeric:
        parsed = ds.column(col_name).parsed.copy()
        parsed[np.isnan(parsed)] = mean  # unparsable and empty cells take the train mean
        blocks.append(((parsed - mean) / std).reshape(-1, 1))
        names.append(col_name)
    for col_name, kept, other in state.categorical:
        index = {cat: i for i, cat in enumerate(kept)}
        width = len(kept) + (1 if other else 0)
        block = np.zeros((n, width))
        raws = ds.column(col_name).raw
        for r, raw in enumerate(raws):
            if raw in index:
                block[r, index[raw]] = 1.0
            elif raw in other:
                block[r, len(kept)] = 1.0
            # unseen categories stay an all-zero block
        blocks.append(block)
        names.extend(f"{col_name}={cat}" for cat in kept)
        if other:
            names.append(f"{col_name}=<other>")
    if not blocks:
        raise ModelError("all feature columns were dropped during encoding")
    features = np.hstack(blocks)

    target = None
    if state.target_column is not None:
        tcol = ds.column(state.target_column)
        if state.target_kind == "numeric":
            target = tcol.parsed.copy()
            target[np.isnan(target)] = state.target_mean
        else:
            target = np.array(tcol.raw, dtype=object)
    return EncodedMatrix(features, target, names, state)


def encode(
    train: Dataset, test: Dataset, target: str | None = None
) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Fit the encoder on `train` and transform both sides with its state."""
    if train.row_count == 0:
        raise ModelError("cannot encode an empty training set")
    state = _fit_encoder(train, target)
    return _transform(train, state), _transform(test, state)


# -- k-nearest neighbours ----------------------------------------------------


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.sqrt(np.maximum(d2, 0.0))


def k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's k smallest distances in (distance, column)
    order: `np.argsort(dist, axis=1, kind="stable")[:, :k]`.

    `np.partition` finds each row's k-th smallest distance; the columns at or
    below it (k of them, or more on a tie) are the candidates, and one stable
    sort of them by (row, distance) keeps ties in column order. A row with a
    NaN distance, which the partition cannot rank, takes the full argsort.
    """
    order = np.empty((dist.shape[0], k), dtype=np.intp)
    if k == 0:
        return order
    has_nan = np.isnan(dist).any(axis=1)
    if has_nan.any():
        order[has_nan] = np.argsort(dist[has_nan], axis=1, kind="stable")[:, :k]
        dist = dist[~has_nan]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(dist <= kth)
    by_distance = cols[np.lexsort((dist[rows, cols], rows))]
    counts = np.bincount(rows, minlength=dist.shape[0])
    order[~has_nan] = by_distance[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return order


class KNNModel:
    def __init__(self, k: int = 5, task: str = "classification"):
        if k < 1:
            raise ModelError("knn requires k >= 1")
        self.k = k
        self.task = task

    def fit(self, X: np.ndarray, y: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.n_features_ = self.X.shape[1]
        self.y = y
        if self.task == "classification":
            self.classes_ = sorted(set(y.tolist()))
            index = {c: i for i, c in enumerate(self.classes_)}
            self.codes_ = np.array([index[v] for v in y], dtype=np.intp)
        return self

    def _neighbor_labels(self, data: np.ndarray):
        dist = _pairwise_distances(np.asarray(data, dtype=float), self.X)
        return k_nearest(dist, min(self.k, self.X.shape[0]))

    def _votes(self, data: np.ndarray) -> np.ndarray:
        """Neighbour count of each class (columns in `classes_` order) per row."""
        codes = self.codes_[self._neighbor_labels(data)]
        width = len(self.classes_)
        flat = (np.arange(codes.shape[0])[:, None] * width + codes).ravel()
        return np.bincount(flat, minlength=codes.shape[0] * width).reshape(-1, width)

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            vals = np.asarray(self.y, dtype=float)[self._neighbor_labels(data)]
            return vals.mean(axis=1)
        # most votes, then the smallest class: argmax keeps the first maximum
        return _label_array(self.classes_).take(np.argmax(self._votes(data), axis=1))

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        votes = self._votes(data).astype(float)
        return votes / votes.sum(axis=1, keepdims=True)


def _label_array(classes: list) -> np.ndarray:
    """The class labels as a 1-D object array to `take` predictions from.

    np.fromiter keeps each label one element, even a tuple; np.asarray or a
    slice assignment would spread a tuple's elements over the array.
    """
    return np.fromiter(classes, dtype=object, count=len(classes))


# -- CART decision tree ------------------------------------------------------


def tree_leaves(Xt: np.ndarray, feature, threshold, kids, steps: int, goes_left, roots=None) -> np.ndarray:
    """Leaf of every column of Xt (the rows of X) in a flat binary tree.

    Node 0 is the root. A row x at node i goes to `kids[2i]` when
    `goes_left(x[feature[i]], threshold[i])`, else to `kids[2i + 1]`; CART
    passes np.less_equal and the isolation forest np.less, and NaN goes right
    under both. A leaf's kids are itself, so `steps` (the tree's depth) steps
    of one level each reach every leaf. With `roots`, the arrays hold one
    tree per root, every row walks each of them, and the result has one row
    of leaves per root.
    """
    if roots is None:
        return tree_leaves(Xt, feature, threshold, kids, steps, goes_left, [0])[0]
    n = Xt.shape[1]
    flat, rows = Xt.ravel(), np.tile(np.arange(n), len(roots))
    node = np.repeat(roots, n)
    for _ in range(steps):
        node = kids[2 * node + ~goes_left(flat[feature[node] * n + rows], threshold[node])]
    return node.reshape(len(roots), n)


def _first_best(gains: list) -> int:
    """Index of the first gain that beats the running best by more than 1e-15.

    This is the split scan's tie rule: a near-tie goes to the earlier split.
    """
    best_gain, best_at = None, 0
    for at, gain in enumerate(gains):
        if best_gain is None or gain > best_gain + 1e-15:
            best_gain, best_at = gain, at
    return best_at


class DecisionTree:
    """Greedy CART: Gini impurity for classification, variance reduction for
    regression, axis-aligned thresholds at midpoints of sorted feature values.

    CART draws nothing at random, so the order in which nodes grow cannot
    change the tree. `fit` grows it level by level: one split search covers
    every open node of a depth.
    """

    def __init__(self, task: str, max_depth: int = 8, min_leaf: int = 5):
        if max_depth < 1 or min_leaf < 1:
            raise ModelError("tree requires max_depth >= 1 and min_leaf >= 1")
        self.task = task
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        self.n_features_ = X.shape[1]
        if self.task == "classification":
            self.classes_ = sorted(set(y.tolist()))
            index = {c: i for i, c in enumerate(self.classes_)}
            codes = np.array([index[v] for v in y], dtype=np.intp)
        else:
            codes = np.asarray(y, dtype=float)
        self._grow(X, codes)
        return self

    def _leaf_value(self, y: np.ndarray):
        """Class counts or the mean of a node's targets, given in row order."""
        if self.task == "classification":
            return np.bincount(y, minlength=len(self.classes_)).astype(float)
        return float(np.mean(y))

    def _impure(self, y: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Which nodes have targets that differ; y holds each node's in row order.

        A regression node is pure when its variance is 0.0, which a constant
        node such as [0.1] * 3 need not have. A spread above 1e-150 proves a
        variance above 0, because (spread / 2) ** 2 is a normal float, so
        only smaller spreads need np.var.
        """
        starts = np.cumsum(sizes) - sizes
        spread = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
        if self.task == "classification":
            return spread != 0
        impure = spread > 1e-150
        for i in np.flatnonzero(~impure).tolist():
            impure[i] = float(np.var(y[starts[i] : starts[i] + sizes[i]])) != 0.0
        return impure

    def _grow(self, X: np.ndarray, y: np.ndarray) -> None:
        """Grow the tree one depth at a time into `tree_leaves`' format:
        `feature_`, `threshold_`, `kids_`, `depth_` (levels grown, minus 1)
        and `value_`, each leaf's class counts (nodes, classes) or target
        mean (nodes,), 0 at internal nodes. Nodes are numbered level by level.

        `rows` holds the rows of the open nodes as consecutive segments: one
        line per feature in (value, row) order, as a stable argsort gives,
        and a last line in row order. A node's segment has the same place on
        every line. A child's rows are a stable sort of its parent's by
        child, so every line keeps its order with no sort by value.
        """
        n = X.shape[0]
        XT = np.ascontiguousarray(X.T)
        rows = np.vstack([np.argsort(X, axis=0, kind="stable").T, np.arange(n)])
        sizes, first, levels = np.array([n]), 0, []
        for depth in range(self.max_depth + 1):
            feature, threshold = self._level_splits(XT, y, rows, sizes, depth)
            split = feature >= 0
            ends = np.cumsum(sizes).tolist()
            value = np.zeros((sizes.size, len(self.classes_)) if self.task == "classification" else sizes.size)
            for i in np.flatnonzero(~split).tolist():
                value[i] = self._leaf_value(y[rows[-1, ends[i] - sizes[i] : ends[i]]])
            # a leaf's kids are itself and its feature 0, a column the walk can
            # read; a splitting node's kids are on the next level
            kids = np.repeat(np.arange(first, first + sizes.size), 2)
            first += sizes.size
            kids.reshape(-1, 2)[split] = np.arange(first, first + 2 * np.count_nonzero(split)).reshape(-1, 2)
            levels.append((np.maximum(feature, 0), threshold, kids, value))
            if not split.any():
                break
            # the left child of the i-th splitting node is 2i and the right
            # one 2i + 1; the rows of leaves sort last and drop off the end
            moving = rows[-1, np.repeat(split, sizes)]
            counts = sizes[split]
            goes_right = ~(X[moving, np.repeat(feature[split], counts)] <= np.repeat(threshold[split], counts))
            child = 2 * np.repeat(np.arange(counts.size), counts) + goes_right
            key = np.full(n, 2 * counts.size, dtype=np.min_scalar_type(2 * counts.size))
            key[moving] = child
            order = np.argsort(key[rows], axis=1, kind="stable")[:, : moving.size]
            rows = np.take_along_axis(rows, order, axis=1)
            sizes = np.bincount(child, minlength=2 * counts.size)
        self.feature_, self.threshold_, self.kids_, self.value_ = (np.concatenate(arrays) for arrays in zip(*levels))
        self.depth_ = len(levels) - 1

    def _level_splits(self, XT: np.ndarray, y: np.ndarray, rows: np.ndarray, sizes: np.ndarray, depth: int):
        """Split feature (-1 for a leaf) and threshold of each node of a level."""
        feature = np.full(sizes.size, -1)
        threshold = np.zeros(sizes.size)
        searched = sizes >= 2 * self.min_leaf
        if depth >= self.max_depth or not searched.any():
            return feature, threshold
        sub = rows[:, np.repeat(searched, sizes)]
        impure = self._impure(y[sub[-1]], sizes[searched])
        sub = sub[:, np.repeat(impure, sizes[searched])]
        searched[searched] = impure
        if not searched.any():
            return feature, threshold
        d = XT.shape[0]
        gains, thresholds = self._best_splits(XT[np.arange(d)[:, None], sub[:d]], y[sub[:d]], sizes[searched])
        # a later feature must beat the best earlier one by more than 1e-15
        for at, node_gains, node_thresholds in zip(
            np.flatnonzero(searched).tolist(), gains.T.tolist(), thresholds.T.tolist()
        ):
            best = None
            for j, gain in enumerate(node_gains):
                if gain > 1e-12 and (best is None or gain > node_gains[best] + 1e-15):
                    best = j
            if best is not None:
                feature[at], threshold[at] = best, node_thresholds[best]
        return feature, threshold

    def _best_splits(self, xs: np.ndarray, ys: np.ndarray, sizes: np.ndarray):
        """Best (gain, threshold) of each feature in each node, indexed
        [feature, node]; the gain is NaN where a node has no split point.

        Line j of `xs` holds feature j's values over the nodes' rows, each
        node's segment sorted, and `ys` the targets in the same order;
        node i has sizes[i] rows. Split p sends a segment's rows up to p
        left. Every gain comes from the element-wise expressions of a
        per-node running count scan, evaluated over the whole level:
        regression sums restart at each node, squares of sums go through
        pow(). Each (feature, node) keeps the first gain that beats the
        running best by more than 1e-15 (`_first_best`). When a segment's
        maximum beats every gain before its first occurrence by more than
        1e-15, that scan provably stops there; otherwise (near-ties, NaN)
        the scan runs.
        """
        d, m = xs.shape
        starts = np.cumsum(sizes) - sizes
        n_at = np.repeat(sizes, sizes)
        nl_at = np.arange(1, m + 1) - np.repeat(starts, sizes)
        fits = (nl_at >= self.min_leaf) & (n_at - nl_at >= self.min_leaf)
        # q indexes the flattened lines; the last row of a line never fits
        flat = xs.ravel()
        q = np.flatnonzero((flat[:-1] != flat[1:]) & np.tile(fits, d)[:-1])
        best_gain = np.full(d * sizes.size, np.nan)
        best_threshold = np.zeros(d * sizes.size)
        if not q.size:
            return best_gain.reshape(d, -1), best_threshold.reshape(d, -1)
        j = q // m
        p = q - j * m
        segment = j * sizes.size + np.repeat(np.arange(sizes.size), sizes)[p]
        n, nl = n_at[p], nl_at[p]
        nr = n - nl
        if self.task == "classification":
            # counts are exact, so one running count over each line less the
            # count before a node's start is the node's running count; an
            # integer count divides like the float count of a scan
            k = len(self.classes_)
            counts = np.zeros((d, m + 1, k), dtype=np.int32)
            counts[np.arange(d)[:, None], np.arange(1, m + 1), ys] = 1
            np.cumsum(counts, axis=1, out=counts)
            total = counts[0, starts + sizes] - counts[0, starts]
            total_gini = 1.0 - _row_sum((total / sizes[:, None]) ** 2)
            before = counts[:, starts].reshape(-1, k)
            left = counts.reshape(-1, k)[q + j + 1] - before[segment]
            right = np.tile(total, (d, 1))[segment] - left
            gini = nl / n * (1.0 - _row_sum((left / nl[:, None]) ** 2)) + nr / n * (
                1.0 - _row_sum((right / nr[:, None]) ** 2)
            )
            gains = np.tile(total_gini, d)[segment] - gini
        else:
            # np.float_power squares through pow() like the scalar `x ** 2` of
            # a per-split scan; `array ** 2` is x * x and can differ in the
            # last bit. A running sum over a line less the sum before a
            # node's start would round differently, so each node starts anew.
            both = np.stack([ys, ys**2])
            sums = np.empty_like(both)
            for a, b in zip(starts.tolist(), (starts + sizes).tolist()):
                np.add.accumulate(both[:, :, a:b], axis=2, out=sums[:, :, a:b])
            csum, csum2 = sums[0].ravel(), sums[1].ravel()
            ends = (np.arange(d)[:, None] * m + starts + sizes - 1).ravel()
            total, total2 = csum[ends], csum2[ends]
            total_var = total2 - np.float_power(total, 2.0) / np.tile(sizes, d)
            total, total2 = total[segment], total2[segment]
            left, left2 = csum[q], csum2[q]
            left_ss = left2 - np.float_power(left, 2.0) / nl
            right_ss = (total2 - left2) - np.float_power(total - left, 2.0) / nr
            gains = total_var[segment] - left_ss - right_ss
        starts_seg = np.empty(q.size, dtype=bool)
        starts_seg[0] = True
        np.not_equal(segment[1:], segment[:-1], out=starts_seg[1:])
        first = np.flatnonzero(starts_seg)
        seg_of = np.cumsum(starts_seg) - 1
        top = np.maximum.reduceat(gains, first)
        at = np.arange(q.size)
        win = np.minimum.reduceat(np.where(gains == top[seg_of], at, q.size), first)
        before_win = np.maximum.reduceat(np.where(at < win[seg_of], gains, -np.inf), first)
        sure = (win < q.size) & (top > before_win + 1e-15)
        bounds = first.tolist() + [q.size]
        for s in np.flatnonzero(~sure).tolist():
            win[s] = bounds[s] + _first_best(gains[bounds[s] : bounds[s + 1]].tolist())
        best_gain[segment[first]] = gains[win]
        # a midpoint that rounds up to the right value (adjacent floats) or
        # overflows would send that value left too; the left value splits them
        lo, hi = flat[q[win]], flat[q[win] + 1]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        best_threshold[segment[first]] = np.where(mid < hi, mid, lo)
        return best_gain.reshape(d, -1), best_threshold.reshape(d, -1)

    def _leaf_values(self, data: np.ndarray) -> np.ndarray:
        """`value_` of each row's leaf; a tie with a threshold goes left."""
        Xt = np.ascontiguousarray(np.asarray(data, dtype=float).T)
        return self.value_[tree_leaves(Xt, self.feature_, self.threshold_, self.kids_, self.depth_, np.less_equal)]

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.task == "regression":
            return self._leaf_values(data)
        return _label_array(self.classes_).take(np.argmax(self._leaf_values(data), axis=1))

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        counts = self._leaf_values(data)
        return counts / counts.sum(axis=1, keepdims=True)


# -- logistic regression (softmax, full-batch gradient descent) --------------


def _row_sum(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=1), the same floats without the row reduction's per-call cost.

    numpy reduces a row of fewer than 8 values left to right, so up to 7
    columns the sum goes column by column. From 8 values numpy's pairwise
    sum keeps 8 partial sums (Higham, SIAM J. Sci. Comput. 1993) and rounds
    differently, so the row reduction stays.
    """
    if A.shape[1] >= 8:
        return A.sum(axis=1)
    return functools.reduce(np.add, A.T)


def _softmax(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits Z, as a new array."""
    E = Z.copy()
    return _softmax_in_place(E, list(E.T))


def _softmax_in_place(Z: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """Overwrite the logits Z, whose columns are `columns`, with their
    row-wise softmax, shifted by the row max; return Z.

    Up to 7 classes the row max and sum go column by column, left to right,
    as in `_row_sum`; the max is exact either way. So do the shift and the
    divide: a column at a time beats an (n, 1) broadcast there, and gives
    the same floats.
    """
    if len(columns) >= 8:
        np.subtract(Z, Z.max(axis=1, keepdims=True), out=Z)
        np.exp(Z, out=Z)
        return np.divide(Z, Z.sum(axis=1, keepdims=True), out=Z)
    top = functools.reduce(np.maximum, columns)
    for column in columns:
        np.subtract(column, top, out=column)
    np.exp(Z, out=Z)
    total = functools.reduce(np.add, columns)
    for column in columns:
        np.divide(column, total, out=column)
    return Z


def _unbiased(W: np.ndarray) -> np.ndarray:
    """W with the bias row (the last) zeroed: the weights L2 penalizes."""
    penalty = W.copy()
    penalty[-1, :] = 0.0
    return penalty


def logistic_loss_and_grad(
    W: np.ndarray, Xb: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with L2 on non-bias weights; Xb carries a trailing
    ones column and W's last row is the unpenalized bias."""
    n = Xb.shape[0]
    P = _softmax(Xb @ W)
    eps = 1e-12
    loss = -float(np.sum(Y * np.log(P + eps))) / n
    loss += 0.5 * l2 * float(np.sum(_unbiased(W) ** 2))
    return loss, Xb.T @ (P - Y) / n + l2 * _unbiased(W)


def _softmax_descent(designs: list[tuple[np.ndarray, np.ndarray]], lr: float, epochs: int, l2: float) -> np.ndarray:
    """The weights, shaped (designs, features + 1, classes), that `epochs`
    full-batch gradient steps from zero give each (Xb, Y) design of the same
    width: Xb carries a trailing ones column and Y holds one-hot rows.

    Each step is `W -= lr * grad`, with grad the gradient of
    `logistic_loss_and_grad`, and the designs take their steps in lockstep.
    Each design keeps its own two matmuls on the operand layouts of a lone
    fit: a C-contiguous Xb, W block and R = P - Y block, and Xb.T @ R. On
    OpenBLAS another layout can change the floats. Every elementwise step
    runs once over the stacked rows of all designs, and no elementwise
    result depends on a row's position, so each design gets the floats of
    its lone fit.
    """
    rows = [Xb.shape[0] for Xb, _ in designs]
    Y = np.vstack([Y for _, Y in designs])
    R = np.empty_like(Y)  # the logits, then their softmax, then P - Y
    columns = list(R.T)
    W = np.zeros((len(designs), designs[0][0].shape[1], Y.shape[1]))
    grad, penalty = np.empty_like(W), np.empty_like(W)
    n = np.repeat(np.array(rows, dtype=float), W[0].size).reshape(W.shape)  # each design's rows, over its W
    blocks = list(zip([Xb for Xb, _ in designs], np.split(R, np.cumsum(rows)[:-1]), W, grad))
    for _ in range(epochs):
        for Xb, R_i, W_i, _ in blocks:
            np.matmul(Xb, W_i, out=R_i)
        _softmax_in_place(R, columns)
        np.subtract(R, Y, out=R)
        for Xb, R_i, _, grad_i in blocks:
            np.matmul(Xb.T, R_i, out=grad_i)
        np.divide(grad, n, out=grad)
        np.multiply(W, l2, out=penalty)
        penalty[:, -1] = l2 * 0.0  # `_unbiased`'s zero bias row, times l2
        np.add(grad, penalty, out=grad)
        np.multiply(grad, lr, out=grad)
        np.subtract(W, grad, out=W)
    return W


class LogisticModel:
    def __init__(self, lr: float = 0.1, epochs: int = 500, l2: float = 1e-3):
        if lr <= 0 or epochs < 1 or l2 < 0:
            raise ModelError("logistic requires lr > 0, epochs >= 1, l2 >= 0")
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2

    def _design(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Take `n_features_` and `classes_` from (X, y) and return its
        `_softmax_descent` design."""
        X = np.asarray(X, dtype=float)
        self.n_features_ = X.shape[1]
        self.classes_ = sorted(set(y.tolist()))
        index = {c: i for i, c in enumerate(self.classes_)}
        Y = np.zeros((len(y), len(self.classes_)))
        codes = np.array([index[label] for label in y], dtype=np.intp)
        Y[np.arange(len(y)), codes] = 1.0
        return np.hstack([X, np.ones((X.shape[0], 1))]), Y

    def fit(self, X: np.ndarray, y: np.ndarray):
        (self.W,) = _softmax_descent([self._design(X, y)], self.lr, self.epochs, self.l2)
        return self

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        Xb = np.hstack([data, np.ones((data.shape[0], 1))])
        return _softmax(Xb @ self.W)

    def predict(self, data: np.ndarray) -> np.ndarray:
        return _label_array(self.classes_).take(np.argmax(self.predict_proba(data), axis=1))


# -- ridge regression --------------------------------------------------------


class RidgeModel:
    """Solves the regularized normal equations on a bias-augmented design."""

    def __init__(self, lam: float = 1.0):
        if lam < 0:
            raise ModelError("ridge requires lambda >= 0")
        self.lam = lam

    @staticmethod
    def design(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.hstack([X, np.ones((X.shape[0], 1))])

    def fit(self, X: np.ndarray, y: np.ndarray):
        Xb = self.design(X)
        self.n_features_ = Xb.shape[1] - 1
        A = Xb.T @ Xb + self.lam * np.eye(Xb.shape[1])
        b = Xb.T @ np.asarray(y, dtype=float)
        try:
            self.w = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"singular ridge system (lambda={self.lam}): {exc}") from exc
        residual = np.linalg.norm(A @ self.w - b)
        scale = np.linalg.norm(b)
        if scale > 0 and residual > 1e-6 * scale:
            raise ModelError("ridge normal equations are numerically singular")
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        return self.design(data) @ self.w


# -- k-means -----------------------------------------------------------------


class KMeansModel:
    def __init__(self, k: int = 2, max_iter: int = 100, restarts: int = 5, seed: int = 0):
        if k < 2:
            raise ModelError("kmeans requires k >= 2")
        if max_iter < 1:
            raise ModelError("kmeans requires max_iter >= 1")
        if restarts < 1:
            raise ModelError("kmeans requires restarts >= 1")
        self.k = k
        self.max_iter = max_iter
        self.restarts = restarts
        self.seed = seed

    def _plus_plus_init(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = X.shape[0]
        centers = [X[int(rng.integers(n))]]
        for _ in range(1, self.k):
            d2 = np.min(
                np.stack([np.sum((X - c) ** 2, axis=1) for c in centers]), axis=0
            )
            total = d2.sum()
            if total <= 0:
                centers.append(X[int(rng.integers(n))])
                continue
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target))
            centers.append(X[min(idx, n - 1)])
        return np.array(centers)

    def _lloyd(self, X: np.ndarray, centers: np.ndarray):
        history = []
        labels = None
        for _ in range(self.max_iter):
            dist = _pairwise_distances(X, centers)
            new_labels = np.argmin(dist, axis=1)  # ties go to the lowest index
            inertia = float(np.sum((dist[np.arange(len(X)), new_labels]) ** 2))
            history.append(inertia)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(self.k):
                members = X[labels == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
        return centers, labels, history[-1], history

    def fit(self, X: np.ndarray, y=None):
        X = np.asarray(X, dtype=float)
        if X.shape[0] < self.k:
            raise ModelError(f"kmeans needs at least k={self.k} rows")
        self.n_features_ = X.shape[1]
        best = None
        for r in range(self.restarts):
            rng = derive_rng(self.seed, "kmeans", r)
            centers = self._plus_plus_init(X, rng)
            centers, labels, inertia, history = self._lloyd(X, centers.copy())
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, history)
        self.inertia_, self.centers_, self.labels_, self.inertia_history_ = best
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        dist = _pairwise_distances(np.asarray(data, dtype=float), self.centers_)
        return np.argmin(dist, axis=1)


def silhouette(data: np.ndarray, assignments: np.ndarray) -> float:
    """Mean of (b - a) / max(a, b) over points; singleton clusters score 0."""
    X = np.asarray(data, dtype=float)
    labels = np.asarray(assignments)
    clusters = sorted(set(labels.tolist()))
    if len(clusters) < 2:
        raise ModelError("silhouette needs at least 2 non-empty clusters")
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        # Direct differences, not the gram-matrix shortcut: the score must
        # agree with a naive implementation to near machine precision. One
        # row at a time keeps memory at O(n * d).
        dist = np.sqrt(np.sum((X[i] - X) ** 2, axis=1))
        a = dist[own].sum() / (n_own - 1)
        b = min(dist[labels == c].mean() for c in clusters if c != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


# -- registry ----------------------------------------------------------------

# Every model kind: a constructor of (task, seed, **spec params).
MODELS = {
    "knn": lambda task, seed, **p: KNNModel(task=task, **p),
    "dt": lambda task, seed, **p: DecisionTree(task, **p),
    "ridge": lambda task, seed, **p: RidgeModel(**p),
    "logit": lambda task, seed, **p: LogisticModel(**p),
    "kmeans": lambda task, seed, **p: KMeansModel(seed=seed, **p),
}

DEFAULT_PARAMS = {
    "knn": {"k": 5},
    "dt": {"max_depth": 8, "min_leaf": 5},
    "ridge": {"lam": 1.0},
    "logit": {"lr": 0.1, "epochs": 500, "l2": 1e-3},
    "kmeans": {"k": 2, "max_iter": 100, "restarts": 5},
}

_TASK_FOR = {
    "ridge": "regression",
    "logit": "classification",
    "kmeans": "clustering",
}


@dataclass
class ModelSpec:
    kind: str
    task: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.task not in TASKS:
            raise ModelError(f"unknown task {self.task!r}")
        fixed = _TASK_FOR.get(self.kind)
        if fixed is not None and self.task != fixed:
            raise ModelError(f"{self.kind} only supports the {fixed} task")
        merged = dict(DEFAULT_PARAMS[self.kind])
        merged.update(self.params)
        self.params = merged

    @property
    def name(self) -> str:
        return self.kind


def parse_model_spec(text: str, task: str, seed: int = 0) -> ModelSpec:
    """Parse `kind` or `kind:param=value,param=value` short names."""
    kind, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise ModelError(f"bad model override {item!r} in {text!r}")
            try:
                params[key] = int(val)
            except ValueError:
                params[key] = float(val)
    return ModelSpec(kind.strip(), task, params, seed)


def build_model(spec: ModelSpec):
    """`MODELS[spec.kind]` with the spec's params by keyword; a param the
    model does not take raises TypeError naming it."""
    return MODELS[spec.kind](spec.task, spec.seed, **spec.params)


def _fit_timed(spec: ModelSpec, problems: Iterable[tuple[np.ndarray, np.ndarray | None]]) -> list[tuple[object, float]]:
    """`build_model(spec).fit(X, y)` (`fit(X)` where y is None) of each (X, y)
    training set, in order, with the seconds it took.

    Logit fits whose weights have one shape (the same feature and class
    counts) run in one `_softmax_descent`: each gets the floats of its lone
    fit, and the descent's seconds over its design count. Other kinds fit
    one by one. `problems` is read once, so a generator's training sets can
    go as soon as their designs are built.
    """
    fitted, seconds = [], []
    if spec.kind != "logit":
        for X, y in problems:
            fitted.append(build_model(spec))
            start = time.perf_counter()
            fitted[-1].fit(X) if y is None else fitted[-1].fit(X, y)
            seconds.append(time.perf_counter() - start)
        return list(zip(fitted, seconds))
    groups: dict[tuple, list] = {}
    for X, y in problems:
        model = build_model(spec)
        Xb, Y = model._design(X, y)
        groups.setdefault((Xb.shape[1], Y.shape[1]), []).append((len(fitted), Xb, Y))
        fitted.append(model)
        seconds.append(0.0)
    for group in groups.values():
        first = fitted[group[0][0]]
        start = time.perf_counter()
        W = _softmax_descent([(Xb, Y) for _, Xb, Y in group], first.lr, first.epochs, first.l2)
        took = (time.perf_counter() - start) / len(group)
        for (i, _, _), W_i in zip(group, W):
            fitted[i].W, seconds[i] = W_i, took
    return list(zip(fitted, seconds))


def fit_many(spec: ModelSpec, problems: Iterable[tuple[np.ndarray, np.ndarray]]) -> list:
    """`build_model(spec).fit(X, y)` of each (X, y) training set, in order;
    logit fits of one weight shape descend in lockstep (see `_fit_timed`)."""
    return [model for model, _ in _fit_timed(spec, problems)]


@dataclass
class FittedModel:
    spec: ModelSpec
    model: object
    train_runtime: float


def fit(spec: ModelSpec, trains: list[EncodedMatrix]) -> list[FittedModel]:
    """One fitted model per encoded training matrix, in order.

    Logit matrices whose weights have one shape descend in lockstep, each
    with the floats of its lone fit (see `_fit_timed`), and each such model's
    `train_runtime` is the descent's time over its design count. Every other
    fit is timed on its own. A clustering fit sees the features only.
    """
    if spec.task in ("classification", "regression") and any(train.target is None for train in trains):
        raise ModelError(f"{spec.task} needs an encoded target")
    problems = ((train.features, None if spec.task == "clustering" else train.target) for train in trains)
    return [FittedModel(spec, model, seconds) for model, seconds in _fit_timed(spec, problems)]


def predict(fitted: FittedModel, data: EncodedMatrix) -> np.ndarray:
    if data.features.shape[1] != fitted.model.n_features_:
        raise ModelError(
            f"feature width {data.features.shape[1]} does not match the fitted model"
        )
    return fitted.model.predict(data.features)
