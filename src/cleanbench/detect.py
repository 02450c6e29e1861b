"""Error detectors: every detector maps a dataset to a mask of flagged cells.

Row-level detectors (isolation forest, key collision) project rows to cells so
all downstream scoring stays cell-level. Detectors are pure given (dataset,
spec, seed) and safe to run in parallel.
"""

from __future__ import annotations

import math
import re
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import models
from .constraints import DenialConstraint, find_violations
from .inject import CATEGORICAL_DISGUISE_TOKENS, NUMERIC_DISGUISE_CODES
from .seeding import derive_rng
from .tabular import Dataset, DetectionMask, bounding_shape, union_masks

class DetectorError(Exception):
    pass


@dataclass
class DetectorSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DETECTORS:
            raise DetectorError(f"unknown detector kind {self.kind!r}")

    @property
    def name(self) -> str:
        if not self.params:
            return self.kind
        parts = []
        for key, value in sorted(self.params.items()):
            if isinstance(value, (list, dict)):
                continue
            parts.append(f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}")
        return f"{self.kind}({','.join(parts)})" if parts else self.kind


@dataclass
class DetectorRun:
    spec: DetectorSpec
    mask: DetectionMask
    runtime: float


@dataclass
class DetectorContext:
    """Shared signals a detector may need beyond the dataset itself."""

    constraints: list[DenialConstraint] | None = None
    key_columns: list[str] | None = None
    label_column: str | None = None
    oracle_mask: DetectionMask | None = None
    contamination: float = 0.1
    seed: int = 0


# -- individual detectors ----------------------------------------------------


def _no_flags(ds: Dataset) -> np.ndarray:
    return np.zeros((ds.row_count, ds.col_count), dtype=bool)


def detect_missing(ds: Dataset) -> DetectionMask:
    """All cells flagged empty: blank text or a configured null token."""
    flagged = _no_flags(ds)
    for j, col in enumerate(ds.columns):
        flagged[:, j] = col.empty
    return DetectionMask(flagged, source="mvd")


_REPEATED_DIGIT_RE = re.compile(r"^-?(\d)\1*$")


def _is_repeated_digit(text: str) -> bool:
    return bool(_REPEATED_DIGIT_RE.match(text))


_DISGUISE_DICTIONARY = set(CATEGORICAL_DISGUISE_TOKENS) | set(NUMERIC_DISGUISE_CODES)


def _is_disguise_token(text: str) -> bool:
    return text in _DISGUISE_DICTIONARY or (len(text) >= 2 and len(set(text)) == 1)


def detect_disguised(ds: Dataset) -> DetectionMask:
    """Disguised missing values: dictionary tokens and single-character repeats
    in categorical columns; repeated-digit numbers outside a wide (k=3) IQR
    fence in numeric columns."""
    flagged = _no_flags(ds)
    for j, col in enumerate(ds.columns):
        if col.is_numeric:
            parsed = col.parsed
            finite = parsed[~np.isnan(parsed)]
            if finite.size == 0:
                continue
            # Python floats: a fence beyond the float range is +-inf, with no warning
            q1, q3 = np.quantile(finite, [0.25, 0.75]).tolist()
            outside = (parsed < q1 - 3.0 * (q3 - q1)) | (parsed > q3 + 3.0 * (q3 - q1))
            flagged[outside, j] = [_is_repeated_digit(raw) for raw in col.raw[outside]]
        else:
            flagged[:, j] = [_is_disguise_token(raw) for raw in col.raw]
    return DetectionMask(flagged, source="fahes")


def _unparsable(col) -> np.ndarray:
    # Type-corrupted values: non-empty text in a numeric column with no parse.
    return ~col.empty & np.isnan(col.parsed)


def detect_outliers_sd(ds: Dataset, n: float = 3.0) -> DetectionMask:
    """Per numeric column, flag parsed cells more than n sample standard
    deviations from the column mean; unparsable cells are flagged too."""
    if n <= 0:
        raise DetectorError("sd detector requires n > 0")
    flagged = _no_flags(ds)
    for j, col in enumerate(ds.columns):
        if not col.is_numeric:
            continue
        flagged[:, j] = _unparsable(col)
        parsed = col.parsed
        finite = parsed[~np.isnan(parsed)]
        if finite.size < 3:
            continue
        mean, std = models.sample_mean(finite), models.sample_std(finite)
        with np.errstate(over="ignore"):
            distance, bound = np.abs(parsed - mean), n * std
        if np.isinf(distance).any() or math.isinf(bound):
            # beyond the float range: compare in units of the column's largest magnitude
            scale = float(np.abs(finite).max())
            distance, bound = np.abs(parsed / scale - mean / scale), n * (std / scale)
        flagged[:, j] |= distance > bound
    return DetectionMask(flagged, source=f"sd(n={n:g})")


def quantile(values: np.ndarray, p: float) -> float:
    """Linear interpolation between order statistics at index p * (n - 1)."""
    v = np.sort(np.asarray(values, dtype=float))
    pos = p * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return float(v[lo] * (1 - frac) + v[hi] * frac)


def detect_outliers_iqr(ds: Dataset, k: float = 1.5) -> DetectionMask:
    """Tukey-fence outliers outside [Q1 - k*IQR, Q3 + k*IQR] per numeric column."""
    if k <= 0:
        raise DetectorError("iqr detector requires k > 0")
    flagged = _no_flags(ds)
    for j, col in enumerate(ds.columns):
        if not col.is_numeric:
            continue
        flagged[:, j] = _unparsable(col)
        parsed = col.parsed
        finite = parsed[~np.isnan(parsed)]
        if finite.size == 0:
            continue
        q1 = quantile(finite, 0.25)
        q3 = quantile(finite, 0.75)
        flagged[:, j] |= (parsed < q1 - k * (q3 - q1)) | (parsed > q3 + k * (q3 - q1))
    return DetectionMask(flagged, source=f"iqr(k={k:g})")


# Average unsuccessful-search path length in a BST, the isolation-forest
# normalizer; harmonic numbers via the ln + Euler-Mascheroni approximation.
_EULER_GAMMA = 0.5772156649015329


def _c_factor(n: int) -> float:
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + _EULER_GAMMA) - 2.0 * (n - 1) / n


# Raw PCG64 words fetched at a time while a tree grows; a tree of 256 rows
# uses about 130.
_DRAW_BLOCK = 64
# A sample of d columns and psi rows makes bitsets of d * psi bits and a
# per-tree prefix table of (d * psi)**2 / 8 bytes. Wider samples grow on
# lists, which are faster there: on a 2-core VM at psi 2048, a tree took
# 10.6 ms on bitsets and 9.0 on lists with 3 columns, 84 and 12 with 10.
_BITSET_BITS = 4096
# Trees that take the level walk together; their path lengths still add up
# tree by tree.
_WALK_TREES = 5


def _raw_words(bitgen, block: int):
    """The bit generator's raw 64-bit outputs, `block` at a time, forever."""
    while True:
        yield from bitgen.random_raw(block).tolist()


def _differs(column: list, seg: int) -> bool:
    """Whether the values at the lowest and highest set bits of `seg` differ."""
    return column[(seg & -seg).bit_length() - 1] != column[seg.bit_length() - 1]


class _IsoTables:
    """What every tree of one forest shares: its samples are `psi` rows of
    `d` columns, a node's rows in column c are bits of the c-th segment of
    one Python int, and `c_table[size]` is the path length a leaf adds."""

    def __init__(self, psi: int, d: int):
        self.psi, self.d = psi, d
        words = -(-psi // 64)  # 64-bit words per segment
        rank = np.arange(psi)
        self.word = (np.arange(d) * words)[:, None] + (rank >> 6)  # rank's word in segment c
        self.bit = np.left_shift(np.uint64(1), (rank & 63).astype(np.uint64))
        self.flat = (np.arange(d) * psi)[:, None]
        self.width = d * words
        self.entry = 8 * self.width  # bytes per bitset
        self.prefix_at = [(q * psi - 1) * self.entry for q in range(d)]
        self.offset = [c * 64 * words for c in range(d)]
        self.segment = (1 << psi) - 1
        self.c_table = [_c_factor(size) for size in range(psi + 1)]


def _grow_iso_tree(columns: np.ndarray, limit: int, rng: np.random.Generator, tables: _IsoTables, names: list):
    """Grow one isolation tree on `columns` (its sample, one row per column)
    as flat node arrays `(feature, threshold, kids, h)`.

    The first three are `models.tree_leaves`' format, walked with np.less: a
    row x at internal node i goes to `kids[2i]` when `x[feature[i]] <
    threshold[i]`, else to `kids[2i + 1]`. A leaf's kids are itself, and
    `h[i]` is its depth plus `c_table[size]`, so `limit` steps of the walk
    give every row's path length. Nodes grow depth first, left before right,
    so the generator sees one `integers` and one `uniform` call per split in
    that order.

    A node is one Python int of `tables.d` segments: segment c holds the
    node's rows as bits at their ranks in column c's sorted values, so the
    node's min and max in c are the values at the segment's lowest and
    highest set bits. The rows below a threshold p in column q are the
    q-ranks below `bisect_left(sorted_q, p)`, and `prefix[q, i]` holds the
    rows of q-rank <= i in every segment, so a split is one AND and one XOR
    and a size is `bit_count() // d`. The order within a run of equal values
    never matters, as a split keeps or sends the whole run. The sample holds
    no NaN (`_iforest_features` fills it with the median), so a column is
    usable at a node of two or more rows unless it has equal values (-0.0
    and 0.0, equal infinities) and those at the node's lowest and highest
    bits are equal.

    The draws replay numpy's on the PCG64 generator's raw words. An
    `integers(k)` takes a 32-bit half-word, the low half of a fresh word
    whose high half stays buffered for the next, and rejects it by Lemire's
    rule; k == 1 draws nothing. A `uniform(lo, hi)` is `lo + (hi - lo) *
    ((w >> 11) * 2**-53)` of one whole word. Afterwards the generator holds
    the state those calls would have left: reset, advanced by the words
    used, with the last buffered half-word. `names` label the columns in
    errors.
    """
    psi, d, entry, offset, segment = tables.psi, tables.d, tables.entry, tables.offset, tables.segment
    prefix_at, c_table = tables.prefix_at, tables.c_table
    order = columns.argsort()
    ranked = columns.ravel()[order + tables.flat]
    vals = ranked.tolist()
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1).tolist()
    any_tied = True in tied
    onehot = np.zeros((psi, tables.width), dtype=np.uint64)
    onehot[order, tables.word] = tables.bit
    prefix = np.take(onehot, order, axis=0)
    np.bitwise_or.accumulate(prefix, axis=1, out=prefix)
    prefix = prefix.tobytes()  # prefix[q, i] at byte prefix_at[q] + (i + 1) * entry
    every = list(range(d))
    usable, k = every, d
    from_bytes, inf = int.from_bytes, math.inf

    bitgen = rng.bit_generator
    start = bitgen.state
    draw = _raw_words(bitgen, _DRAW_BLOCK).__next__
    buffered, half_word, fresh = start["has_uint32"], start["uinteger"], 0

    nodes, features, thresholds, h = array("q"), array("q"), array("d"), array("d", (c_table[psi],))
    stack = []
    node, rows, size, depth = 0, from_bytes(prefix[(psi - 1) * entry : psi * entry], "little"), psi, 0
    while True:
        if any_tied:
            usable = [c for c in every if not tied[c] or _differs(vals[c], rows >> offset[c] & segment)]
            k = len(usable)
        if k > 1:
            while True:  # numpy's buffered Lemire draw
                if buffered:
                    half, buffered = half_word, 0
                else:
                    word = draw()
                    fresh += 1
                    half, half_word, buffered = word & 0xFFFFFFFF, word >> 32, 1
                scaled = half * k
                if scaled & 0xFFFFFFFF >= k or scaled & 0xFFFFFFFF >= (0x100000000 - k) % k:
                    break
            q = usable[scaled >> 32]
        elif k:
            q = usable[0]
        else:
            if not stack:
                break
            node, rows, size, depth = stack.pop()
            continue
        column = vals[q]
        seg = rows >> offset[q] & segment
        lo = column[(seg & -seg).bit_length() - 1]
        span = column[seg.bit_length() - 1] - lo
        if span == inf:
            raise DetectorError(f"iforest cannot draw a threshold in column {names[q]!r}: its range overflows")
        p = lo + span * ((draw() >> 11) * 2.0**-53)
        below = bisect_left(column, p)
        if below:
            at = prefix_at[q] + below * entry
            left = rows & from_bytes(prefix[at : at + entry], "little")
            n_left = left.bit_count() // d
        else:
            left = n_left = 0
        nodes.append(node)
        features.append(q)
        thresholds.append(p)
        depth += 1
        node = len(h)  # the left child; the right one is node + 1
        n_right = size - n_left
        h.append(depth + c_table[n_left])
        h.append(depth + c_table[n_right])
        if depth < limit:
            if n_right > 1:
                stack.append((node + 1, rows ^ left, n_right, depth))
            if n_left > 1:
                rows, size = left, n_left
                continue
        if not stack:
            break
        node, rows, size, depth = stack.pop()

    bitgen.state = start
    bitgen.advance(fresh + len(nodes))
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = buffered, half_word
    bitgen.state = state

    count = len(h)
    feature, threshold = np.zeros(count, dtype=np.intp), np.zeros(count)
    kids = np.arange(count).repeat(2)
    nodes = np.frombuffer(nodes, dtype=np.intp)
    feature[nodes], threshold[nodes] = np.frombuffer(features, dtype=np.intp), np.frombuffer(thresholds)
    kids.reshape(-1, 2)[nodes] = np.arange(1, count).reshape(-1, 2)
    return feature, threshold, kids, np.frombuffer(h)


def _grow_iso_tree_lists(columns: np.ndarray, limit: int, rng: np.random.Generator, tables: _IsoTables, names: list):
    """`_grow_iso_tree` over the sample's rows as Python lists, for samples
    wider than `_BITSET_BITS`: the same tree from the generator's own calls.
    A node transposes its rows and counts each column's first value to find
    the usable columns, and two list partitions split it. Only the drawn
    column takes its min and max, and at the depth limit both children are
    leaves, so only their sizes are needed."""
    c_table = tables.c_table
    feature, threshold, kids, h = [0], [0.0], [0, 0], [c_table[tables.psi]]
    stack = [(0, columns.T.tolist(), 0)]
    while stack:
        node, rows, depth = stack.pop()
        size = len(rows)
        cols = list(zip(*rows))
        usable = [q for q, col in enumerate(cols) if col.count(col[0]) != size]
        if not usable:
            continue
        q = usable[rng.integers(len(usable))]
        lo, hi = min(cols[q]), max(cols[q])
        if hi - lo == math.inf:
            raise DetectorError(f"iforest cannot draw a threshold in column {names[q]!r}: its range overflows")
        p = rng.uniform(lo, hi)
        feature[node], threshold[node] = q, p
        depth += 1
        at = len(h)
        kids[2 * node], kids[2 * node + 1] = at, at + 1
        feature += (0, 0)
        threshold += (0.0, 0.0)
        kids += (at, at, at + 1, at + 1)
        left = [r for r in rows if r[q] < p]
        if depth == limit:
            h += (depth + c_table[len(left)], depth + c_table[size - len(left)])
            continue
        right = [r for r in rows if not r[q] < p]
        h += (depth + c_table[len(left)], depth + c_table[len(right)])
        if len(right) > 1:
            stack.append((at + 1, right, depth))
        if len(left) > 1:
            stack.append((at, left, depth))
    return np.array(feature), np.array(threshold), np.array(kids), np.array(h)


def _stack_trees(trees: list):
    """Flat isolation trees as one set of flat arrays, each tree's nodes
    numbered on from the last one's, and each tree's root."""
    sizes = [len(tree[3]) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, kids, h = (np.concatenate(part) for part in zip(*trees))
    kids += np.repeat(roots, 2 * np.array(sizes))
    return feature, threshold, kids, h, roots


def _median(values: np.ndarray) -> float:
    """np.median of finite values, or a + (b - a) / 2 where the sum of the
    two middle values a <= b overflows."""
    with np.errstate(over="ignore"):
        median = float(np.median(values))
    if math.isinf(median):
        a, b = np.sort(values)[values.size // 2 - 1 : values.size // 2 + 1].tolist()
        median = a + (b - a) / 2
    return median


def _iforest_features(ds: Dataset, num_cols: list[int]):
    X = np.column_stack([ds.columns[c].parsed for c in num_cols])
    col_median = np.zeros(len(num_cols))
    col_mad = np.zeros(len(num_cols))
    for j in range(len(num_cols)):
        finite = X[:, j][~np.isnan(X[:, j])]
        col_median[j] = _median(finite) if finite.size else 0.0
        col_mad[j] = _median(np.abs(finite - col_median[j])) if finite.size else 0.0
        X[np.isnan(X[:, j]), j] = col_median[j]
    return X, col_median, col_mad


def _forest_scores(X: np.ndarray, trees: int, subsample: int, seed: int, names: list) -> np.ndarray:
    """`iforest_scores` of the feature matrix X from `_iforest_features`."""
    n = X.shape[0]
    psi = min(subsample, n)
    if _c_factor(psi) == 0.0:
        # A subsample of one row isolates nothing, so no row is more anomalous
        # than another (scikit-learn's convention).
        return np.full(n, 0.5)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    Xt = np.ascontiguousarray(X.T)
    tables = _IsoTables(psi, Xt.shape[0])
    grow = _grow_iso_tree if psi * Xt.shape[0] <= _BITSET_BITS else _grow_iso_tree_lists
    rng = derive_rng(seed, "iforest")
    paths = np.zeros(n)
    for first in range(0, trees, _WALK_TREES):
        grown = []
        for _ in range(min(_WALK_TREES, trees - first)):
            idx = rng.choice(n, size=psi, replace=False)
            grown.append(grow(Xt.take(idx, axis=1), limit, rng, tables, names))
        feature, threshold, kids, h, roots = _stack_trees(grown)
        for leaves in models.tree_leaves(Xt, feature, threshold, kids, limit, np.less, roots):
            paths += h[leaves]
    return np.power(2.0, -(paths / trees) / _c_factor(psi))


def _check_forest(trees: int, subsample: int) -> None:
    for name, value in (("trees", trees), ("subsample", subsample)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DetectorError(f"iforest requires an integer {name}, got {value!r}")
        if value < 1:
            raise DetectorError(f"iforest requires {name} >= 1")


def iforest_scores(
    ds: Dataset, trees: int = 100, subsample: int = 256, seed: int = 0
) -> np.ndarray:
    """Per-row anomaly score 2^(-E[h(x)] / c(psi)); higher is more anomalous."""
    _check_forest(trees, subsample)
    num_cols = ds.numeric_column_indices()
    if not num_cols:
        raise DetectorError("iforest requires at least one numeric column")
    X, _, _ = _iforest_features(ds, num_cols)
    return _forest_scores(X, trees, subsample, seed, [ds.columns[c].name for c in num_cols])


def detect_outliers_iforest(
    ds: Dataset,
    trees: int = 100,
    subsample: int = 256,
    seed: int = 0,
    contamination: float = 0.1,
) -> DetectionMask:
    """Isolation forest over the numeric columns.

    Rows with the top ceil(contamination * rows) anomaly scores are flagged;
    each flagged row contributes the numeric cells whose robust z-score
    (|x - median| / (1.4826 * MAD)) exceeds 3, or all its numeric cells when
    none does.
    """
    _check_forest(trees, subsample)
    num_cols = ds.numeric_column_indices()
    if not num_cols:
        raise DetectorError("iforest requires at least one numeric column")
    if not 0.0 <= contamination <= 1.0:
        raise DetectorError("iforest requires 0 <= contamination <= 1")
    n = ds.row_count
    budget = math.ceil(contamination * n)
    if budget == 0 or n == 0:
        return DetectionMask(_no_flags(ds), source="if")

    X, col_median, col_mad = _iforest_features(ds, num_cols)
    scores = _forest_scores(X, trees, subsample, seed, [ds.columns[c].name for c in num_cols])
    rows = np.argsort(-scores, kind="stable")[:budget]

    # Robust z-scores of the flagged rows' cells; NaN (never strong) where a
    # cell has no parse, inf where the column has no spread but the cell
    # deviates from the median.
    dev = np.abs(np.column_stack([ds.columns[c].parsed[rows] for c in num_cols]) - col_median)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(col_mad > 0, dev / (1.4826 * col_mad), np.where(dev > 0, np.inf, 0.0))
    strong = z > 3.0
    strong[~strong.any(axis=1)] = True
    flagged = _no_flags(ds)
    flagged[np.ix_(rows, num_cols)] = strong
    return DetectionMask(flagged, source="if")


def detect_duplicates(ds: Dataset, key_columns: list[str] | None) -> DetectionMask:
    """Key collision: within each group sharing the key tuple, every row after
    the first is flagged whole."""
    if not key_columns:
        raise DetectorError("dedup detector needs key columns")
    key_idx = [ds.col_index(c) for c in key_columns]
    seen: set[tuple] = set()
    flagged = _no_flags(ds)
    for r, key in enumerate(zip(*(ds.columns[c].raw for c in key_idx))):
        flagged[r] = key in seen
        seen.add(key)
    return DetectionMask(flagged, source="dedup")


def _stratified_folds(labels: list[str], folds: int, rng: np.random.Generator) -> np.ndarray:
    assignment = np.zeros(len(labels), dtype=int)
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab in sorted(by_class):
        idx = np.array(by_class[lab])
        if len(idx) < folds:
            raise DetectorError(
                f"class {lab!r} has {len(idx)} members, fewer than {folds} folds"
            )
        rng.shuffle(idx)
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def detect_mislabels(
    ds: Dataset,
    label_column: str | None,
    folds: int = 5,
    base: str = "logit",
    seed: int = 0,
) -> DetectionMask:
    """Confident-learning style mislabel detection.

    Out-of-sample class probabilities come from k-fold cross-fitting of the
    base classifier; a sample is flagged when its probability under the given
    label falls below that class's mean self-confidence and the argmax class
    disagrees. Only the label cell is flagged. The folds are fitted together
    (`models.fit_many`): logit folds descend in lockstep, with the floats of
    fold-by-fold fits.
    """
    if not label_column:
        raise DetectorError("mislabel detector needs a label column")
    if folds < 2:
        raise DetectorError("mislabel detection requires folds >= 2")
    label_idx = ds.col_index(label_column)
    labels = ds.column(label_column).raw
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DetectorError("label column must carry at least 2 classes")

    spec = models.ModelSpec(base, "classification", {}, seed=seed)
    full, _ = models.encode(ds, ds, target=label_column)
    X = full.features
    rng = derive_rng(seed, "mislabel-folds")
    fold_of = _stratified_folds(labels, folds, rng)
    fitted = models.fit_many(spec, ((X[fold_of != f], labels[fold_of != f]) for f in range(folds)))

    # Stratified folds leave every class in every training fold, so each
    # model's probability columns are in `classes` order.
    probs = np.zeros((ds.row_count, len(classes)))
    for f, model in enumerate(fitted):
        probs[fold_of == f] = model.predict_proba(X[fold_of == f])

    flagged = _no_flags(ds)
    flagged[confident_learning_flags(probs, labels, classes), label_idx] = True
    return DetectionMask(flagged, source="cl")


def confident_learning_flags(
    probs: np.ndarray, labels: list[str] | np.ndarray, classes: list[str]
) -> list[int]:
    """Indices, ascending, whose given-label probability falls below the
    per-class self-confidence threshold while the argmax class disagrees.

    A class's threshold is the mean probability of that class over the rows
    labelled with it, or 1.0 when no row is.
    """
    class_index = {c: i for i, c in enumerate(classes)}
    codes = np.array([class_index[lab] for lab in labels], dtype=np.intp)
    thresholds = np.ones(len(classes))
    for k in np.unique(codes):
        thresholds[k] = probs[codes == k, k].mean()
    own = probs[np.arange(len(codes)), codes]
    disagrees = probs.argmax(axis=1) != codes
    return np.flatnonzero((own < thresholds[codes]) & disagrees).tolist()


def ensemble_min_k(runs: list[DetectionMask], k: int) -> DetectionMask:
    """Cells flagged by at least k of the given masks."""
    if not 1 <= k <= len(runs):
        raise DetectorError(f"min_k requires 1 <= k <= {len(runs)}, got {k}")
    shape = bounding_shape(runs)
    counts = np.sum([mask.matrix(shape) for mask in runs], axis=0)
    return DetectionMask(counts >= k, source=f"mink(k={k})")


@dataclass
class MaxEntropyRound:
    detector: str
    sample_size: int
    entropy: float
    precision: float
    accepted: bool


@dataclass
class MaxEntropyResult:
    mask: DetectionMask
    rounds: list[MaxEntropyRound]


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def ensemble_max_entropy(
    base: list[tuple[str, DetectionMask]],
    oracle_mask: DetectionMask,
    label_budget: int,
    seed: int = 0,
) -> MaxEntropyResult:
    """Greedy entropy-ordered ensemble over already-computed base masks.

    Each round samples oracle labels from every unexecuted detector's
    still-undecided detections, executes the detector whose sample has maximum
    clean/dirty label entropy, and accepts its detections iff the sampled
    precision is at least 0.5. The output is the union of accepted masks.
    """
    if not base:
        raise DetectorError("max entropy needs at least one base detector")
    if label_budget < len(base):
        raise DetectorError("label budget must cover at least one label per detector")
    rng = derive_rng(seed, "maxent")
    per_round = label_budget // len(base)
    unexecuted = list(range(len(base)))
    decided = union_masks([])
    accepted_masks: list[DetectionMask] = []
    rounds: list[MaxEntropyRound] = []

    while unexecuted:
        share = max(1, per_round // len(unexecuted))
        stats = []
        for pos in unexecuted:
            _, mask = base[pos]
            rows, cols = np.nonzero(mask.flagged & ~decided.matrix(mask.flagged.shape))
            size = min(share, rows.size)
            if size:
                chosen = rng.choice(rows.size, size=size, replace=False)
                dirty = oracle_mask.matrix(mask.flagged.shape)[rows[chosen], cols[chosen]]
                precision = int(np.count_nonzero(dirty)) / size
            else:
                precision = 0.0
            stats.append((pos, size, _binary_entropy(precision), precision))
        winner = max(stats, key=lambda s: (s[2], -s[0]))
        pos, size, entropy, precision = winner
        accepted = precision >= 0.5
        name, mask = base[pos]
        if accepted:
            accepted_masks.append(mask)
        decided = union_masks([decided, mask])
        unexecuted.remove(pos)
        rounds.append(MaxEntropyRound(name, size, entropy, precision, accepted))

    return MaxEntropyResult(union_masks(accepted_masks, source="maxent"), rounds)


def subsample_mask(mask: DetectionMask, recall: float, seed: int = 0) -> DetectionMask:
    """Keep a seeded fraction of a mask; used for synthetic-recall detectors."""
    if not 0.0 <= recall <= 1.0:
        raise DetectorError("recall must lie in [0, 1]")
    rows, cols = np.nonzero(mask.flagged)
    keep = int(round(recall * rows.size))
    if keep == rows.size:
        return DetectionMask(mask.flagged, source=f"{mask.source}@{recall:g}")
    rng = derive_rng(seed, "subsample", recall)
    idx = rng.choice(rows.size, size=keep, replace=False) if keep else []
    flagged = np.zeros_like(mask.flagged)
    flagged[rows[idx], cols[idx]] = True
    return DetectionMask(flagged, source=f"{mask.source}@{recall:g}")


# -- registry ----------------------------------------------------------------


def _rule(ds: Dataset, ctx: DetectorContext, constraints: list[str] | None = None) -> DetectionMask:
    """Violations of the context's constraints, or of those whose ids are listed."""
    if not ctx.constraints:
        raise DetectorError("rule detector needs parsed constraints")
    return find_violations(ds, [dc for dc in ctx.constraints if constraints is None or dc.id in constraints])


def _base_masks(ds: Dataset, ctx: DetectorContext, base: list) -> list[tuple[str, DetectionMask]]:
    """Each `(kind, params)` base detector's name and mask."""
    specs = [DetectorSpec(kind, dict(params)) for kind, params in base]
    return [(spec.name, run_detector(spec, ds, ctx).mask) for spec in specs]


def _max_entropy(
    ds: Dataset, ctx: DetectorContext, base: list, label_budget: int | None = None
) -> DetectionMask:
    """The entropy-ordered ensemble, with 10 oracle labels per base detector
    unless `label_budget` says otherwise."""
    if ctx.oracle_mask is None:
        raise DetectorError("max entropy needs an oracle mask")
    budget = 10 * len(base) if label_budget is None else label_budget
    return ensemble_max_entropy(_base_masks(ds, ctx, base), ctx.oracle_mask, budget, seed=ctx.seed).mask


# Every detector kind: a function of (dataset, context, **spec params). Context
# values fill a parameter the spec does not give.
DETECTORS = {
    "mvd": lambda ds, ctx: detect_missing(ds),
    "fahes": lambda ds, ctx: detect_disguised(ds),
    "sd": lambda ds, ctx, **p: detect_outliers_sd(ds, **p),
    "iqr": lambda ds, ctx, **p: detect_outliers_iqr(ds, **p),
    "if": lambda ds, ctx, **p: detect_outliers_iforest(
        ds, **{"seed": ctx.seed, "contamination": ctx.contamination, **p}
    ),
    "rule": _rule,
    "dedup": lambda ds, ctx, **p: detect_duplicates(ds, **{"key_columns": ctx.key_columns, **p}),
    "cl": lambda ds, ctx, **p: detect_mislabels(
        ds, **{"label_column": ctx.label_column, "seed": ctx.seed, **p}
    ),
    "mink": lambda ds, ctx, base, k=2: ensemble_min_k([mask for _, mask in _base_masks(ds, ctx, base)], k),
    "maxent": _max_entropy,
}


def run_detector(spec: DetectorSpec, ds: Dataset, ctx: DetectorContext | None = None) -> DetectorRun:
    """Run `DETECTORS[spec.kind]` with the spec's params by keyword, timing it
    and labelling its mask with the spec's name. A param the detector does not
    take raises TypeError naming it."""
    start = time.perf_counter()
    mask = DETECTORS[spec.kind](ds, ctx or DetectorContext(), **spec.params)
    runtime = time.perf_counter() - start
    return DetectorRun(spec, DetectionMask(mask.flagged, source=spec.name), runtime)
