"""Error detectors: every detector maps a dataset to a mask of flagged cells.

Row-level detectors (isolation forest, key collision) project rows to cells so
all downstream scoring stays cell-level. Detectors are pure given (dataset,
spec, seed) and safe to run in parallel.
"""

from __future__ import annotations

import math
import re
import time
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


def _grow_iso_tree(sample: list, limit: int, rng: np.random.Generator, c_table: list, names: list):
    """Grow one isolation tree on `sample` (rows as lists of floats) as flat
    node arrays `(feature, threshold, kids, h)`.

    The first three are `models.tree_leaves`' format, walked with np.less: a
    row x at internal node i goes to `kids[2i]` when `x[feature[i]] <
    threshold[i]`, else to `kids[2i + 1]`. A leaf's kids are itself, and
    `h[i]` is its depth plus `c_table[size]`, so `limit` steps of the walk
    give every row's path length. Nodes grow from an explicit stack, depth
    first and left before right, so the generator sees one `integers` and
    one `uniform` call per split in that order.

    The sample holds no NaN (`_iforest_features` fills it with the median),
    so a column's max - min > 0 exactly when its values are not all equal:
    distinct floats differ by a positive amount, -0.0 and 0.0 by zero and
    equal infinities by NaN. Only the drawn column needs its min and max. At
    the depth limit both children are leaves, so only their sizes are needed.
    `names` label the columns in errors.
    """
    feature, threshold, kids, h = [0], [0.0], [0, 0], [c_table[len(sample)]]
    stack = [(0, sample, 0)]
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
    c_table = [_c_factor(size) for size in range(psi + 1)]
    Xt = np.ascontiguousarray(X.T)
    rng = derive_rng(seed, "iforest")
    paths = np.zeros(n)
    for _ in range(trees):
        idx = rng.choice(n, size=psi, replace=False)
        feature, threshold, kids, h = _grow_iso_tree(X[idx].tolist(), limit, rng, c_table, names)
        paths += h[models.tree_leaves(Xt, feature, threshold, kids, limit, np.less)]
    return np.power(2.0, -(paths / trees) / _c_factor(psi))


def iforest_scores(
    ds: Dataset, trees: int = 100, subsample: int = 256, seed: int = 0
) -> np.ndarray:
    """Per-row anomaly score 2^(-E[h(x)] / c(psi)); higher is more anomalous."""
    if trees < 1:
        raise DetectorError("iforest requires trees >= 1")
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
    num_cols = ds.numeric_column_indices()
    if not num_cols:
        raise DetectorError("iforest requires at least one numeric column")
    if trees < 1:
        raise DetectorError("iforest requires trees >= 1")
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
