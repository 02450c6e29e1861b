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
from .tabular import Dataset, DetectionMask, bounding_shape, cells_of, union_masks

DETECTOR_KINDS = ("mvd", "fahes", "sd", "iqr", "if", "rule", "dedup", "cl", "mink", "maxent")


class DetectorError(Exception):
    pass


@dataclass
class DetectorSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
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
        flagged[:, j] = col.empty_flags()
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
            parsed = col.parsed_values()
            finite = parsed[~np.isnan(parsed)]
            if finite.size == 0:
                continue
            q1, q3 = np.quantile(finite, [0.25, 0.75])
            outside = (parsed < q1 - 3.0 * (q3 - q1)) | (parsed > q3 + 3.0 * (q3 - q1))
            flagged[outside, j] = [_is_repeated_digit(raw) for raw in col.raw_values()[outside]]
        else:
            flagged[:, j] = [_is_disguise_token(raw) for raw in col.raw_values()]
    return DetectionMask(flagged, source="fahes")


def _unparsable(col) -> np.ndarray:
    # Type-corrupted values: non-empty text in a numeric column with no parse.
    return ~col.empty_flags() & np.isnan(col.parsed_values())


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
        parsed = col.parsed_values()
        finite = parsed[~np.isnan(parsed)]
        if finite.size < 3:
            continue
        flagged[:, j] |= np.abs(parsed - finite.mean()) > n * finite.std(ddof=1)
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
        parsed = col.parsed_values()
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


class _IsoNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, size):
        self.size = size
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None


def _grow_iso_tree(X: np.ndarray, depth: int, limit: int, rng: np.random.Generator) -> _IsoNode:
    node = _IsoNode(X.shape[0])
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
    node.left = _grow_iso_tree(X[mask], depth + 1, limit, rng)
    node.right = _grow_iso_tree(X[~mask], depth + 1, limit, rng)
    return node


def _iso_path_lengths(X: np.ndarray, root: _IsoNode) -> np.ndarray:
    """Path length h(x) of every row of X in one tree: the depth of its leaf
    plus c(size) for the rows the depth limit left unisolated."""
    h = np.empty(X.shape[0])
    for leaf, rows, depth in models.route_rows(X, root, np.less):
        h[rows] = depth + _c_factor(leaf.size)
    return h


def _iforest_features(ds: Dataset, num_cols: list[int]):
    X = np.column_stack([ds.columns[c].parsed_values() for c in num_cols])
    col_median = np.zeros(len(num_cols))
    col_mad = np.zeros(len(num_cols))
    for j in range(len(num_cols)):
        finite = X[:, j][~np.isnan(X[:, j])]
        col_median[j] = np.median(finite) if finite.size else 0.0
        col_mad[j] = np.median(np.abs(finite - col_median[j])) if finite.size else 0.0
        X[np.isnan(X[:, j]), j] = col_median[j]
    return X, col_median, col_mad


def iforest_scores(
    ds: Dataset, trees: int = 100, subsample: int = 256, seed: int = 0
) -> np.ndarray:
    """Per-row anomaly score 2^(-E[h(x)] / c(psi)); higher is more anomalous."""
    if trees < 1:
        raise DetectorError("iforest requires trees >= 1")
    num_cols = ds.numeric_column_indices()
    if not num_cols:
        raise DetectorError("iforest requires at least one numeric column")
    n = ds.row_count
    psi = min(subsample, n)
    if _c_factor(psi) == 0.0:
        # A subsample of one row isolates nothing, so no row is more anomalous
        # than another (scikit-learn's convention).
        return np.full(n, 0.5)
    X, _, _ = _iforest_features(ds, num_cols)
    limit = max(1, math.ceil(math.log2(max(psi, 2))))
    rng = derive_rng(seed, "iforest")
    paths = np.zeros(n)
    for _ in range(trees):
        idx = rng.choice(n, size=psi, replace=False)
        root = _grow_iso_tree(X[idx], 0, limit, rng)
        paths += _iso_path_lengths(X, root)
    return np.power(2.0, -(paths / trees) / _c_factor(psi))


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
    n = ds.row_count
    budget = math.ceil(contamination * n)
    if budget == 0 or n == 0:
        if trees < 1:
            raise DetectorError("iforest requires trees >= 1")
        return DetectionMask(_no_flags(ds), source="if")

    _, col_median, col_mad = _iforest_features(ds, num_cols)
    scores = iforest_scores(ds, trees=trees, subsample=subsample, seed=seed)
    rows = np.argsort(-scores, kind="stable")[:budget]

    # Robust z-scores of the flagged rows' cells; NaN (never strong) where a
    # cell has no parse, inf where the column has no spread but the cell
    # deviates from the median.
    dev = np.abs(np.column_stack([ds.columns[c].parsed_values()[rows] for c in num_cols]) - col_median)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(col_mad > 0, dev / (1.4826 * col_mad), np.where(dev > 0, np.inf, 0.0))
    strong = z > 3.0
    strong[~strong.any(axis=1)] = True
    flagged = _no_flags(ds)
    flagged[np.ix_(rows, num_cols)] = strong
    return DetectionMask(flagged, source="if")


def detect_duplicates(ds: Dataset, key_columns: list[str]) -> DetectionMask:
    """Key collision: within each group sharing the key tuple, every row after
    the first is flagged whole."""
    if not key_columns:
        raise DetectorError("dedup requires at least one key column")
    key_idx = [ds.col_index(c) for c in key_columns]
    seen: set[tuple] = set()
    flagged = _no_flags(ds)
    for r, key in enumerate(zip(*(ds.columns[c].raw_values() for c in key_idx))):
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
        for pos, i in enumerate(idx):
            assignment[i] = pos % folds
    return assignment


def detect_mislabels(
    ds: Dataset,
    label_column: str,
    folds: int = 5,
    base: str = "logit",
    seed: int = 0,
) -> DetectionMask:
    """Confident-learning style mislabel detection.

    Out-of-sample class probabilities come from k-fold cross-fitting of the
    base classifier; a sample is flagged when its probability under the given
    label falls below that class's mean self-confidence and the argmax class
    disagrees. Only the label cell is flagged.
    """
    if folds < 2:
        raise DetectorError("mislabel detection requires folds >= 2")
    label_idx = ds.col_index(label_column)
    labels = ds.column(label_column).raw_values()
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DetectorError("label column must carry at least 2 classes")
    class_index = {c: i for i, c in enumerate(classes)}

    spec = models.ModelSpec(base, "classification", {}, seed=seed)
    full, _ = models.encode(ds, ds, target=label_column)
    X = full.features
    rng = derive_rng(seed, "mislabel-folds")
    fold_of = _stratified_folds(labels, folds, rng)

    probs = np.zeros((ds.row_count, len(classes)))
    for f in range(folds):
        train_idx = np.flatnonzero(fold_of != f)
        test_idx = np.flatnonzero(fold_of == f)
        model = models.build_model(spec)
        model.fit(X[train_idx], np.array([labels[i] for i in train_idx], dtype=object))
        fold_probs = model.predict_proba(X[test_idx])
        for col, cls in enumerate(model.classes_):
            probs[test_idx, class_index[cls]] = fold_probs[:, col]

    flagged = _no_flags(ds)
    flagged[confident_learning_flags(probs, labels, classes), label_idx] = True
    return DetectionMask(flagged, source="cl")


def confident_learning_flags(
    probs: np.ndarray, labels: list[str], classes: list[str]
) -> list[int]:
    """Indices whose given-label probability falls below the per-class
    self-confidence threshold while the argmax class disagrees."""
    class_index = {c: i for i, c in enumerate(classes)}
    thresholds = {}
    for cls, k in class_index.items():
        members = [i for i, lab in enumerate(labels) if lab == cls]
        thresholds[cls] = float(np.mean(probs[members, k])) if members else 1.0
    flagged = []
    for i, lab in enumerate(labels):
        own = probs[i, class_index[lab]]
        top = classes[int(np.argmax(probs[i]))]
        if own < thresholds[lab] and top != lab:
            flagged.append(i)
    return flagged


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
            candidates = cells_of(mask.flagged & ~decided.matrix(mask.flagged.shape))
            size = min(share, len(candidates))
            if size:
                chosen = rng.choice(len(candidates), size=size, replace=False)
                sample = [candidates[i] for i in sorted(chosen.tolist())]
                dirty = sum(1 for ref in sample if ref in oracle_mask)
                precision = dirty / size
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


def run_detector(spec: DetectorSpec, ds: Dataset, ctx: DetectorContext | None = None) -> DetectorRun:
    """Dispatch a detector spec, timing the traversal of the dataset."""
    ctx = ctx or DetectorContext()
    p = spec.params
    start = time.perf_counter()
    if spec.kind == "mvd":
        mask = detect_missing(ds)
    elif spec.kind == "fahes":
        mask = detect_disguised(ds)
    elif spec.kind == "sd":
        mask = detect_outliers_sd(ds, n=p.get("n", 3.0))
    elif spec.kind == "iqr":
        mask = detect_outliers_iqr(ds, k=p.get("k", 1.5))
    elif spec.kind == "if":
        mask = detect_outliers_iforest(
            ds,
            trees=p.get("trees", 100),
            subsample=p.get("subsample", 256),
            seed=p.get("seed", ctx.seed),
            contamination=p.get("contamination", ctx.contamination),
        )
    elif spec.kind == "rule":
        if not ctx.constraints:
            raise DetectorError("rule detector needs parsed constraints")
        wanted = p.get("constraints")
        dcs = [dc for dc in ctx.constraints if wanted is None or dc.id in wanted]
        mask = find_violations(ds, dcs)
    elif spec.kind == "dedup":
        keys = p.get("key_columns", ctx.key_columns)
        if not keys:
            raise DetectorError("dedup detector needs key columns")
        mask = detect_duplicates(ds, keys)
    elif spec.kind == "cl":
        label = p.get("label_column", ctx.label_column)
        if not label:
            raise DetectorError("mislabel detector needs a label column")
        mask = detect_mislabels(
            ds,
            label,
            folds=p.get("folds", 5),
            base=p.get("base", "logit"),
            seed=p.get("seed", ctx.seed),
        )
    elif spec.kind == "mink":
        base = [DetectorSpec(k, dict(v)) for k, v in p["base"]]
        runs = [run_detector(b, ds, ctx).mask for b in base]
        mask = ensemble_min_k(runs, p.get("k", 2))
    elif spec.kind == "maxent":
        if ctx.oracle_mask is None:
            raise DetectorError("max entropy needs an oracle mask")
        base = [DetectorSpec(k, dict(v)) for k, v in p["base"]]
        named = [(b.name, run_detector(b, ds, ctx).mask) for b in base]
        result = ensemble_max_entropy(
            named, ctx.oracle_mask, p.get("label_budget", 10 * len(base)), seed=ctx.seed
        )
        mask = result.mask
    else:
        raise DetectorError(f"unknown detector kind {spec.kind!r}")
    runtime = time.perf_counter() - start
    mask = DetectionMask(mask.flagged, source=spec.name)
    return DetectorRun(spec, mask, runtime)
