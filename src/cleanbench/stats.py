"""Descriptive aggregation and the Wilcoxon signed-rank A/B test.

The two-tailed signed-rank test compares paired metric samples from two
scenarios. Zero differences are discarded; |differences| get average ranks on
ties; W = min(W+, W-). Exact mode counts the sign assignments as extreme as
the observed one out of all 2^n, by a subset-sum count over doubled ranks,
and is the default for n <= 12; the normal approximation applies a +0.5
continuity correction toward the null and a tie correction in the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class StatsError(Exception):
    pass


@dataclass
class PairedSample:
    pairs: list[tuple[float, float]]
    labels: tuple[str, str] = ("a", "b")

    def __post_init__(self):
        if not self.pairs:
            raise StatsError("paired sample needs at least one pair")

    def differences(self) -> np.ndarray:
        return np.array([a - b for a, b in self.pairs], dtype=float)


@dataclass
class ABTestResult:
    w_statistic: float
    p_value: float
    alpha: float
    reject_h0: bool
    n_effective: int
    mode: str  # "exact" | "normal_approx"
    degenerate: bool = False
    labels: tuple[str, str] = ("a", "b")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """Two-tailed p over all 2^n sign assignments: 2 * P(W+ <= w_obs).

    Average ranks are multiples of 1/2, so doubled they are integers, and
    the number of assignments with each doubled W+ is a subset-sum count.
    The count is exact, so p is the float that enumerating every assignment
    gives, in O(n * sum of ranks) steps instead of O(2^n).
    """
    n = len(ranks)
    doubled = np.rint(2.0 * ranks).astype(int).tolist()
    ways = np.zeros(sum(doubled) + 1, dtype=object)  # Python ints: no overflow
    ways[0] = 1
    for r in doubled:
        ways[r:] = ways[r:] + ways[:-r]
    # W+ <= w_obs + 1e-9, with W+ = s / 2 exactly
    count = int(ways[: math.floor(2.0 * (w_obs + 1e-9)) + 1].sum())
    return min(1.0, 2.0 * count / (1 << n))


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_p(ranks: np.ndarray, w_obs: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    variance -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if variance <= 0:
        return 1.0
    z = (w_obs - mean + 0.5) / math.sqrt(variance)
    return min(1.0, 2.0 * _normal_cdf(z))


def wilcoxon_signed_rank(
    sample: PairedSample, alpha: float = 0.05, mode: str = "auto"
) -> ABTestResult:
    """Two-tailed Wilcoxon signed-rank test on paired metric values.

    mode "auto" uses the exact count for n <= 12 effective pairs and the
    continuity-corrected normal approximation above.
    """
    if mode not in ("auto", "exact", "normal_approx"):
        raise StatsError(f"unknown mode {mode!r}")
    diffs = sample.differences()
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        # Every pair tied: no evidence either way.
        return ABTestResult(
            w_statistic=0.0,
            p_value=1.0,
            alpha=alpha,
            reject_h0=False,
            n_effective=0,
            mode="exact",
            degenerate=True,
            labels=sample.labels,
        )
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if mode == "auto":
        mode = "exact" if n <= 12 else "normal_approx"
    if mode == "exact":
        p = _exact_p(ranks, w)
    else:
        p = _normal_p(ranks, w)
    return ABTestResult(
        w_statistic=w,
        p_value=p,
        alpha=alpha,
        reject_h0=p < alpha,
        n_effective=n,
        mode=mode,
        labels=sample.labels,
    )


@dataclass
class Summary:
    mean: float
    std: float | None
    n: int


def summarize(values: list[float]) -> Summary:
    """Arithmetic mean and sample (n-1) standard deviation."""
    if not values:
        raise StatsError("cannot summarize an empty list")
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else None
    return Summary(float(arr.mean()), std, len(arr))
