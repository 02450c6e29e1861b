"""Controlled error injection with an exact per-kind record of touched cells.

Each error kind is one injector in `INJECTORS`, run in the table's order, and
draws from its own RNG stream derived from the master seed, so adding or
removing a kind never perturbs another kind's draws. Cells are sampled
without replacement across kinds, and one code matrix records which kind
changed each cell: the per-kind masks are disjoint and their union is exactly
the set of cells whose raw text changed. A kind writes its cells in bulk, and
the dirty dataset's columns come straight from the working copy.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .constraints import DenialConstraint
from .models import sample_mean, sample_std
from .seeding import HalfWords, derive_rng
from .tabular import Column, Dataset, DatasetPair, DetectionMask, _parse_texts, union_masks

NUMERIC_DISGUISE_CODES = ("-1", "0", "99", "999", "9999", "99999")
CATEGORICAL_DISGUISE_TOKENS = ("NA", "none", "empty", "?")

_KEY_ROWS = ("1234567890", "qwertyuiop", "asdfghjkl", "zxcvbnm")


def _build_adjacency() -> dict[str, str]:
    adj: dict[str, str] = {}
    for r, row in enumerate(_KEY_ROWS):
        for i, ch in enumerate(row):
            neighbors = []
            for rr in (r - 1, r, r + 1):
                if not 0 <= rr < len(_KEY_ROWS):
                    continue
                for ii in (i - 1, i, i + 1):
                    if rr == r and ii == i:
                        continue
                    if 0 <= ii < len(_KEY_ROWS[rr]):
                        neighbors.append(_KEY_ROWS[rr][ii])
            adj[ch] = "".join(neighbors)
    return adj


KEYBOARD_ADJACENCY = _build_adjacency()


class InjectionError(Exception):
    pass


@dataclass
class ErrorSpec:
    """One requested error kind; rate is a fraction of total cells for cell
    kinds and a fraction of rows for mislabel/duplicate_row. The params must
    be the keyword params of the kind's injector."""

    kind: str
    rate: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in INJECTORS:
            raise InjectionError(f"unknown error kind {self.kind!r}")
        if self.rate < 0:
            raise InjectionError(f"{self.kind}: rate must be >= 0")
        signature = inspect.signature(INJECTORS[self.kind].run).parameters.values()
        defaults = {p.name: p.default for p in signature if p.kind is p.KEYWORD_ONLY}
        for name in self.params:
            if name not in defaults:
                raise InjectionError(f"{self.kind}: unknown param {name!r}")
        for name, default in defaults.items():
            if default is inspect.Parameter.empty and name not in self.params:
                raise InjectionError(f"{self.kind} requires a {name} param")
        if self.kind == "gaussian_outlier" and {**defaults, **self.params}["degree"] <= 0:
            raise InjectionError("gaussian_outlier degree must be > 0")


@dataclass
class ErrorProfile:
    entries: list[ErrorSpec]

    def __post_init__(self):
        kinds = [e.kind for e in self.entries]
        if len(set(kinds)) != len(kinds):
            raise InjectionError("duplicate error kind in profile")
        cell_rate = sum(e.rate for e in self.entries if INJECTORS[e.kind].per_cell)
        if cell_rate > 1.0 + 1e-12:
            raise InjectionError(f"cell-level rates sum to {cell_rate}, must be <= 1")

    def get(self, kind: str) -> ErrorSpec | None:
        for e in self.entries:
            if e.kind == kind:
                return e
        return None

    @staticmethod
    def from_dict(spec: dict) -> "ErrorProfile":
        entries = []
        for kind, body in spec.items():
            if isinstance(body, dict):
                body = dict(body)
                if "rate" not in body:
                    raise InjectionError(f"{kind} requires a rate")
                rate = body.pop("rate")
                entries.append(ErrorSpec(kind, float(rate), body))
            else:
                entries.append(ErrorSpec(kind, float(body)))
        return ErrorProfile(entries)

    def to_dict(self) -> dict:
        return {e.kind: {"rate": e.rate, **e.params} for e in self.entries}


@dataclass
class InjectionReport:
    masks: dict[str, DetectionMask]
    totals: dict[str, int]
    requested: dict[str, int]
    achieved_rate: float
    seed: int

    def union_mask(self) -> DetectionMask:
        return union_masks(self.masks.values(), source="injected")


def apply_keyboard_typo(text: str, rng: np.random.Generator) -> str:
    """One random edit: adjacent-key substitution, insertion, deletion, or
    transposition, drawn uniformly; retried until the text actually changes."""
    for _ in range(64):
        edit = ("substitute", "insert", "delete", "transpose")[rng.integers(4)]
        if edit == "substitute":
            positions = [i for i, ch in enumerate(text) if ch.lower() in KEYBOARD_ADJACENCY]
            if not positions:
                continue
            i = positions[rng.integers(len(positions))]
            ch = text[i]
            options = KEYBOARD_ADJACENCY[ch.lower()]
            repl = options[rng.integers(len(options))]
            if ch.isupper():
                repl = repl.upper()
            cand = text[:i] + repl + text[i + 1:]
        elif edit == "insert":
            i = int(rng.integers(len(text) + 1))
            ref = text[i] if i < len(text) else (text[-1] if text else "")
            if ref.lower() in KEYBOARD_ADJACENCY:
                options = KEYBOARD_ADJACENCY[ref.lower()]
                ins = options[rng.integers(len(options))]
            else:
                keys = "qwertyuiopasdfghjklzxcvbnm"
                ins = keys[rng.integers(len(keys))]
            cand = text[:i] + ins + text[i:]
        elif edit == "delete":
            if not text:
                continue
            i = int(rng.integers(len(text)))
            cand = text[:i] + text[i + 1:]
        else:
            if len(text) < 2:
                continue
            i = int(rng.integers(len(text) - 1))
            cand = text[:i] + text[i + 1] + text[i] + text[i + 2:]
        if cand != text:
            return cand
    raise InjectionError(f"could not produce a changed typo for {text!r}")


def _disguise_code(col_max: float) -> str:
    # Largest code exceeding the column maximum; when even 99999 does not
    # exceed it, fall back to the low sentinel.
    candidates = [c for c in NUMERIC_DISGUISE_CODES if float(c) > col_max]
    if candidates:
        return max(candidates, key=float)
    return "-1"


class _Grid:
    """Columnar working copy of the ground truth while the kinds inject.

    Each column keeps its raw texts, parsed floats and empty flags. `busy`
    marks the cells already injected or frozen as one side of a rule
    violation, and `code` the kind that changed each cell: 0 for none, else
    the kind's place in `INJECTORS` plus one. Appended duplicates are kept
    on the side, as rows of texts with their kind's code."""

    def __init__(self, gt: Dataset, constraints: list[DenialConstraint] | None):
        self.gt, self.constraints = gt, constraints
        self.cols = [c.raw.copy() for c in gt.columns]
        self.parsed = [c.parsed.copy() for c in gt.columns]
        self.empty = [c.empty.copy() for c in gt.columns]
        shape = (gt.row_count, gt.col_count)
        self.busy = np.zeros(shape, dtype=bool)
        self.code = np.zeros(shape, dtype=np.int8)
        # cells whose texts `dirty` still has to parse
        self.stale = np.zeros(shape, dtype=bool)
        self.kind = ""  # the kind injecting now
        self.requested: dict[str, int] = {}
        self.appended: list[tuple[str, ...]] = []
        self.appended_codes: list[int] = []
        self.provenance: dict[int, int] = {}

    def raw(self, r: int, c: int) -> str:
        return self.cols[c][r]

    def set(self, rows, cols, texts, parsed=None) -> None:
        """Write the current kind's `texts` into the cells (rows[i], cols[i]),
        raw texts at once. `parsed` holds the float each text parses to,
        where the kind knows it (a null-token text still reads empty);
        otherwise `dirty` parses the texts, once per column."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        texts = np.asarray(texts, dtype=object)
        self.busy[rows, cols] = True
        self.code[rows, cols] = _CODES[self.kind]
        if parsed is None:
            self.stale[rows, cols] = True
        else:
            null_tokens = self.gt.null_tokens
            empty = np.fromiter((text in null_tokens for text in texts.tolist()), dtype=bool, count=texts.size)
            parsed = np.where(empty, np.nan, parsed)
        for c in set(cols.tolist()):
            at = cols == c
            self.cols[c][rows[at]] = texts[at]
            if parsed is not None:
                self.parsed[c][rows[at]], self.empty[c][rows[at]] = parsed[at], empty[at]

    def append_row(self, row: list[str], source: int) -> None:
        """Append `row` as a duplicate of row `source`; all its cells are the kind's."""
        self.provenance[self.gt.row_count + len(self.appended)] = source
        self.appended.append(tuple(row))
        self.appended_codes.append(_CODES[self.kind])

    def budget(self, rate: float) -> int:
        """The current kind's requested count: of cells, or of rows for a
        kind whose rate is per row."""
        u, v = self.busy.shape
        count = int(round(rate * u * v)) if INJECTORS[self.kind].per_cell else int(round(rate * u))
        self.requested[self.kind] = count
        return count

    def sample(self, ok_in_column, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The current kind's budget of free cells where the bool array (or
        scalar) `ok_in_column(c)` holds, drawn without replacement, as row
        and column arrays in row-major order."""
        ok = np.zeros_like(self.busy)
        for c in range(ok.shape[1]):
            ok[:, c] = ok_in_column(c)
        rows, cols = np.nonzero(ok & ~self.busy)
        count = self.budget(rate)
        if count > rows.size:
            raise InjectionError(
                f"{self.kind}: rate infeasible, wanted {count} cells but only {rows.size} eligible"
            )
        idx = np.sort(rng.choice(rows.size, size=count, replace=False)) if count else np.zeros(0, dtype=np.intp)
        return rows[idx], cols[idx]

    def codes(self) -> np.ndarray:
        """`code` with a row for each appended duplicate below it."""
        appended = np.array(self.appended_codes, dtype=np.int8)
        return np.concatenate([self.code, np.repeat(appended[:, None], self.code.shape[1], axis=1)])

    def dirty(self, name: str) -> Dataset:
        """The dirty dataset: the changed columns from the grid, with their
        texts of unknown parse parsed now, and the duplicates appended."""
        gt = self.gt
        columns = list(gt.columns)
        for c in np.flatnonzero(self.code.any(axis=0)).tolist():
            rows = np.flatnonzero(self.stale[:, c])
            if rows.size:
                _, parsed, empty = _parse_texts(self.cols[c][rows].tolist(), gt.null_tokens)
                self.parsed[c][rows], self.empty[c][rows] = parsed, empty
            col = columns[c]
            columns[c] = Column(col.name, col.declared_type, self.cols[c], self.parsed[c], self.empty[c], col.numeric_ratio)
        dirty = Dataset(name, tuple(columns), gt.null_tokens, dict(gt.meta))
        return dirty.append_rows(self.appended) if self.appended else dirty


def _fd_shape(dc: DenialConstraint) -> tuple[list[str], str]:
    """lhs columns and rhs column of an FD-shaped tuple-pair constraint."""
    lhs, rhs = [], None
    for p in dc.predicates:
        if p.op == "=" and p.left.is_column and p.right.is_column and p.left.column == p.right.column:
            lhs.append(p.left.column)
        elif p.op == "!=" and p.left.is_column and p.right.is_column and p.left.column == p.right.column:
            if rhs is not None:
                raise InjectionError(f"{dc.id}: not FD-shaped (two inequality predicates)")
            rhs = p.left.column
        else:
            raise InjectionError(f"{dc.id}: only FD-shaped constraints are supported for injection")
    if not lhs or rhs is None:
        raise InjectionError(f"{dc.id}: only FD-shaped constraints are supported for injection")
    return lhs, rhs


# -- injectors: one per error kind, each (grid, rate, rng, *, params) --------


def _explicit_mv(grid: _Grid, rate: float, rng: np.random.Generator) -> None:
    rows, cols = grid.sample(lambda c: grid.cols[c] != "", rate, rng)
    grid.set(rows, cols, [""] * rows.size, np.full(rows.size, np.nan))


def _implicit_mv(grid: _Grid, rate: float, rng: np.random.Generator) -> None:
    gt = grid.gt
    numeric_code: dict[int, str | None] = {}
    for c in gt.numeric_column_indices():
        parsed = gt.columns[c].parsed
        finite = parsed[~np.isnan(parsed)]
        numeric_code[c] = _disguise_code(float(finite.max())) if finite.size else None

    def disguisable(c: int):
        col = gt.columns[c]
        if not col.is_numeric:
            return ~col.empty
        code = numeric_code[c]
        return code is not None and ~np.isnan(col.parsed) & (grid.cols[c] != code)

    rows, cols = grid.sample(disguisable, rate, rng)
    texts = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        if gt.columns[c].is_numeric:
            texts.append(numeric_code[c])
        else:
            options = [t for t in CATEGORICAL_DISGUISE_TOKENS if t != grid.raw(r, c)]
            texts.append(options[rng.integers(len(options))])
    grid.set(rows, cols, texts)


def _gaussian_outlier(grid: _Grid, rate: float, rng: np.random.Generator, *, degree=4.0) -> None:
    gt, degree = grid.gt, float(degree)
    stats: dict[int, tuple[float, float]] = {}
    for c in gt.numeric_column_indices():
        parsed = gt.columns[c].parsed
        finite = parsed[~np.isnan(parsed)]
        if finite.size >= 2:
            mu, sd = sample_mean(finite), sample_std(finite)
            # eligible only where an outlier degree * sd from the mean stays a float
            if sd > 0 and math.isfinite(mu + degree * sd) and math.isfinite(mu - degree * sd):
                stats[c] = (mu, sd)
    rows, cols = grid.sample(lambda c: c in stats and ~np.isnan(gt.columns[c].parsed), rate, rng)
    # rng.integers(2) replayed: each sign is one half-word's top bit
    halves = HalfWords(rng.bit_generator)
    coin, normal = halves.integers, rng.standard_normal
    texts, values = [], []
    for r, c in zip(rows.tolist(), cols.tolist()):
        mu, sigma = stats[c]
        for _ in range(16):
            sign = 1.0 if coin(2) else -1.0
            g = abs(normal())
            value = mu + sign * (degree * sigma + g * sigma)
            text = repr(value)
            if math.isfinite(value) and text != grid.raw(r, c):
                break
        if not math.isfinite(value):
            raise InjectionError(f"gaussian_outlier: 16 draws for cell ({r}, {c}) overflowed")
        texts.append(text)
        values.append(value)
    halves.hold(rng.bit_generator)
    grid.set(rows, cols, texts, values)


def _keyboard_typo(grid: _Grid, rate: float, rng: np.random.Generator) -> None:
    rows, cols = grid.sample(lambda c: ~grid.gt.columns[c].empty, rate, rng)
    grid.set(rows, cols, [apply_keyboard_typo(grid.raw(r, c), rng) for r, c in zip(rows.tolist(), cols.tolist())])


def _value_swap(grid: _Grid, rate: float, rng: np.random.Generator) -> None:
    n_swaps = grid.budget(rate) // 2
    rows, cols, texts = [], [], []
    attempts = 0
    while len(rows) < 2 * n_swaps:
        attempts += 1
        if attempts > 500 * max(n_swaps, 1):
            raise InjectionError("value_swap: rate infeasible, no swappable row found")
        r = int(rng.integers(grid.gt.row_count))
        free = np.flatnonzero(~grid.busy[r]).tolist()
        pairs = [(a, b) for i, a in enumerate(free) for b in free[i + 1:] if grid.raw(r, a) != grid.raw(r, b)]
        if not pairs:
            continue
        a, b = pairs[rng.integers(len(pairs))]
        # busy now, written below: later swaps neither take nor read these cells
        grid.busy[r, [a, b]] = True
        rows += (r, r)
        cols += (a, b)
        texts += (grid.raw(r, b), grid.raw(r, a))
    grid.set(rows, cols, texts)


def _mislabel(grid: _Grid, rate: float, rng: np.random.Generator, *, label_column) -> None:
    label_col = grid.gt.col_index(label_column)
    col = grid.gt.columns[label_col]
    classes = sorted(set(col.raw[~col.empty]))
    if len(classes) < 2:
        raise InjectionError("mislabel: label column has fewer than 2 classes")
    rows, cols = grid.sample(lambda c: c == label_col and np.isin(grid.cols[c], classes), rate, rng)
    texts = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        options = [label for label in classes if label != grid.raw(r, c)]
        texts.append(options[rng.integers(len(options))])
    grid.set(rows, cols, texts)


def _rule_violation(grid: _Grid, rate: float, rng: np.random.Generator, *, constraints=None) -> None:
    """Copy the lhs of one row of a pair onto the other where their rhs
    differ; `constraints` names the constraint ids to violate (default all)."""
    gt = grid.gt
    budget = grid.budget(rate)
    if not grid.constraints:
        raise InjectionError("rule_violation requires parsed constraints")
    dcs = [dc for dc in grid.constraints if constraints is None or dc.id in constraints]
    if not dcs:
        raise InjectionError("rule_violation: no matching constraint ids")
    shapes = [([gt.col_index(c) for c in lhs], gt.col_index(rhs)) for lhs, rhs in map(_fd_shape, dcs)]
    injected = 0
    attempts = 0
    while injected < budget:
        attempts += 1
        if attempts > 500 * max(budget, 1):
            raise InjectionError("rule_violation: rate infeasible")
        lhs_cols, rhs_col = shapes[rng.integers(len(shapes))]
        r1, r2 = rng.choice(gt.row_count, size=2, replace=False).tolist()
        if grid.raw(r1, rhs_col) == grid.raw(r2, rhs_col):
            continue
        if grid.busy[r2, lhs_cols].any():
            continue
        changed = [c for c in lhs_cols if grid.raw(r1, c) != grid.raw(r2, c)]
        if not changed or len(changed) > budget - injected:
            continue
        # written at once: a later pair may copy from these cells
        grid.set([r2] * len(changed), changed, [grid.raw(r1, c) for c in changed])
        # Freeze both sides of the created violation so later pairs
        # cannot overwrite them and dissolve it.
        grid.busy[np.ix_([r1, r2], lhs_cols + [rhs_col])] = True
        injected += len(changed)


def _duplicate_row(grid: _Grid, rate: float, rng: np.random.Generator, *, fuzzy=0.5) -> None:
    """Append copies of distinct rows; each copy gets one typo with
    probability `fuzzy`."""
    u, v = grid.busy.shape
    target = grid.budget(rate)
    if target > u:
        raise InjectionError("duplicate_row: row_fraction exceeds available rows")
    sources = rng.choice(u, size=target, replace=False).tolist() if target else []
    fuzzy = float(fuzzy)
    for src in sources:
        row = [grid.raw(src, c) for c in range(v)]
        if rng.random() < fuzzy:
            candidates = [c for c in range(v) if row[c] != ""]
            if candidates:
                c = candidates[rng.integers(len(candidates))]
                row[c] = apply_keyboard_typo(row[c], rng)
        grid.append_row(row, int(src))


class Injector(NamedTuple):
    run: Callable[..., None]
    per_cell: bool  # the rate is a fraction of cells, else of rows


# Injection order is the table's: the kinds that rewrite labels or rule sides
# run after the plain cell kinds, and duplicates append rows last so nothing
# disturbs them afterwards.
INJECTORS = {
    "explicit_mv": Injector(_explicit_mv, per_cell=True),
    "implicit_mv": Injector(_implicit_mv, per_cell=True),
    "gaussian_outlier": Injector(_gaussian_outlier, per_cell=True),
    "keyboard_typo": Injector(_keyboard_typo, per_cell=True),
    "value_swap": Injector(_value_swap, per_cell=True),
    "mislabel": Injector(_mislabel, per_cell=False),
    "rule_violation": Injector(_rule_violation, per_cell=True),
    "duplicate_row": Injector(_duplicate_row, per_cell=False),
}
# A kind's code in `_Grid.code`; 0 marks a cell no kind changed.
_CODES = {kind: code for code, kind in enumerate(INJECTORS, start=1)}


def _smallest_mask(cells: np.ndarray, source: str) -> DetectionMask:
    """The mask of a bool matrix's cells on the smallest grid that holds
    them, as `mask_from` makes it."""
    rows, cols = np.flatnonzero(cells.any(axis=1)), np.flatnonzero(cells.any(axis=0))
    shape = (int(rows[-1]) + 1, int(cols[-1]) + 1) if rows.size else (0, 0)
    return DetectionMask(cells[: shape[0], : shape[1]].copy(), source)


def inject(
    gt: Dataset,
    profile: ErrorProfile,
    seed: int,
    constraints: list[DenialConstraint] | None = None,
) -> tuple[DatasetPair, InjectionReport]:
    """Dirty `gt` per the profile; the report masks exactly cover changed cells."""
    grid = _Grid(gt, constraints)
    kinds = []
    for kind, injector in INJECTORS.items():
        entry = profile.get(kind)
        if entry is not None:
            grid.kind = kind
            kinds.append(kind)
            injector.run(grid, entry.rate, derive_rng(seed, "inject", kind), **entry.params)
    codes = grid.codes()
    totals = np.bincount(codes.ravel(), minlength=len(INJECTORS) + 1).tolist()
    u, v = gt.row_count, gt.col_count
    report = InjectionReport(
        masks={k: _smallest_mask(codes == _CODES[k], f"inject:{k}") for k in kinds},
        totals={k: totals[_CODES[k]] for k in kinds},
        requested=grid.requested,
        # the rate of the original grid's cells, so appended duplicates are left out
        achieved_rate=np.count_nonzero(grid.code) / (u * v) if u * v else 0.0,
        seed=seed,
    )
    pair = DatasetPair(
        ground_truth=gt,
        dirty=grid.dirty(gt.name + "_dirty"),
        error_mask=report.union_mask(),
        row_provenance=grid.provenance or None,
    )
    return pair, report


# -- synthetic generators ----------------------------------------------------


def make_synthetic(generator: str, n: int, seed: int, **params) -> Dataset:
    """Deterministic synthetic dataset with generative parameters in metadata.

    Generators: linear_regression (y = Xw + noise), blobs (k Gaussian
    clusters), two_class (labels from a logistic ground truth).
    """
    if n <= 0:
        raise InjectionError(f"synthetic size must be positive, got {n}")
    rng = derive_rng(seed, "synthetic", generator)
    meta = {"generator": generator, "n": n, "seed": seed, **params}

    if generator == "linear_regression":
        weights = np.asarray(params.get("weights", (3.0, -2.0)), dtype=float)
        noise = float(params.get("noise", 0.1))
        X = rng.standard_normal((n, weights.size))
        y = X @ weights + noise * rng.standard_normal(n)
        cols = [(f"x{j}", "numeric", [repr(float(x)) for x in X[:, j]]) for j in range(weights.size)]
        cols.append(("y", "numeric", [repr(float(t)) for t in y]))
        return Dataset.from_columns(f"linreg_{n}_{seed}", cols, meta=meta)

    if generator == "blobs":
        centers = np.asarray(params.get("centers", ((0.0, 0.0), (10.0, 10.0))), dtype=float)
        spread = float(params.get("spread", 1.0))
        k, d = centers.shape
        assignment = rng.integers(k, size=n)
        X = centers[assignment] + spread * rng.standard_normal((n, d))
        cols = [(f"x{j}", "numeric", [repr(float(x)) for x in X[:, j]]) for j in range(d)]
        meta["assignment"] = assignment.tolist()
        return Dataset.from_columns(f"blobs_{n}_{seed}", cols, meta=meta)

    if generator == "two_class":
        weights = np.asarray(params.get("weights", (2.0, -2.0, 1.0)), dtype=float)
        X = rng.standard_normal((n, weights.size))
        p = 1.0 / (1.0 + np.exp(-(X @ weights)))
        y = (rng.random(n) < p).astype(int)
        cols = [(f"x{j}", "numeric", [repr(float(x)) for x in X[:, j]]) for j in range(weights.size)]
        cols.append(("label", "categorical", [str(int(t)) for t in y]))
        return Dataset.from_columns(f"twoclass_{n}_{seed}", cols, meta=meta)

    raise InjectionError(f"unknown synthetic generator {generator!r}")
