"""Controlled error injection with an exact per-kind ledger of touched cells.

Each error kind draws from its own RNG stream derived from the master seed, so
adding or removing a kind never perturbs another kind's draws. Cells are
sampled without replacement across kinds: the per-kind masks are disjoint and
their union is exactly the set of cells whose raw text changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import DenialConstraint
from .seeding import derive_rng
from .tabular import CellRef, Dataset, DatasetPair, DetectionMask, mask_from, union_masks

CELL_KINDS = (
    "explicit_mv",
    "implicit_mv",
    "gaussian_outlier",
    "keyboard_typo",
    "value_swap",
    "rule_violation",
)
ROW_KINDS = ("mislabel", "duplicate_row")
ALL_KINDS = CELL_KINDS + ROW_KINDS

# Injection order is fixed: row-kinds that rewrite cells run after plain cell
# kinds, and duplicates append rows last so nothing disturbs them afterwards.
KIND_ORDER = (
    "explicit_mv",
    "implicit_mv",
    "gaussian_outlier",
    "keyboard_typo",
    "value_swap",
    "mislabel",
    "rule_violation",
    "duplicate_row",
)

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
    kinds and a fraction of rows for mislabel/duplicate_row."""

    kind: str
    rate: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise InjectionError(f"unknown error kind {self.kind!r}")
        if self.rate < 0:
            raise InjectionError(f"{self.kind}: rate must be >= 0")
        if self.kind == "gaussian_outlier" and self.params.get("degree", 4.0) <= 0:
            raise InjectionError("gaussian_outlier degree must be > 0")
        if self.kind == "mislabel" and "label_column" not in self.params:
            raise InjectionError("mislabel requires a label_column param")


@dataclass
class ErrorProfile:
    entries: list[ErrorSpec]

    def __post_init__(self):
        kinds = [e.kind for e in self.entries]
        if len(set(kinds)) != len(kinds):
            raise InjectionError("duplicate error kind in profile")
        cell_rate = sum(e.rate for e in self.entries if e.kind in CELL_KINDS)
        if cell_rate > 1.0 + 1e-12:
            raise InjectionError(f"cell-level rates sum to {cell_rate}, must be <= 1")

    def get(self, kind: str) -> ErrorSpec | None:
        for e in self.entries:
            if e.kind == kind:
                return e
        return None

    def kinds(self) -> list[str]:
        return [e.kind for e in self.entries]

    @staticmethod
    def from_dict(spec: dict) -> "ErrorProfile":
        entries = []
        for kind, body in spec.items():
            if isinstance(body, dict):
                body = dict(body)
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


def cell_budget(rate: float, row_count: int, col_count: int) -> int:
    return int(round(rate * row_count * col_count))


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


def _sample_refs(eligible: list[CellRef], count: int, rng: np.random.Generator, kind: str) -> list[CellRef]:
    if count > len(eligible):
        raise InjectionError(
            f"{kind}: rate infeasible, wanted {count} cells but only {len(eligible)} eligible"
        )
    if count == 0:
        return []
    idx = rng.choice(len(eligible), size=count, replace=False)
    return [eligible[i] for i in sorted(idx.tolist())]


class _Grid:
    """Mutable working copy of the ground-truth raw texts."""

    def __init__(self, gt: Dataset):
        self.cols = [c.raw_values().copy() for c in gt.columns]
        # cells already injected or frozen as one side of a rule violation
        self.busy = np.zeros((gt.row_count, gt.col_count), dtype=bool)

    def raw(self, r: int, c: int) -> str:
        return self.cols[c][r]

    def set(self, ref: CellRef, value: str) -> None:
        self.cols[ref.col][ref.row] = value
        self.busy[ref.row, ref.col] = True

    def free(self, ref: CellRef) -> bool:
        return not self.busy[ref.row, ref.col]

    def eligible(self, ok_in_column) -> list[CellRef]:
        """Free cells, in row-major order, where the bool array (or scalar)
        `ok_in_column(c)` holds."""
        ok = np.zeros_like(self.busy)
        for c in range(ok.shape[1]):
            ok[:, c] = ok_in_column(c)
        rows, cols = np.nonzero(ok & ~self.busy)
        return list(map(CellRef, rows.tolist(), cols.tolist()))


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


def inject(
    gt: Dataset,
    profile: ErrorProfile,
    seed: int,
    constraints: list[DenialConstraint] | None = None,
) -> tuple[DatasetPair, InjectionReport]:
    """Dirty `gt` per the profile; the report masks exactly cover changed cells."""
    u, v = gt.row_count, gt.col_count
    grid = _Grid(gt)
    masks: dict[str, set[CellRef]] = {}
    totals: dict[str, int] = {}
    requested: dict[str, int] = {}
    provenance: dict[int, int] = {}
    appended_rows: list[tuple[str, ...]] = []

    for kind in KIND_ORDER:
        entry = profile.get(kind)
        if entry is None:
            continue
        rng = derive_rng(seed, "inject", kind)
        mask: set[CellRef] = set()

        if kind == "explicit_mv":
            target = cell_budget(entry.rate, u, v)
            requested[kind] = target
            eligible = grid.eligible(lambda c: grid.cols[c] != "")
            for ref in _sample_refs(eligible, target, rng, kind):
                grid.set(ref, "")
                mask.add(ref)

        elif kind == "implicit_mv":
            target = cell_budget(entry.rate, u, v)
            requested[kind] = target
            numeric_code: dict[int, str | None] = {}
            for c in gt.numeric_column_indices():
                parsed = gt.columns[c].parsed_values()
                finite = parsed[~np.isnan(parsed)]
                numeric_code[c] = _disguise_code(float(finite.max())) if finite.size else None

            def disguisable(c: int):
                col = gt.columns[c]
                if not col.is_numeric:
                    return ~col.empty_flags()
                code = numeric_code[c]
                return code is not None and ~np.isnan(col.parsed_values()) & (grid.cols[c] != code)

            for ref in _sample_refs(grid.eligible(disguisable), target, rng, kind):
                col = gt.columns[ref.col]
                if col.is_numeric:
                    grid.set(ref, numeric_code[ref.col])
                else:
                    options = [t for t in CATEGORICAL_DISGUISE_TOKENS if t != grid.raw(ref.row, ref.col)]
                    grid.set(ref, options[rng.integers(len(options))])
                mask.add(ref)

        elif kind == "gaussian_outlier":
            target = cell_budget(entry.rate, u, v)
            requested[kind] = target
            degree = float(entry.params.get("degree", 4.0))
            stats: dict[int, tuple[float, float]] = {}
            for c in gt.numeric_column_indices():
                parsed = gt.columns[c].parsed_values()
                finite = parsed[~np.isnan(parsed)]
                if finite.size >= 2:
                    sd = float(finite.std(ddof=1))
                    if sd > 0:
                        stats[c] = (float(finite.mean()), sd)
            eligible = grid.eligible(lambda c: c in stats and ~np.isnan(gt.columns[c].parsed_values()))
            for ref in _sample_refs(eligible, target, rng, kind):
                mu, sigma = stats[ref.col]
                for _ in range(16):
                    sign = 1.0 if rng.integers(2) else -1.0
                    g = abs(float(rng.standard_normal()))
                    value = mu + sign * (degree * sigma + g * sigma)
                    text = repr(value)
                    if text != grid.raw(ref.row, ref.col):
                        break
                grid.set(ref, text)
                mask.add(ref)

        elif kind == "keyboard_typo":
            target = cell_budget(entry.rate, u, v)
            requested[kind] = target
            eligible = grid.eligible(lambda c: ~gt.columns[c].empty_flags())
            for ref in _sample_refs(eligible, target, rng, kind):
                grid.set(ref, apply_keyboard_typo(grid.raw(ref.row, ref.col), rng))
                mask.add(ref)

        elif kind == "value_swap":
            budget = cell_budget(entry.rate, u, v)
            requested[kind] = budget
            n_swaps = budget // 2
            done = 0
            attempts = 0
            while done < n_swaps:
                attempts += 1
                if attempts > 500 * max(n_swaps, 1):
                    raise InjectionError("value_swap: rate infeasible, no swappable row found")
                r = int(rng.integers(u))
                cols = [
                    c
                    for c in range(v)
                    if grid.free(CellRef(r, c))
                ]
                pairs = [
                    (a, b)
                    for i, a in enumerate(cols)
                    for b in cols[i + 1:]
                    if grid.raw(r, a) != grid.raw(r, b)
                ]
                if not pairs:
                    continue
                a, b = pairs[rng.integers(len(pairs))]
                va, vb = grid.raw(r, a), grid.raw(r, b)
                grid.set(CellRef(r, a), vb)
                grid.set(CellRef(r, b), va)
                mask.update({CellRef(r, a), CellRef(r, b)})
                done += 1

        elif kind == "mislabel":
            label_col = gt.col_index(entry.params["label_column"])
            target = int(round(entry.rate * u))
            requested[kind] = target
            col = gt.columns[label_col]
            classes = sorted(set(col.raw_values()[~col.empty_flags()]))
            if len(classes) < 2:
                raise InjectionError("mislabel: label column has fewer than 2 classes")
            eligible = [
                CellRef(r, label_col)
                for r in range(u)
                if grid.free(CellRef(r, label_col)) and grid.raw(r, label_col) in classes
            ]
            for ref in _sample_refs(eligible, target, rng, kind):
                options = [c for c in classes if c != grid.raw(ref.row, ref.col)]
                grid.set(ref, options[rng.integers(len(options))])
                mask.add(ref)

        elif kind == "rule_violation":
            budget = cell_budget(entry.rate, u, v)
            requested[kind] = budget
            if not constraints:
                raise InjectionError("rule_violation requires parsed constraints")
            wanted = entry.params.get("constraints")
            dcs = [dc for dc in constraints if wanted is None or dc.id in wanted]
            if not dcs:
                raise InjectionError("rule_violation: no matching constraint ids")
            shapes = [( [gt.col_index(c) for c in lhs], gt.col_index(rhs) )
                      for lhs, rhs in (_fd_shape(dc) for dc in dcs)]
            injected = 0
            attempts = 0
            while injected < budget:
                attempts += 1
                if attempts > 500 * max(budget, 1):
                    raise InjectionError("rule_violation: rate infeasible")
                lhs_cols, rhs_col = shapes[rng.integers(len(shapes))]
                r1, r2 = rng.choice(u, size=2, replace=False).tolist()
                if grid.raw(r1, rhs_col) == grid.raw(r2, rhs_col):
                    continue
                t2_refs = [CellRef(r2, c) for c in lhs_cols]
                if not all(grid.free(ref) for ref in t2_refs):
                    continue
                changed = [c for c in lhs_cols if grid.raw(r1, c) != grid.raw(r2, c)]
                if not changed or len(changed) > budget - injected:
                    continue
                for c in changed:
                    ref = CellRef(r2, c)
                    grid.set(ref, grid.raw(r1, c))
                    mask.add(ref)
                # Freeze both sides of the created violation so later pairs
                # cannot overwrite them and dissolve it.
                grid.busy[np.ix_([r1, r2], lhs_cols + [rhs_col])] = True
                injected += len(changed)

        elif kind == "duplicate_row":
            target = int(round(entry.rate * u))
            requested[kind] = target
            if target > u:
                raise InjectionError("duplicate_row: row_fraction exceeds available rows")
            fuzzy = float(entry.params.get("fuzzy", 0.5))
            sources = rng.choice(u, size=target, replace=False).tolist() if target else []
            for i, src in enumerate(sources):
                new_row = u + len(appended_rows)
                row = [grid.raw(src, c) for c in range(v)]
                if rng.random() < fuzzy:
                    candidates = [c for c in range(v) if row[c] != ""]
                    if candidates:
                        c = candidates[rng.integers(len(candidates))]
                        row[c] = apply_keyboard_typo(row[c], rng)
                appended_rows.append(tuple(row))
                provenance[new_row] = int(src)
                mask.update(CellRef(new_row, c) for c in range(v))

        masks[kind] = mask
        totals[kind] = len(mask)

    dirty = Dataset.from_rows(
        gt.name + "_dirty",
        gt.column_names,
        list(zip(*grid.cols)) + appended_rows,
        schema=gt.schema(),
        null_tokens=gt.null_tokens,
    )
    cell_total = sum(n for kind, n in totals.items() if kind != "duplicate_row")
    report = InjectionReport(
        masks={k: mask_from(m, source=f"inject:{k}") for k, m in masks.items()},
        totals=totals,
        requested=requested,
        achieved_rate=cell_total / (u * v) if u * v else 0.0,
        seed=seed,
    )
    pair = DatasetPair(
        ground_truth=gt,
        dirty=dirty,
        error_mask=report.union_mask(),
        row_provenance=provenance if appended_rows else None,
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
