"""Typed tabular data model: CSV I/O, cell addressing, diffing, seeded splits.

A Dataset is an immutable grid of text cells, stored per column as three
read-only arrays: the raw texts, their parsed floats (NaN unless the text is a
finite decimal) and emptiness flags driven by a configurable null-token set.
All "mutation" constructs new datasets, so datasets are safe to share across
workers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

DEFAULT_NULL_TOKENS = frozenset({"", "NA", "N/A", "NaN", "nan", "null", "NULL", "?"})

# A column is inferred numeric when at least this fraction of its non-empty
# cells parse as numbers; dirty data below the bar stays categorical.
NUMERIC_INFERENCE_THRESHOLD = 0.9

COLUMN_TYPES = ("numeric", "categorical", "text")


class TabularError(Exception):
    """Base error for the tabular data model."""


class CsvFormatError(TabularError):
    pass


class ShapeMismatchError(TabularError):
    pass


class SplitError(TabularError):
    pass


class CellRef(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class CellValue:
    raw: str
    parsed: float | None
    is_empty: bool


def _finite_float(text: str) -> float:
    """float(text) when that is finite, else NaN."""
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def make_cell(raw: str, null_tokens: frozenset[str] = DEFAULT_NULL_TOKENS) -> CellValue:
    """Build a cell from raw text; parsed is set only for finite decimals."""
    if raw in null_tokens:
        return CellValue(raw, None, True)
    value = _finite_float(raw)
    return CellValue(raw, None if math.isnan(value) else value, False)


# eq=False: arrays compare element-wise, so columns compare by identity.
@dataclass(frozen=True, eq=False)
class Column:
    """One column as three read-only arrays of equal length: `raw` (object
    array of str), `parsed` (float64, NaN where the text has no finite parse)
    and `empty` (bool)."""

    name: str
    declared_type: str
    raw: np.ndarray
    parsed: np.ndarray
    empty: np.ndarray
    # Fraction of non-empty cells that parsed as numbers when the type was
    # inferred at load time; None when the type was user-declared.
    numeric_ratio: float | None = None

    def __post_init__(self):
        if self.declared_type not in COLUMN_TYPES:
            raise TabularError(f"unknown column type {self.declared_type!r}")
        for values in (self.raw, self.parsed, self.empty):
            values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.raw)

    @property
    def is_numeric(self) -> bool:
        return self.declared_type == "numeric"


def _parse_texts(raws: Sequence[str], null_tokens: frozenset[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (raw, parsed, empty) arrays of a column: each text's `make_cell`,
    without building the cells."""
    empty = [raw in null_tokens for raw in raws]
    parsed = [math.nan if is_empty else _finite_float(raw) for raw, is_empty in zip(raws, empty)]
    return np.array(raws, dtype=object), np.array(parsed, dtype=float), np.array(empty, dtype=bool)


def _inferred_type(parsed: np.ndarray, empty: np.ndarray) -> tuple[str, float]:
    non_empty = int(np.count_nonzero(~empty))
    if not non_empty:
        return "categorical", 0.0
    ratio = int(np.count_nonzero(~np.isnan(parsed))) / non_empty
    return ("numeric" if ratio >= NUMERIC_INFERENCE_THRESHOLD else "categorical"), ratio


def infer_column_type(raws: Sequence[str], null_tokens: frozenset[str]) -> tuple[str, float]:
    return _inferred_type(*_parse_texts(raws, null_tokens)[1:])


@dataclass
class Dataset:
    """An immutable named table; u rows by v columns of tagged cells."""

    name: str
    columns: tuple[Column, ...]
    null_tokens: frozenset[str] = DEFAULT_NULL_TOKENS
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise TabularError(f"duplicate column names in {self.name!r}")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise TabularError(f"columns of unequal length in {self.name!r}: {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def col_count(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise TabularError(f"no column {name!r} in {self.name!r}")

    def column(self, key: int | str) -> Column:
        if isinstance(key, str):
            return self.columns[self.col_index(key)]
        return self.columns[key]

    def cell(self, row: int, col: int) -> CellValue:
        """The scalar view of one cell; `parsed` is a Python float (or None)."""
        c = self.columns[col]
        parsed = c.parsed[row]
        return CellValue(c.raw[row], None if math.isnan(parsed) else float(parsed), bool(c.empty[row]))

    def raw(self, row: int, col: int) -> str:
        return self.columns[col].raw[row]

    def row(self, row: int) -> tuple[str, ...]:
        return tuple(c.raw[row] for c in self.columns)

    def iter_rows(self) -> Iterable[tuple[str, ...]]:
        return zip(*(c.raw for c in self.columns))

    def schema(self) -> dict[str, str]:
        return {c.name: c.declared_type for c in self.columns}

    def numeric_column_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.is_numeric]

    def categorical_column_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if not c.is_numeric]

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(
        name: str,
        header: Sequence[str],
        rows: Sequence[Sequence[str]],
        schema: Mapping[str, str] | None = None,
        null_tokens: frozenset[str] = DEFAULT_NULL_TOKENS,
    ) -> "Dataset":
        header = list(header)
        for i, r in enumerate(rows):
            if len(r) != len(header):
                raise CsvFormatError(f"row {i} has {len(r)} fields, expected {len(header)}")
        columns = []
        for j, col_name in enumerate(header):
            arrays = _parse_texts([str(r[j]) for r in rows], null_tokens)
            if schema is not None and col_name in schema:
                decl, ratio = schema[col_name], None
                if decl not in COLUMN_TYPES:
                    raise TabularError(f"bad declared type {decl!r} for column {col_name!r}")
            else:
                decl, ratio = _inferred_type(*arrays[1:])
            columns.append(Column(col_name, decl, *arrays, numeric_ratio=ratio))
        return Dataset(name, tuple(columns), null_tokens=null_tokens)

    @staticmethod
    def from_columns(
        name: str,
        spec: Sequence[tuple[str, str, Sequence[str]]],
        null_tokens: frozenset[str] = DEFAULT_NULL_TOKENS,
        meta: dict | None = None,
    ) -> "Dataset":
        columns = tuple(
            Column(cname, decl, *_parse_texts([str(r) for r in raws], null_tokens))
            for cname, decl, raws in spec
        )
        return Dataset(name, columns, null_tokens=null_tokens, meta=meta or {})

    # -- derivation ---------------------------------------------------------

    def replace_cells(
        self, updates: Mapping[int, tuple[Sequence[int], Sequence[str]]], name: str | None = None
    ) -> "Dataset":
        """New dataset with raw cell texts substituted column by column:
        `updates` maps a column index to the rows to edit and their new texts."""
        columns = list(self.columns)
        for j, (rows, texts) in updates.items():
            rows = np.asarray(rows, dtype=np.intp)
            if not 0 <= j < self.col_count or ((rows < 0) | (rows >= self.row_count)).any():
                raise TabularError(f"cells of column {j} outside {self.row_count}x{self.col_count}")
            if rows.shape != (len(texts),):
                raise TabularError(f"column {j}: {rows.size} rows but {len(texts)} texts")
            col = columns[j]
            arrays = tuple(a.copy() for a in (col.raw, col.parsed, col.empty))
            for a, new in zip(arrays, _parse_texts(list(texts), self.null_tokens)):
                a[rows] = new
            columns[j] = Column(col.name, col.declared_type, *arrays, col.numeric_ratio)
        return Dataset(name or self.name, tuple(columns), self.null_tokens, dict(self.meta))

    def take_rows(self, indices: Sequence[int], name: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        columns = tuple(
            Column(c.name, c.declared_type, c.raw[idx], c.parsed[idx], c.empty[idx], c.numeric_ratio)
            for c in self.columns
        )
        return Dataset(name or self.name, columns, self.null_tokens, dict(self.meta))

    def append_rows(self, rows: Sequence[Sequence[str]], name: str | None = None) -> "Dataset":
        for r in rows:
            if len(r) != self.col_count:
                raise ShapeMismatchError("appended row width mismatch")
        columns = []
        for j, c in enumerate(self.columns):
            new = _parse_texts([str(r[j]) for r in rows], self.null_tokens)
            arrays = [np.concatenate([old, added]) for old, added in zip((c.raw, c.parsed, c.empty), new)]
            columns.append(Column(c.name, c.declared_type, *arrays, c.numeric_ratio))
        return Dataset(self.name if name is None else name, tuple(columns), self.null_tokens, dict(self.meta))

    def with_name(self, name: str) -> "Dataset":
        return Dataset(name, self.columns, self.null_tokens, dict(self.meta))


@dataclass(frozen=True, eq=False)
class DetectionMask:
    """The cells one producer flagged erroneous, as a read-only bool
    (rows, cols) matrix. A mask is its set of flagged cells (so eq=False):
    masks of different shapes combine, and apply to a dataset, through
    `matrix(shape)`, and the shape never changes a result."""

    flagged: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.flagged.flags.writeable = False

    def __len__(self) -> int:
        return int(np.count_nonzero(self.flagged))

    def __contains__(self, ref: tuple[int, int]) -> bool:
        (row, col), (rows, cols) = ref, self.flagged.shape
        return 0 <= row < rows and 0 <= col < cols and bool(self.flagged[row, col])

    def sorted_cells(self) -> list[CellRef]:
        """The flagged cells in row-major (sorted) order."""
        rows, cols = np.nonzero(self.flagged)
        return list(map(CellRef, rows.tolist(), cols.tolist()))

    def matrix(self, shape: tuple[int, int]) -> np.ndarray:
        """Flagged cells as a bool matrix of `shape`, cropped or zero-padded;
        the stored read-only array when the shape already matches."""
        if self.flagged.shape == tuple(shape):
            return self.flagged
        out = np.zeros(shape, dtype=bool)
        rows, cols = min(shape[0], self.flagged.shape[0]), min(shape[1], self.flagged.shape[1])
        out[:rows, :cols] = self.flagged[:rows, :cols]
        return out

    def validate(self, ds: Dataset) -> None:
        if np.count_nonzero(self.matrix((ds.row_count, ds.col_count))) != len(self):
            ref = next(r for r in self.sorted_cells() if r.row >= ds.row_count or r.col >= ds.col_count)
            raise TabularError(f"mask cell {ref} outside {ds.row_count}x{ds.col_count}")


def mask_from(cells: Iterable[tuple[int, int]], source: str = "") -> DetectionMask:
    """The mask of the given cells, on the smallest grid that holds them."""
    refs = np.array(list(cells), dtype=np.intp).reshape(-1, 2)
    if (refs < 0).any():
        raise TabularError("mask cells need non-negative coordinates")
    flagged = np.zeros(tuple(refs.max(axis=0) + 1) if len(refs) else (0, 0), dtype=bool)
    flagged[refs[:, 0], refs[:, 1]] = True
    return DetectionMask(flagged, source)


def bounding_shape(masks: Iterable[DetectionMask]) -> tuple[int, int]:
    """The smallest shape that holds every mask's matrix."""
    return tuple(np.max([(0, 0)] + [m.flagged.shape for m in masks], axis=0).tolist())


def union_masks(masks: Iterable[DetectionMask], source: str = "union") -> DetectionMask:
    masks = list(masks)
    shape = bounding_shape(masks)
    flagged = np.zeros(shape, dtype=bool)
    for m in masks:
        flagged |= m.matrix(shape)
    return DetectionMask(flagged, source)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise SplitError(f"test_fraction must lie in (0,1), got {self.test_fraction}")


@dataclass
class DatasetPair:
    """Ground truth, its dirtied counterpart, and the exact injected-cell mask."""

    ground_truth: Dataset
    dirty: Dataset
    error_mask: DetectionMask
    # Maps appended duplicate rows (dirty coordinates) to their source row.
    row_provenance: dict[int, int] | None = None

    def __post_init__(self):
        gt, dirty = self.ground_truth, self.dirty
        if gt.column_names != dirty.column_names:
            raise ShapeMismatchError("pair column names differ")
        if self.row_provenance is None:
            if gt.row_count != dirty.row_count:
                raise ShapeMismatchError("pair row counts differ without duplicate provenance")
        elif dirty.row_count < gt.row_count:
            raise ShapeMismatchError("dirty dataset has fewer rows than ground truth")

    @functools.cached_property
    def origin(self) -> np.ndarray:
        """Each dirty row's ground-truth row: its own below gt's row count, an
        appended duplicate's source row by `row_provenance`, else -1."""
        n = self.ground_truth.row_count
        origin = np.full(self.dirty.row_count, -1, dtype=np.intp)
        origin[:n] = np.arange(n)
        for row, source in (self.row_provenance or {}).items():
            if n <= row < origin.size:
                origin[row] = source
        origin.flags.writeable = False
        return origin


# -- operations -------------------------------------------------------------


def load_csv(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
    null_tokens: frozenset[str] = DEFAULT_NULL_TOKENS,
    name: str | None = None,
) -> Dataset:
    """Load an RFC-4180 CSV with a mandatory header row.

    Column types come from `schema` when given, otherwise from the 90%
    numeric-inference rule; the inference ratio is recorded per column.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file, header row required") from None
            rows = list(reader)
    except OSError as exc:
        raise CsvFormatError(f"unreadable file {path}: {exc}") from exc
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}: duplicate header names")
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise CsvFormatError(f"{path}: ragged row {i + 1} ({len(r)} fields, expected {len(header)})")
    return Dataset.from_rows(name or path.stem, header, rows, schema=schema, null_tokens=null_tokens)


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write the dataset; load_csv(save_csv(ds)) reproduces raw texts exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        writer.writerows(ds.iter_rows())


def diff_cells(gt: Dataset, dirty: Dataset) -> DetectionMask:
    """Cells whose raw text differs between two same-shape datasets.

    Equality is raw-text equality: "5" vs "5.0" counts as a difference.
    """
    if gt.column_names != dirty.column_names or gt.row_count != dirty.row_count:
        raise ShapeMismatchError(
            f"diff requires identical shape and column names "
            f"({gt.row_count}x{gt.col_count} vs {dirty.row_count}x{dirty.col_count})"
        )
    changed = np.zeros((gt.row_count, gt.col_count), dtype=bool)
    for j, (a, b) in enumerate(zip(gt.columns, dirty.columns)):
        changed[:, j] = a.raw != b.raw
    return DetectionMask(changed, source="diff")


def split_indices(row_count: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled partition of row indices; returned sorted."""
    if row_count < 2:
        raise SplitError("need at least 2 rows to split")
    n_test = int(round(spec.test_fraction * row_count))
    if n_test == 0 or n_test == row_count:
        raise SplitError(
            f"fraction {spec.test_fraction} yields an empty partition on {row_count} rows"
        )
    perm = np.random.default_rng(spec.seed).permutation(row_count)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(ds.row_count, spec)
    return ds.take_rows(train_idx.tolist()), ds.take_rows(test_idx.tolist())


# -- mask files: line-delimited `row,col,source` ----------------------------


def save_mask(mask: DetectionMask, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ref in mask.sorted_cells():
            fh.write(f"{ref.row},{ref.col},{mask.source}\n")


def load_mask(path: str | Path) -> DetectionMask:
    cells = []
    sources = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",", 2)
            if len(parts) != 3:
                raise CsvFormatError(f"{path}:{line_no}: expected row,col,source")
            try:
                row, col = int(parts[0]), int(parts[1])
            except ValueError:
                raise CsvFormatError(f"{path}:{line_no}: cell coordinate is not an integer") from None
            if row < 0 or col < 0:
                raise CsvFormatError(f"{path}:{line_no}: negative cell coordinate")
            cells.append((row, col))
            sources.add(parts[2])
    return mask_from(cells, source="+".join(sorted(sources)))
