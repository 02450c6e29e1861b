"""Denial constraints and functional dependencies: parsing and violation checks.

Constraint files hold one rule per line:

    FD: zip -> city
    FD: zip,street -> city
    DC: t1.age < 0
    DC: t1.zip = t2.zip AND t1.city != t2.city

Tuple selectors are `t1.` / `t2.`; constants are numbers or single-quoted
strings. Operators: = != < <= > >=. A violated single-tuple constraint flags
the referenced cells of that row; a violated tuple-pair constraint flags the
referenced cells of both rows.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .tabular import Dataset, DetectionMask

OPS = ("!=", "<=", ">=", "=", "<", ">")
NUMERIC_OPS = {"<", "<=", ">", ">="}


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class Operand:
    """Either a (tuple selector, column) reference or a constant literal."""

    tuple_sel: str | None  # "t1" | "t2" | None for constants
    column: str | None
    constant: str | None = None
    constant_is_number: bool = False

    @property
    def is_column(self) -> bool:
        return self.tuple_sel is not None


@dataclass(frozen=True)
class Predicate:
    left: Operand
    op: str
    right: Operand

    def columns(self) -> list[tuple[str, str]]:
        out = []
        for side in (self.left, self.right):
            if side.is_column:
                out.append((side.tuple_sel, side.column))
        return out


@dataclass(frozen=True)
class DenialConstraint:
    id: str
    predicates: tuple[Predicate, ...]
    scope: str  # "single-tuple" | "tuple-pair"


@dataclass(frozen=True)
class FunctionalDependency:
    lhs: tuple[str, ...]
    rhs: str

    def __post_init__(self):
        if self.rhs in self.lhs:
            raise ConstraintError(f"FD rhs {self.rhs!r} appears in lhs")

    def to_denial_constraint(self, dc_id: str) -> DenialConstraint:
        """Canonical expansion: not(t1.lhs = t2.lhs for all lhs, and t1.rhs != t2.rhs)."""
        preds = tuple(
            Predicate(Operand("t1", c), "=", Operand("t2", c)) for c in self.lhs
        ) + (Predicate(Operand("t1", self.rhs), "!=", Operand("t2", self.rhs)),)
        return DenialConstraint(dc_id, preds, "tuple-pair")


_CONST_RE = re.compile(r"^'(.*)'$")
_COLREF_RE = re.compile(r"^(t[12])\.(.+)$")


def _parse_operand(text: str, line_no: int) -> Operand:
    text = text.strip()
    m = _COLREF_RE.match(text)
    if m:
        return Operand(m.group(1), m.group(2))
    m = _CONST_RE.match(text)
    if m:
        return Operand(None, None, constant=m.group(1))
    try:
        float(text)
    except ValueError:
        raise ConstraintError(
            f"line {line_no}: operand {text!r} is neither t1./t2. column, quoted string, nor number"
        ) from None
    return Operand(None, None, constant=text, constant_is_number=True)


def _parse_predicate(text: str, line_no: int) -> Predicate:
    for op in OPS:
        # Longest operators first so "<=" is not split as "<".
        idx = text.find(op)
        if idx > 0:
            left = _parse_operand(text[:idx], line_no)
            right = _parse_operand(text[idx + len(op):], line_no)
            if not left.is_column and not right.is_column:
                raise ConstraintError(f"line {line_no}: predicate references no column")
            return Predicate(left, op, right)
    raise ConstraintError(f"line {line_no}: no comparison operator in {text!r}")


def parse_constraints(text: str, schema: dict[str, str] | None = None) -> list[DenialConstraint]:
    """Parse a constraint file body; FD lines expand to canonical denial constraints."""
    out: list[DenialConstraint] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.upper().startswith("FD:"):
            body = line[3:].strip()
            if "->" not in body:
                raise ConstraintError(f"line {line_no}: FD needs 'lhs -> rhs'")
            lhs_text, rhs = body.split("->", 1)
            lhs = tuple(c.strip() for c in lhs_text.split(",") if c.strip())
            rhs = rhs.strip()
            if not lhs or not rhs:
                raise ConstraintError(f"line {line_no}: empty FD side")
            fd = FunctionalDependency(lhs, rhs)
            out.append(fd.to_denial_constraint(f"dc{len(out) + 1}"))
        elif line.upper().startswith("DC:"):
            body = line[3:].strip()
            preds = tuple(
                _parse_predicate(p.strip(), line_no) for p in re.split(r"\bAND\b", body)
            )
            sels = {sel for p in preds for sel, _ in p.columns()}
            scope = "tuple-pair" if "t2" in sels else "single-tuple"
            out.append(DenialConstraint(f"dc{len(out) + 1}", preds, scope))
        else:
            raise ConstraintError(f"line {line_no}: expected 'FD:' or 'DC:' prefix")
    if schema is not None:
        for dc in out:
            bind_check(dc, schema)
    return out


def load_constraints(path, schema: dict[str, str] | None = None) -> list[DenialConstraint]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraints(fh.read(), schema=schema)


def bind_check(dc: DenialConstraint, schema: dict[str, str]) -> None:
    """Validate column existence and numeric-operator typing against a schema."""
    for p in dc.predicates:
        for _, col in p.columns():
            if col not in schema:
                raise ConstraintError(f"{dc.id}: unknown column {col!r}")
        if p.op in NUMERIC_OPS:
            for side in (p.left, p.right):
                if side.is_column and schema[side.column] != "numeric":
                    raise ConstraintError(
                        f"{dc.id}: operator {p.op} needs numeric operands, "
                        f"column {side.column!r} is {schema[side.column]}"
                    )
                if not side.is_column and not side.constant_is_number:
                    raise ConstraintError(f"{dc.id}: operator {p.op} with non-numeric constant")


_COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "=": operator.eq, "!=": operator.ne
}
_TUPLE = {"t1": 0, "t2": 1}


def _bind(ds: Dataset, dc: DenialConstraint) -> list[tuple]:
    """Per predicate: its comparison, then per side (tuple position, values by
    row) for a column or (None, value) for a constant. Order comparisons read
    parsed floats, NaN when unparsable so none holds; equality reads raw text."""
    checks = []
    for p in dc.predicates:
        numeric = p.op in NUMERIC_OPS
        sides = []
        for op in (p.left, p.right):
            if op.is_column:
                col = ds.column(op.column)
                sides.append((_TUPLE[op.tuple_sel], (col.parsed if numeric else col.raw).tolist()))
            else:
                sides.append((None, float(op.constant) if numeric else op.constant))
        checks.append((_COMPARE[p.op], *sides))
    return checks


def _holds(checks: list[tuple], rows: tuple[int, ...]) -> bool:
    for compare, (lt, lv), (rt, rv) in checks:
        if not compare(lv if lt is None else lv[rows[lt]], rv if rt is None else rv[rows[rt]]):
            return False
    return True


def _equality_blocking_key(dc: DenialConstraint) -> list[tuple[str, str]] | None:
    """Columns (t1 side, t2 side) of pure tuple-to-tuple equality predicates."""
    keys = []
    for p in dc.predicates:
        if p.op != "=" or not (p.left.is_column and p.right.is_column):
            continue
        if p.left.tuple_sel == p.right.tuple_sel:
            continue
        if p.left.tuple_sel == "t1":
            keys.append((p.left.column, p.right.column))
        else:
            keys.append((p.right.column, p.left.column))
    return keys or None


def find_violations(ds: Dataset, dcs: list[DenialConstraint]) -> DetectionMask:
    """Cells of every row (or row pair) on which a denial constraint holds.

    Tuple-pair constraints block on their equality predicates before scanning,
    falling back to an all-ordered-pairs scan when no equality predicate exists.
    """
    schema = ds.schema()
    for dc in dcs:
        bind_check(dc, schema)
    flagged = np.zeros((ds.row_count, ds.col_count), dtype=bool)
    for dc in dcs:
        checks = _bind(ds, dc)
        # the columns a violation flags in each of its rows (t1, then t2)
        cols = [
            sorted({ds.col_index(c) for p in dc.predicates for sel, c in p.columns() if sel == t}) for t in _TUPLE
        ]
        if dc.scope == "single-tuple":
            pairs = ((r,) for r in range(ds.row_count))
        elif (block := _equality_blocking_key(dc)) is None:
            pairs = itertools.permutations(range(ds.row_count), 2)
        else:
            groups: dict[tuple, list[int]] = {}
            t2_groups: dict[tuple, list[int]] = {}
            for r, key in enumerate(zip(*(ds.column(a).raw for a, _ in block))):
                groups.setdefault(key, []).append(r)
            for r, key in enumerate(zip(*(ds.column(b).raw for _, b in block))):
                t2_groups.setdefault(key, []).append(r)
            pairs = (
                (r1, r2)
                for key, members in groups.items()
                for r1 in members
                for r2 in t2_groups.get(key, ())
                if r1 != r2
            )
        for rows in pairs:
            if _holds(checks, rows):
                for r, c in zip(rows, cols):
                    flagged[r, c] = True
    return DetectionMask(flagged, source="rule")
