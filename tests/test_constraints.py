import numpy as np
import pytest

from cleanbench.constraints import (
    ConstraintError,
    DenialConstraint,
    FunctionalDependency,
    find_violations,
    parse_constraints,
)
from cleanbench.tabular import CellRef, Dataset
from helpers import mask_cells


def table(rows, header=("zip", "city", "age")):
    return Dataset.from_rows(
        "t", list(header), rows, schema={"zip": "categorical", "city": "categorical", "age": "numeric"}
    )


class TestParsing:
    def test_fd_expands_to_tuple_pair_dc(self):
        dcs = parse_constraints("FD: zip -> city")
        assert len(dcs) == 1
        dc = dcs[0]
        assert dc.scope == "tuple-pair"
        ops = [p.op for p in dc.predicates]
        assert ops == ["=", "!="]

    def test_multi_column_lhs(self):
        dcs = parse_constraints("FD: zip,street -> city")
        assert len(dcs[0].predicates) == 3

    def test_single_tuple_dc(self):
        dcs = parse_constraints("DC: t1.age < 0")
        assert dcs[0].scope == "single-tuple"

    def test_empty_file(self):
        assert parse_constraints("") == []
        assert parse_constraints("# just a comment\n\n") == []

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ConstraintError, match="line 2"):
            parse_constraints("FD: a -> b\nDC: t1.age !! 0")

    def test_unknown_column_rejected_on_bind(self):
        with pytest.raises(ConstraintError, match="unknown column"):
            parse_constraints("FD: zip -> nowhere", schema={"zip": "categorical"})

    def test_numeric_op_on_categorical_rejected(self):
        with pytest.raises(ConstraintError, match="numeric"):
            parse_constraints("DC: t1.city < 5", schema={"city": "categorical"})

    def test_quoted_constants(self):
        dcs = parse_constraints("DC: t1.city = 'New York' AND t1.age > 10")
        assert dcs[0].predicates[0].right.constant == "New York"

    def test_fd_rhs_in_lhs_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency(("a",), "a")


class TestFindViolations:
    def test_fd_violation_flags_four_cells(self):
        ds = table([["1", "A", "5"], ["1", "B", "6"]])
        dcs = parse_constraints("FD: zip -> city")
        mask = find_violations(ds, dcs)
        assert mask_cells(mask) == frozenset(
            {CellRef(0, 0), CellRef(0, 1), CellRef(1, 0), CellRef(1, 1)}
        )

    def test_no_violations(self):
        ds = table([["1", "A", "5"], ["2", "B", "6"], ["1", "A", "7"]])
        assert len(find_violations(ds, parse_constraints("FD: zip -> city"))) == 0

    def test_single_tuple_violation(self):
        ds = table([["1", "A", "-2"], ["2", "B", "3"]])
        mask = find_violations(ds, parse_constraints("DC: t1.age < 0"))
        assert mask_cells(mask) == frozenset({CellRef(0, 2)})

    def test_unparsable_numeric_operand_never_holds(self):
        ds = Dataset.from_rows("t", ["age"], [["abc"], ["-1"]], schema={"age": "numeric"})
        mask = find_violations(ds, parse_constraints("DC: t1.age < 0"))
        assert mask_cells(mask) == frozenset({CellRef(1, 0)})

    def test_monotone_in_constraints(self):
        ds = table([["1", "A", "-2"], ["1", "B", "3"]])
        one = find_violations(ds, parse_constraints("FD: zip -> city"))
        both = find_violations(ds, parse_constraints("FD: zip -> city\nDC: t1.age < 0"))
        assert mask_cells(one) <= mask_cells(both)

    def test_pair_symmetry_for_fds(self):
        rng = np.random.default_rng(3)
        rows = [[str(rng.integers(3)), str(rng.integers(3)), "1"] for _ in range(40)]
        ds = table(rows)
        dcs = parse_constraints("FD: zip -> city")
        mask = find_violations(ds, dcs)
        # reverse row order; the flagged (value-level) violations must mirror
        rev = table(rows[::-1])
        rev_mask = find_violations(rev, dcs)
        remapped = {CellRef(len(rows) - 1 - r, c) for r, c in mask_cells(rev_mask)}
        assert remapped == set(mask_cells(mask))


def brute_force_violations(ds: Dataset, dcs: list[DenialConstraint]) -> set[CellRef]:
    """Independent oracle: evaluate every constraint on every ordered pair /
    every row with naive python, no blocking."""

    def operand(rows, op, numeric):
        if op.tuple_sel is None:
            return float(op.constant) if numeric else op.constant
        cell = ds.cell(rows[op.tuple_sel], ds.col_index(op.column))
        return cell.parsed if numeric else cell.raw

    def holds(rows, pred):
        numeric = pred.op in {"<", "<=", ">", ">="}
        left = operand(rows, pred.left, numeric)
        right = operand(rows, pred.right, numeric)
        if numeric:
            if left is None or right is None:
                return False
            return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[pred.op]
        return left == right if pred.op == "=" else left != right

    flagged = set()
    for dc in dcs:
        if dc.scope == "single-tuple":
            assignments = [{"t1": r} for r in range(ds.row_count)]
        else:
            assignments = [
                {"t1": r1, "t2": r2}
                for r1 in range(ds.row_count)
                for r2 in range(ds.row_count)
                if r1 != r2
            ]
        for rows in assignments:
            if all(holds(rows, p) for p in dc.predicates):
                for p in dc.predicates:
                    for sel, col in p.columns():
                        flagged.add(CellRef(rows[sel], ds.col_index(col)))
    return flagged


class TestOracleEquivalence:
    def test_matches_all_pairs_scan_on_random_tables(self):
        rng = np.random.default_rng(11)
        rules = parse_constraints("FD: zip -> city\nDC: t1.age > 90\nDC: t1.zip = t2.zip AND t1.age < t2.age")
        for trial in range(25):
            n = int(rng.integers(5, 100))
            rows = [
                [
                    f"z{rng.integers(4)}",
                    f"c{rng.integers(3)}",
                    str(int(rng.integers(0, 100))),
                ]
                for _ in range(n)
            ]
            ds = table(rows)
            fast = find_violations(ds, rules)
            slow = brute_force_violations(ds, rules)
            assert set(mask_cells(fast)) == slow, f"trial {trial} diverged"
