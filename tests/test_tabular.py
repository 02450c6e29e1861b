import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanbench.tabular import (
    CellRef,
    CsvFormatError,
    Dataset,
    DatasetPair,
    DetectionMask,
    ShapeMismatchError,
    SplitError,
    SplitSpec,
    TabularError,
    diff_cells,
    infer_column_type,
    DEFAULT_NULL_TOKENS,
    load_csv,
    load_mask,
    make_cell,
    mask_from,
    save_csv,
    save_mask,
    split,
    split_indices,
)
from helpers import mask_cells


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1,x\n2,y\n3,z\n"))
        assert ds.row_count == 3 and ds.col_count == 2
        assert ds.column("a").declared_type == "numeric"
        assert ds.column("b").declared_type == "categorical"

    def test_nan_cell_is_empty(self, tmp_path):
        ds = load_csv(write(tmp_path, "a\nNaN\n1\n"))
        assert ds.cell(0, 0).is_empty and ds.cell(0, 0).parsed is None

    def test_ninety_percent_inference(self):
        vals = ["1", "2", "x", "4", "5", "6", "7", "8", "9", "10"]
        kind, ratio = infer_column_type(vals, DEFAULT_NULL_TOKENS)
        assert kind == "numeric"
        assert ratio == pytest.approx(0.9)

    def test_below_threshold_categorical(self):
        vals = ["1", "2", "x", "y", "5", "6", "7", "8", "9", "10"]
        kind, _ = infer_column_type(vals, DEFAULT_NULL_TOKENS)
        assert kind == "categorical"

    def test_ragged_rows_error(self, tmp_path):
        with pytest.raises(CsvFormatError, match="ragged"):
            load_csv(write(tmp_path, "a,b\n1\n"))

    def test_duplicate_header_error(self, tmp_path):
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv(write(tmp_path, "a,a\n1,2\n"))

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(CsvFormatError):
            load_csv(tmp_path / "nope.csv")

    def test_declared_schema_wins(self, tmp_path):
        ds = load_csv(write(tmp_path, "a\n1\n2\n"), schema={"a": "categorical"})
        assert ds.column("a").declared_type == "categorical"
        assert ds.column("a").numeric_ratio is None


class TestSaveCsv:
    @pytest.mark.parametrize(
        "cell",
        ["plain", "with,comma", 'with"quote', "with\nnewline", "", " spaced ", "5.0"],
    )
    def test_round_trip_is_identity(self, tmp_path, cell):
        ds = Dataset.from_rows("t", ["a", "b"], [[cell, "x"], ["1", cell]])
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path, schema=ds.schema())
        for r in range(ds.row_count):
            for c in range(ds.col_count):
                assert back.raw(r, c) == ds.raw(r, c)

    def test_round_trip_random_tables(self, tmp_path):
        rng = np.random.default_rng(0)
        alphabet = list("abc,\"'\n 0123456789.")
        for trial in range(5):
            rows = [
                ["".join(rng.choice(alphabet, size=rng.integers(0, 8))) for _ in range(3)]
                for _ in range(10)
            ]
            ds = Dataset.from_rows(f"t{trial}", ["c0", "c1", "c2"], rows)
            path = tmp_path / f"t{trial}.csv"
            save_csv(ds, path)
            back = load_csv(path, schema=ds.schema())
            assert [back.row(r) for r in range(10)] == [ds.row(r) for r in range(10)]


class TestDiffCells:
    def test_identical_empty_mask(self):
        ds = Dataset.from_rows("t", ["a"], [["1"], ["2"]])
        assert len(diff_cells(ds, ds)) == 0

    def test_single_edit(self):
        gt = Dataset.from_rows("t", ["a", "b"], [["1", "x"], ["2", "y"]])
        dirty = gt.replace_cells({1: ([0], ["z"])})
        assert mask_cells(diff_cells(gt, dirty)) == frozenset({CellRef(0, 1)})

    def test_textual_difference_counts(self):
        gt = Dataset.from_rows("t", ["a"], [["5"]])
        dirty = gt.replace_cells({0: ([0], ["5.0"])})
        assert len(diff_cells(gt, dirty)) == 1

    def test_shape_mismatch(self):
        a = Dataset.from_rows("t", ["a"], [["1"]])
        b = Dataset.from_rows("t", ["a"], [["1"], ["2"]])
        with pytest.raises(ShapeMismatchError):
            diff_cells(a, b)


class TestSplit:
    def test_eighty_twenty(self):
        train, test = split_indices(100, SplitSpec(0.2, 0))
        assert len(train) == 80 and len(test) == 20

    def test_same_seed_same_partition(self):
        a = split_indices(100, SplitSpec(0.3, 42))
        b = split_indices(100, SplitSpec(0.3, 42))
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_different_seeds_differ(self):
        a = split_indices(100, SplitSpec(0.2, 1))
        b = split_indices(100, SplitSpec(0.2, 2))
        assert not (a[1] == b[1]).all()

    def test_degenerate_fraction(self):
        with pytest.raises(SplitError):
            split_indices(100, SplitSpec(0.001, 0))
        with pytest.raises(SplitError):
            SplitSpec(0.0, 0)

    def test_split_datasets(self):
        ds = Dataset.from_rows("t", ["a"], [[str(i)] for i in range(10)])
        train, test = split(ds, SplitSpec(0.2, 5))
        assert train.row_count == 8 and test.row_count == 2

    @given(
        rows=st.integers(min_value=2, max_value=500),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_a_partition(self, rows, fraction, seed):
        try:
            train, test = split_indices(rows, SplitSpec(fraction, seed))
        except SplitError:
            return
        combined = sorted(train.tolist() + test.tolist())
        assert combined == list(range(rows))


class TestMaskIo:
    def test_round_trip(self, tmp_path):
        mask = mask_from([(0, 1), (3, 2)], source="sd")
        path = tmp_path / "m.mask"
        save_mask(mask, path)
        back = load_mask(path)
        assert mask_cells(back) == mask_cells(mask) and back.source == "sd"

    def test_non_integer_coordinate_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_text("0,1,sd\n0,x,sd\n")
        with pytest.raises(CsvFormatError, match=r"m\.mask:2: cell coordinate is not an integer"):
            load_mask(path)

    def test_mask_validation(self):
        ds = Dataset.from_rows("t", ["a"], [["1"]])
        mask = mask_from([(5, 0)])
        with pytest.raises(Exception):
            mask.validate(ds)


class TestDatasetInvariants:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(Exception, match="duplicate"):
            Dataset.from_columns("t", [("a", "numeric", ["1"]), ("a", "numeric", ["2"])])

    def test_null_token_parsing(self):
        for token in DEFAULT_NULL_TOKENS:
            cell = make_cell(token)
            assert cell.is_empty and cell.parsed is None
        assert make_cell("1.5").parsed == 1.5
        assert make_cell("inf").parsed is None

    def test_replace_preserves_other_cells(self):
        ds = Dataset.from_rows("t", ["a", "b"], [["1", "x"], ["2", "y"]])
        out = ds.replace_cells({0: ([1], ["99"])})
        assert out.raw(1, 0) == "99" and out.raw(0, 0) == "1" and out.raw(1, 1) == "y"
        assert ds.raw(1, 0) == "2"  # original untouched

    def test_replace_rejects_cells_outside_the_table(self):
        ds = Dataset.from_rows("t", ["a", "b"], [["1", "x"], ["2", "y"]])
        for updates in (
            {0: ([-1], ["9"])},
            {0: ([0], ["9"]), 1: ([0, 2], ["9", "9"])},
            {2: ([0], ["9"])},
            {-1: ([0], ["9"])},
        ):
            with pytest.raises(TabularError):
                ds.replace_cells(updates)
        assert list(ds.iter_rows()) == [("1", "x"), ("2", "y")]
        assert ds.columns[0].parsed.tolist() == [1.0, 2.0]

    def test_take_and_append_rows(self):
        ds = Dataset.from_rows("t", ["a"], [["0"], ["1"], ["2"]])
        taken = ds.take_rows([2, 0])
        assert [taken.raw(r, 0) for r in range(2)] == ["2", "0"]
        grown = ds.append_rows([["3"]])
        assert grown.row_count == 4 and grown.raw(3, 0) == "3"


# Null tokens, non-finite and signed-zero spellings, exponents, padded numbers
# and plain words: every branch of the scalar parse rule.
CELL_TEXT = st.sampled_from(
    sorted(DEFAULT_NULL_TOKENS) + ["inf", "-inf", "Infinity", "-0.0", "0", "1e5", " 3", "2.5", "apple", "x y", "3,4"]
)


def assert_cells_follow_make_cell(ds, texts):
    """Every scalar cell equals the scalar parse of its expected text, with
    `parsed` a Python float (signed zeros included) or None."""
    assert ds.row_count == len(texts)
    for r, row in enumerate(texts):
        for c, text in enumerate(row):
            cell, want = ds.cell(r, c), make_cell(text, ds.null_tokens)
            assert cell == want and repr(cell.parsed) == repr(want.parsed)
            assert type(cell.raw) is str and type(cell.parsed) in (float, type(None)) and type(cell.is_empty) is bool


class TestColumnArrays:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(CELL_TEXT, CELL_TEXT), min_size=1, max_size=12),
        extra=st.lists(st.tuples(CELL_TEXT, CELL_TEXT), max_size=4),
        picks=st.lists(st.integers(0, 11), max_size=6),
        edits=st.dictionaries(st.tuples(st.integers(0, 11), st.integers(0, 1)), CELL_TEXT, max_size=5),
    )
    def test_every_operation_keeps_the_scalar_parse(self, tmp_path_factory, rows, extra, picks, edits):
        rows = [list(r) for r in rows]
        ds = Dataset.from_rows("t", ["a", "b"], rows)
        assert_cells_follow_make_cell(ds, rows)
        for j, col in enumerate(ds.columns):
            texts = [r[j] for r in rows]
            assert (col.declared_type, col.numeric_ratio) == infer_column_type(texts, ds.null_tokens)
            non_empty = [make_cell(t) for t in texts if not make_cell(t).is_empty]
            parsed = sum(cell.parsed is not None for cell in non_empty)
            assert col.numeric_ratio == (parsed / len(non_empty) if non_empty else 0.0)
        by_columns = Dataset.from_columns("t", [("a", "numeric", [r[0] for r in rows]), ("b", "text", [r[1] for r in rows])])
        assert_cells_follow_make_cell(by_columns, rows)

        picks = [p % len(rows) for p in picks]
        for idx in (picks, picks + picks, []):
            assert_cells_follow_make_cell(ds.take_rows(idx), [rows[i] for i in idx])
        edits = {(r % len(rows), c): text for (r, c), text in edits.items()}
        edited = [list(r) for r in rows]
        updates = {}
        for (r, c), text in edits.items():
            edited[r][c] = text
            col_rows, col_texts = updates.setdefault(c, ([], []))
            col_rows.append(r)
            col_texts.append(text)
        assert_cells_follow_make_cell(ds.replace_cells(updates), edited)
        assert_cells_follow_make_cell(ds.append_rows(extra), rows + [list(r) for r in extra])

        path = tmp_path_factory.mktemp("csv") / "t.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert_cells_follow_make_cell(back, rows)
        assert [(c.declared_type, c.numeric_ratio) for c in back.columns] == [
            (c.declared_type, c.numeric_ratio) for c in ds.columns
        ]

    def test_column_arrays_are_read_only(self):
        ds = Dataset.from_rows("t", ["a"], [["1"], [""]])
        col = ds.replace_cells({0: ([0], ["2"])}).take_rows([1, 0]).append_rows([["3"]]).column("a")
        for values, item in ((col.raw, "4"), (col.parsed, 4.0), (col.empty, True)):
            with pytest.raises(ValueError):
                values[0] = item


class TestDatasetPairOrigin:
    def test_rows_duplicates_and_orphans(self):
        gt = Dataset.from_columns("gt", [("x", "numeric", ["1", "2", "3"])])
        dirty = gt.append_rows([["2"], ["9"], ["1"]])
        # row 4 has no provenance, and an entry for a ground-truth row is ignored
        pair = DatasetPair(gt, dirty, mask_from([]), {3: 1, 5: 0, 0: 2})
        assert pair.origin.tolist() == [0, 1, 2, 1, -1, 0]
        assert pair.origin is pair.origin and not pair.origin.flags.writeable
        assert DatasetPair(gt, gt, mask_from([])).origin.tolist() == [0, 1, 2]


class TestDetectionMask:
    def test_sorted_cells_deterministic(self):
        mask = mask_from([(2, 1), (0, 0), (2, 0)])
        assert mask.sorted_cells() == [CellRef(0, 0), CellRef(2, 0), CellRef(2, 1)]
