import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from cleanbench.bench import config_from_dict
from cleanbench.constraints import parse_constraints
from cleanbench.detect import detect_duplicates
from cleanbench.inject import (
    INJECTORS,
    ErrorProfile,
    ErrorSpec,
    InjectionError,
    apply_keyboard_typo,
    inject,
    make_synthetic,
)
from cleanbench.tabular import Dataset, diff_cells
from helpers import mask_cells


def numeric_table(rows=100, cols=10, seed=0, name="nums"):
    rng = np.random.default_rng(seed)
    spec = [
        (f"x{j}", "numeric", [repr(float(v)) for v in rng.standard_normal(rows)])
        for j in range(cols)
    ]
    return Dataset.from_columns(name, spec)


def mixed_table(rows=60, seed=0):
    rng = np.random.default_rng(seed)
    zips = [f"z{rng.integers(6)}" for _ in range(rows)]
    return Dataset.from_columns(
        "mixed",
        [
            ("zip", "categorical", zips),
            ("city", "categorical", ["C" + z for z in zips]),
            ("x", "numeric", [repr(float(v)) for v in rng.standard_normal(rows)]),
            ("label", "categorical", [("a", "b")[int(rng.integers(2))] for _ in range(rows)]),
        ],
    )


class TestProfileValidation:
    def test_unknown_kind(self):
        with pytest.raises(InjectionError):
            ErrorSpec("volcano", 0.1)

    def test_negative_rate(self):
        with pytest.raises(InjectionError):
            ErrorSpec("explicit_mv", -0.1)

    def test_cell_rate_sum_capped(self):
        with pytest.raises(InjectionError, match="<= 1"):
            ErrorProfile([ErrorSpec("explicit_mv", 0.7), ErrorSpec("keyboard_typo", 0.4)])

    def test_gaussian_degree_positive(self):
        with pytest.raises(InjectionError):
            ErrorSpec("gaussian_outlier", 0.1, {"degree": 0.0})

    @pytest.mark.parametrize(
        "kind, params, name", [("gaussian_outlier", {"degre": 0.5}, "degre"), ("explicit_mv", {"x": 1}, "x")]
    )
    def test_unknown_param_rejected_when_built(self, kind, params, name):
        with pytest.raises(InjectionError, match=f"{kind}: unknown param '{name}'"):
            ErrorSpec(kind, 0.1, params)

    @pytest.mark.parametrize(
        "kind, params, name", [("gaussian_outlier", {"degre": 0.5}, "degre"), ("explicit_mv", {"x": 1}, "x")]
    )
    def test_unknown_param_rejected_by_the_config(self, kind, params, name):
        spec = {
            "config_schema": "1",
            "dataset": {"kind": "synthetic", "generator": "two_class", "n": 50},
            "profile": {kind: {"rate": 0.1, **params}},
            "models": [{"kind": "logit", "task": "classification"}],
            "label_column": "label",
        }
        with pytest.raises(InjectionError, match=f"{kind}: unknown param '{name}'"):
            config_from_dict(spec)

    def test_missing_param_rejected(self):
        with pytest.raises(InjectionError, match="mislabel requires a label_column param"):
            ErrorSpec("mislabel", 0.1)

    def test_entry_without_a_rate_rejected_naming_its_kind(self):
        with pytest.raises(InjectionError, match="explicit_mv requires a rate"):
            ErrorProfile.from_dict({"explicit_mv": {"degree": 0.1}})

    def test_round_trip_dict(self):
        profile = ErrorProfile(
            [ErrorSpec("explicit_mv", 0.1), ErrorSpec("gaussian_outlier", 0.2, {"degree": 3.0})]
        )
        again = ErrorProfile.from_dict(profile.to_dict())
        assert again.to_dict() == profile.to_dict()


class TestExplicitMv:
    def test_exact_count_and_rate(self):
        gt = numeric_table(100, 10)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.1)]), 0)
        assert report.totals["explicit_mv"] == 100
        assert report.achieved_rate == pytest.approx(0.1)
        for ref in mask_cells(report.masks["explicit_mv"]):
            assert pair.dirty.raw(ref.row, ref.col) == ""

    def test_beers_scale_count(self):
        # 2410 x 11 at rate 0.16 -> round(0.16 * 26510) = 4242 cells
        gt = numeric_table(2410, 11, seed=4)
        _, report = inject(gt, ErrorProfile([ErrorSpec("explicit_mv", 0.16)]), 1)
        assert report.totals["explicit_mv"] == 4242

    def test_rate_infeasible(self):
        tiny = Dataset.from_columns("t", [("a", "categorical", ["", "", "x"])])
        with pytest.raises(InjectionError, match="infeasible"):
            inject(tiny, ErrorProfile([ErrorSpec("explicit_mv", 1.0)]), 0)


class TestGaussianOutliers:
    def test_degree_guarantee(self):
        gt = numeric_table(200, 5, seed=2)
        profile = ErrorProfile([ErrorSpec("gaussian_outlier", 0.2, {"degree": 4.0})])
        pair, report = inject(gt, profile, 7)
        stats = {}
        for c in gt.numeric_column_indices():
            parsed = gt.columns[c].parsed
            finite = parsed[~np.isnan(parsed)]
            stats[c] = (finite.mean(), finite.std(ddof=1))
        for ref in mask_cells(report.masks["gaussian_outlier"]):
            mu, sd = stats[ref.col]
            value = pair.dirty.cell(ref.row, ref.col).parsed
            assert abs(value - mu) >= 4.0 * sd - 1e-9

    def test_column_whose_sum_overflows(self):
        # mean 9.75e307 and std 5e306: their sum overflows, the outliers do not
        gt = Dataset.from_columns("t", [("a", "numeric", ["1e308", "1e308", "1e308", "9e307"])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair, report = inject(gt, ErrorProfile([ErrorSpec("gaussian_outlier", 0.5, {"degree": 1.0})]), 0)
        cells = mask_cells(report.masks["gaussian_outlier"])
        assert cells
        for ref in cells:
            assert abs(pair.dirty.cell(ref.row, ref.col).parsed - 9.75e307) >= 5e306 * (1 - 1e-12)

    def test_outliers_never_leave_the_float_range(self):
        # mu + 4 sd overflows in the huge column, so only the ordinary one is eligible
        huge = ("h", "numeric", ["1.5e308", "1.6e308", "1.7e308", "1"])
        profile = ErrorProfile([ErrorSpec("gaussian_outlier", 0.5, {"degree": 4.0})])
        with pytest.raises(InjectionError, match="infeasible"):
            inject(Dataset.from_columns("t", [huge]), profile, 0)
        gt = Dataset.from_columns("t", [huge, ("o", "numeric", ["1", "2", "3", "4"])])
        pair, report = inject(gt, ErrorProfile([ErrorSpec("gaussian_outlier", 0.25, {"degree": 4.0})]), 0)
        cells = mask_cells(report.masks["gaussian_outlier"])
        assert len(cells) == 2 and {ref.col for ref in cells} == {1}
        ordinary = np.array([1.0, 2.0, 3.0, 4.0])
        for ref in cells:
            value = pair.dirty.cell(ref.row, ref.col).parsed
            assert np.isfinite(value) and abs(value - ordinary.mean()) >= 4.0 * ordinary.std(ddof=1) - 1e-9

    def test_needs_numeric_spread(self):
        flat = Dataset.from_columns("t", [("a", "numeric", ["1", "1", "1"])])
        with pytest.raises(InjectionError):
            inject(flat, ErrorProfile([ErrorSpec("gaussian_outlier", 0.5, {"degree": 2.0})]), 0)


class TestImplicitMv:
    def test_numeric_code_exceeds_column_max(self):
        gt = numeric_table(50, 3, seed=5)
        pair, report = inject(gt, ErrorProfile([ErrorSpec("implicit_mv", 0.1)]), 3)
        for ref in mask_cells(report.masks["implicit_mv"]):
            raw = pair.dirty.raw(ref.row, ref.col)
            assert raw in {"-1", "0", "99", "999", "9999", "99999"}
            col_max = np.nanmax(gt.columns[ref.col].parsed)
            assert float(raw) > col_max

    def test_categorical_token(self):
        gt = mixed_table()
        profile = ErrorProfile([ErrorSpec("implicit_mv", 0.05)])
        pair, report = inject(gt, profile, 9)
        for ref in mask_cells(report.masks["implicit_mv"]):
            if not gt.columns[ref.col].is_numeric:
                assert pair.dirty.raw(ref.row, ref.col) in {"NA", "none", "empty", "?"}


class TestKeyboardTypos:
    def test_single_edit_distance_like_change(self):
        rng = np.random.default_rng(0)
        for text in ["hello", "12.75", "X", "ab"]:
            for _ in range(50):
                out = apply_keyboard_typo(text, rng)
                assert out != text
                assert abs(len(out) - len(text)) <= 1

    def test_typo_cells_differ(self):
        gt = mixed_table()
        pair, report = inject(gt, ErrorProfile([ErrorSpec("keyboard_typo", 0.1)]), 11)
        for ref in mask_cells(report.masks["keyboard_typo"]):
            assert pair.dirty.raw(ref.row, ref.col) != gt.raw(ref.row, ref.col)


class TestValueSwap:
    def test_swap_exchanges_two_cells(self):
        gt = mixed_table()
        pair, report = inject(gt, ErrorProfile([ErrorSpec("value_swap", 0.05)]), 13)
        budget = round(0.05 * gt.row_count * gt.col_count)
        assert report.totals["value_swap"] == (budget // 2) * 2
        by_row = {}
        for ref in mask_cells(report.masks["value_swap"]):
            by_row.setdefault(ref.row, []).append(ref)
        for row, refs in by_row.items():
            assert len(refs) % 2 == 0
            a, b = refs[0], refs[1]
            assert pair.dirty.raw(a.row, a.col) != gt.raw(a.row, a.col)


class TestMislabel:
    def test_replaces_with_different_class(self):
        gt = mixed_table()
        profile = ErrorProfile([ErrorSpec("mislabel", 0.2, {"label_column": "label"})])
        pair, report = inject(gt, profile, 17)
        assert report.totals["mislabel"] == round(0.2 * gt.row_count)
        label_col = gt.col_index("label")
        for ref in mask_cells(report.masks["mislabel"]):
            assert ref.col == label_col
            assert pair.dirty.raw(ref.row, ref.col) in {"a", "b"}
            assert pair.dirty.raw(ref.row, ref.col) != gt.raw(ref.row, ref.col)

    def test_single_class_fails(self):
        gt = Dataset.from_columns("t", [("label", "categorical", ["a"] * 10)])
        with pytest.raises(InjectionError, match="classes"):
            inject(gt, ErrorProfile([ErrorSpec("mislabel", 0.2, {"label_column": "label"})]), 0)


class TestRuleViolation:
    def test_creates_violating_pairs(self):
        gt = mixed_table(rows=80)
        dcs = parse_constraints("FD: zip -> city")
        profile = ErrorProfile([ErrorSpec("rule_violation", 0.02)])
        pair, report = inject(gt, profile, 19, constraints=dcs)
        assert report.totals["rule_violation"] == round(0.02 * 80 * 4)
        from cleanbench.constraints import find_violations

        violations = find_violations(pair.dirty, dcs)
        assert mask_cells(report.masks["rule_violation"]) <= mask_cells(violations)

    def test_requires_constraints(self):
        gt = mixed_table()
        with pytest.raises(InjectionError, match="constraints"):
            inject(gt, ErrorProfile([ErrorSpec("rule_violation", 0.01)]), 0)


class TestDuplicates:
    def test_clean_copies_and_provenance(self):
        gt = mixed_table()
        profile = ErrorProfile([ErrorSpec("duplicate_row", 0.1, {"fuzzy": 0.0})])
        pair, report = inject(gt, profile, 23)
        n_dup = round(0.1 * gt.row_count)
        assert pair.dirty.row_count == gt.row_count + n_dup
        assert len(pair.row_provenance) == n_dup
        for new_row, src in pair.row_provenance.items():
            assert pair.dirty.row(new_row) == gt.row(src)
        detected = detect_duplicates(pair.dirty, key_columns=gt.column_names)
        truth = report.masks["duplicate_row"]
        assert mask_cells(truth) <= mask_cells(detected)  # recall 1.0 on clean copies

    def test_fuzzy_copies_sometimes_edited(self):
        gt = mixed_table(rows=100)
        profile = ErrorProfile([ErrorSpec("duplicate_row", 0.3, {"fuzzy": 1.0})])
        pair, _ = inject(gt, profile, 29)
        edited = sum(
            1
            for new_row, src in pair.row_provenance.items()
            if pair.dirty.row(new_row) != gt.row(src)
        )
        assert edited == len(pair.row_provenance)


class TestCrossKindInvariants:
    def profile(self):
        return ErrorProfile(
            [
                ErrorSpec("explicit_mv", 0.04),
                ErrorSpec("implicit_mv", 0.03),
                ErrorSpec("gaussian_outlier", 0.05, {"degree": 3.0}),
                ErrorSpec("keyboard_typo", 0.04),
                ErrorSpec("value_swap", 0.02),
            ]
        )

    def test_masks_disjoint_and_diff_exact(self):
        gt = numeric_table(80, 6, seed=6)
        pair, report = inject(gt, self.profile(), 31)
        masks = list(report.masks.values())
        for a, b in itertools.combinations(masks, 2):
            assert not (mask_cells(a) & mask_cells(b))
        assert mask_cells(diff_cells(gt, pair.dirty)) == mask_cells(pair.error_mask)

    def test_bit_exact_determinism(self):
        gt = numeric_table(50, 5, seed=8)
        p1, _ = inject(gt, self.profile(), 37)
        p2, _ = inject(gt, self.profile(), 37)
        assert [p1.dirty.row(r) for r in range(p1.dirty.row_count)] == [
            p2.dirty.row(r) for r in range(p2.dirty.row_count)
        ]

    def test_adding_a_kind_keeps_other_streams(self):
        gt = numeric_table(60, 6, seed=9)
        small = ErrorProfile([ErrorSpec("explicit_mv", 0.05)])
        bigger = ErrorProfile(
            [ErrorSpec("explicit_mv", 0.05), ErrorSpec("keyboard_typo", 0.05)]
        )
        _, r1 = inject(gt, small, 41)
        _, r2 = inject(gt, bigger, 41)
        assert mask_cells(r1.masks["explicit_mv"]) == mask_cells(r2.masks["explicit_mv"])

    @pytest.mark.parametrize(
        "spec",
        [
            ErrorSpec("explicit_mv", 0.05),
            ErrorSpec("implicit_mv", 0.05),
            ErrorSpec("gaussian_outlier", 0.05),
            ErrorSpec("keyboard_typo", 0.05),
            ErrorSpec("value_swap", 0.05),
            ErrorSpec("mislabel", 0.1, {"label_column": "label"}),
            ErrorSpec("rule_violation", 0.02),
            ErrorSpec("duplicate_row", 0.1),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_dirty_columns_equal_a_parse_of_their_texts(self, spec):
        gt = mixed_table(rows=80)
        pair, _ = inject(gt, ErrorProfile([spec]), 43, constraints=parse_constraints("FD: zip -> city"))
        dirty = pair.dirty
        parsed = Dataset.from_rows(
            gt.name + "_dirty", gt.column_names, list(dirty.iter_rows()), schema=gt.schema(), null_tokens=gt.null_tokens
        )
        assert dirty.name == parsed.name and dirty.null_tokens == parsed.null_tokens
        assert dirty.row_count == gt.row_count + len(pair.row_provenance or {})
        for got, want in zip(dirty.columns, parsed.columns, strict=True):
            assert (got.name, got.declared_type) == (want.name, want.declared_type)
            assert got.raw.dtype == want.raw.dtype and got.raw.tolist() == want.raw.tolist()
            assert got.parsed.dtype == want.parsed.dtype and got.parsed.tobytes() == want.parsed.tobytes()
            assert got.empty.dtype == want.empty.dtype and got.empty.tolist() == want.empty.tolist()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class TestGolden:
    """All eight kinds on one table at three seeds. The dirty texts, each
    kind's mask and the report are pinned, so a change that moves any kind's
    draws or cells shows here."""

    PROFILE = [
        ErrorSpec("explicit_mv", 0.05),
        ErrorSpec("implicit_mv", 0.05),
        ErrorSpec("gaussian_outlier", 0.05, {"degree": 3.0}),
        ErrorSpec("keyboard_typo", 0.05),
        ErrorSpec("value_swap", 0.05),
        ErrorSpec("mislabel", 0.1, {"label_column": "label"}),
        ErrorSpec("rule_violation", 0.02),
        ErrorSpec("duplicate_row", 0.1, {"fuzzy": 0.5}),
    ]
    TOTALS = {"explicit_mv": 16, "implicit_mv": 16, "gaussian_outlier": 16, "keyboard_typo": 16,
              "value_swap": 16, "mislabel": 8, "rule_violation": 6, "duplicate_row": 32}
    REQUESTED = {**TOTALS, "duplicate_row": 8}
    # seed -> sha256 of the dirty texts, {kind: (mask shape, sha256 of its cells, cut to 16)}, provenance
    EXPECTED = {
        0: (
            "42a67b5db2f734fca3d11a79f4ee28b40732319581f279ca7e2bb669f8ce4244",
            {"explicit_mv": ((80, 4), "f6b71e34535ca30a"), "implicit_mv": ((80, 4), "c46ba1b876b49e7c"),
             "gaussian_outlier": ((79, 3), "8de0823c59fa54a3"), "keyboard_typo": ((77, 4), "9c8597c9e5f49530"),
             "value_swap": ((65, 4), "738172dd90db02c8"), "mislabel": ((78, 4), "e57be74d5d1009e9"),
             "rule_violation": ((64, 1), "015b6f49f12a5900"), "duplicate_row": ((88, 4), "4c2bdb46130c0f96")},
            {80: 67, 81: 44, 82: 77, 83: 14, 84: 19, 85: 7, 86: 0, 87: 15},
        ),
        1: (
            "038e23b6f5f2117269357ee57e190deebabc4906ebbdc453941dbb2b43dc94dd",
            {"explicit_mv": ((80, 4), "7c80112e36d257da"), "implicit_mv": ((78, 4), "bf609b5f5272c28e"),
             "gaussian_outlier": ((71, 3), "a3d19b5c2195e943"), "keyboard_typo": ((79, 4), "93e29f0f1fa06f1a"),
             "value_swap": ((63, 4), "5ee46606c9f4d59c"), "mislabel": ((71, 4), "39706374e4516735"),
             "rule_violation": ((77, 1), "a6de963e579f120a"), "duplicate_row": ((88, 4), "4c2bdb46130c0f96")},
            {80: 40, 81: 1, 82: 54, 83: 69, 84: 9, 85: 12, 86: 28, 87: 48},
        ),
        7: (
            "485d8b5dd92a66a6401abc5b6a092ca4bc0bc327680024f0ddae0acfe26d047c",
            {"explicit_mv": ((71, 4), "3accec949394b6dd"), "implicit_mv": ((79, 4), "e122012dd0729480"),
             "gaussian_outlier": ((70, 3), "38ec8a9c1c1a78e3"), "keyboard_typo": ((76, 4), "79e70265420c5ec0"),
             "value_swap": ((80, 4), "05b4f08ab5e91a7b"), "mislabel": ((80, 4), "18698dccea58f41a"),
             "rule_violation": ((66, 1), "4d944f1f46e68471"), "duplicate_row": ((88, 4), "4c2bdb46130c0f96")},
            {80: 73, 81: 36, 82: 23, 83: 78, 84: 46, 85: 2, 86: 60, 87: 4},
        ),
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_every_kind_injects_as_before(self, seed):
        dcs = parse_constraints("FD: zip -> city")
        pair, report = inject(mixed_table(rows=80), ErrorProfile(self.PROFILE), seed, constraints=dcs)
        dirty, masks, provenance = self.EXPECTED[seed]
        assert digest([c.raw.tolist() for c in pair.dirty.columns]) == dirty
        assert list(report.masks) == list(report.totals) == list(report.requested) == list(INJECTORS)
        got = {k: (m.flagged.shape, digest([[c.row, c.col] for c in m.sorted_cells()])[:16])
               for k, m in report.masks.items()}
        assert got == masks
        assert report.totals == self.TOTALS and report.requested == self.REQUESTED
        assert report.achieved_rate == 0.29375 and report.seed == seed
        assert pair.row_provenance == provenance


class TestMakeSynthetic:
    def test_linear_regression_target(self):
        ds = make_synthetic("linear_regression", 1000, 7, weights=(3.0, -2.0), noise=0.1)
        X = np.column_stack([ds.column(f"x{j}").parsed for j in range(2)])
        y = ds.column("y").parsed
        residual = y - X @ np.array([3.0, -2.0])
        assert abs(residual.mean()) < 0.02
        assert residual.std() == pytest.approx(0.1, rel=0.2)

    def test_blobs_separable(self):
        ds = make_synthetic("blobs", 100, 3, centers=((0.0, 0.0), (10.0, 10.0)))
        x0 = ds.column("x0").parsed
        assert ((x0 < 5).sum() > 10) and ((x0 > 5).sum() > 10)
        assert not ((x0 > 4) & (x0 < 6)).any()

    def test_deterministic(self):
        a = make_synthetic("two_class", 50, 11)
        b = make_synthetic("two_class", 50, 11)
        assert [a.row(r) for r in range(50)] == [b.row(r) for r in range(50)]

    def test_non_positive_size(self):
        with pytest.raises(InjectionError):
            make_synthetic("blobs", 0, 1)
