import numpy as np
import pytest

from cyclecast.dataset import Category, LabeledDataset, MonthStamp, PhaseLabel
from cyclecast.errors import (
    EmptyAfterFilterError,
    EmptyOverlapError,
    PanelTooShortError,
    TooShortError,
    ZeroVarianceError,
)
from cyclecast.features import (
    FeatureScaler,
    build_feature_matrix,
    forecast_alignment,
    ols_slope,
)

from conftest import make_panel, month_range


class TestOlsSlope:
    def test_exact_linear(self):
        assert ols_slope([2, 4, 6, 8]) == pytest.approx(2.0, abs=1e-12)

    def test_constant(self):
        assert ols_slope([5, 5, 5, 5, 5]) == 0.0

    def test_hand_computed(self):
        assert ols_slope([1, 2, 2, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            ols_slope([1.0])

    def test_affine_equivariance(self, rng):
        for _ in range(20):
            y = rng.standard_normal(rng.integers(2, 30))
            a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
            assert ols_slope(a * y + b) == pytest.approx(a * ols_slope(y), abs=1e-9)

    def test_reverse_negates(self, rng):
        y = rng.standard_normal(17)
        assert ols_slope(y[::-1]) == pytest.approx(-ols_slope(y), abs=1e-12)


class TestBuildFeatureMatrix:
    def test_boundary_single_row(self, rng):
        panel = make_panel({"a": rng.standard_normal(12), "b": rng.standard_normal(12)})
        fm = build_feature_matrix(panel, 12)
        assert fm.values.shape == (1, 2)
        assert fm.months.tolist() == [panel.months[-1]]
        assert fm.values[0, 0] == pytest.approx(ols_slope(panel.values[:, 0]), abs=1e-12)

    def test_commodity_and_stock_excluded_by_default(self, rng):
        panel = make_panel(
            {
                "g": rng.standard_normal(20),
                "oil": rng.standard_normal(20),
                "spx": rng.standard_normal(20),
            },
            categories={
                "g": Category.GROWTH,
                "oil": Category.COMMODITY,
                "spx": Category.STOCK_INDEX,
            },
        )
        fm = build_feature_matrix(panel, 6)
        assert fm.feature_names == ("g",)

    def test_only_excluded_categories(self, rng):
        panel = make_panel(
            {"oil": rng.standard_normal(20)}, categories={"oil": Category.COMMODITY}
        )
        with pytest.raises(EmptyAfterFilterError):
            build_feature_matrix(panel, 6)

    def test_explicit_include_overrides(self, rng):
        panel = make_panel(
            {"oil": rng.standard_normal(20)}, categories={"oil": Category.COMMODITY}
        )
        fm = build_feature_matrix(panel, 6, include=[Category.COMMODITY])
        assert fm.feature_names == ("oil",)

    def test_panel_too_short(self, rng):
        panel = make_panel({"a": rng.standard_normal(5)})
        with pytest.raises(PanelTooShortError):
            build_feature_matrix(panel, 6)

    def test_leading_nan_rows_dropped(self, rng):
        values = rng.standard_normal(20)
        col = values.copy()
        col[:4] = np.nan
        panel = make_panel({"a": rng.standard_normal(20), "b": col})
        fm = build_feature_matrix(panel, 6)
        # first usable window ends at row 4 + 6 - 1 = 9
        assert fm.months[0] == panel.months[9]
        assert not np.isnan(fm.values).any()

    def test_causality_on_truncated_panel(self, rng):
        full_cols = {"a": rng.standard_normal(30), "b": rng.standard_normal(30)}
        panel = make_panel(full_cols)
        fm_full = build_feature_matrix(panel, 8)
        shorter = make_panel({k: v[:20] for k, v in full_cols.items()})
        fm_short = build_feature_matrix(shorter, 8)
        for m, row in zip(fm_short.months, fm_short.values):
            np.testing.assert_array_equal(fm_full.row_at(m), row)

    def test_sign_only_mode(self, rng):
        panel = make_panel({"a": rng.standard_normal(15)})
        fm = build_feature_matrix(panel, 5, sign_only=True)
        assert set(np.unique(fm.values)) <= {-1.0, 0.0, 1.0}

    def test_window_validation(self, rng):
        panel = make_panel({"a": rng.standard_normal(15)})
        with pytest.raises(ValueError):
            build_feature_matrix(panel, 1)


def labels_over(start: MonthStamp, codes) -> LabeledDataset:
    return LabeledDataset(
        months=month_range(start, len(codes)),
        labels=tuple(PhaseLabel(c) for c in codes),
    )


class TestForecastAlignment:
    def test_one_month_shift(self, rng):
        panel = make_panel({"a": rng.standard_normal(10)}, start=MonthStamp(2010, 1))
        fm = build_feature_matrix(panel, 8)  # feature months 2010-08..2010-10
        labels = labels_over(MonthStamp(2010, 1), [1, 1, 1, 1, 1, 1, 1, 1, 2, 3])
        X, y, months = forecast_alignment(fm, labels)
        np.testing.assert_array_equal(months, fm.months[:-1])  # 2010-10 has no 2010-11 label
        assert list(y) == [2, 3]
        np.testing.assert_array_equal(X[0], fm.values[0])

    def test_last_row_dropped_when_labels_end(self, rng):
        panel = make_panel({"a": rng.standard_normal(6)}, start=MonthStamp(2010, 1))
        fm = build_feature_matrix(panel, 3)
        labels = labels_over(MonthStamp(2010, 1), [1] * 6)
        X, y, months = forecast_alignment(fm, labels)
        assert months[-1] == MonthStamp(2010, 5).ordinal

    def test_disjoint_ranges(self, rng):
        panel = make_panel({"a": rng.standard_normal(6)}, start=MonthStamp(2010, 1))
        fm = build_feature_matrix(panel, 3)
        labels = labels_over(MonthStamp(2019, 1), [1, 2, 3])
        with pytest.raises(EmptyOverlapError):
            forecast_alignment(fm, labels)


class TestFeatureScaler:
    def test_standardizes_train(self, rng):
        X = rng.standard_normal((40, 3)) * [1.0, 5.0, 0.2] + [0, 10, -3]
        scaler = FeatureScaler.fit(X)
        Z = scaler.apply(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1).max() < 1e-9

    def test_constant_column_rejected(self):
        with pytest.raises(ZeroVarianceError):
            FeatureScaler.fit(np.ones((10, 2)))
