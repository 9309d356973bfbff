import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import features
from cyclecast.dataset import Category, LabeledDataset, MonthStamp, PhaseLabel, month_row
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
    feature_months,
    forecast_alignment,
    window_slopes,
)

from cyclecast.indices import CompositeIndex, IndexKind
from cyclecast.preprocess import align_panel
from cyclecast.rbbcp import RbbcpModel, TrendDirection, rbbcp_predict_proba

from conftest import make_panel, make_std, month_range

UP, DOWN = TrendDirection.UP, TrendDirection.DOWN


def slope_alone(values, window: int, ends) -> np.ndarray:
    """The reference for ``window_slopes``: each window sloped on its own, as a
    contiguous copy, minus its mean, times the abscissae, summed."""
    y = np.asarray(values, dtype=float)
    xc = np.arange(window, dtype=float) - (window - 1) / 2.0
    out = np.empty((len(ends), *y.shape[1:]))
    for i, end in enumerate(ends):
        for column in np.ndindex(y.shape[1:]):
            cells = np.array(y[end - window + 1 : end + 1][(slice(None), *column)])
            cells -= cells.mean()
            cells *= xc
            out[(i, *column)] = cells.sum() / (xc * xc).sum()
    return out


class TestOlsSlope:
    """``window_slopes``, the one least-squares slope kernel."""

    def test_exact_linear(self):
        assert window_slopes([2, 4, 6, 8], 4) == pytest.approx([2.0], abs=1e-12)
        np.testing.assert_allclose(window_slopes(np.arange(10.0) * -3 + 1, 4), -3.0, atol=1e-12)

    def test_constant(self):
        np.testing.assert_array_equal(window_slopes([5, 5, 5, 5, 5], 3), 0.0)

    def test_hand_computed(self):
        assert window_slopes([1, 2, 2, 3], 4) == pytest.approx([0.6], abs=1e-12)
        assert window_slopes([7, 1, 2, 2, 3], 4)[1] == pytest.approx(0.6, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            window_slopes([1.0], 2)
        with pytest.raises(TooShortError):
            window_slopes([1.0, 2.0, 3.0], 1)

    def test_affine_equivariance(self, rng):
        for _ in range(20):
            y = rng.standard_normal(rng.integers(2, 30))
            w = int(rng.integers(2, y.size + 1))
            a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
            np.testing.assert_allclose(
                window_slopes(a * y + b, w), a * window_slopes(y, w), atol=1e-9
            )

    def test_reverse_negates(self, rng):
        y = rng.standard_normal(17)
        np.testing.assert_allclose(window_slopes(y[::-1], 5), -window_slopes(y, 5)[::-1], atol=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.1, 0.3, -0.7, 1.7]),
            min_size=2,
            max_size=60,
        ),
        st.integers(2, 60),
        st.data(),
    )
    def test_window_alone_matches_column(self, column, window, data):
        """A window's slope has the same bits alone as inside the column, and a
        constant window's slope is exactly 0.0."""
        col = np.array(column)
        window = min(window, col.size)
        slopes = window_slopes(col, window)
        assert slopes.shape == (col.size - window + 1,)
        for i in range(slopes.size):
            alone = window_slopes(col[i : i + window], window)
            assert alone.shape == (1,) and alone[0] == slopes[i]
        c = data.draw(st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(column))
        np.testing.assert_array_equal(window_slopes(np.full(col.size + 3, c), window), 0.0)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 40)) | st.tuples(st.integers(2, 40), st.integers(1, 4)),
        block=st.sampled_from([1, 2, 3, 1 << 14]),
        data=st.data(),
    )
    def test_any_windows_bit_equal_each_window_alone(self, shape, block, data):
        """Every window's slope, in any block size, for every window or for ends
        repeated, unsorted or none at all, has the bits of that window sloped alone."""
        cells = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 0.1, 0.3, -0.7, 1.7])
        size = math.prod(shape)
        values = np.array(data.draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)
        window = data.draw(st.integers(2, shape[0]))
        ends = data.draw(st.none() | st.lists(st.integers(window - 1, shape[0] - 1), max_size=12))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "SLOPE_BLOCK", block)
            got = window_slopes(values, window, ends)
        expected = slope_alone(values, window, range(window - 1, shape[0]) if ends is None else ends)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestBuildFeatureMatrix:
    def test_boundary_single_row(self, rng):
        panel = make_panel({"a": rng.standard_normal(12), "b": rng.standard_normal(12)})
        fm = build_feature_matrix(panel, 12)
        assert fm.values.shape == (1, 2)
        assert fm.months.tolist() == [panel.months[-1]]
        assert fm.values[0, 0] == window_slopes(panel.values[:, 0], 12)[0]

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
            np.testing.assert_array_equal(fm_full.values[month_row(fm_full.months, m)], row)

    def test_sign_only_mode(self, rng):
        panel = make_panel({"a": rng.standard_normal(15)})
        fm = build_feature_matrix(panel, 5, sign_only=True)
        assert set(np.unique(fm.values)) <= {-1.0, 0.0, 1.0}

    def test_forward_filled_tail_is_flat(self, rng):
        """A series that stops early is forward-filled flat to the panel's end:
        its slope there is exactly 0.0 in the features, 0 in sign-only mode,
        and the rule-based predictor reads the same flat window as Down."""
        start = MonthStamp(2000, 1)
        ended = make_std(np.append(rng.standard_normal(11), 0.3), "ended", start)
        full = make_std(rng.standard_normal(20), "full", start)
        panel = align_panel([ended, full], start.ordinal, start.ordinal + 19)
        fm = build_feature_matrix(panel, 5)
        flat = fm.months >= start.add_months(15).ordinal  # windows over months 11..19 only
        assert flat.sum() == 5
        np.testing.assert_array_equal(fm.values[flat, 0], 0.0)
        signs = build_feature_matrix(panel, 5, sign_only=True).values
        np.testing.assert_array_equal(signs[flat, 0], 0.0)

        index = CompositeIndex(IndexKind.GROWTH, panel.months, panel.values[:, 0])
        down, up = rbbcp_predict_proba(DOWN, DOWN), rbbcp_predict_proba(UP, UP)
        for m in panel.months[-5:]:
            dist = RbbcpModel(trend_window=5).predict_proba_at(index, index, m)
            np.testing.assert_array_equal(dist, down)
            dist = RbbcpModel(trend_window=5, zero_is_up=True).predict_proba_at(index, index, m)
            np.testing.assert_array_equal(dist, up)

    def test_window_validation(self, rng):
        panel = make_panel({"a": rng.standard_normal(15)})
        with pytest.raises(ValueError):
            build_feature_matrix(panel, 1)


@st.composite
def nan_led_panels(draw):
    """A panel whose columns start at different months (NaN before), with
    constant runs and cells of very different scales; a window that fits."""
    n, d = draw(st.integers(3, 40)), draw(st.integers(1, 5))
    window = draw(st.integers(2, min(n, 14)))
    cells = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.1, 0.3, 2.5])
    columns = {}
    for j in range(d):
        col = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        col[: draw(st.integers(0, n - window))] = np.nan
        columns[f"s{j}"] = col
    return make_panel(columns), window


class TestFeatureRows:
    """Rows built for some months are the full matrix's rows, bit for bit."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(panel_window=nan_led_panels(), sign_only=st.booleans(), data=st.data())
    def test_any_rows_bit_equal_the_full_matrix(self, panel_window, sign_only, data):
        panel, window = panel_window
        try:
            full = build_feature_matrix(panel, window, sign_only=sign_only)
        except PanelTooShortError:
            return
        names, months = feature_months(panel, window)
        assert names == full.feature_names and months.tolist() == full.months.tolist()
        asked = data.draw(st.lists(st.sampled_from(full.months.tolist()), max_size=2 * full.n_rows))
        some = build_feature_matrix(panel, window, sign_only=sign_only, months=asked)
        expected = full.values[np.searchsorted(full.months, asked)]
        assert some.values.shape == expected.shape and some.values.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(some.months, asked)

    def test_month_without_a_full_window_raises(self, rng):
        panel = make_panel({"a": rng.standard_normal(10)}, start=MonthStamp(2010, 1))
        with pytest.raises(KeyError, match="2010-03"):
            build_feature_matrix(panel, 4, months=[MonthStamp(2010, 5).ordinal, MonthStamp(2010, 3).ordinal])
        with pytest.raises(KeyError, match="2010-11"):
            build_feature_matrix(panel, 4, months=[MonthStamp(2010, 11).ordinal])
        with pytest.raises(KeyError, match="2010-11"):  # the first absent month
            build_feature_matrix(panel, 4, months=[MonthStamp(2010, m).ordinal for m in (5, 11, 3)])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(panel_window=nan_led_panels(), data=st.data())
    def test_gathered_windows_match_each_column(self, panel_window, data):
        """window_slopes over the windows ending at some rows of a matrix equals
        each column's own windows, bit for bit."""
        panel, window = panel_window
        values = np.nan_to_num(panel.values, nan=0.0)
        ends = data.draw(st.lists(st.integers(window - 1, len(values) - 1), max_size=10))
        got = window_slopes(values, window, ends)
        assert got.shape == (len(ends), values.shape[1])
        for j in range(values.shape[1]):
            column = window_slopes(values[:, j], window)
            assert got[:, j].tobytes() == column[np.asarray(ends, dtype=int) - window + 1].tobytes()
        with pytest.raises(IndexError):
            window_slopes(values, window, [window - 2])


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
