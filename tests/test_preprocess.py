import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.dataset import Category, MonthStamp, Transform
from cyclecast.errors import (
    EmptyOverlapError,
    NonPositiveForLogError,
    TooShortError,
    ZeroVarianceError,
)
from cyclecast.preprocess import (
    adf_statistic,
    align_panel,
    difference_transform,
    ensure_stationary,
    newey_west_lag,
    newey_west_variance,
    nw_rescale,
    schwert_lag,
    standardize_series,
    subsample,
    zscore,
)

from conftest import make_series, make_std


class TestDifferenceTransform:
    def test_diff(self):
        out = difference_transform(make_series([100, 102, 101]), Transform.DIFF)
        assert out.values.tolist() == [2.0, -1.0]
        np.testing.assert_array_equal(out.months, make_series([100, 102, 101]).months[1:])
        assert out.transform_applied is Transform.DIFF

    def test_log_diff(self):
        out = difference_transform(make_series([1.0, math.e, math.e**2]), "log_diff")
        assert out.values == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_log_diff_rejects_non_positive(self):
        with pytest.raises(NonPositiveForLogError):
            difference_transform(make_series([1.0, -1.0]), Transform.LOG_DIFF)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            difference_transform(make_series([1.0]), Transform.DIFF)

    def test_cumsum_reconstructs(self, rng):
        for _ in range(10):
            x = rng.standard_normal(rng.integers(2, 50))
            s = make_series(x)
            d = difference_transform(s, Transform.DIFF)
            rebuilt = np.concatenate([[x[0]], x[0] + np.cumsum(d.values)])
            assert np.abs(rebuilt - x).max() < 1e-12


class TestAdf:
    def test_white_noise_is_stationary(self):
        rejected = 0
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(500)
            rejected += adf_statistic(x, max_lag=4).is_stationary
        assert rejected >= 95

    def test_random_walk_is_not(self):
        kept = 0
        for seed in range(100):
            x = np.cumsum(np.random.default_rng(1000 + seed).standard_normal(500))
            kept += not adf_statistic(x, max_lag=4).is_stationary
        assert kept >= 90

    def test_too_short(self):
        with pytest.raises(TooShortError):
            adf_statistic(make_series([1, 2, 3, 4, 5]), max_lag=4)

    def test_lag_rules(self):
        assert schwert_lag(100) == 12
        assert schwert_lag(500) == 17
        assert newey_west_lag(100) == 4

    def test_ensure_stationary_differences_random_walk(self):
        x = np.cumsum(np.random.default_rng(5).standard_normal(400)) + 100
        out, result = ensure_stationary(make_series(x), max_lag=4)
        assert out.transform_applied in (Transform.DIFF, Transform.LOG_DIFF)
        assert result.is_stationary

    @pytest.mark.parametrize("kind", ["walk", "ar1"])
    def test_matches_lstsq_reference(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e = rng.standard_normal(int(rng.integers(40, 700)))
            x = np.cumsum(e) if kind == "walk" else ar1(e, 0.7)
            for max_lag in (None, 0, 3):
                got = adf_statistic(x, max_lag=max_lag)
                want = lstsq_adf(x, got.lag)
                assert got.statistic == pytest.approx(want, rel=1e-10, abs=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        steps=st.lists(st.integers(-64, 64), min_size=60, max_size=300),
        shift=st.integers(-10**12, 10**12),
    )
    def test_statistic_does_not_depend_on_level(self, steps, shift):
        # Multiples of 1/64 below 2**13 in size, so that x + shift is exact in float64.
        x = np.cumsum(steps) / 64.0
        try:
            base = adf_statistic(x).statistic
        except ZeroVarianceError:  # e.g. all steps equal
            with pytest.raises(ZeroVarianceError):
                adf_statistic(x + shift)
            return
        assert adf_statistic(x + shift).statistic == pytest.approx(base, rel=1e-9)

    def test_level_of_a_walk_leaves_statistic_alone(self):
        # Uncentred normal equations drift by 6e-7 relative at 1e6 and fail at 1e9.
        w = np.cumsum(np.random.default_rng(3).standard_normal(600))
        w -= w % 2.0**-12  # a multiple of 1/4096, so that w + level is exact
        base = adf_statistic(w).statistic
        for level in (1e6, 1e9, -1e12):
            assert adf_statistic(w + level).statistic == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize(
        "values", [np.full(200, 0.1), np.arange(200.0), 3.0 - 2.0 * np.arange(200.0)]
    )
    @pytest.mark.parametrize("max_lag", [None, 0, 2])
    def test_constant_or_linear_is_zero_variance(self, values, max_lag):
        with pytest.raises(ZeroVarianceError, match="'s'"):
            adf_statistic(make_series(values), max_lag=max_lag)


def ar1(e: np.ndarray, phi: float) -> np.ndarray:
    x = np.empty_like(e)
    x[0] = e[0]
    for t in range(1, e.size):
        x[t] = phi * x[t - 1] + e[t]
    return x


def lstsq_adf(x: np.ndarray, lag: int) -> float:
    """The ADF t-ratio from the uncentred regression with a constant column, by lstsq."""
    dy = np.diff(x)
    rows = dy[lag:]
    X = np.column_stack(
        [np.ones_like(rows), x[lag:-1], *(dy[lag - i : dy.size - i] for i in range(1, lag + 1))]
    )
    beta = np.linalg.lstsq(X, rows, rcond=None)[0]
    resid = rows - X @ beta
    s2 = resid @ resid / (rows.size - X.shape[1])
    return float(beta[1] / math.sqrt(s2 * np.linalg.inv(X.T @ X)[1, 1]))


class TestZscore:
    def test_hand_example(self):
        z = zscore(make_series([1, 2, 3]), "full")
        assert z.values == pytest.approx(
            (-1.224744871391589, 0.0, 1.224744871391589), abs=1e-12
        )

    def test_constant_rejected(self):
        with pytest.raises(ZeroVarianceError):
            zscore(make_series([5, 5, 5]), "full")

    def test_negation_equivariance(self, rng):
        x = rng.standard_normal(40)
        z_pos = np.array(zscore(make_series(x), "full").values)
        z_neg = np.array(zscore(make_series(-x), "full").values)
        assert np.abs(z_pos + z_neg).max() < 1e-12

    def test_full_mode_moments(self, rng):
        for _ in range(10):
            x = rng.standard_normal(rng.integers(5, 200)) * rng.uniform(0.1, 10)
            z = np.array(zscore(make_series(x), "full").values)
            assert abs(z.mean()) < 1e-9
            assert abs(z.var() - 1.0) < 1e-9

    def test_expanding_no_lookahead(self, rng):
        x = rng.standard_normal(60)
        short = zscore(make_series(x[:40]), "expanding", min_window=12)
        full = zscore(make_series(x), "expanding", min_window=12)
        np.testing.assert_array_equal(full.values[: len(short.values)], short.values)
        assert full.months[0] == make_series(x).months[11]

    def test_expanding_too_short(self):
        with pytest.raises(TooShortError):
            zscore(make_series([1, 2, 3]), "expanding", min_window=12)

    @pytest.mark.parametrize("level", [0.1, 0.3])
    def test_inexact_constant_rejected_full(self, level):
        # np.std of twelve 0.1s is 1.4e-17, not 0
        with pytest.raises(ZeroVarianceError, match="is constant"):
            zscore(make_series([level] * 12), "full")

    @pytest.mark.parametrize("level", [0.1, 0.3])
    def test_inexact_constant_prefix_rejected_expanding(self, level):
        series = make_series([level] * 12 + [1.0, 2.0])
        month = MonthStamp.from_ordinal(series.months[11])
        with pytest.raises(ZeroVarianceError, match=f"constant through {month}"):
            zscore(series, "expanding", min_window=12)

    def test_constant_prefix_shorter_than_window_accepted(self):
        z = zscore(make_series([0.1] * 11 + [1.0, 2.0]), "expanding", min_window=12)
        assert len(z.values) == 2
        assert all(math.isfinite(v) for v in z.values)

    @staticmethod
    def per_month(x, min_window):
        return np.array(
            [(x[t] - x[: t + 1].mean()) / x[: t + 1].std() for t in range(min_window - 1, x.size)]
        )

    @pytest.mark.parametrize(
        "make, tol",
        [
            (lambda rng: rng.standard_normal(600), 1e-12),
            (lambda rng: 1e6 + rng.standard_normal(600), 1e-8),
            (lambda rng: np.cumsum(rng.standard_normal(600) + 0.5), 1e-8),
        ],
        ids=["standard-normal", "level-1e6", "trending-walk"],
    )
    def test_expanding_matches_per_month_definition(self, rng, make, tol):
        for _ in range(5):
            x = make(rng)
            z = np.array(zscore(make_series(x), "expanding", min_window=12).values)
            assert np.abs(z - self.per_month(x, 12)).max() <= tol

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 80),
        extra=st.integers(1, 40),
        min_window=st.integers(2, 12),
    )
    def test_appending_months_never_changes_emitted_values(self, seed, n, extra, min_window):
        x = np.random.default_rng(seed).standard_normal(n + extra).cumsum()
        short = zscore(make_series(x[:n]), "expanding", min_window=min_window)
        longer = zscore(make_series(x), "expanding", min_window=min_window)
        np.testing.assert_array_equal(longer.values[: len(short.values)], short.values)


class TestNeweyWest:
    def test_lag0_is_population_variance(self):
        assert newey_west_variance([1, 2, 3], 0) == pytest.approx(2 / 3, abs=1e-15)

    def test_lag1_hand_computed(self):
        # gamma_1 of [1,2,3] is zero, so the lag-1 estimate equals the variance
        assert newey_west_variance([1, 2, 3], 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_lag0_matches_variance_relative(self, rng):
        for _ in range(20):
            x = rng.standard_normal(rng.integers(3, 300)) * rng.uniform(0.01, 100)
            got = newey_west_variance(x, 0)
            want = float(np.var(x))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_non_negative_for_any_lag(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 80))
            x = rng.standard_normal(n)
            lag = int(rng.integers(0, n))
            assert newey_west_variance(x, lag) >= 0.0

    def test_iid_close_to_plain_variance(self):
        x = np.random.default_rng(99).standard_normal(10_000)
        nw = newey_west_variance(x, 3)
        assert abs(nw - x.var()) / x.var() < 0.20

    def test_too_short(self):
        with pytest.raises(TooShortError):
            newey_west_variance([1, 2], 2)

    def test_negative_lag(self):
        with pytest.raises(ValueError):
            newey_west_variance([1, 2, 3], -1)


class TestSubsample:
    def test_stride_two(self):
        assert subsample(["a", "b", "c", "d", "e"], 2) == ["a", "c", "e"]

    def test_stride_one_identity(self):
        assert subsample([1, 2, 3], 1) == [1, 2, 3]

    def test_stride_beyond_length(self):
        assert subsample([1, 2, 3], 10) == [1]

    def test_composition(self, rng):
        v = list(rng.standard_normal(100))
        for a in (1, 2, 3, 5):
            for b in (1, 2, 4):
                assert subsample(subsample(v, a), b) == subsample(v, a * b)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            subsample([1], 0)


class TestNwRescale:
    def test_provenance_recorded(self):
        std = make_std(np.sin(np.arange(100)))
        out = nw_rescale(std, lag=2, stride=3)
        assert out.provenance.nw_lag == 2
        assert out.provenance.subsample_stride == 3

    def test_scaling_matches_estimate(self):
        values = np.sin(np.arange(60) / 4)
        std = make_std(values)
        out = nw_rescale(std, lag=1, stride=2)
        sigma = math.sqrt(newey_west_variance(subsample(values, 2), 1))
        assert np.allclose(np.array(out.values), values / sigma)


class TestAlignPanel:
    def test_no_fills_for_complete_series(self):
        start = MonthStamp(2000, 1)
        a = make_std(range(12), "a", start)
        b = make_std(range(12, 24), "b", start)
        panel = align_panel([a, b], start.ordinal, start.ordinal + 11)
        assert panel.values.shape == (12, 2)
        assert panel.fills == (0, 0)
        assert not np.isnan(panel.values).any()

    def test_interior_gap_forward_filled(self):
        start = MonthStamp(2000, 1)
        months = [start.ordinal + i for i in range(12) if i != 5]
        from cyclecast.preprocess import Provenance, StandardizedSeries
        from cyclecast.dataset import Region

        s = StandardizedSeries(
            series_id="gap",
            region=Region.US,
            category=Category.GROWTH,
            months=months,
            values=tuple(float(i) for i in range(11)),
            provenance=Provenance(),
        )
        panel = align_panel([s], start.ordinal, start.ordinal + 11)
        assert panel.fills == (1,)
        assert panel.values[5, 0] == panel.values[4, 0]

    def test_leading_months_unavailable(self):
        start = MonthStamp(2000, 1)
        late = make_std(range(9), "late", start.add_months(3))
        panel = align_panel([late], start.ordinal, start.ordinal + 11)
        assert np.isnan(panel.values[:3, 0]).all()
        assert not np.isnan(panel.values[3:, 0]).any()
        assert panel.fills == (0,)

    def test_empty_overlap(self):
        start = MonthStamp(2000, 1)
        outside = make_std(range(5), "x", MonthStamp(2010, 1))
        with pytest.raises(EmptyOverlapError):
            align_panel([outside], start.ordinal, start.ordinal + 11)

    @staticmethod
    def reference_align(series, start, end):
        """Month-by-month forward fill: the definition align_panel vectorises."""
        n = end - start + 1
        grid = range(start, end + 1)
        values = np.full((n, len(series)), np.nan)
        fills = []
        for j, s in enumerate(series):
            obs = dict(zip(s.months.tolist(), s.values.tolist()))
            last = None
            for m, v in zip(s.months, s.values):
                if m < start:
                    last = v
            count = 0
            for i, m in enumerate(grid):
                if m in obs:
                    last = obs[m]
                elif last is not None:
                    count += 1
                if last is not None:
                    values[i, j] = last
            fills.append(count)
        return values, tuple(fills)

    def test_matches_reference_loop(self, rng):
        from cyclecast.preprocess import Provenance, StandardizedSeries
        from cyclecast.dataset import Region

        start, end = MonthStamp(2000, 1).ordinal, MonthStamp(2009, 12).ordinal
        series = []
        for j in range(30):
            # first observation from 24 months before the grid to 60 months into it
            first = start + int(rng.integers(-24, 60))
            length = int(rng.integers(24, 160))
            kept = [i for i in range(length) if j % 3 == 0 or rng.random() > 0.1]
            months = [first + i for i in kept]
            if not any(start <= m <= end for m in months):
                continue
            series.append(
                StandardizedSeries(
                    series_id=f"s{j}",
                    region=Region.US,
                    category=Category.GROWTH,
                    months=months,
                    values=tuple(rng.standard_normal(len(months)).tolist()),
                    provenance=Provenance(),
                )
            )
        want_values, want_fills = self.reference_align(series, start, end)
        panel = align_panel(series, start, end)
        # the draw covers every case the vectorised fill must get right
        assert any(s.months[0] < start for s in series)  # seeded from before the grid
        assert any(s.months[0] > start for s in series)  # late start
        assert any(s.months[-1] < end for s in series)  # trailing fills
        assert any(f > 0 for s, f in zip(series, want_fills) if s.months[-1] >= end)  # interior gaps
        np.testing.assert_array_equal(panel.values, want_values)
        assert panel.fills == want_fills

    def test_complete_trims_leading(self):
        start = MonthStamp(2000, 1)
        early = make_std(range(12), "a", start)
        late = make_std(range(8), "b", start.add_months(4))
        panel = align_panel([early, late], start.ordinal, start.ordinal + 11)
        trimmed = panel.complete()
        assert trimmed.months[0] == start.ordinal + 4
        assert not np.isnan(trimmed.values).any()


class TestStandardizePipeline:
    def test_full_pipeline_provenance(self):
        x = np.cumsum(np.random.default_rng(3).standard_normal(300)) + 50
        out = standardize_series(
            make_series(x), stationarity="auto", zscore_mode="full", adf_max_lag=4
        )
        assert out.provenance.transform in (Transform.DIFF, Transform.LOG_DIFF)
        assert out.provenance.zscore_mode == "full"
        assert out.provenance.nw_lag is not None
        assert out.provenance.subsample_stride == 3

    def test_provenance_records_the_last_adf_test(self):
        rng = np.random.default_rng(0)
        i3 = np.cumsum(np.cumsum(np.cumsum(rng.standard_normal(200))))  # still I(1) after two rounds
        gave_up = standardize_series(make_series(i3), stationarity="auto").provenance.adf
        assert gave_up is not None and not gave_up.is_stationary
        assert gave_up == ensure_stationary(make_series(i3))[1]
        noise = standardize_series(make_series(rng.standard_normal(200)), stationarity="auto")
        assert noise.provenance.adf.is_stationary
        assert standardize_series(make_series(i3), stationarity="diff").provenance.adf is None

    def test_explicit_transform(self):
        x = np.arange(1.0, 41.0) ** 1.5
        out = standardize_series(make_series(x), stationarity="diff", zscore_mode="full")
        assert out.provenance.transform is Transform.DIFF

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            standardize_series(make_series([1, 2, 3]), stationarity="wavelet")
