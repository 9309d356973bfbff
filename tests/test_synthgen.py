import numpy as np
import pytest

from cyclecast.dataset import Category, MonthStamp, PhaseLabel
from cyclecast.errors import BadSpecError
from cyclecast.features import window_slopes
from cyclecast.rbbcp import TrendDirection, rbbcp_predict
from cyclecast.synthgen import DEFAULT_DRIFTS, RegimeSpec, generate, generate_paths

from conftest import assert_fields_equal


class TestRegimeSpec:
    def test_validation(self):
        with pytest.raises(BadSpecError):
            RegimeSpec(mean_durations=(0.5, 10, 10, 10))
        with pytest.raises(BadSpecError):
            RegimeSpec(noise_sigma=0.0)
        with pytest.raises(BadSpecError):
            RegimeSpec(n_series=1)

    def test_default_drift_signs_encode_phase_semantics(self):
        # phase order: recovery, expansion, slowdown, recession
        signs = [(np.sign(g), np.sign(i)) for g, i in DEFAULT_DRIFTS]
        assert signs == [(1, -1), (1, 1), (-1, 1), (-1, -1)]


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = RegimeSpec(seed=5)
        ds1, series1 = generate(spec, 200)
        ds2, series2 = generate(spec, 200)
        assert_fields_equal(ds1, ds2)
        for a, b in zip(series1, series2):
            assert_fields_equal(a, b)

    def test_different_seeds_differ(self):
        ds1, _ = generate(RegimeSpec(seed=1), 200)
        ds2, _ = generate(RegimeSpec(seed=2), 200)
        assert ds1.labels != ds2.labels

    def test_shapes_and_categories(self):
        spec = RegimeSpec(n_series=6, seed=0)
        ds, series = generate(spec, 150, start=MonthStamp(1980, 1))
        assert len(ds) == 150
        assert len(series) == 6
        assert ds.months[0] == MonthStamp(1980, 1).ordinal
        cats = {s.category for s in series}
        assert cats == {Category.GROWTH, Category.INFLATION}

    def test_noiseless_limit_series_monotone_within_phase(self):
        spec = RegimeSpec(noise_sigma=1e-12, n_series=4, seed=3)
        ds, series = generate(spec, 240)
        phases, growth, inflation = generate_paths(spec, 240)
        for s in series:
            drift_col = 0 if s.category is Category.GROWTH else 1
            values = np.asarray(s.values)
            for t in range(1, 240):
                drift = spec.drifts[int(phases[t]) - 1][drift_col]
                step = values[t] - values[t - 1]
                assert np.sign(step) == np.sign(drift)

    def test_duration_means_within_ten_percent(self):
        spec = RegimeSpec(seed=123)
        phases, _, _ = generate_paths(spec, 10_000)
        runs: dict[PhaseLabel, list[int]] = {p: [] for p in PhaseLabel}
        current = phases[0]
        length = 0
        for p in phases:
            if p is current:
                length += 1
            else:
                runs[current].append(length)
                current = p
                length = 1
        # drop the final (possibly truncated) run
        for phase in PhaseLabel:
            mean = np.mean(runs[phase])
            target = spec.mean_durations[int(phase) - 1]
            assert abs(mean - target) / target < 0.10

    def test_rbbcp_recovers_labels_from_noiseless_latents(self):
        spec = RegimeSpec(noise_sigma=1e-12, seed=9)
        n = 300
        phases, growth, inflation = generate_paths(spec, n)
        window = 3
        growth_slopes, inflation_slopes = window_slopes(growth, window), window_slopes(inflation, window)
        checked = 0
        for t in range(window - 1, n - 1):
            # only months whose whole window and target sit inside one phase
            span = phases[t - window + 1 : t + 2]
            if len(set(span)) != 1:
                continue
            g_dir = TrendDirection.UP if growth_slopes[t - window + 1] > 0 else TrendDirection.DOWN
            i_dir = TrendDirection.UP if inflation_slopes[t - window + 1] > 0 else TrendDirection.DOWN
            assert rbbcp_predict(i_dir, g_dir) is phases[t + 1]
            checked += 1
        assert checked > 150

    def test_n_months_shorter_than_longest_duration(self):
        with pytest.raises(BadSpecError):
            generate(RegimeSpec(mean_durations=(50, 50, 50, 50)), 20)
