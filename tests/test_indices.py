import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.dataset import MonthStamp
from cyclecast.errors import (
    DataError,
    DegenerateCovarianceError,
    InsufficientHistoryError,
    PanelTooShortError,
    PowerIterationError,
    ZeroReferenceLoadingError,
)
from cyclecast.indices import (
    POWER_ITERATION_MAX_STEPS,
    POWER_ITERATION_TOL,
    IndexKind,
    PcaResult,
    expanding_pca_index,
    pca_first_component,
    sign_normalize,
    _top_eigenvector,
)

from conftest import make_panel


class TestFirstComponent:
    def test_collinear_points(self):
        r = pca_first_component(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]))
        assert np.abs(np.abs(r.loadings) - 1 / np.sqrt(2)).max() < 1e-9
        assert r.explained_variance_ratio == pytest.approx(1.0, abs=1e-9)

    def test_single_column_identity(self, rng):
        col = rng.standard_normal(15)
        r = pca_first_component(col[:, None])
        assert r.loadings.shape == (1,)
        assert abs(abs(r.loadings[0]) - 1.0) < 1e-12
        signed = col - col.mean() if r.loadings[0] > 0 else -(col - col.mean())
        assert np.abs(r.scores - signed).max() < 1e-12

    def test_matches_lapack_eigh(self, rng):
        for _ in range(20):
            X = rng.standard_normal((20, 5)) * rng.uniform(0.5, 3.0, 5)
            r = pca_first_component(X)
            centered = X - X.mean(axis=0)
            cov = centered.T @ centered / X.shape[0]
            _, vectors = np.linalg.eigh(cov)
            v = vectors[:, -1]
            if v @ r.loadings < 0:
                v = -v
            assert np.abs(v - r.loadings).max() < 1e-8

    def test_unit_norm_and_centered_scores(self, rng):
        X = rng.standard_normal((30, 4))
        r = pca_first_component(X)
        assert abs(np.linalg.norm(r.loadings) - 1.0) < 1e-9
        assert abs(r.scores.mean()) < 1e-9

    def test_first_pc_optimality(self, rng):
        X = rng.standard_normal((40, 6)) * rng.uniform(0.5, 2.0, 6)
        r = pca_first_component(X)
        centered = X - X.mean(axis=0)
        best = (centered @ r.loadings).var()
        for _ in range(1000):
            d = rng.standard_normal(6)
            d /= np.linalg.norm(d)
            assert (centered @ d).var() <= best + 1e-9

    def test_degenerate_panel(self):
        with pytest.raises(DegenerateCovarianceError):
            pca_first_component(np.zeros((10, 3)))

    def test_too_few_months(self):
        with pytest.raises(PanelTooShortError):
            pca_first_component(np.array([[1.0, 2.0]]))

    def test_anticollinear_columns(self):
        # ones start vector is orthogonal to the top eigenvector here
        x = np.array([1.0, -2.0, 3.0, 0.5, -1.5])
        r = pca_first_component(np.column_stack([x, -x]))
        assert np.abs(np.abs(r.loadings) - 1 / np.sqrt(2)).max() < 1e-9
        assert r.explained_variance_ratio == pytest.approx(1.0, abs=1e-9)


class TestPowerIteration:
    def test_non_convergence_raises(self):
        # eigengap 1e-7: the ones start cannot meet the tolerance within the budget
        with pytest.raises(PowerIterationError) as info:
            _top_eigenvector(np.diag([1.0, 1.0 - 1e-7]))
        assert isinstance(info.value, DataError)
        assert info.value.steps == POWER_ITERATION_MAX_STEPS
        assert info.value.residual >= POWER_ITERATION_TOL
        assert f"{POWER_ITERATION_MAX_STEPS} steps" in str(info.value)

    def test_warm_start_finds_the_same_eigenpair(self, rng):
        X = rng.standard_normal((50, 6)) * rng.uniform(0.5, 3.0, 6)
        cov = np.cov(X, rowvar=False)
        cold, cold_value = _top_eigenvector(cov)
        warm, warm_value = _top_eigenvector(cov, start=cold + 0.01 * rng.standard_normal(6))
        assert np.abs(warm - cold).max() < 1e-9
        assert warm_value == pytest.approx(cold_value, rel=1e-12)

    def test_every_start_in_nullspace_raises(self):
        # trace > 0, but every start maps to a vector below the tolerance
        with pytest.raises(DegenerateCovarianceError):
            _top_eigenvector(1e-14 * np.eye(3))

    def test_nullspace_warm_start_falls_back(self):
        # the warm start lies in the nullspace, the ones start does not
        cov = np.outer([1.0, 2.0], [1.0, 2.0])
        v, value = _top_eigenvector(cov, start=np.array([2.0, -1.0]))
        assert np.abs(np.abs(v) - np.array([1.0, 2.0]) / np.sqrt(5.0)).max() < 1e-12
        assert value == pytest.approx(5.0, rel=1e-12)


class TestSignNormalize:
    def test_flip(self):
        r = PcaResult(
            loadings=np.array([-0.6, -0.8]),
            scores=np.array([1.0, -1.0]),
            explained_variance_ratio=0.9,
        )
        out = sign_normalize(r, 0)
        assert np.allclose(out.loadings, [0.6, 0.8])
        assert np.allclose(out.scores, [-1.0, 1.0])

    def test_no_flip_needed(self):
        r = PcaResult(
            loadings=np.array([0.6, 0.8]),
            scores=np.array([1.0, -1.0]),
            explained_variance_ratio=0.9,
        )
        out = sign_normalize(r, 0)
        assert out is r

    def test_zero_reference(self):
        r = PcaResult(
            loadings=np.array([0.0, 1.0]),
            scores=np.array([1.0]),
            explained_variance_ratio=0.5,
        )
        with pytest.raises(ZeroReferenceLoadingError):
            sign_normalize(r, 0)

    def test_projection_idempotent(self, rng):
        loadings = rng.standard_normal(4)
        loadings /= np.linalg.norm(loadings)
        r = PcaResult(loadings=loadings, scores=rng.standard_normal(9),
                      explained_variance_ratio=0.4)
        once = sign_normalize(r, 2)
        twice = sign_normalize(once, 2)
        assert np.array_equal(once.loadings, twice.loadings)
        assert np.array_equal(once.scores, twice.scores)


def random_panel(rng, n_months, n_series=3):
    cols = {f"s{j}": rng.standard_normal(n_months).cumsum() for j in range(n_series)}
    return make_panel(cols)


class TestExpandingIndex:
    def test_min_window_boundary(self, rng):
        panel = random_panel(rng, 60)
        index = expanding_pca_index(panel, IndexKind.GROWTH, 60)
        assert len(index) == 1
        assert index.months[0] == panel.months[59]

    def test_72_months_gives_13_values(self, rng):
        panel = random_panel(rng, 72)
        index = expanding_pca_index(panel, "growth", 60)
        assert len(index) == 13

    def test_causal_stability(self, rng):
        panel = random_panel(rng, 90)
        full = expanding_pca_index(panel, IndexKind.INFLATION, 60)
        from cyclecast.preprocess import Panel

        truncated = Panel(
            months=panel.months[:75],
            series_ids=panel.series_ids,
            categories=panel.categories,
            values=panel.values[:75],
            fills=panel.fills,
            region=panel.region,
        )
        shorter = expanding_pca_index(truncated, IndexKind.INFLATION, 60)
        for m, v in zip(shorter.months, shorter.values):
            assert abs(full.value_at(m) - v) < 1e-12

    def test_panel_too_short(self, rng):
        with pytest.raises(PanelTooShortError):
            expanding_pca_index(random_panel(rng, 59), IndexKind.GROWTH, 60)

    def test_reference_series_must_exist(self, rng):
        with pytest.raises(ValueError):
            expanding_pca_index(random_panel(rng, 60), "growth", 60, reference_series="nope")

    def test_window_ending_at(self, rng):
        panel = random_panel(rng, 70)
        index = expanding_pca_index(panel, "growth", 60)
        w = index.window_ending_at(index.months[-1], 5)
        np.testing.assert_array_equal(w, index.values[-5:])
        with pytest.raises(InsufficientHistoryError):
            index.window_ending_at(index.months[2], 5)
        with pytest.raises(InsufficientHistoryError):
            index.window_ending_at(MonthStamp(1900, 1).ordinal, 2)


def cold_index(values, min_window, ref_col=0):
    """The per-month definition: a fresh signed PCA of values[:t] for every t."""
    return np.array(
        [
            sign_normalize(pca_first_component(values[:t]), ref_col).scores[-1]
            for t in range(min_window, values.shape[0] + 1)
        ]
    )


class TestIncrementalIndex:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 20, 30])
    @pytest.mark.parametrize("gap", ["separated", "weak"])
    def test_matches_cold_per_month_fit(self, d, gap):
        rng = np.random.default_rng(d)
        n = 100
        if gap == "separated":
            factor = rng.standard_normal(n)
            X = np.outer(factor, rng.uniform(0.5, 1.5, d)) + 0.3 * rng.standard_normal((n, d))
        else:
            X = rng.standard_normal((n, d))  # iid columns: top eigenvalues close together
        panel = make_panel({f"s{j}": X[:, j] for j in range(d)})
        got = np.array(expanding_pca_index(panel, "growth", 40).values)
        assert np.abs(got - cold_index(X, 40)).max() <= 1e-9

    def test_reference_series_sets_the_sign(self, rng):
        X = rng.standard_normal((70, 4)) + np.outer(rng.standard_normal(70), [1.0, -1.0, 1.0, -1.0])
        panel = make_panel({f"s{j}": X[:, j] for j in range(4)})
        got = np.array(expanding_pca_index(panel, "growth", 60, reference_series="s1").values)
        assert np.abs(got - cold_index(X, 60, ref_col=1)).max() <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 60),
        extra=st.integers(1, 30),
        d=st.integers(1, 6),
    )
    def test_appending_months_never_changes_emitted_values(self, seed, n, extra, d):
        rng = np.random.default_rng(seed)
        X = np.outer(rng.standard_normal(n + extra), rng.uniform(0.5, 1.5, d))
        X += 0.5 * rng.standard_normal((n + extra, d))
        full = make_panel({f"s{j}": X[:, j] for j in range(d)})
        cut = make_panel({f"s{j}": X[:n, j] for j in range(d)})
        longer = expanding_pca_index(full, "growth", 20)
        shorter = expanding_pca_index(cut, "growth", 20)
        np.testing.assert_array_equal(longer.values[: len(shorter)], shorter.values)
