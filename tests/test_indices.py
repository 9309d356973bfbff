import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import indices
from cyclecast.cli import _index_state, write_index_csv
from cyclecast.errors import (
    DataError,
    DegenerateCovarianceError,
    PanelTooShortError,
    ZeroReferenceLoadingError,
)
from cyclecast.indices import (
    POWER_ITERATION_TOL,
    IndexKind,
    PcaResult,
    expanding_pca_index,
    pca_first_component,
    sign_normalize,
    _power_iterate,
    _top_eigenpair,
    _warm_top_eigenvector,
)

from conftest import assert_fields_equal, make_panel


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

    def test_equal_variance_negatively_correlated_columns(self):
        # the ones vector is the minor eigenvector here, so a power iteration
        # started from it stops there at once
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        r = pca_first_component(X)
        top = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.abs(r.loadings - (top if r.loadings[0] > 0 else -top)).max() < 1e-12
        assert r.explained_variance_ratio == pytest.approx(0.75, rel=1e-12)

    def test_eigh_failure_is_a_data_error(self, monkeypatch):
        def not_converged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converged)
        with pytest.raises(DegenerateCovarianceError, match="eigh did not converge") as info:
            pca_first_component(np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.5]]))
        assert isinstance(info.value, DataError)


class TestPowerIteration:
    def test_warm_start_finds_the_same_eigenpair(self, rng):
        X = rng.standard_normal((50, 6)) * rng.uniform(0.5, 3.0, 6)
        cov = np.cov(X, rowvar=False)
        cold, cold_value = _top_eigenpair(cov)
        warm, warm_value = _warm_top_eigenvector(cov, cold + 0.01 * rng.standard_normal(6))
        assert np.abs(warm - cold).max() < 1e-9
        assert warm_value == pytest.approx(cold_value, rel=1e-12)

    def test_nullspace_warm_start_falls_back(self):
        # the warm start lies in the nullspace: the month goes to eigh
        cov = np.outer([1.0, 2.0], [1.0, 2.0])
        v, value = _warm_top_eigenvector(cov, np.array([2.0, -1.0]))
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


# the fewest series that take the warm power steps rather than the batched eigh
WARM_D = indices.EIGH_BATCH_MAX_SERIES + 1


def eigh_index(values, min_window, ref_col=0):
    """The per-month definition through LAPACK: the top eigenvector of each
    ``values[:t]`` covariance, signed by the reference column."""
    out = []
    for t in range(min_window, values.shape[0] + 1):
        centered = values[:t] - values[:t].mean(axis=0)
        v = np.linalg.eigh(centered.T @ centered / t)[1][:, -1]
        out.append(centered[-1] @ (v if v[ref_col] > 0 else -v))
    return np.array(out)


def spectrum_cov(rng, d, ratio):
    """PSD matrix with a random orthogonal eigenbasis, lambda1 = 1 and lambda2 = ratio,
    and its top eigenvector."""
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spectrum = np.concatenate([[1.0, ratio], rng.uniform(0.0, ratio, max(d - 2, 0))])[:d]
    cov = (basis * spectrum) @ basis.T
    return (cov + cov.T) / 2, basis[:, 0]


def weak_panel_values(seed, n=150, d=10):
    """Differenced random walks with a faint common factor: weak-factor's shape."""
    rng = np.random.default_rng(seed)
    steps = np.diff(rng.standard_normal((n + 1, d)).cumsum(axis=0), axis=0)
    return steps + 0.2 * rng.standard_normal(n)[:, None]


def counted_eigh(monkeypatch) -> list:
    """Patch ``np.linalg.eigh`` to log one entry per call; returns the log."""
    calls, eigh = [], np.linalg.eigh

    def counted(a):
        calls.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def window_with_ratio(rng, d, ratio, n=60):
    """``n`` rows whose divisor-``n`` covariance has lambda1 = 1 and lambda2 = ``ratio``
    in a random orthogonal eigenbasis."""
    Z = rng.standard_normal((n, d))
    Z -= Z.mean(axis=0)
    Z = np.linalg.svd(Z, full_matrices=False)[0] * np.sqrt(n)  # centred, Z.T @ Z = n I
    cov, _ = spectrum_cov(rng, d, ratio)
    values, vectors = np.linalg.eigh(cov)
    return Z @ (vectors * np.sqrt(np.clip(values, 0.0, None))).T


class TestWarmSolver:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 30),
        ratio=st.floats(0.9, 0.999),
        log_eps=st.floats(-10.0, -2.0),
    )
    def test_tight_eigengap_returns_the_eigh_pair(self, seed, d, ratio, log_eps):
        rng = np.random.default_rng(seed)
        cov, _ = spectrum_cov(rng, d, ratio)
        values, vectors = np.linalg.eigh(cov)
        top = vectors[:, -1]
        v, value = _warm_top_eigenvector(cov, top + 10.0**log_eps * rng.standard_normal(d))
        assert np.abs(v - (top if top @ v > 0 else -top)).max() <= 1e-9
        assert value == pytest.approx(values[-1], rel=1e-12, abs=0.0)

    def test_budget_month_returns_exactly_what_power_iteration_does(self, monkeypatch, rng):
        # a wide eigengap meets the tolerance within the d // 3 power steps
        cov, top = spectrum_cov(rng, 30, 0.01)
        start = top + 1e-3 * rng.standard_normal(30)
        power, residual = _power_iterate(cov, start / np.linalg.norm(start), 30 // 3)
        assert residual < POWER_ITERATION_TOL
        monkeypatch.setattr(np.linalg, "eigh", None)  # eigh is never reached
        warm, warm_value = _warm_top_eigenvector(cov, start)
        np.testing.assert_array_equal(warm, power)
        assert warm_value == float(power @ cov @ power)

    def test_missed_power_steps_fall_back_to_eigh(self, monkeypatch):
        # above the crossover, the months the power steps miss are solved by eigh
        X = weak_panel_values(seed=2, n=100, d=WARM_D)
        calls = counted_eigh(monkeypatch)
        got = expanding_pca_index(panel_of(X), "growth", 40).values
        assert len(calls) >= 1 + 10  # the cold first month and the warm months that missed
        assert set(calls) == {WARM_D}  # one matrix per call
        assert np.abs(got - eigh_index(X, 40)).max() <= 1e-9

    def test_start_near_the_second_eigenvector(self):
        # when the top two eigenvalues cross between months, last month's
        # vector is nearest the second one; the power steps miss and eigh
        # finds the top pair
        cov = np.diag([1.0, 0.9, 0.3, 0.2, 0.1, 0.0])
        v, value = _warm_top_eigenvector(cov, np.eye(6)[1] + 1e-3 * np.ones(6))
        assert np.abs(v - np.eye(6)[0]).max() < 1e-9
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_singular_solve_falls_back(self, monkeypatch):
        # one power step from (1, 1, 3) lands on Rayleigh quotient exactly 2,
        # an eigenvalue; the month still gets the top pair, from one eigh
        cov = np.diag([3.0, 2.0, 1.0])
        calls = counted_eigh(monkeypatch)
        v, value = _warm_top_eigenvector(cov, np.array([1.0, 1.0, 3.0]))
        assert calls == [3]
        assert np.abs(np.abs(v) - [1.0, 0.0, 0.0]).max() < 1e-9
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_exact_eigenvector_start(self):
        # neither raises nor warns (warnings are errors in this suite)
        v, value = _warm_top_eigenvector(np.diag([3.0, 2.0, 1.0]), np.eye(3)[0])
        np.testing.assert_array_equal(v, np.eye(3)[0])
        assert value == 3.0

    def test_step_count_does_not_depend_on_the_eigengap(self, monkeypatch):
        # counts power steps (matrix-vector products) and eigh calls per warm
        # month: the d // 3 budget plus one eigh; eigengap-bound power
        # iteration would take hundreds
        d = WARM_D
        X = window_with_ratio(np.random.default_rng(2), d, 0.95, n=300)
        top2 = np.linalg.eigvalsh(np.cov(X, rowvar=False))[-2:]
        assert top2[0] / top2[1] == pytest.approx(0.95, rel=1e-9)
        ops, per_month = [], []
        power, eigh, warm = indices._power_iterate, np.linalg.eigh, indices._warm_top_eigenvector

        def one_step_at_a_time(cov, v, steps):
            residual = np.inf
            for _ in range(steps):
                ops.append("matvec")
                u, residual = power(cov, v, 1)
                if residual is None:
                    return v, None
                v = u
                if residual < POWER_ITERATION_TOL:
                    break
            return v, residual

        def eigh_op(a):
            ops.append("eigh")
            return eigh(a)

        def per_month_count(cov, start):
            ops.clear()
            result = warm(cov, start)
            per_month.append(len(ops))
            return result

        monkeypatch.setattr(indices, "_power_iterate", one_step_at_a_time)
        monkeypatch.setattr(np.linalg, "eigh", eigh_op)
        monkeypatch.setattr(indices, "_warm_top_eigenvector", per_month_count)
        panel = make_panel({f"s{j}": X[:, j] for j in range(d)})
        expanding_pca_index(panel, "growth", 60)
        assert len(per_month) == 300 - 60
        assert np.median(per_month) <= d // 3 + 1

    def test_first_window_with_a_tight_eigengap(self):
        # lambda2 / lambda1 = 0.999 on the first window: power iteration
        # from a cold start would need tens of thousands of steps
        rng = np.random.default_rng(7)
        X = np.vstack([window_with_ratio(rng, 6, 0.999), rng.standard_normal((20, 6))])
        top2 = np.linalg.eigvalsh(np.cov(X[:60], rowvar=False, bias=True))[-2:]
        assert top2[0] / top2[1] == pytest.approx(0.999, rel=1e-9)
        got = expanding_pca_index(panel_of(X), "growth", 60).values
        assert np.abs(got - eigh_index(X, 60)).max() <= 1e-9


def errors_of_both_solvers(monkeypatch, build) -> list[tuple[type, str]]:
    """The exception type and message ``build()`` raises on the batched path,
    then on the warm path forced by a crossover of 0."""
    raised = []
    for crossover in (indices.EIGH_BATCH_MAX_SERIES, 0):
        monkeypatch.setattr(indices, "EIGH_BATCH_MAX_SERIES", crossover)
        with pytest.raises(DataError) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    return raised


class TestBatchedSolver:
    @pytest.mark.parametrize("d", [1, 5, indices.EIGH_BATCH_MAX_SERIES])
    def test_one_eigh_call_and_no_warm_steps(self, monkeypatch, d):
        X = weak_panel_values(seed=d, n=90, d=d)
        calls = counted_eigh(monkeypatch)
        monkeypatch.setattr(indices, "_warm_top_eigenvector", None)  # never reached
        got = expanding_pca_index(panel_of(X), "growth", 40).values
        assert calls == [90 - 40 + 1]  # one stack of every month's covariance
        assert np.abs(got - eigh_index(X, 40)).max() <= 1e-9

    def test_month_without_variance_after_a_cut(self, monkeypatch):
        # a state that holds no variance, resumed on rows equal to its mean:
        # the months after the cut have trace 0
        X = weak_panel_values(seed=3, n=70, d=4)
        state = expanding_pca_index(panel_of(X, 65), "growth", 60).state
        X[65:] = state.mean
        flat = replace(state, scatter=np.zeros((4, 4)))
        build = lambda: expanding_pca_index(panel_of(X), "growth", 60, resume=flat)
        raised = errors_of_both_solvers(monkeypatch, build)
        assert raised == [(DegenerateCovarianceError, "panel carries no variance")] * 2

    def test_zero_reference_loading(self, monkeypatch):
        X = weak_panel_values(seed=4, n=70, d=4)
        X[:, 0] = 1.0  # the reference series carries no variance
        build = lambda: expanding_pca_index(panel_of(X), "growth", 60)
        raised = errors_of_both_solvers(monkeypatch, build)
        assert raised == [(ZeroReferenceLoadingError, "reference column 0 has a zero loading")] * 2

    def test_eigh_failure_is_a_data_error(self, monkeypatch):
        def not_converged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converged)
        build = lambda: expanding_pca_index(panel_of(weak_panel_values(seed=5, n=70, d=4)), "growth", 60)
        raised = errors_of_both_solvers(monkeypatch, build)
        expected = "eigh did not converge: Eigenvalues did not converge"
        assert raised == [(DegenerateCovarianceError, expected)] * 2


def panel_of(X, rows=None):
    return make_panel({f"s{j}": X[:rows, j] for j in range(X.shape[1])})


def through_record(index):
    """``index.state`` written with the index to a ``growth.csv`` table and read back from its record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "growth.csv"
        write_index_csv(index, path)
        state, why = _index_state(path)
    assert why == ""
    return state


class TestResume:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12) | st.integers(WARM_D, WARM_D + 11),  # both solvers
        gap=st.sampled_from(["separated", "weak"]),
        extra=st.integers(0, 15),
    )
    def test_resuming_at_every_cut_is_bit_identical(self, seed, d, gap, extra):
        min_window = 20
        n = min_window + extra
        if gap == "separated":
            rng = np.random.default_rng(seed)
            X = np.outer(rng.standard_normal(n), rng.uniform(0.5, 1.5, d))
            X += 0.3 * rng.standard_normal((n, d))
        else:
            X = weak_panel_values(seed, n=n, d=d)
        full = expanding_pca_index(panel_of(X), "growth", min_window)
        for k in range(min_window, n + 1):
            head = expanding_pca_index(panel_of(X, k), "growth", min_window)
            resumed = expanding_pca_index(
                panel_of(X), "growth", min_window, resume=through_record(head)
            )
            np.testing.assert_array_equal(resumed.values, full.values)
            assert_fields_equal(resumed.state, full.state)

    @pytest.mark.parametrize(
        "change",
        ["prefix cell", "series order", "reference series", "min window", "schema", "shorter"],
    )
    def test_state_of_another_panel_is_refused(self, rng, monkeypatch, change):
        X = rng.standard_normal((70, 4)) + rng.standard_normal(70)[:, None]
        state = expanding_pca_index(panel_of(X, 65), "growth", 60).state
        panel, reference, min_window = panel_of(X), "s0", 60
        assert state.describes(panel, reference, min_window)
        if change == "prefix cell":
            Y = X.copy()
            Y[3, 2] = np.nextafter(Y[3, 2], np.inf)
            panel = panel_of(Y)
        elif change == "series order":
            panel = make_panel({f"s{j}": X[:, j] for j in (0, 2, 1, 3)})
        elif change == "reference series":
            reference = "s1"
        elif change == "min window":
            state = replace(state, values=state.values[1:])  # the length a 61-month window has
            min_window = 61
        elif change == "schema":
            monkeypatch.setattr(indices, "INDEX_STATE_SCHEMA", indices.INDEX_STATE_SCHEMA + 1)
        else:
            panel = panel_of(X, 64)
        assert not state.describes(panel, reference, min_window)
        with pytest.raises(ValueError, match="does not describe"):
            expanding_pca_index(panel, "growth", min_window, reference_series=reference, resume=state)

    def test_every_flipped_bit_and_truncation_reads_as_unreadable(self, rng, tmp_path):
        path = tmp_path / "growth.csv"
        write_index_csv(expanding_pca_index(random_panel(rng, 62), "growth", 60), path)
        record = tmp_path / "growth_digest.rec"
        blob = record.read_bytes()
        assert _index_state(path)[1] == ""
        damaged = [blob[:n] for n in range(len(blob))]
        for at in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[at] ^= 1 << bit
                damaged.append(bytes(flipped))
        for data in damaged:
            record.write_bytes(data)
            assert _index_state(path) == (None, "unreadable state"), len(data)

    def test_inconsistent_state_arrays_are_refused(self, rng):
        state = expanding_pca_index(random_panel(rng, 62), "growth", 60).state
        with pytest.raises(ValueError):
            replace(state, vector=state.vector[:2])
        with pytest.raises(ValueError):
            replace(state, mean=np.full(3, np.nan))
        for mistyped in ({"key": 5}, {"key": None}, {"key": True}):  # as a record's meta may hold
            with pytest.raises(ValueError):
                replace(state, **mistyped)
