import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cyclecast import models
from cyclecast.cli import main as cli_main
from cyclecast.dataset import PhaseLabel, Region
from cyclecast.errors import (
    CorruptFileError,
    DataError,
    DegenerateInputError,
    InvalidPhaseCodeError,
    NewtonConvergenceError,
    SingleClassError,
    VersionMismatchError,
)
from cyclecast.features import FeatureScaler
from cyclecast.models import (
    MLP_PATIENCE,
    MODEL_SCHEMA_VERSION,
    LinearModel,
    MlpModel,
    ModelArtifact,
    TrainConfig,
    load_model,
    mlp_forward,
    mlp_loss_and_grads,
    mlr_hessian,
    mlr_loss_and_grads,
    nll_loss,
    rank_phases,
    save_model,
    softmax,
    svm_hessian,
    svm_loss_and_grad,
    train_mlp,
    train_mlr,
    train_svm,
)
from cyclecast.models import _one_hot
from cyclecast.rbbcp import RbbcpModel

from test_acceptance import _e2e_config


def two_blobs(seed=0, n=30):
    rng = np.random.default_rng(seed)
    Xa = rng.normal([-2.0, -2.0], 0.3, (n, 2))
    Xb = rng.normal([2.0, 2.0], 0.3, (n, 2))
    return np.vstack([Xa, Xb]), np.array([1] * n + [2] * n)


def train_accuracy(model, X, y):
    return float((np.argmax(model.predict_proba(X), axis=1) + 1 == y).mean())


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainConfig(hidden_layers=())


class TestSoftmax:
    def test_hand_computed(self):
        p = softmax(np.array([math.log(2.0), 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(p, [0.4, 0.2, 0.2, 0.2], atol=1e-12)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(4)
        assert np.abs(softmax(z) - softmax(z + 123.456)).max() < 1e-9

    def test_valid_distribution(self, rng):
        z = rng.standard_normal((50, 4)) * 30
        p = softmax(z)
        assert (p >= 0).all()
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-9


class TestMlr:
    def test_separable_blobs(self):
        X, y = two_blobs()
        model = train_mlr(X, y, TrainConfig(), max_iterations=500)
        assert train_accuracy(model, X, y) == 1.0

    def test_loss_monotone_under_line_search(self):
        X, y = two_blobs(seed=3)
        Y = _one_hot(y)
        losses = []
        for iters in (1, 5, 20, 80, 300):
            m = train_mlr(X, y, TrainConfig(), max_iterations=iters)
            loss, _, _ = mlr_loss_and_grads(m.weights, m.bias, X, Y, TrainConfig().l2)
            losses.append(loss)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[0] <= math.log(4.0) + 1e-12

    def test_all_zero_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            train_mlr(np.zeros((10, 3)), [1, 2] * 5, TrainConfig())

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_mlr(np.random.default_rng(0).standard_normal((8, 2)), [2] * 8, TrainConfig())

    @pytest.mark.parametrize("train", [train_mlr, train_svm, train_mlp])
    def test_fractional_label_is_not_truncated(self, train):
        X, y = two_blobs(seed=2, n=10)
        y = y.astype(float)
        y[3] = 2.5
        with pytest.raises(InvalidPhaseCodeError) as exc:
            train(X, y, TrainConfig(epochs=5))
        assert exc.value.value == 2.5

    def test_zero_weight_model_is_uniform(self):
        model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(4))
        x = np.array([0.5, -1.0, 2.0])
        assert model.predict_proba(x[None, :])[0] == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_unit_temperature_is_plain_softmax(self, rng):
        W = rng.standard_normal((4, 5)) * 3.0
        b = rng.standard_normal(4)
        X = rng.standard_normal((40, 5)) * 2.0
        model = LinearModel(W, b)
        np.testing.assert_array_equal(model.predict_proba(X), softmax(model.decision_scores(X)))

    def test_column_scaling_invariance(self):
        X, y = two_blobs(seed=5)
        model = train_mlr(X, y, TrainConfig(), max_iterations=200)
        c = 3.7
        X_scaled = X.copy()
        X_scaled[:, 0] *= c
        rescaled = LinearModel(
            weights=model.weights * np.array([1.0 / c, 1.0]),
            bias=model.bias,
            temperature=model.temperature,
        )
        np.testing.assert_allclose(
            rescaled.decision_scores(X_scaled), model.decision_scores(X), atol=1e-12
        )

    def test_gradient_matches_central_differences(self):
        h = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((9, 4))
            Y = _one_hot(rng.integers(1, 5, 9))
            W = rng.standard_normal((4, 4)) * 0.6
            b = rng.standard_normal(4) * 0.5
            _, gw, gb = mlr_loss_and_grads(W, b, X, Y, 0.01)
            num = np.zeros_like(W)
            for idx in np.ndindex(W.shape):
                Wp, Wm = W.copy(), W.copy()
                Wp[idx] += h
                Wm[idx] -= h
                num[idx] = (
                    mlr_loss_and_grads(Wp, b, X, Y, 0.01)[0]
                    - mlr_loss_and_grads(Wm, b, X, Y, 0.01)[0]
                ) / (2 * h)
            assert rel_err(gw, num) < 1e-4


def four_blobs(seed=0):
    """Overlapping, unbalanced four-class sample in three features."""
    rng = np.random.default_rng(seed)
    centers = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.5]])
    sizes = (14, 9, 11, 6)
    X = np.vstack([rng.normal(c, 0.9, (m, 3)) for c, m in zip(centers, sizes)])
    y = np.repeat(np.arange(1, 5), sizes)
    return X, y


def gradient_descent_reference(X, y, l2, steps=1_000):
    """Long full-batch gradient descent with Armijo backtracking, an
    independent route to the MLR optimum."""
    Y = _one_hot(y)
    W, b = np.zeros((4, X.shape[1])), np.zeros(4)
    loss, gw, gb = mlr_loss_and_grads(W, b, X, Y, l2)
    step = 1.0
    for _ in range(steps):
        g2 = float((gw**2).sum() + (gb**2).sum())
        while step > 1e-18:
            cand_w, cand_b = W - step * gw, b - step * gb
            cand = mlr_loss_and_grads(cand_w, cand_b, X, Y, l2)
            if cand[0] <= loss - 1e-4 * step * g2:
                W, b, (loss, gw, gb) = cand_w, cand_b, cand
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        else:
            break
    return W, b


class TestMlrNewton:
    def test_hessian_vector_products_match_gradient_differences(self):
        h = 1e-6
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            n, d = 11, 3
            X = rng.standard_normal((n, d))
            Y = _one_hot(rng.integers(1, 5, n))
            sw = rng.uniform(0.5, 1.5, n)
            sw /= sw.sum()
            W = rng.standard_normal((4, d)) * 0.7
            b = rng.standard_normal(4) * 0.5
            l2 = 0.03 * seed
            H = mlr_hessian(W, b, X, l2, sw)
            assert H.shape == (4 * (d + 1), 4 * (d + 1))
            np.testing.assert_allclose(H, H.T, atol=1e-15)

            def grad(theta):
                _, gw, gb = mlr_loss_and_grads(theta[:, :d], theta[:, d], X, Y, l2, sw)
                return np.column_stack([gw, gb]).ravel()

            theta = np.column_stack([W, b])
            for _ in range(3):
                v = rng.standard_normal(theta.shape)
                numeric = (grad(theta + h * v) - grad(theta - h * v)) / (2 * h)
                assert rel_err(H @ v.ravel(), numeric) < 1e-7
            # Shifting every bias by one constant is the Hessian's null direction.
            shift = np.column_stack([np.zeros((4, d)), np.ones(4)]).ravel()
            assert np.abs(H @ shift).max() < 1e-15

    def test_matches_long_gradient_descent(self):
        X, y = four_blobs(seed=1)
        l2 = 0.05
        ref_w, ref_b = gradient_descent_reference(X, y, l2)
        model = train_mlr(X, y, TrainConfig(l2=l2))
        assert np.abs(model.weights - ref_w).max() < 1e-5
        assert np.abs(model.bias - ref_b).max() < 1e-5
        _, gw, gb = mlr_loss_and_grads(model.weights, model.bias, X, _one_hot(y), l2)
        assert math.hypot(np.linalg.norm(gw), np.linalg.norm(gb)) < models.NEWTON_GRADIENT_TOL

    def test_biases_sum_to_zero(self):
        X, y = four_blobs(seed=2)
        model = train_mlr(X, y, TrainConfig())
        assert np.abs(model.bias).max() > 0.1
        assert abs(model.bias.sum()) < 1e-12

    def test_unregularized_separable_with_absent_classes(self):
        X, y = two_blobs(seed=0)
        model = train_mlr(X, y, TrainConfig(l2=0.0))
        assert train_accuracy(model, X, y) == 1.0
        # Phases 3 and 4 never occur, so their probability is driven to zero.
        assert model.predict_proba(X)[:, 2:].max() < 1e-6

    def test_failed_line_search_raises(self, monkeypatch):
        X, y = four_blobs(seed=3)
        # A negative-definite "Hessian" makes every Newton direction point uphill.
        monkeypatch.setattr(models, "mlr_hessian", lambda W, *a, **k: -np.eye(4 * (W.shape[1] + 1)))
        with pytest.raises(NewtonConvergenceError, match=r"after 0 Newton steps.*gradient norm") as exc:
            train_mlr(X, y, TrainConfig())
        assert isinstance(exc.value, DataError)
        assert exc.value.steps == 0 and exc.value.grad_norm > models.NEWTON_GRADIENT_TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_rounding_floor_is_not_a_failure(self, monkeypatch, seed):
        # With no tolerance, training runs on until no step can lower the
        # loss in floating point; that ends the run, it does not raise.
        X, y = four_blobs(seed=seed)
        monkeypatch.setattr(models, "NEWTON_GRADIENT_TOL", 0.0)
        model = train_mlr(X, y, TrainConfig())
        _, gw, gb = mlr_loss_and_grads(model.weights, model.bias, X, _one_hot(y), TrainConfig().l2)
        assert math.hypot(np.linalg.norm(gw), np.linalg.norm(gb)) < 1e-8

    def test_step_budget_raises_but_explicit_cap_truncates(self, monkeypatch):
        X, y = four_blobs(seed=4)
        monkeypatch.setattr(models, "NEWTON_MAX_STEPS", 2)
        with pytest.raises(NewtonConvergenceError, match="after 2 Newton steps"):
            train_mlr(X, y, TrainConfig())
        truncated = train_mlr(X, y, TrainConfig(), max_iterations=2)
        assert np.abs(truncated.weights).max() > 0

    def test_singular_system_takes_the_minimum_norm_step(self):
        X, y = two_blobs(seed=1)
        # An all-zero column leaves the unregularized Hessian singular from the first step.
        zero_column = np.column_stack([X, np.zeros(len(y))])
        model = train_mlr(zero_column, y, TrainConfig(l2=0.0))
        ((steps, grad_norm),) = model.newton_fits
        assert steps <= 25 and grad_norm < models.NEWTON_GRADIENT_TOL
        assert np.abs(model.weights[:, 2]).max() < 1e-10
        assert train_accuracy(model, zero_column, y) == 1.0
        duplicated = train_mlr(np.column_stack([X, X[:, 0]]), y, TrainConfig(l2=0.0))
        ((steps, grad_norm),) = duplicated.newton_fits
        assert steps <= 25 and grad_norm < models.NEWTON_GRADIENT_TOL
        # Minimum-norm steps from zero split the weight evenly between the copies.
        assert np.abs(duplicated.weights[:, 0] - duplicated.weights[:, 2]).max() < 1e-6

    def test_few_newton_steps_on_criterion_8_data(self, tmp_path, monkeypatch):
        config = _e2e_config(tmp_path)
        for command in ("synth", "preprocess", "build-indices", "features"):
            assert cli_main(["--config", str(config), command]) == 0
        steps = []
        hessian = models.mlr_hessian

        def counted(*args, **kwargs):
            steps.append(1)
            return hessian(*args, **kwargs)

        monkeypatch.setattr(models, "mlr_hessian", counted)
        assert cli_main(["--config", str(config), "train"]) == 0
        assert 1 <= len(steps) <= 25


def svm_gradient_descent_reference(X_aug, targets, sw, l2, steps=1_000):
    """Long gradient descent with Armijo backtracking on the squared hinge, an
    independent route to one one-vs-rest SVM optimum."""
    w = np.zeros(X_aug.shape[1])
    loss, grad = svm_loss_and_grad(w, X_aug, targets, sw, l2)
    step = 1.0
    for _ in range(steps):
        g2 = float(grad @ grad)
        while step > 1e-18:
            cand = svm_loss_and_grad(w - step * grad, X_aug, targets, sw, l2)
            if cand[0] <= loss - 1e-4 * step * g2:
                w, (loss, grad) = w - step * grad, cand
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        else:
            break
    return w


class TestSvm:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        d=st.integers(1, 4),
        l2=st.sampled_from([0.0, 1e-3, 0.1]),
    )
    def test_gradient_and_hessian_match_central_differences(self, seed, n, d, l2):
        rng = np.random.default_rng(seed)
        X_aug = np.column_stack([rng.standard_normal((n, d)), np.ones(n)])
        targets = rng.choice([-1.0, 1.0], n)
        sw = rng.uniform(0.5, 1.5, n)
        sw /= sw.sum()
        w = rng.standard_normal(d + 1) * 0.8
        h = 1e-6
        # Central differences are exact for a piecewise quadratic loss that no
        # row crosses its margin within h of w.
        assume(np.abs(targets * (X_aug @ w) - 1.0).min() > 1e-3)
        loss, grad = svm_loss_and_grad(w, X_aug, targets, sw, l2)
        H = svm_hessian(w, X_aug, targets, sw, l2)
        np.testing.assert_allclose(H, H.T, atol=1e-15)
        for _ in range(3):
            v = rng.standard_normal(d + 1)
            up = svm_loss_and_grad(w + h * v, X_aug, targets, sw, l2)
            down = svm_loss_and_grad(w - h * v, X_aug, targets, sw, l2)
            assert abs((up[0] - down[0]) / (2 * h) - grad @ v) < 1e-7 * max(1.0, abs(grad @ v))
            assert rel_err(H @ v, (up[1] - down[1]) / (2 * h)) < 1e-7

    def test_a_row_on_the_margin_is_not_active(self):
        X_aug = np.array([[1.0, 1.0], [-1.0, 1.0], [0.5, 1.0]])
        targets, sw, l2 = np.array([1.0, -1.0, 1.0]), np.full(3, 1 / 3), 1e-3
        w = np.array([0.5, 0.5])  # row 0's margin is exactly 1
        v = np.array([1.0, 0.0])  # moving along v takes row 0 off the margin
        h = 1e-6
        grad = svm_loss_and_grad(w, X_aug, targets, sw, l2)[1]
        moved = svm_loss_and_grad(w + h * v, X_aug, targets, sw, l2)[1]
        H = svm_hessian(w, X_aug, targets, sw, l2)
        assert rel_err(H @ v, (moved - grad) / h) < 1e-7

    @pytest.mark.parametrize("l2", [0.05, 1e-3])
    def test_matches_long_gradient_descent(self, l2):
        X, y = four_blobs(seed=1)
        model = train_svm(X, y, TrainConfig(l2=l2))
        X_aug = np.column_stack([X, np.ones(len(y))])
        sw = np.full(len(y), 1.0 / len(y))
        for c in range(4):
            targets = np.where(y == c + 1, 1.0, -1.0)
            ref = svm_gradient_descent_reference(X_aug, targets, sw, l2)
            fitted = np.append(model.weights[c], model.bias[c])
            assert np.abs(fitted - ref).max() < 1e-6
            grad = svm_loss_and_grad(fitted, X_aug, targets, sw, l2)[1]
            assert np.linalg.norm(grad) < models.NEWTON_GRADIENT_TOL
        assert all(g < models.NEWTON_GRADIENT_TOL for _, g in model.newton_fits)

    def test_temperature_is_fitted_on_the_validation_rows(self):
        X, y = four_blobs(seed=1)
        X_val, y_val = four_blobs(seed=2)
        model = train_svm(X, y, TrainConfig(), (X_val, y_val))
        margins = X_val @ model.weights.T + model.bias
        fitted = models._fit_temperature(margins, y_val)
        assert (model.temperature, model.temperature_at_bound) == fitted
        assert fitted[0] != 1.0
        plain = train_svm(X, y, TrainConfig())
        assert (plain.temperature, plain.temperature_at_bound) == (1.0, None)
        # The validation rows reach the temperature only.
        assert plain.weights.tobytes() == model.weights.tobytes()
        assert plain.bias.tobytes() == model.bias.tobytes()

    def test_epochs_do_not_reach_the_svm(self):
        X, y = four_blobs(seed=2)
        one, many = (train_svm(X, y, TrainConfig(epochs=e)) for e in (1, 500))
        assert one.weights.tobytes() == many.weights.tobytes()
        assert one.bias.tobytes() == many.bias.tobytes()
        assert one.temperature == many.temperature

    def test_unregularized_converges(self):
        X, y = four_blobs(seed=3)
        model = train_svm(X, y, TrainConfig(l2=0.0))
        assert len(model.newton_fits) == 4
        assert all(1 <= steps <= 10 for steps, _ in model.newton_fits)
        assert all(g < models.NEWTON_GRADIENT_TOL for _, g in model.newton_fits)

    @pytest.mark.parametrize("seed", range(5))
    def test_unregularized_separable_converges(self, seed):
        # On seed 0 the leading 48 rows leave too few active rows for a
        # nonsingular Newton system; the minimum-norm step carries on.
        X, y = two_blobs(seed=seed)
        model = train_svm(X[:48], y[:48], TrainConfig(l2=0.0), (X[48:], y[48:]))
        assert all(1 <= steps <= 10 for steps, _ in model.newton_fits)
        assert all(g < models.NEWTON_GRADIENT_TOL for _, g in model.newton_fits)
        assert train_accuracy(model, X, y) == 1.0

    def test_step_budget_raises_naming_the_svm(self, monkeypatch):
        X, y = four_blobs(seed=4)
        monkeypatch.setattr(models, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(NewtonConvergenceError, match=r"^svm training stopped after 1 Newton steps: step budget"):
            train_svm(X, y, TrainConfig())

    def test_separable_one_dimensional(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([1, 1, 2, 2])
        model = train_svm(X, y, TrainConfig())
        assert train_accuracy(model, X, y) == 1.0
        # brute force over candidate thresholds: the induced boundary must sit
        # strictly between the classes
        grid = np.linspace(-3.0, 3.0, 1201)
        preds = np.argmax(model.decision_scores(grid[:, None]), axis=1) + 1
        flips = grid[np.nonzero(np.diff(preds))[0]]
        assert len(flips) >= 1
        assert all(-1.0 < f < 1.0 for f in flips)

    def test_equal_margins_give_uniform(self):
        model = LinearModel(
            weights=np.ones((4, 2)), bias=np.zeros(4), temperature=0.7
        )
        x = np.array([0.3, -0.4])
        assert model.predict_proba(x[None, :])[0] == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_conflicting_duplicates_bounded(self):
        X = np.tile([[1.0, 0.5]], (10, 1))
        X += np.random.default_rng(0).standard_normal(X.shape) * 1e-9
        y = np.array([1] * 5 + [2] * 5)
        model = train_svm(X, y, TrainConfig())
        assert train_accuracy(model, X, y) <= 0.5 + 1e-12

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            LinearModel(weights=np.ones((4, 1)), bias=np.zeros(4), temperature=0.0)

    def test_separable_holdout_lands_on_the_temperature_floor(self, tmp_path):
        rng = np.random.default_rng(5)
        y = np.tile([1, 4], 30)  # both classes in the trailing hold-out
        X = np.where(y[:, None] == 1, -3.0, 3.0) + rng.normal(0.0, 0.3, (60, 2))
        model = train_svm(X[:48], y[:48], TrainConfig(), (X[48:], y[48:]))
        assert (model.temperature, model.temperature_at_bound) == (0.01, "lower")
        path = tmp_path / "model.json"
        save_model(ModelArtifact(model=model, region=Region.US, window=4), path)
        assert load_model(path).model.temperature_at_bound is None  # not part of the file

    @pytest.mark.parametrize(
        "sign,noise,at_bound", [(1.0, 0.0, "lower"), (-1.0, 0.0, "upper"), (1.0, 3.0, None)]
    )
    def test_temperature_bound_is_reported(self, sign, noise, at_bound):
        rng = np.random.default_rng(2)
        codes = rng.integers(1, 5, 200)
        margins = sign * 4.0 * _one_hot(codes) + noise * rng.standard_normal((200, 4))
        temperature, got = models._fit_temperature(margins, codes)
        assert got == at_bound
        assert (at_bound is None) == (0.01 < temperature < 100.0)

    def test_calibrated_on_larger_sample(self):
        rng = np.random.default_rng(11)
        X = np.vstack(
            [rng.normal([-2, 0], 0.4, (30, 2)), rng.normal([2, 0], 0.4, (30, 2))]
        )
        y = np.array([1] * 30 + [4] * 30)
        model = train_svm(X[:48], y[:48], TrainConfig(), (X[48:], y[48:]))
        assert model.temperature > 0
        assert train_accuracy(model, X, y) == 1.0


class TestMlp:
    def test_xor_capacity(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 2, 2, 1])
        model = train_mlp(X, y, TrainConfig(epochs=2000, seed=3))
        assert train_accuracy(model, X, y) == 1.0

    def test_seed_determinism(self):
        X, y = two_blobs(seed=2, n=10)
        cfg = TrainConfig(epochs=50, seed=9)
        a = train_mlp(X, y, cfg)
        b = train_mlp(X, y, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_inference_repeatable(self):
        X, y = two_blobs(seed=2, n=10)
        model = train_mlp(X, y, TrainConfig(epochs=30, seed=1))
        p1 = model.predict_proba(X)
        p2 = model.predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_dropout_expectation(self):
        rng = np.random.default_rng(42)
        sizes = [3, 8, 6, 4]
        weights = [rng.standard_normal((a, b)) * 0.5 for a, b in zip(sizes, sizes[1:])]
        biases = [rng.standard_normal(b) * 0.3 for b in sizes[1:]]
        X = rng.standard_normal((5, 3))
        _, inputs_clean = mlp_forward(weights, biases, X)
        clean_hidden = inputs_clean[-1]
        rate = 0.2
        total = np.zeros_like(clean_hidden)
        n_masks = 10_000
        for _ in range(n_masks):
            mask = (rng.random(clean_hidden.shape) >= rate) / (1.0 - rate)
            _, inputs = mlp_forward(weights, biases, X, dropout_mask=mask)
            total += inputs[-1]
        mean_dropped = total / n_masks
        denom = np.abs(clean_hidden).mean()
        assert np.abs(mean_dropped - clean_hidden).mean() / denom < 0.02

    def test_gradient_matches_central_differences(self):
        h = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            X = rng.standard_normal((6, 3))
            Y = _one_hot(rng.integers(1, 5, 6))
            sizes = [3, 5, 4, 4]
            weights = [rng.standard_normal((a, b)) * 0.7 for a, b in zip(sizes, sizes[1:])]
            biases = [rng.standard_normal(b) * 0.5 for b in sizes[1:]]
            mask = (rng.random((6, 4)) >= 0.2) / 0.8 if seed % 2 else None
            _, gws, gbs = mlp_loss_and_grads(weights, biases, X, Y, 0.01, mask)
            for k in range(len(weights)):
                num = np.zeros_like(weights[k])
                for idx in np.ndindex(weights[k].shape):
                    Wp = [w.copy() for w in weights]
                    Wm = [w.copy() for w in weights]
                    Wp[k][idx] += h
                    Wm[k][idx] -= h
                    num[idx] = (
                        mlp_loss_and_grads(Wp, biases, X, Y, 0.01, mask)[0]
                        - mlp_loss_and_grads(Wm, biases, X, Y, 0.01, mask)[0]
                    ) / (2 * h)
                assert rel_err(gws[k], num) < 1e-4


def four_class_noise(n, seed):
    """Four overlapping classes along the first of three features."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 5, n)
    X = rng.normal(0.0, 1.0, (n, 3))
    X[:, 0] += 0.8 * y
    return X, y


def same_weights(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a.weights + a.biases, b.weights + b.biases))


class TestMlpEarlyStop:
    def count_epochs(self, monkeypatch):
        calls = []
        real = models.mlp_loss_and_grads
        monkeypatch.setattr(models, "mlp_loss_and_grads", lambda *a: calls.append(1) or real(*a))
        return calls

    def test_rising_validation_nll_stops_after_the_patience(self, monkeypatch):
        X, y = two_blobs(seed=3, n=20)
        X_val, y_val = two_blobs(seed=4, n=10)
        epochs = self.count_epochs(monkeypatch)
        # Labelled against the training rows, so every epoch raises the NLL.
        model = train_mlp(X, y, TrainConfig(seed=1), validation=(X_val, 3 - y_val))
        assert model.stop_epoch == 1
        assert len(epochs) == model.stop_epoch + MLP_PATIENCE

    def test_weights_equal_a_plain_run_of_the_stop_epoch(self, monkeypatch):
        X, y = four_class_noise(60, seed=1)
        cfg = TrainConfig(seed=2, hidden_layers=(8, 8))
        epochs = self.count_epochs(monkeypatch)
        model = train_mlp(X, y, cfg, validation=four_class_noise(40, seed=2))
        assert 1 < model.stop_epoch < cfg.epochs - MLP_PATIENCE
        assert len(epochs) == model.stop_epoch + MLP_PATIENCE
        # The per-epoch check draws no random numbers: the run is a prefix of the plain one.
        plain = train_mlp(X, y, dataclasses.replace(cfg, epochs=model.stop_epoch))
        assert plain.stop_epoch is None
        assert same_weights(model, plain)

    def test_improving_validation_nll_runs_to_the_cap(self, monkeypatch):
        X, y = two_blobs(seed=3, n=20)
        cfg = TrainConfig(epochs=30, seed=1)
        epochs = self.count_epochs(monkeypatch)
        model = train_mlp(X, y, cfg, validation=(X, y))
        assert model.stop_epoch == cfg.epochs and len(epochs) == cfg.epochs
        assert same_weights(model, train_mlp(X, y, cfg))

    def test_no_validation_runs_every_epoch(self, monkeypatch):
        X, y = two_blobs(seed=3, n=20)
        X_val, y_val = two_blobs(seed=4, n=10)
        epochs = self.count_epochs(monkeypatch)
        model = train_mlp(X, y, TrainConfig(epochs=120, seed=1))
        assert model.stop_epoch is None and len(epochs) == 120
        stopped = train_mlp(X, y, TrainConfig(epochs=120, seed=1), validation=(X_val, 3 - y_val))
        assert stopped.stop_epoch == 1 and not same_weights(model, stopped)

    def test_never_finite_validation_nll_is_an_error(self):
        X, y = two_blobs(seed=3, n=20)
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(all="ignore"):
                train_mlp(X, y, TrainConfig(epochs=60, learning_rate=1e300), validation=(X, y))

    def test_stop_epoch_is_neither_saved_nor_compared(self, tmp_path):
        X, y = two_blobs(seed=3, n=20)
        model = train_mlp(X, y, TrainConfig(epochs=30, seed=1), validation=(X, y))
        assert dataclasses.replace(model, stop_epoch=None) == model
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert set(doc["model"]) == {"kind", "weights", "biases"}
        loaded = load_model(tmp_path / "m.json").model
        assert loaded.stop_epoch is None and same_weights(model, loaded)


def ranked_by_sort(row) -> list[int]:
    """The tie rule spelled out: descending probability, then ascending code."""
    return sorted((1, 2, 3, 4), key=lambda code: (-row[code - 1], code))


# Probabilities that tie often: repeated values, zeros of both signs, subnormals.
TIE_PRONE = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestPredictionSurface:
    def test_topk_sorting(self):
        model = LinearModel(
            weights=np.zeros((4, 1)),
            bias=np.log(np.array([0.1, 0.6, 0.2, 0.1])),
        )
        p = model.predict_proba(np.zeros((1, 1)))[0]
        # Descending probability; the tie between phases 1 and 4 goes to the lower code.
        assert rank_phases(p).tolist() == [
            PhaseLabel.EXPANSION,
            PhaseLabel.SLOWDOWN,
            PhaseLabel.RECOVERY,
            PhaseLabel.RECESSION,
        ]
        assert p[int(PhaseLabel.EXPANSION) - 1] == pytest.approx(0.6, abs=1e-12)

    def test_rank_phases_tie_rule(self):
        assert rank_phases([0.25, 0.25, 0.25, 0.25]).tolist() == [
            PhaseLabel.RECOVERY,
            PhaseLabel.EXPANSION,
            PhaseLabel.SLOWDOWN,
            PhaseLabel.RECESSION,
        ]
        assert rank_phases([0.0, -0.0, 0.0, -0.0]).tolist() == [1, 2, 3, 4]
        assert rank_phases([[-0.0, 0.0, 0.5, 0.5]]).tolist() == [[3, 4, 1, 2]]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(P=hnp.arrays(float, st.tuples(st.integers(0, 12), st.just(4)), elements=TIE_PRONE))
    def test_batch_matches_the_sorted_rule_and_each_row_alone(self, P):
        ranked = rank_phases(P)
        assert ranked.shape == P.shape and ranked.dtype.kind == "i"
        for row, codes in zip(P, ranked):
            assert codes.tolist() == ranked_by_sort(row)
            assert rank_phases(row).tolist() == codes.tolist()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 200),
        d=st.integers(1, 210),
        hidden=st.lists(st.integers(1, 64), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_gets_the_same_bits_alone_as_in_the_batch(self, n, d, hidden, seed):
        # A month's forecast must not depend on the months scored with it.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 3.0
        sizes = [d, *hidden, 4]
        mlp = MlpModel(
            tuple(rng.standard_normal(shape) / np.sqrt(shape[0]) for shape in zip(sizes, sizes[1:])),
            tuple(rng.standard_normal(width) for width in sizes[1:]),
        )
        linear = LinearModel(rng.standard_normal((4, d)), rng.standard_normal(4), 0.7)
        for model in (linear, mlp):
            alone = [model.predict_proba(X[i : i + 1])[0].tobytes() for i in range(n)]
            for batch in (X, np.asfortranarray(X)):
                assert [row.tobytes() for row in model.predict_proba(batch)] == alone


class TestPersistence:
    def _assert_same_predictions(self, a, b, X):
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_mlr_round_trip(self, tmp_path, rng):
        X, y = two_blobs(seed=6)
        model = train_mlr(X, y, TrainConfig(), max_iterations=100)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path).model
        self._assert_same_predictions(model, loaded, X)

    def test_svm_round_trip(self, tmp_path):
        X, y = two_blobs(seed=7)
        model = train_svm(X, y, TrainConfig(epochs=300))
        path = tmp_path / "m.json"
        save_model(model, path)
        self._assert_same_predictions(model, load_model(path).model, X)

    def test_mlp_round_trip(self, tmp_path):
        X, y = two_blobs(seed=8, n=10)
        model = train_mlp(X, y, TrainConfig(epochs=40, seed=2))
        path = tmp_path / "m.json"
        save_model(model, path)
        self._assert_same_predictions(model, load_model(path).model, X)

    def test_mlp_version_1_file_loads(self, tmp_path):
        X, y = two_blobs(seed=8, n=10)
        model = train_mlp(X, y, TrainConfig(epochs=40, seed=2))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == MODEL_SCHEMA_VERSION
        assert set(doc["model"]) == {"kind", "weights", "biases"}
        doc["schema_version"] = 1
        doc["model"].update(dropout_rate=0.2, rng_seed=2)
        path.write_text(json.dumps(doc))
        self._assert_same_predictions(model, load_model(path).model, X)

    @pytest.mark.parametrize("kind", ["mlr", "svm"])
    def test_version_2_linear_files_load(self, tmp_path, kind):
        X, y = two_blobs(seed=12)
        if kind == "mlr":
            model = train_mlr(X, y, TrainConfig(), max_iterations=100)
        else:
            model = train_svm(X, y, TrainConfig(epochs=300))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["model"]["kind"] == "linear"
        assert set(doc["model"]) == {"kind", "weights", "bias", "temperature"}
        # The version-2 payloads: "mlr" had no temperature, both carried l2.
        doc["schema_version"] = 2
        doc["model"].update(kind=kind, l2=TrainConfig().l2)
        if kind == "mlr":
            del doc["model"]["temperature"]
        path.write_text(json.dumps(doc))
        loaded = load_model(path).model
        assert isinstance(loaded, LinearModel)
        self._assert_same_predictions(model, loaded, X)

    def test_rbbcp_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(RbbcpModel(trend_window=9, zero_is_up=True), path)
        loaded = load_model(path).model
        assert loaded == RbbcpModel(trend_window=9, zero_is_up=True)

    def test_artifact_metadata_round_trip(self, tmp_path):
        X, y = two_blobs(seed=9)
        scaler = FeatureScaler.fit(X)
        model = train_mlr(X, y, TrainConfig(), max_iterations=50)
        artifact = ModelArtifact(
            model=model,
            region=Region.EZ,
            window=12,
            feature_names=("a", "b"),
            scaler=scaler,
            extra={"kind": "mlr"},
        )
        path = tmp_path / "m.json"
        save_model(artifact, path)
        loaded = load_model(path)
        assert loaded.region is Region.EZ
        assert loaded.window == 12
        assert loaded.feature_names == ("a", "b")
        np.testing.assert_array_equal(loaded.scaler.mean, scaler.mean)
        np.testing.assert_array_equal(loaded.scaler.std, scaler.std)

    def test_truncated_file_is_corrupt(self, tmp_path):
        X, y = two_blobs(seed=10)
        model = train_mlr(X, y, TrainConfig(), max_iterations=50)
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CorruptFileError):
            load_model(path)

    def test_newer_schema_version(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(LinearModel(weights=np.zeros((4, 1)), bias=np.zeros(4)), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_wrong_schema_id(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "something-else", "schema_version": 1}')
        with pytest.raises(CorruptFileError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")

    def test_training_determinism_identical_bytes(self, tmp_path):
        X, y = two_blobs(seed=11, n=12)
        cfg = TrainConfig(epochs=60, seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_mlp(X, y, cfg), p1)
        save_model(train_mlp(X, y, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestNllLoss:
    def test_perfect_prediction_near_zero(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert nll_loss(probs, np.array([1])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log4(self):
        probs = np.full((3, 4), 0.25)
        assert nll_loss(probs, np.array([1, 2, 3])) == pytest.approx(math.log(4), abs=1e-12)

    def test_code_zero_does_not_read_the_last_column(self):
        with pytest.raises(InvalidPhaseCodeError):
            nll_loss(np.array([[0.1, 0.1, 0.1, 0.7]]), np.array([0]))
