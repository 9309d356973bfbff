import json
import math

import numpy as np
import pytest

from cyclecast import models
from cyclecast.cli import main as cli_main
from cyclecast.dataset import PhaseLabel, Region
from cyclecast.errors import (
    BadKError,
    CorruptFileError,
    DataError,
    DegenerateInputError,
    DimensionMismatchError,
    MlrConvergenceError,
    SingleClassError,
    VersionMismatchError,
)
from cyclecast.features import FeatureScaler
from cyclecast.models import (
    MODEL_SCHEMA_VERSION,
    LinearModel,
    ModelArtifact,
    TrainConfig,
    load_model,
    mlp_forward,
    mlp_loss_and_grads,
    mlr_hessian,
    mlr_loss_and_grads,
    nll_loss,
    predict_proba,
    rank_phases,
    save_model,
    softmax,
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

    def test_zero_weight_model_is_uniform(self):
        model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(4))
        dist = predict_proba(model, [0.5, -1.0, 2.0])
        assert dist.p == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_unit_temperature_is_plain_softmax(self, rng):
        W = rng.standard_normal((4, 5)) * 3.0
        b = rng.standard_normal(4)
        X = rng.standard_normal((40, 5)) * 2.0
        np.testing.assert_array_equal(
            LinearModel(W, b).predict_proba(X), softmax(X @ W.T + b)
        )

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
        assert math.hypot(np.linalg.norm(gw), np.linalg.norm(gb)) < models.MLR_GRADIENT_TOL

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
        with pytest.raises(MlrConvergenceError, match=r"after 0 Newton steps.*gradient norm") as exc:
            train_mlr(X, y, TrainConfig())
        assert isinstance(exc.value, DataError)
        assert exc.value.steps == 0 and exc.value.grad_norm > models.MLR_GRADIENT_TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_rounding_floor_is_not_a_failure(self, monkeypatch, seed):
        # With no tolerance, training runs on until no step can lower the
        # loss in floating point; that ends the run, it does not raise.
        X, y = four_blobs(seed=seed)
        monkeypatch.setattr(models, "MLR_GRADIENT_TOL", 0.0)
        model = train_mlr(X, y, TrainConfig())
        _, gw, gb = mlr_loss_and_grads(model.weights, model.bias, X, _one_hot(y), TrainConfig().l2)
        assert math.hypot(np.linalg.norm(gw), np.linalg.norm(gb)) < 1e-8

    def test_step_budget_raises_but_explicit_cap_truncates(self, monkeypatch):
        X, y = four_blobs(seed=4)
        monkeypatch.setattr(models, "MLR_MAX_ITERATIONS", 2)
        with pytest.raises(MlrConvergenceError, match="after 2 Newton steps"):
            train_mlr(X, y, TrainConfig())
        truncated = train_mlr(X, y, TrainConfig(), max_iterations=2)
        assert np.abs(truncated.weights).max() > 0

    def test_singular_system_raises(self):
        X, y = two_blobs(seed=1)
        X = np.column_stack([X, np.zeros(len(y))])
        with pytest.raises(MlrConvergenceError, match="singular"):
            train_mlr(X, y, TrainConfig(l2=0.0))

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


class TestSvm:
    def test_separable_one_dimensional(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([1, 1, 2, 2])
        model = train_svm(X, y, TrainConfig(epochs=2000))
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
        dist = predict_proba(model, [0.3, -0.4])
        assert dist.p == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_conflicting_duplicates_bounded(self):
        X = np.tile([[1.0, 0.5]], (10, 1))
        X += np.random.default_rng(0).standard_normal(X.shape) * 1e-9
        y = np.array([1] * 5 + [2] * 5)
        model = train_svm(X, y, TrainConfig(epochs=200))
        assert train_accuracy(model, X, y) <= 0.5 + 1e-12

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            LinearModel(weights=np.ones((4, 1)), bias=np.zeros(4), temperature=0.0)

    def test_separable_holdout_lands_on_the_temperature_floor(self, tmp_path):
        rng = np.random.default_rng(5)
        y = np.tile([1, 4], 30)  # both classes in the trailing hold-out
        X = np.where(y[:, None] == 1, -3.0, 3.0) + rng.normal(0.0, 0.3, (60, 2))
        model = train_svm(X, y, TrainConfig(epochs=500))
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
        model = train_svm(X, y, TrainConfig(epochs=1000))
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


class TestPredictionSurface:
    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            predict_proba(model, [1.0, 2.0])

    def test_topk_sorting(self):
        model = LinearModel(
            weights=np.zeros((4, 1)),
            bias=np.log(np.array([0.1, 0.6, 0.2, 0.1])),
        )
        top = predict_proba(model, [0.0]).top_k(2)
        assert [p for p, _ in top] == [PhaseLabel.EXPANSION, PhaseLabel.SLOWDOWN]
        assert top[0][1] == pytest.approx(0.6, abs=1e-12)

    def test_uniform_tie_breaks_to_lowest_code(self):
        model = LinearModel(weights=np.zeros((4, 1)), bias=np.zeros(4))
        top = predict_proba(model, [0.0]).top_k(1)
        assert top[0][0] is PhaseLabel.RECOVERY

    def test_bad_k(self):
        model = LinearModel(weights=np.zeros((4, 1)), bias=np.zeros(4))
        with pytest.raises(BadKError):
            predict_proba(model, [0.0]).top_k(5)

    def test_rank_phases_tie_rule(self):
        assert rank_phases([0.25, 0.25, 0.25, 0.25]) == [
            PhaseLabel.RECOVERY,
            PhaseLabel.EXPANSION,
            PhaseLabel.SLOWDOWN,
            PhaseLabel.RECESSION,
        ]


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
