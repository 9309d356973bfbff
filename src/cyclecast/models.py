"""Four-phase classifiers behind one prediction surface.

Three trainable models, all emitting a probability vector over the four
phases. Two of them share one model type, :class:`LinearModel`, a softmax over
linear scores divided by a temperature: multinomial logistic regression
(Newton's method on the exact Hessian with an Armijo backtracking line search,
about ten steps to a gradient norm of 1e-8; temperature 1) and one-vs-rest
linear SVMs (Pegasos-style projected subgradient on the hinge loss, with the
temperature calibrated on a held-out fold). The third is a
feed-forward network with four hidden layers of 50 ReLU units, dropout 0.2
after the last hidden layer, trained with Adam.

Training is deterministic given the seed; trained models are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import PhaseLabel, Region
from .errors import (
    BadKError,
    CorruptFileError,
    DegenerateInputError,
    DimensionMismatchError,
    MlrConvergenceError,
    SingleClassError,
    VersionMismatchError,
)
from .features import FeatureScaler
from .rbbcp import RbbcpModel

__all__ = [
    "PhaseDistribution",
    "TrainConfig",
    "LinearModel",
    "MlpModel",
    "ModelArtifact",
    "train_mlr",
    "train_svm",
    "train_mlp",
    "predict_proba",
    "rank_phases",
    "softmax",
    "nll_loss",
    "save_model",
    "load_model",
]

N_PHASES = 4
MLR_GRADIENT_TOL = 1e-8
MLR_MAX_ITERATIONS = 100  # Newton steps; about ten reach the tolerance at paper scale
# Relative size, against the loss, of a decrease that rounding can hide.
_LOSS_ROUNDING = 64 * np.finfo(float).eps
MODEL_SCHEMA = "cyclecast-model"
# Version 2 dropped the MLP payload's training-only "dropout_rate" and
# "rng_seed"; version 3 merged the "mlr" and "svm" payloads into one "linear"
# payload without "l2". Older files still load: the loader ignores those keys
# and reads "mlr"/"svm" payloads as linear models.
MODEL_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class PhaseDistribution:
    """Probability vector over the four phases, indexed by phase code."""

    p: tuple[float, float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.p)
        if arr.shape != (N_PHASES,):
            raise ValueError("distribution must have exactly 4 entries")
        if np.any(arr < -1e-12) or abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")

    def __getitem__(self, phase: PhaseLabel) -> float:
        return self.p[int(phase) - 1]

    def top_k(self, k: int) -> list[tuple[PhaseLabel, float]]:
        if not 1 <= k <= N_PHASES:
            raise BadKError(f"k must be in 1..4, got {k}")
        order = rank_phases(self.p)
        return [(phase, self.p[int(phase) - 1]) for phase in order[:k]]

    def argmax(self) -> PhaseLabel:
        return self.top_k(1)[0][0]


def rank_phases(p: Sequence[float]) -> list[PhaseLabel]:
    """Phases by descending probability; ties break toward the lower code."""
    return sorted(PhaseLabel, key=lambda phase: (-p[int(phase) - 1], int(phase)))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def nll_loss(probs: np.ndarray, codes: np.ndarray) -> float:
    """Mean negative log-likelihood of the true phase codes (1-based)."""
    idx = np.asarray(codes, dtype=int) - 1
    picked = probs[np.arange(len(idx)), idx]
    return float(-np.log(np.clip(picked, 1e-300, None)).mean())


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs. Values the algorithms themselves do not dictate
    (epochs, regularization) carry pragmatic defaults."""

    learning_rate: float = 0.005
    epochs: int = 500
    l2: float = 1e-3
    seed: int = 0
    hidden_layers: tuple[int, ...] = (50, 50, 50, 50)
    dropout: float = 0.2

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers must name at least one positive width")


def _as_codes(y) -> np.ndarray:
    codes = np.asarray([int(v) for v in y], dtype=int)
    if codes.size and (codes.min() < 1 or codes.max() > N_PHASES):
        raise ValueError("phase codes must be in 1..4")
    return codes


def _sample_weights(codes: np.ndarray) -> np.ndarray:
    return np.full(codes.size, 1.0 / codes.size)


def _validate_training_input(X: np.ndarray, codes: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateInputError("X must be a non-empty 2-D matrix")
    if X.shape[0] != codes.size:
        raise ValueError("X and y length mismatch")
    if np.all(X.std(axis=0) == 0.0):
        raise DegenerateInputError("every feature column is constant")
    if np.unique(codes).size < 2:
        raise SingleClassError("training labels contain a single class")


def _one_hot(codes: np.ndarray) -> np.ndarray:
    Y = np.zeros((codes.size, N_PHASES))
    Y[np.arange(codes.size), codes - 1] = 1.0
    return Y


# --- linear models ------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    """Softmax over per-class linear scores divided by one temperature.

    MLR is the case temperature = 1 (dividing by 1.0 is exact, so its
    probabilities are the plain softmax of the scores); the SVM carries the
    temperature calibrated for its margins.
    """

    weights: np.ndarray  # (4, d)
    bias: np.ndarray  # (4,)
    temperature: float = 1.0
    # Set by train_svm: "lower" or "upper" when the fitted temperature is an
    # end of its search grid. A training diagnostic; model files do not hold it.
    temperature_at_bound: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights.T + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_scores(X) / self.temperature)


# `perfbench/spans.py` (the benchmark tracer) hooks predict_proba through these names.
MlrModel = SvmModel = LinearModel


# --- multinomial logistic regression --------------------------------------


def mlr_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    l2: float,
    sample_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted softmax cross-entropy plus (l2/2)*||W||^2 and its gradients."""
    n = X.shape[0]
    w = np.full(n, 1.0 / n) if sample_weights is None else sample_weights
    probs = softmax(X @ weights.T + bias)
    picked = np.clip((probs * Y).sum(axis=1), 1e-300, None)
    loss = float(-(w * np.log(picked)).sum() + 0.5 * l2 * float((weights**2).sum()))
    delta = (probs - Y) * w[:, None]
    grad_w = delta.T @ X + l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def mlr_hessian(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    l2: float,
    sample_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Hessian of :func:`mlr_loss_and_grads`'s loss over the parameters [W | b].

    Parameters are ordered class by class, each class's d weights followed by
    its bias, i.e. ``np.column_stack([W, b]).ravel()``. The entry for classes
    (c, k) and inputs (j, l) is ``sum_i w_i (p_ic [c = k] - p_ic p_ik) x_ij x_il``
    with x_i = [X_i, 1], plus ``l2`` on the diagonal of the W block.
    """
    n, d = X.shape
    w = np.full(n, 1.0 / n) if sample_weights is None else sample_weights
    probs = softmax(X @ weights.T + bias)
    Xa = np.column_stack([X, np.ones(n)])
    PX = (probs[:, :, None] * Xa[:, None, :]).reshape(n, -1)  # p_ic x_ij
    wPX = w[:, None] * PX
    H = -wPX.T @ PX
    blocks = H.reshape(N_PHASES, d + 1, N_PHASES, d + 1)
    diag = np.arange(N_PHASES)
    blocks[diag, :, diag, :] += (wPX.T @ Xa).reshape(N_PHASES, d + 1, d + 1)
    H[np.diag_indices_from(H)] += np.tile(np.append(np.full(d, l2), 0.0), N_PHASES)
    return H


def train_mlr(
    X: np.ndarray,
    y,
    cfg: TrainConfig = TrainConfig(),
    max_iterations: int | None = None,
) -> LinearModel:
    """Damped Newton's method with an Armijo backtracking line search.

    Each step solves the Newton system of the weighted softmax cross-entropy
    plus (l2/2)*||W||^2 and backtracks from the full step until the loss
    decreases enough, so the training loss never increases. Adding one
    constant to every bias leaves the loss unchanged; a rank-one term along
    that direction makes the system nonsingular without moving the solution,
    and the biases keep summing to zero, as they do from the zero start.
    Training stops once the gradient norm falls below 1e-8.

    Raises :class:`MlrConvergenceError` when the Newton system is singular
    (``l2 = 0`` with collinear features), when no step lowers the loss
    although the predicted decrease is above the loss's rounding level, or
    when the gradient is still above tolerance after ``MLR_MAX_ITERATIONS``
    steps. An explicit ``max_iterations`` truncates the run instead,
    returning the iterate reached.
    """
    X = np.asarray(X, dtype=float)
    codes = _as_codes(y)
    _validate_training_input(X, codes)
    Y = _one_hot(codes)
    sw = _sample_weights(codes)
    d = X.shape[1]
    theta = np.zeros((N_PHASES, d + 1))  # [W | b]
    bias_ones = np.tile(np.append(np.zeros(d), 1.0), N_PHASES)

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = mlr_loss_and_grads(theta[:, :d], theta[:, d], X, Y, cfg.l2, sw)
        return loss, np.column_stack([grad_w, grad_b]).ravel()

    limit = MLR_MAX_ITERATIONS if max_iterations is None else max_iterations
    loss, grad = loss_and_grad(theta)
    steps = 0
    while (grad_norm := float(np.linalg.norm(grad))) >= MLR_GRADIENT_TOL:
        if steps == limit:
            if max_iterations is not None:
                break
            raise MlrConvergenceError(steps, grad_norm, "step budget spent")
        H = mlr_hessian(theta[:, :d], theta[:, d], X, cfg.l2, sw)
        try:
            direction = np.linalg.solve(H + np.outer(bias_ones, bias_ones), grad)
        except np.linalg.LinAlgError:  # l2 = 0 with a feature collinear with others
            raise MlrConvergenceError(steps, grad_norm, "singular Newton system") from None
        slope = float(grad @ direction)  # the loss falls at this rate along -direction
        step = 1.0
        while slope > 0 and step > 1e-18:
            cand = theta - step * direction.reshape(theta.shape)
            cand_loss, cand_grad = loss_and_grad(cand)
            # Strict, so that a step rounding leaves at the same loss is no progress.
            if cand_loss < loss - 1e-4 * step * slope:
                theta, loss, grad = cand, cand_loss, cand_grad
                break
            step *= 0.5
        else:
            if abs(slope) <= _LOSS_ROUNDING * max(abs(loss), 1.0):
                break  # the predicted decrease is below the loss's rounding
            raise MlrConvergenceError(steps, grad_norm, "line search found no descent step")
        steps += 1
    return LinearModel(weights=theta[:, :d].copy(), bias=theta[:, d].copy())


# --- one-vs-rest linear SVM -------------------------------------------------


def _fit_binary_svm(
    X_aug: np.ndarray, targets: np.ndarray, sw: np.ndarray, l2: float, epochs: int
) -> np.ndarray:
    """Projected subgradient descent on the regularized hinge loss.

    Pegasos schedule eta_t = 1/(l2*(t+1)) with projection onto the
    1/sqrt(l2) ball; the bias rides along as an augmented, weakly
    regularized coordinate.
    """
    w = np.zeros(X_aug.shape[1])
    radius = 1.0 / np.sqrt(l2)
    for t in range(epochs):
        eta = 1.0 / (l2 * (t + 1))
        margins = targets * (X_aug @ w)
        violating = margins < 1.0
        grad = l2 * w - (sw * targets * violating) @ X_aug
        w = w - eta * grad
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
    return w


def _fit_temperature(margins: np.ndarray, codes: np.ndarray) -> tuple[float, str | None]:
    """Pick the softmax temperature minimizing held-out NLL over a log grid.

    Also returns ``"lower"`` or ``"upper"`` when that minimum lies on an end
    of the 0.01-100 grid (the NLL may still fall beyond it), else None.
    """
    grid = np.logspace(-2.0, 2.0, 161)
    best_t, best_nll, at_bound = 1.0, np.inf, None
    for i, t in enumerate(grid):
        nll = nll_loss(softmax(margins / t), codes)
        if nll < best_nll:
            best_t, best_nll = float(t), nll
            at_bound = "lower" if i == 0 else "upper" if i == grid.size - 1 else None
    return best_t, at_bound


def train_svm(X: np.ndarray, y, cfg: TrainConfig = TrainConfig()) -> LinearModel:
    """Four one-vs-rest linear SVMs plus a calibrated softmax temperature.

    The temperature is fitted on a trailing held-out fold (20%) against a
    shadow model trained on the leading rows, then the final weights are
    refitted on the full sample. With fewer than 20 rows the calibration
    falls back to in-sample margins.
    """
    X = np.asarray(X, dtype=float)
    codes = _as_codes(y)
    _validate_training_input(X, codes)
    l2 = cfg.l2 if cfg.l2 > 0 else 1e-3  # Pegasos schedule needs a strictly positive l2
    X_aug = np.column_stack([X, np.ones(X.shape[0])])

    def fit_all(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sw = _sample_weights(codes[rows])
        weights = np.empty((N_PHASES, X.shape[1]))
        bias = np.empty(N_PHASES)
        for c in range(N_PHASES):
            targets = np.where(codes[rows] == c + 1, 1.0, -1.0)
            w = _fit_binary_svm(X_aug[rows], targets, sw, l2, cfg.epochs)
            weights[c] = w[:-1]
            bias[c] = w[-1]
        return weights, bias

    n = X.shape[0]
    holdout = n - max(int(round(n * 0.2)), 1)
    if holdout >= 10 and n >= 20:
        shadow_w, shadow_b = fit_all(np.arange(holdout))
        margins = X[holdout:] @ shadow_w.T + shadow_b
        fitted = _fit_temperature(margins, codes[holdout:])
    else:
        fitted = None

    weights, bias = fit_all(np.arange(n))
    if fitted is None:
        margins = X @ weights.T + bias
        fitted = _fit_temperature(margins, codes)
    temperature, at_bound = fitted
    return LinearModel(
        weights=weights, bias=bias, temperature=temperature, temperature_at_bound=at_bound
    )


# --- multi-layer perceptron -------------------------------------------------


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]  # layer k: (d_k, d_{k+1})
    biases: tuple[np.ndarray, ...]

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        logits, _ = mlp_forward(self.weights, self.biases, np.asarray(X, dtype=float))
        return logits

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Inference path: dropout disabled, so outputs are deterministic."""
        return softmax(self.decision_scores(X))


def mlp_forward(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    X: np.ndarray,
    dropout_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass. ``dropout_mask`` (already inverted-scaled) multiplies the
    last hidden activation; None disables dropout. Returns logits and the
    per-layer inputs needed for backpropagation."""
    inputs = [np.asarray(X, dtype=float)]
    h = inputs[0]
    last_hidden = len(weights) - 2
    for k in range(len(weights) - 1):
        h = np.maximum(h @ weights[k] + biases[k], 0.0)
        if k == last_hidden and dropout_mask is not None:
            h = h * dropout_mask
        inputs.append(h)
    logits = h @ weights[-1] + biases[-1]
    return logits, inputs


def mlp_loss_and_grads(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    X: np.ndarray,
    Y: np.ndarray,
    l2: float = 0.0,
    dropout_mask: np.ndarray | None = None,
    sample_weights: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Cross-entropy loss and exact gradients for every layer."""
    n = X.shape[0]
    sw = np.full(n, 1.0 / n) if sample_weights is None else sample_weights
    logits, inputs = mlp_forward(weights, biases, X, dropout_mask)
    probs = softmax(logits)
    picked = np.clip((probs * Y).sum(axis=1), 1e-300, None)
    loss = float(-(sw * np.log(picked)).sum())
    loss += 0.5 * l2 * sum(float((W**2).sum()) for W in weights)

    grad_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    delta = (probs - Y) * sw[:, None]
    for k in range(len(weights) - 1, -1, -1):
        grad_w[k] = inputs[k].T @ delta + l2 * weights[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ weights[k].T
            if k == len(weights) - 1 and dropout_mask is not None:
                delta = delta * dropout_mask
            delta = delta * (inputs[k] > 0.0)
    return loss, grad_w, grad_b


def _init_mlp(d: int, hidden: tuple[int, ...], rng: np.random.Generator):
    sizes = [d, *hidden, N_PHASES]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return weights, biases


def train_mlp(X: np.ndarray, y, cfg: TrainConfig = TrainConfig()) -> MlpModel:
    """Adam-trained feed-forward classifier, run for ``cfg.epochs`` full-batch epochs.

    Dropout (inverted scaling) is applied after the last hidden layer during
    training only. Fully deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    codes = _as_codes(y)
    _validate_training_input(X, codes)
    Y = _one_hot(codes)
    # Divided by their own sum, which is not bit-identical to 1/n for most n;
    # trained MLP weights depend on these bits.
    sw = _sample_weights(codes)
    sw = sw / sw.sum()
    rng = np.random.default_rng(cfg.seed)
    weights, biases = _init_mlp(X.shape[1], cfg.hidden_layers, rng)
    params = weights + biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    mask_shape = (X.shape[0], cfg.hidden_layers[-1])

    for _ in range(cfg.epochs):
        if cfg.dropout > 0.0:
            mask = (rng.random(mask_shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        else:
            mask = None
        _, grad_w, grad_b = mlp_loss_and_grads(weights, biases, X, Y, cfg.l2, mask, sw)
        step += 1
        for p, g, m, v in zip(params, grad_w + grad_b, adam_m, adam_v):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return MlpModel(
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
    )


# --- shared prediction surface ----------------------------------------------

TrainedModel = LinearModel | MlpModel


def predict_proba(model: TrainedModel, x: Sequence[float] | np.ndarray) -> PhaseDistribution:
    """Distribution over phases for one feature row."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != model.n_features:
        raise DimensionMismatchError(
            f"expected a feature row of length {model.n_features}, got shape {x.shape}"
        )
    p = model.predict_proba(x[None, :])[0]
    return PhaseDistribution(p=tuple(float(v) for v in p))


# --- persistence -------------------------------------------------------------


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model plus the context needed to apply it to new data."""

    model: TrainedModel | RbbcpModel
    region: Region | None = None
    window: int | None = None
    feature_names: tuple[str, ...] | None = None
    scaler: FeatureScaler | None = None
    extra: dict = field(default_factory=dict)


def _array(nested) -> np.ndarray:
    return np.asarray(nested, dtype=float)


def _model_payload(model: TrainedModel | RbbcpModel) -> dict:
    if isinstance(model, LinearModel):
        return {
            "kind": "linear",
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "temperature": model.temperature,
        }
    if isinstance(model, MlpModel):
        return {
            "kind": "mlp",
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
        }
    if isinstance(model, RbbcpModel):
        return {
            "kind": "rbbcp",
            "trend_window": model.trend_window,
            "zero_is_up": model.zero_is_up,
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def _model_from_payload(payload: dict) -> TrainedModel | RbbcpModel:
    kind = payload["kind"]
    if kind in ("linear", "mlr", "svm"):  # "mlr"/"svm": schema versions 1 and 2
        return LinearModel(
            weights=_array(payload["weights"]),
            bias=_array(payload["bias"]),
            temperature=float(payload.get("temperature", 1.0)),
        )
    if kind == "mlp":
        return MlpModel(
            weights=tuple(_array(w) for w in payload["weights"]),
            biases=tuple(_array(b) for b in payload["biases"]),
        )
    if kind == "rbbcp":
        return RbbcpModel(
            trend_window=int(payload["trend_window"]),
            zero_is_up=bool(payload["zero_is_up"]),
        )
    raise CorruptFileError(f"unknown model kind {kind!r}")


def save_model(
    artifact: ModelArtifact | TrainedModel | RbbcpModel, path: str | Path
) -> None:
    """Write a versioned JSON container; floats survive bit-exactly."""
    if not isinstance(artifact, ModelArtifact):
        artifact = ModelArtifact(model=artifact)
    doc = {
        "schema": MODEL_SCHEMA,
        "schema_version": MODEL_SCHEMA_VERSION,
        "model": _model_payload(artifact.model),
        "region": artifact.region.value if artifact.region else None,
        "window": artifact.window,
        "feature_names": list(artifact.feature_names) if artifact.feature_names else None,
        "scaler": (
            {"mean": artifact.scaler.mean.tolist(), "std": artifact.scaler.std.tolist()}
            if artifact.scaler
            else None
        ),
        "extra": artifact.extra,
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> ModelArtifact:
    """Read a model container written by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise CorruptFileError(f"{path}: not a cyclecast model file")
    version = doc.get("schema_version")
    if not isinstance(version, int) or version > MODEL_SCHEMA_VERSION:
        raise VersionMismatchError(version, MODEL_SCHEMA_VERSION)
    try:
        model = _model_from_payload(doc["model"])
        scaler = doc.get("scaler")
        return ModelArtifact(
            model=model,
            region=Region(doc["region"]) if doc.get("region") else None,
            window=doc.get("window"),
            feature_names=tuple(doc["feature_names"]) if doc.get("feature_names") else None,
            scaler=(
                FeatureScaler(mean=_array(scaler["mean"]), std=_array(scaler["std"]))
                if scaler
                else None
            ),
            extra=doc.get("extra", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: malformed model payload ({exc})") from exc
