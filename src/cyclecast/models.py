"""Four-phase classifiers.

Three trainable models, each with a ``predict_proba(X)`` that gives one
probability vector over the four phases per row. Two of them share one model
type, :class:`LinearModel`, a softmax over linear scores divided by a
temperature, and one training loop, damped Newton to a gradient norm of 1e-8:
multinomial logistic regression (about ten steps; temperature 1) and
one-vs-rest linear SVMs on the squared hinge (finite Newton, six to eight
steps per fit). The third is a feed-forward network with four hidden layers of
50 ReLU units, dropout 0.2 after the last hidden layer, trained with Adam.

The SVM and the MLP take the same optional validation rows: the SVM fits its
temperature on their margins (1.0 without them), and the MLP stops once their
loss has not improved for ``MLP_PATIENCE`` epochs.

Training is deterministic given the seed; trained models are immutable. A
trained model scores any number of rows in one ``predict_proba`` call, and a
row gets the same bits alone as in any batch: scoring runs one vector-matrix
product per row, where ``X @ W`` sums a batch in another order than one row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Region, phase_codes, write_atomic
from .errors import (
    CorruptFileError,
    DegenerateInputError,
    NewtonConvergenceError,
    SingleClassError,
    VersionMismatchError,
)
from .features import FeatureScaler
from .rbbcp import RbbcpModel

__all__ = [
    "TrainConfig",
    "LinearModel",
    "MlpModel",
    "ModelArtifact",
    "train_mlr",
    "train_svm",
    "train_mlp",
    "rank_phases",
    "softmax",
    "nll_loss",
    "save_model",
    "load_model",
]

N_PHASES = 4
NEWTON_GRADIENT_TOL = 1e-8
NEWTON_MAX_STEPS = 100  # at paper scale MLR takes about ten, each SVM fit seven or eight
# Relative size, against the loss, of a decrease that rounding can hide.
_LOSS_ROUNDING = 64 * np.finfo(float).eps
# Epochs without a lower validation NLL after which train_mlp stops (Prechelt 1998).
MLP_PATIENCE = 50
MODEL_SCHEMA = "cyclecast-model"
# Version 2 dropped the MLP payload's training-only "dropout_rate" and
# "rng_seed"; version 3 merged the "mlr" and "svm" payloads into one "linear"
# payload without "l2". Older files still load: the loader ignores those keys
# and reads "mlr"/"svm" payloads as linear models.
MODEL_SCHEMA_VERSION = 3


def rank_phases(p) -> np.ndarray:
    """Phase codes by descending probability, for a (4,) row or each row of an
    (n, 4) matrix. Ties, 0.0 against -0.0 among them, go to the lower code:
    the stable sort keeps equal probabilities in code order. Evaluation and
    ``predict`` rank through this one function.
    """
    return np.argsort(-np.asarray(p, dtype=float), axis=-1, kind="stable") + 1


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def nll_loss(probs: np.ndarray, codes: np.ndarray) -> float:
    """Mean negative log-likelihood of the true phase codes (1-based)."""
    idx = phase_codes(codes) - 1
    picked = probs[np.arange(len(idx)), idx]
    return float(-np.log(np.clip(picked, 1e-300, None)).mean())


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs. Values the algorithms themselves do not dictate
    (epochs, regularization) carry pragmatic defaults. ``epochs`` is the MLP's
    epoch cap, which a run with validation rows may stop short of.
    """

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
    return np.eye(N_PHASES)[codes - 1]


def _stacked_rows(X) -> np.ndarray:
    """X as an (n, 1, d) stack: a product with it runs, row by row, the call a one-row batch runs."""
    return np.ascontiguousarray(X, dtype=float)[:, None, :]


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
    # Set by train_mlr and train_svm: (Newton steps, gradient norm) per fit. Not in model files.
    newton_fits: tuple[tuple[int, float], ...] = field(default=(), compare=False)

    def __post_init__(self):
        shapes = np.shape(self.weights), np.shape(self.bias)
        if len(shapes[0]) != 2 or shapes[0][0] != N_PHASES or shapes[1] != (N_PHASES,):
            raise ValueError(f"weights and bias of shapes {shapes} are not (4, d) and (4,)")
        finite = np.isfinite(self.weights).all() and np.isfinite(self.bias).all()
        real = isinstance(self.temperature, (int, float)) and not isinstance(self.temperature, bool)
        if not (finite and real and 0 < self.temperature < np.inf):
            raise ValueError("weights and bias must be finite, temperature a real number > 0")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return (_stacked_rows(X) @ self.weights.T)[:, 0] + self.bias

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


def _newton(loss_and_grad, hessian, theta: np.ndarray, model: str, max_steps: int | None = None):
    """Damped Newton with an Armijo backtracking line search: ``loss_and_grad(theta)``
    gives the loss and flat gradient, ``hessian(theta)`` the matrix each step solves.
    Stops below ``NEWTON_GRADIENT_TOL``; returns (theta, steps, gradient norm).

    A singular system takes the minimum-norm solution: the Hessian is positive
    semidefinite and the gradient lies in its range, so that is still a Newton step.

    Raises :class:`NewtonConvergenceError` naming ``model`` on a line search
    that finds no descent step above the loss's rounding level, or after
    ``NEWTON_MAX_STEPS`` steps; an explicit ``max_steps`` truncates.
    """
    limit = NEWTON_MAX_STEPS if max_steps is None else max_steps
    loss, grad = loss_and_grad(theta)
    steps = 0
    while (grad_norm := float(np.linalg.norm(grad))) >= NEWTON_GRADIENT_TOL:
        if steps == limit:
            if max_steps is not None:
                break
            raise NewtonConvergenceError(model, steps, grad_norm, "step budget spent")
        H = hessian(theta)
        try:
            direction = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:  # l2 = 0 with collinear features, or too few active SVM rows
            direction = np.linalg.lstsq(H, grad, rcond=None)[0]
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
            raise NewtonConvergenceError(model, steps, grad_norm, "line search found no descent step")
        steps += 1
    return theta, steps, grad_norm


def train_mlr(
    X: np.ndarray, y, cfg: TrainConfig = TrainConfig(), max_iterations: int | None = None
) -> LinearModel:
    """:func:`_newton` on the weighted softmax cross-entropy plus (l2/2)*||W||^2.

    Adding one constant to every bias leaves the loss unchanged; a rank-one
    term along that direction makes the Newton system nonsingular without
    moving the solution, and the biases keep summing to zero, as they do from
    the zero start.
    """
    X = np.asarray(X, dtype=float)
    codes = phase_codes(y)
    _validate_training_input(X, codes)
    Y = _one_hot(codes)
    sw = _sample_weights(codes)
    d = X.shape[1]
    theta = np.zeros((N_PHASES, d + 1))  # [W | b]
    bias_ones = np.tile(np.append(np.zeros(d), 1.0), N_PHASES)

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = mlr_loss_and_grads(theta[:, :d], theta[:, d], X, Y, cfg.l2, sw)
        return loss, np.column_stack([grad_w, grad_b]).ravel()

    def hessian(theta: np.ndarray) -> np.ndarray:
        return mlr_hessian(theta[:, :d], theta[:, d], X, cfg.l2, sw) + np.outer(bias_ones, bias_ones)

    theta, steps, grad_norm = _newton(loss_and_grad, hessian, theta, "mlr", max_iterations)
    return LinearModel(theta[:, :d].copy(), theta[:, d].copy(), newton_fits=((steps, grad_norm),))


# --- one-vs-rest linear SVM -------------------------------------------------


def svm_loss_and_grad(w, X_aug, targets, sw, l2: float) -> tuple[float, np.ndarray]:
    """Squared hinge (l2/2)*||w||^2 + sum_i sw_i * max(0, 1 - t_i w.x_i)^2 and its
    gradient. The bias is the last entry of ``w``, regularized with the weights."""
    slack = np.maximum(1.0 - targets * (X_aug @ w), 0.0)
    loss = float(0.5 * l2 * (w @ w) + sw @ slack**2)
    return loss, l2 * w - 2.0 * (sw * targets * slack) @ X_aug


def svm_hessian(w, X_aug, targets, sw, l2: float) -> np.ndarray:
    """Generalized Hessian ``l2*I + 2 X_A' diag(sw_A) X_A`` of that loss (Keerthi &
    DeCoste 2005). A holds the rows with margin t_i w.x_i < 1, strictly."""
    active = targets * (X_aug @ w) < 1.0
    X_active = X_aug[active]
    return 2.0 * (sw[active, None] * X_active).T @ X_active + l2 * np.eye(X_aug.shape[1])


def _fit_binary_svm(
    X_aug: np.ndarray, targets: np.ndarray, sw: np.ndarray, l2: float
) -> tuple[np.ndarray, int, float]:
    """Finite Newton from zero; the squared hinge is piecewise quadratic."""
    args = (X_aug, targets, sw, l2)
    loss_and_grad, hessian = (lambda w: svm_loss_and_grad(w, *args)), (lambda w: svm_hessian(w, *args))
    return _newton(loss_and_grad, hessian, np.zeros(X_aug.shape[1]), "svm")


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


def train_svm(
    X: np.ndarray,
    y,
    cfg: TrainConfig = TrainConfig(),
    validation: tuple[np.ndarray, Sequence[int]] | None = None,
) -> LinearModel:
    """Four one-vs-rest linear SVMs plus a softmax temperature.

    Given ``validation = (X_val, y_val)``, the temperature is the one that
    minimizes the validation NLL of the softmax over their margins
    (Guo et al. 2017); without validation rows it is 1.0.
    """
    X = np.asarray(X, dtype=float)
    codes = phase_codes(y)
    _validate_training_input(X, codes)
    X_aug = np.column_stack([X, np.ones(X.shape[0])])
    sw = _sample_weights(codes)
    targets = np.where(codes == np.arange(1, N_PHASES + 1)[:, None], 1.0, -1.0)
    fits = [_fit_binary_svm(X_aug, t, sw, cfg.l2) for t in targets]
    W = np.array([w for w, _, _ in fits])
    model = LinearModel(W[:, :-1].copy(), W[:, -1].copy(), newton_fits=tuple((s, g) for _, s, g in fits))
    if validation is not None:
        t, at_bound = _fit_temperature(model.decision_scores(validation[0]), phase_codes(validation[1]))
        model = replace(model, temperature=t, temperature_at_bound=at_bound)
    return model


# --- multi-layer perceptron -------------------------------------------------


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]  # layer k: (d_k, d_{k+1})
    biases: tuple[np.ndarray, ...]
    # Set by train_mlp given validation rows: the epoch whose weights these are.
    # A training diagnostic; model files do not hold it.
    stop_epoch: int | None = field(default=None, compare=False)

    def __post_init__(self):
        # The widths d_0..d_k the weights name; layer k must be (d_k, d_{k+1}), its bias (d_{k+1},).
        shapes = [np.shape(w) for w in self.weights], [np.shape(b) for b in self.biases]
        sizes = [s[0] for s in shapes[0][:1] if s] + [s[-1] for s in shapes[0] if s]
        if shapes != (list(zip(sizes, sizes[1:])), [(d,) for d in sizes[1:]]) or sizes[-1:] != [N_PHASES]:
            raise ValueError(f"layer and bias shapes {shapes} do not chain to 4 outputs")
        if not all(np.isfinite(a).all() for a in (*self.weights, *self.biases)):
            raise ValueError("weights and biases must be finite")

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self.weights, self.biases, _stacked_rows(X))[0][:, 0]

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
    """He-initialised weights and zero biases. A layer shape numpy refuses
    before allocating (too many bytes for its size type, or too long a
    dimension) raises MemoryError, as a layer it cannot allocate does."""
    sizes = [d, *hidden, N_PHASES]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        try:
            weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        except ValueError as exc:  # numpy's shape check, before any allocation
            raise MemoryError(str(exc)) from None
        biases.append(np.zeros(fan_out))
    return weights, biases


def train_mlp(
    X: np.ndarray,
    y,
    cfg: TrainConfig = TrainConfig(),
    validation: tuple[np.ndarray, Sequence[int]] | None = None,
) -> MlpModel:
    """Adam-trained feed-forward classifier, run for up to ``cfg.epochs`` full-batch epochs.

    Dropout (inverted scaling) is applied after the last hidden layer during
    training only. Fully deterministic for a fixed seed.

    Given ``validation = (X_val, y_val)``, every epoch ends by scoring the
    validation NLL with dropout off. Training stops once ``MLP_PATIENCE``
    epochs pass without a strictly lower, finite NLL, and returns the weights
    of the best epoch, recorded as ``stop_epoch``. The check draws no random
    numbers, so those weights bit-equal a run of ``stop_epoch`` epochs without
    validation. A run whose validation NLL is never finite raises ValueError.
    """
    X = np.asarray(X, dtype=float)
    codes = phase_codes(y)
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
    mask_shape = (X.shape[0], cfg.hidden_layers[-1])
    if validation is not None:
        X_val, codes_val = np.asarray(validation[0], dtype=float), phase_codes(validation[1])
    best_nll, best_epoch, best_params = np.inf, 0, params

    for step in range(1, cfg.epochs + 1):
        if cfg.dropout > 0.0:
            mask = (rng.random(mask_shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        else:
            mask = None
        _, grad_w, grad_b = mlp_loss_and_grads(weights, biases, X, Y, cfg.l2, mask, sw)
        for p, g, m, v in zip(params, grad_w + grad_b, adam_m, adam_v):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        if validation is None:
            continue
        nll = nll_loss(softmax(mlp_forward(weights, biases, X_val)[0]), codes_val)
        if nll < best_nll:  # false for ties and NaN
            best_nll, best_epoch, best_params = nll, step, [p.copy() for p in params]
        elif step - best_epoch >= MLP_PATIENCE:
            break
    if validation is not None and best_epoch == 0:
        raise ValueError("the validation NLL was not finite in any epoch")
    n_layers = len(weights)
    return MlpModel(
        weights=tuple(p.copy() for p in best_params[:n_layers]),
        biases=tuple(p.copy() for p in best_params[n_layers:]),
        stop_epoch=best_epoch or None,
    )


TrainedModel = LinearModel | MlpModel


# --- persistence -------------------------------------------------------------


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model plus the context needed to apply it to new data.

    ``window`` is None or an int >= 2. The scaler's mean and std are finite
    (std > 0) and as wide as the feature names and the model's input.
    """

    model: TrainedModel | RbbcpModel
    region: Region | None = None
    window: int | None = None
    feature_names: tuple[str, ...] | None = None
    scaler: FeatureScaler | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.window is not None and (type(self.window) is not int or self.window < 2):
            raise ValueError(f"window {self.window!r} is not null or an int >= 2")
        if type(self.extra) is not dict:
            raise ValueError(f"extra {self.extra!r} is not an object")
        shapes = set() if isinstance(self.model, RbbcpModel) else {(self.model.n_features,)}
        if self.feature_names is not None:
            shapes.add((len(self.feature_names),))
        if self.scaler is not None:
            mean, std = self.scaler.mean, self.scaler.std
            if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
                raise ValueError("scaler mean and std must be finite, std > 0")
            shapes |= {mean.shape, std.shape}
        if len(shapes) > 1:
            raise ValueError(
                f"feature names, scaler and model input differ in width: {min(shapes)} vs {max(shapes)}"
            )


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
            temperature=payload.get("temperature", 1.0),
        )
    if kind == "mlp":
        return MlpModel(
            weights=tuple(_array(w) for w in payload["weights"]),
            biases=tuple(_array(b) for b in payload["biases"]),
        )
    if kind == "rbbcp":
        return RbbcpModel(trend_window=payload["trend_window"], zero_is_up=payload["zero_is_up"])
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
    write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str | Path) -> ModelArtifact:
    """Read a model container written by :func:`save_model`; a payload that
    makes no valid :class:`ModelArtifact` raises :class:`CorruptFileError`."""
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
        scaler, names = doc.get("scaler"), doc.get("feature_names")
        return ModelArtifact(
            model=model,
            region=Region(doc["region"]) if doc.get("region") else None,
            window=doc.get("window"),
            feature_names=None if names is None else tuple(names),
            scaler=None if scaler is None else FeatureScaler(_array(scaler["mean"]), _array(scaler["std"])),
            extra=doc.get("extra", {}),
        )
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: malformed model payload ({exc})") from exc
