"""Composite growth/inflation indices: first principal component of a
standardized panel, re-estimated on an expanding window.

A cold start (:func:`pca_first_component`, and the first month of an
expanding index) finds the eigenvector by power iteration on the sample
covariance matrix (tolerance 1e-12, at most 10000 iterations per start) —
dependency-free and adequate for panels of up to a few hundred series. A
start that does not meet the tolerance within the budget raises
:class:`PowerIterationError`. PCA leaves the component sign ambiguous, so
loadings are normalized against a designated reference column.

The expanding index is incremental: it keeps a running mean and a centred
scatter matrix, updates both by rank one as each month arrives, and
warm-starts from the previous month's signed eigenvector. Power iteration
converges at the rate lambda2/lambda1, so a warm month first takes about d/3
power steps for d series (the cost of one factorisation). A month still
short of the tolerance switches to Rayleigh-quotient iteration, whose
convergence is cubic whatever the eigengap, and accepts a vector only when
one power step moves it by less than the tolerance and a Cholesky
factorisation of ``lambda (1 + 1e-9) I - C`` certifies that no eigenvalue
lies above its Rayleigh quotient lambda (Sylvester's law of inertia). A
singular or non-finite solve or the RQI step cap resumes plain power
iteration, with its full budget and :class:`PowerIterationError`, from the
last RQI vector; a failed certificate resumes it from where RQI began. The
emitted values agree with a cold per-month fit of ``values[:t]`` to about
1e-10.

Each month depends only on the running state ``(t, mean, scatter, vector)``
left by the month before, so an index can stop and resume: the result
carries an :class:`IndexState`, and a later call on a longer panel resumes
from it bit for bit. A state resumes only a panel whose first ``t`` rows,
series, reference series, minimum window and state schema version hash to
the state's SHA-256 key; a full build is a resume from the seed state of the
first ``min_window_months`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dataset import MonthStamp, check_contiguous, month_row, prefix_sha256, set_arrays
from .errors import (
    DegenerateCovarianceError,
    InsufficientHistoryError,
    PanelTooShortError,
    PowerIterationError,
    ZeroReferenceLoadingError,
)
from .preprocess import Panel

__all__ = [
    "IndexKind",
    "PcaResult",
    "CompositeIndex",
    "IndexState",
    "pca_first_component",
    "sign_normalize",
    "expanding_pca_index",
]

POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_MAX_STEPS = 10_000
RQI_MAX_STEPS = 8
CERTIFICATE_MARGIN = 1e-9  # relative room above the top eigenvalue in the Cholesky check
INDEX_STATE_SCHEMA = 1  # bump when the meaning of an IndexState changes


class IndexKind(Enum):
    GROWTH = "growth"
    INFLATION = "inflation"


@dataclass(frozen=True)
class PcaResult:
    """First principal component: unit loadings, per-month scores, and the
    share of total variance it explains."""

    loadings: np.ndarray
    scores: np.ndarray
    explained_variance_ratio: float


def _state_key(panel: Panel, reference_series: str, min_window_months: int, rows: int) -> str:
    """:func:`prefix_sha256` of what an expanding index through panel row ``rows``
    depends on: the state schema, the series in order, the reference series,
    the minimum window, the first month, and ``values[:rows]``."""
    return prefix_sha256(
        [INDEX_STATE_SCHEMA, list(panel.series_ids), reference_series, min_window_months,
         int(panel.months[0])],
        panel.values[:rows],
    )


@dataclass(frozen=True)
class IndexState:
    """Where an expanding index stopped: after ``t`` panel rows, their running
    mean and centred scatter, month t's signed eigenvector, and the index
    values emitted through month t. ``key`` is the :func:`_state_key` of
    the panel it was built from."""

    key: str
    t: int
    mean: np.ndarray
    scatter: np.ndarray
    vector: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        set_arrays(self, mean=float, vector=float, values=float)
        object.__setattr__(self, "scatter", np.asarray(self.scatter, dtype=float))
        d = self.mean.size
        shaped = self.scatter.shape == (d, d) and self.vector.shape == (d,) and self.values.size
        arrays = (self.mean, self.scatter, self.vector, self.values)
        if not (shaped and all(np.isfinite(a).all() for a in arrays)):
            raise ValueError("index state arrays are misshapen or non-finite")

    def describes(self, panel: Panel, reference_series: str, min_window_months: int) -> bool:
        """Whether this state is the one a build of ``panel`` reaches after ``t`` rows."""
        return (
            self.t <= panel.n_months
            and self.mean.size == panel.n_series
            and self.values.size == self.t - min_window_months + 1
            and self.key == _state_key(panel, reference_series, min_window_months, self.t)
        )


@dataclass(frozen=True)
class CompositeIndex:
    """Monthly composite index emitted once the expanding window is filled;
    contiguous months. ``state`` is where an expanding build stopped, if this
    index came from one."""

    kind: IndexKind
    months: np.ndarray
    values: np.ndarray
    state: IndexState | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        set_arrays(self, months=np.int64, values=float)
        check_contiguous(self.months, f"{self.kind.value} index")

    def __len__(self) -> int:
        return len(self.months)

    def value_at(self, month: int) -> float:
        return float(self.values[month_row(self.months, month)])

    def window_ending_at(self, month: int, window: int) -> np.ndarray:
        """The last ``window`` values ending at the ordinal ``month`` (inclusive)."""
        try:
            pos = month_row(self.months, month)
        except KeyError as exc:
            raise InsufficientHistoryError(f"index has no value at {exc.args[0]}") from None
        if pos + 1 < window:
            raise InsufficientHistoryError(
                f"index has only {pos + 1} values through {MonthStamp.from_ordinal(month)}, "
                f"window {window} requested"
            )
        return self.values[pos + 1 - window : pos + 1]


def _power_starts(d: int, warm: np.ndarray | None):
    """Start vectors in the order tried; the random one is built only if reached."""
    if warm is not None:
        yield warm
    yield np.ones(d)
    yield np.eye(d)[0]
    yield np.random.default_rng(0).standard_normal(d)


def _power_iterate(cov: np.ndarray, v: np.ndarray, steps: int) -> tuple[np.ndarray, float | None]:
    """Up to ``steps`` power steps from the unit vector ``v``, stopping once a
    step moves it by less than the tolerance. Returns the last iterate and
    that step's residual ``|w - v|``, or ``(v, None)`` if ``v`` lies in the
    nullspace."""
    residual = np.inf
    for _ in range(steps):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm <= POWER_ITERATION_TOL:
            return v, None
        w /= norm
        if w @ v < 0:
            w = -w
        residual = float(np.linalg.norm(w - v))
        v = w
        if residual < POWER_ITERATION_TOL:
            break
    return v, residual


def _top_eigenvector(cov: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Power iteration for the dominant eigenpair of a PSD matrix.

    Starts from ``start`` when given (a warm start, such as last month's
    eigenvector), then from deterministic fallbacks; a start lying in the
    nullspace is abandoned for the next one. A start that does not meet the
    tolerance within ``POWER_ITERATION_MAX_STEPS`` raises
    :class:`PowerIterationError` rather than returning its last iterate.
    """
    for v in _power_starts(cov.shape[0], start):
        v, residual = _power_iterate(cov, v / np.linalg.norm(v), POWER_ITERATION_MAX_STEPS)
        if residual is None:
            continue  # start vector is in the nullspace
        if residual >= POWER_ITERATION_TOL:
            raise PowerIterationError(POWER_ITERATION_MAX_STEPS, residual)
        return v, float(v @ cov @ v)
    raise DegenerateCovarianceError("every power-iteration start lies in the nullspace")


def _rayleigh_quotient_iteration(cov: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Rayleigh-quotient iteration for the top eigenpair from the unit vector ``v``.

    Returns ``(vector, eigenvalue)`` once one power step moves the iterate by
    less than the tolerance and the Cholesky certificate holds. Otherwise
    returns ``(vector, None)`` with the vector power iteration should resume
    from: the last iterate after a singular or non-finite solve or at the step
    cap; ``v`` itself when the iterate is another eigenvector (the certificate
    fails, or it lies in the nullspace), on which power iteration would stop
    at once.
    """
    start, eye = v, np.eye(cov.shape[0])
    for _ in range(RQI_MAX_STEPS):
        try:
            w = np.linalg.solve(cov - (v @ cov @ v) * eye, v)
        except np.linalg.LinAlgError:
            return v, None
        norm = np.linalg.norm(w)
        if not 0.0 < norm < np.inf:
            return v, None
        v, residual = _power_iterate(cov, w / norm, 1)
        if residual is None:
            return start, None
        if residual < POWER_ITERATION_TOL:
            value = float(v @ cov @ v)
            try:
                np.linalg.cholesky(value * (1.0 + CERTIFICATE_MARGIN) * eye - cov)
            except np.linalg.LinAlgError:
                return start, None
            return v, value
    return v, None


def _warm_top_eigenvector(cov: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, float]:
    """The dominant eigenpair of a PSD matrix from a nearby ``start``.

    Power iteration for about ``d / 3`` steps returns exactly what
    :func:`_top_eigenvector` would when it meets the tolerance within them;
    otherwise Rayleigh-quotient iteration takes over, and a month it cannot
    certify resumes plain power iteration.
    """
    v, residual = _power_iterate(cov, start / np.linalg.norm(start), max(1, cov.shape[0] // 3))
    if residual is None:
        return _top_eigenvector(cov)
    if residual < POWER_ITERATION_TOL:
        return v, float(v @ cov @ v)
    v, value = _rayleigh_quotient_iteration(cov, v)
    return (v, value) if value is not None else _top_eigenvector(cov, start=v)


def _checked_trace(cov: np.ndarray) -> float:
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise DegenerateCovarianceError("panel carries no variance")
    return trace


def pca_first_component(panel: np.ndarray) -> PcaResult:
    """First principal component of a months-by-series matrix.

    Columns are centered internally; loadings are the unit eigenvector of the
    (divisor n) covariance matrix with the largest eigenvalue and scores are
    the centered panel projected onto them.
    """
    X = np.asarray(panel, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 2:
        raise PanelTooShortError("PCA needs at least 2 months")
    if X.shape[1] < 1:
        raise ValueError("PCA needs at least 1 series")
    if np.isnan(X).any():
        raise ValueError("panel has unavailable cells; align and trim it first")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    trace = _checked_trace(cov)
    loadings, eigenvalue = _top_eigenvector(cov)
    scores = centered @ loadings
    return PcaResult(
        loadings=loadings,
        scores=scores,
        explained_variance_ratio=min(max(eigenvalue / trace, 0.0), 1.0),
    )


def _reference_sign(loadings: np.ndarray, reference_column: int) -> float:
    """+1 or -1: the factor that makes the reference loading positive."""
    loading = loadings[reference_column]
    if abs(loading) < 1e-12:
        raise ZeroReferenceLoadingError(
            f"reference column {reference_column} has a zero loading"
        )
    return 1.0 if loading > 0 else -1.0


def sign_normalize(result: PcaResult, reference_column: int) -> PcaResult:
    """Flip the component, if needed, so the reference loading is positive."""
    if _reference_sign(result.loadings, reference_column) > 0:
        return result
    return replace(result, loadings=-result.loadings, scores=-result.scores)


def expanding_pca_index(
    panel: Panel,
    kind: IndexKind | str,
    min_window_months: int = 60,
    reference_series: str | None = None,
    resume: IndexState | None = None,
) -> CompositeIndex:
    """Composite index re-estimating the first PC each month.

    The value at month t is the last score of a PCA fitted on all panel rows
    through t, so the index is causal: appending later months never changes
    an already-emitted value. Nothing is emitted before ``min_window_months``
    rows have accumulated.

    The fit is updated rather than redone: the running mean ``mu`` and the
    centred scatter ``M`` (so that the covariance is ``M / t``) are seeded
    exactly from the first ``min_window_months`` rows, then each row x
    updates them by rank one, ``M += (x - mu_old)(x - mu_new)^T``, and the
    solve warm-starts from the previous month's signed eigenvector
    (:func:`_warm_top_eigenvector`); the first month starts cold.

    ``resume``, the ``state`` of an earlier result, continues from its last
    month instead of from the seed. It must describe this panel
    (:meth:`IndexState.describes`), else ``ValueError``; the loop is purely
    sequential in its state, so the result is bit-identical to a full build.
    """
    kind = IndexKind(kind) if not isinstance(kind, IndexKind) else kind
    if min_window_months < 2:
        raise ValueError("min_window_months must be >= 2")
    values = panel.values
    if np.isnan(values).any():
        raise ValueError("panel has unavailable cells; call Panel.complete() first")
    n = values.shape[0]
    if n < min_window_months:
        raise PanelTooShortError(
            f"panel has {n} months, expanding index needs >= {min_window_months}"
        )
    if panel.n_series == 0:
        raise DegenerateCovarianceError("panel has no series")
    if reference_series is None:
        reference_series = panel.series_ids[0]
    try:
        ref_col = panel.series_ids.index(reference_series)
    except ValueError:
        raise ValueError(f"reference series {reference_series!r} not in panel") from None
    out = np.empty(n - min_window_months + 1)
    if resume is None:  # the seed state: no month emitted yet
        rows, done, v = min_window_months, 0, None
        mu = values[:rows].mean(axis=0)
        centered = values[:rows] - mu
        scatter = centered.T @ centered
    elif resume.describes(panel, reference_series, min_window_months):
        rows, done, v = resume.t, resume.values.size, resume.vector
        mu, scatter = resume.mean, resume.scatter.copy()
        out[:done] = resume.values
    else:
        raise ValueError("index state does not describe this panel")
    for t in range(min_window_months + done, n + 1):
        x = values[t - 1]
        if t > rows:
            delta = x - mu
            mu = mu + delta / t
            scatter += np.outer(delta, x - mu)
        cov = scatter / t
        _checked_trace(cov)
        v, _ = _top_eigenvector(cov) if v is None else _warm_top_eigenvector(cov, v)
        v = v * _reference_sign(v, ref_col)
        out[t - min_window_months] = (x - mu) @ v
    state = IndexState(
        key=_state_key(panel, reference_series, min_window_months, n),
        t=n,
        mean=mu,
        scatter=scatter,
        vector=v,
        values=out,
    )
    return CompositeIndex(
        kind=kind, months=panel.months[min_window_months - 1 :], values=out, state=state
    )
