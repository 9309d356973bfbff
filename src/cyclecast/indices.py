"""Composite growth/inflation indices: first principal component of a
standardized panel, re-estimated on an expanding window.

A cold start (:func:`pca_first_component`, and the first month of an
expanding index) takes the top eigenpair of the sample covariance matrix
from LAPACK's symmetric eigensolver (``np.linalg.eigh``); one that does not
converge is a :class:`DegenerateCovarianceError`. PCA leaves the component
sign ambiguous, so loadings are normalized against a designated reference
column.

The expanding index is incremental: it keeps a running mean and a centred
scatter matrix, updates both by rank one as each month arrives, and
warm-starts from the previous month's signed eigenvector. A warm month takes
``max(1, d // 3)`` power steps for d series (about the cost of one
factorisation) and keeps the vector once a step moves it by less than the
tolerance 1e-12. Power iteration converges at the rate lambda2/lambda1, so a
month with close top eigenvalues misses that budget, and a start in the
nullspace never meets it; such a month is solved by ``eigh`` as a cold start
is. The emitted values agree with a per-month ``eigh`` fit of
``values[:t]`` to about 1e-10.

Each month depends only on the running state ``(mean, scatter, vector)``
left by the month before, so an index can stop and resume: the result
carries an :class:`IndexState`, and a later call on a longer panel resumes
from it bit for bit. A state resumes only a panel whose consumed rows,
series, reference series, minimum window and state schema version hash to
the state's SHA-256 key; a full build is a resume from the seed state of the
first ``min_window_months`` rows. ``build-indices`` keeps each index's state
in its table's digest record, beside the values it shares with the table.
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
INDEX_STATE_SCHEMA = 2  # bump when the meaning of an IndexState changes


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
    """Where an expanding index stopped: its values so far and, after the
    ``t = values.size + min_window_months - 1`` panel rows they consumed, their
    running mean and centred scatter and month t's signed eigenvector. ``key``
    is the :func:`_state_key` of the panel it was built from."""

    key: str
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
        if not (type(self.key) is str and shaped and all(np.isfinite(a).all() for a in arrays)):
            raise ValueError("index state key is not a str, or its arrays are misshapen or non-finite")

    def describes(self, panel: Panel, reference_series: str, min_window_months: int) -> bool:
        """Whether this state is the one a build of ``panel`` reaches after ``t`` rows."""
        t = self.values.size + min_window_months - 1
        fits = t <= panel.n_months and self.mean.size == panel.n_series
        return fits and self.key == _state_key(panel, reference_series, min_window_months, t)


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


def _top_eigenpair(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """The dominant eigenpair of a symmetric matrix by LAPACK's ``eigh``.

    An ``eigh`` that does not converge raises
    :class:`DegenerateCovarianceError` rather than returning anything.
    """
    try:
        values, vectors = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(f"eigh did not converge: {exc}") from None
    return vectors[:, -1], float(values[-1])


def _warm_top_eigenvector(cov: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, float]:
    """The dominant eigenpair of a PSD matrix from a nearby ``start``: about
    ``d / 3`` power steps (the cost of one factorisation) when they meet the
    tolerance, else :func:`_top_eigenpair`."""
    v, residual = _power_iterate(cov, start / np.linalg.norm(start), max(1, cov.shape[0] // 3))
    if residual is None or residual >= POWER_ITERATION_TOL:
        return _top_eigenpair(cov)
    return v, float(v @ cov @ v)


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
    loadings, eigenvalue = _top_eigenpair(cov)
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
        done, v = 0, None
        mu = values[:min_window_months].mean(axis=0)
        centered = values[:min_window_months] - mu
        scatter = centered.T @ centered
    elif resume.describes(panel, reference_series, min_window_months):
        done, v = resume.values.size, resume.vector
        mu, scatter = resume.mean, resume.scatter.copy()
        out[:done] = resume.values
    else:
        raise ValueError("index state does not describe this panel")
    for t in range(min_window_months + done, n + 1):
        x = values[t - 1]
        if t > min_window_months:  # the seed already holds the first window's rows
            delta = x - mu
            mu = mu + delta / t
            scatter += np.outer(delta, x - mu)
        cov = scatter / t
        _checked_trace(cov)
        v, _ = _top_eigenpair(cov) if v is None else _warm_top_eigenvector(cov, v)
        v = v * _reference_sign(v, ref_col)
        out[t - min_window_months] = (x - mu) @ v
    key = _state_key(panel, reference_series, min_window_months, n)
    state = IndexState(key=key, mean=mu, scatter=scatter, vector=v, values=out)
    return CompositeIndex(
        kind=kind, months=panel.months[min_window_months - 1 :], values=out, state=state
    )
