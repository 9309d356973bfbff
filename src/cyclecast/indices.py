"""Composite growth/inflation indices: first principal component of a
standardized panel, re-estimated on an expanding window.

A cold start (:func:`pca_first_component`, and the first month of an
expanding index) takes the top eigenpair of the sample covariance matrix
from LAPACK's symmetric eigensolver (``np.linalg.eigh``); one that does not
converge is a :class:`DegenerateCovarianceError`. PCA leaves the component
sign ambiguous, so loadings are normalized against a designated reference
column.

The expanding index is incremental: it keeps a running mean and a centred
scatter matrix and updates both by rank one as each month arrives. Two
solvers then find each month's top eigenvector, chosen by the number of
series d:

- ``d <= EIGH_BATCH_MAX_SERIES``: every month's covariance goes into one
  ``(months, d, d)`` stack, solved by a single batched ``eigh`` call. A
  month's vector depends only on its own covariance.
- wider panels warm-start each month from the previous month's signed
  eigenvector. A warm month takes ``max(1, d // 3)`` power steps (about the
  cost of one factorisation) and keeps the vector once a step moves it by
  less than the tolerance 1e-12. Power iteration converges at the rate
  lambda2/lambda1, so a month with close top eigenvalues misses that budget,
  and a start in the nullspace never meets it; such a month is solved by
  ``eigh`` as a cold start is.

The crossover is measured, not a setting. Microseconds per emitted month of
a 600-month panel (541 months, best of 15 builds, one OpenBLAS thread on a
2-vCPU VM, numpy 2.4): a wide eigengap is one factor plus noise, a weak one
differenced random walks with a faint common factor.

======  ==============  ==============  ===============
d       warm, wide gap  warm, weak gap  batched ``eigh``
======  ==============  ==============  ===============
10      66              64              13-14
15      71              85              25-27
20      57              110             45-49
25      59              145             72-78
30      61              177             88-89
======  ==============  ==============  ===============

The batched path wins on both panels up to d = 20, the constant; from
d = 25 the warm path wins on a wide gap. Either way the emitted values
agree with a per-month ``eigh`` fit of ``values[:t]`` to about 1e-10.

Each month depends only on the running state ``(mean, scatter, vector)``
left by the month before (on the batched path, only on the mean and
scatter), so an index can stop and resume: the result
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

from .dataset import check_contiguous, month_row, prefix_sha256, set_arrays
from .errors import (
    DegenerateCovarianceError,
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
INDEX_STATE_SCHEMA = 3  # bump when the meaning of an IndexState changes
EIGH_BATCH_MAX_SERIES = 20  # the measured crossover in the module docstring


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


def _top_eigenpair(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dominant eigenpair of a symmetric matrix, or of each matrix of a
    stack, by LAPACK's ``eigh``.

    An ``eigh`` that does not converge raises
    :class:`DegenerateCovarianceError` rather than returning anything.
    """
    try:
        values, vectors = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(f"eigh did not converge: {exc}") from None
    return vectors[..., -1], values[..., -1]


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


def _eigh_months(
    values: np.ndarray,
    first: int,
    min_window_months: int,
    mu: np.ndarray,
    scatter: np.ndarray,
    ref_col: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Months ``first`` to n of an expanding index from month ``first - 1``'s
    running ``mu`` and ``scatter`` (the seed's, when ``first`` is
    ``min_window_months``), solved by one batched ``eigh``.

    The running mean takes the month-by-month recurrence and ``np.cumsum``
    adds the rank-one terms in the order a month-by-month loop does, so the
    moments keep their bits. Returns the months' values and the last month's
    mean, scatter and signed eigenvector.
    """
    X = values[first - 1 :]
    t = np.arange(first, values.shape[0] + 1)
    means = np.empty((t.size + 1, X.shape[1]))  # row i: the mean before month first + i
    means[0] = mu
    for i, month in enumerate(t.tolist()):
        if month > min_window_months:  # the seed already holds the first window's rows
            mu = mu + (X[i] - mu) / month
        means[i + 1] = mu
    centred = X - means[1:]
    stack = (X - means[:-1])[:, :, None] * centred[:, None, :]
    if first == min_window_months:  # the seed month adds no rank-one term
        stack[0] = scatter
    else:
        stack[0] += scatter
    np.cumsum(stack, axis=0, out=stack)
    scatter = stack[-1].copy()
    stack /= t[:, None, None]
    # the checks of _checked_trace and _reference_sign on every month at once;
    # those two stay scalar, where the warm loop calls them once a month
    if (np.trace(stack, axis1=1, axis2=2) <= 0.0).any():
        raise DegenerateCovarianceError("panel carries no variance")
    vectors, _ = _top_eigenpair(stack)
    reference = vectors[:, ref_col]
    if (np.abs(reference) < 1e-12).any():
        raise ZeroReferenceLoadingError(f"reference column {ref_col} has a zero loading")
    vectors = vectors * np.where(reference > 0, 1.0, -1.0)[:, None]
    return (centred * vectors).sum(axis=1), mu, scatter, vectors[-1]


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
    updates them by rank one, ``M += (x - mu_old)(x - mu_new)^T``. A panel
    of at most ``EIGH_BATCH_MAX_SERIES`` series solves every month's
    covariance in one batched ``eigh`` (:func:`_eigh_months`); a wider one
    warm-starts each month from the previous month's signed eigenvector
    (:func:`_warm_top_eigenvector`), and its first month starts cold.

    ``resume``, the ``state`` of an earlier result, continues from its last
    month instead of from the seed. It must describe this panel
    (:meth:`IndexState.describes`), else ``ValueError``. Each month depends
    only on the moments the state holds exactly (and, on the warm path, on
    the previous month's vector), so the result is bit-identical to a full
    build.
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
    first = min_window_months + done
    if panel.n_series > EIGH_BATCH_MAX_SERIES:
        for t in range(first, n + 1):
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
    elif first <= n:
        out[done:], mu, scatter, v = _eigh_months(values, first, min_window_months, mu, scatter, ref_col)
    key = _state_key(panel, reference_series, min_window_months, n)
    state = IndexState(key=key, mean=mu, scatter=scatter, vector=v, values=out)
    return CompositeIndex(
        kind=kind, months=panel.months[min_window_months - 1 :], values=out, state=state
    )
