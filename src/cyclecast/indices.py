"""Composite growth/inflation indices: first principal component of a
standardized panel, re-estimated on an expanding window.

The eigenvector is found by power iteration on the sample covariance matrix
(tolerance 1e-12, at most 10000 iterations per start) — dependency-free and
adequate for panels of up to a few hundred series. A start that does not meet
the tolerance within the budget raises :class:`PowerIterationError`. PCA leaves
the component sign ambiguous, so loadings are normalized against a designated
reference column.

The expanding index is incremental: it keeps a running mean and a centred
scatter matrix, updates both by rank one as each month arrives, and
warm-starts power iteration from the previous month's signed eigenvector. A
month costs O(d^2) plus its power-iteration steps (O(d^2) each) for d series,
instead of re-centring every earlier month. The emitted values agree with a
cold per-month fit of ``values[:t]`` to about 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dataset import MonthStamp, Region, check_contiguous, month_row, set_arrays
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
    "pca_first_component",
    "sign_normalize",
    "expanding_pca_index",
]

POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_MAX_STEPS = 10_000


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


@dataclass(frozen=True)
class CompositeIndex:
    """Monthly composite index emitted once the expanding window is filled; contiguous months."""

    kind: IndexKind
    months: np.ndarray
    values: np.ndarray
    min_window_months: int
    region: Region | None = None

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


def _top_eigenvector(cov: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Power iteration for the dominant eigenpair of a PSD matrix.

    Starts from ``start`` when given (a warm start, such as last month's
    eigenvector), then from deterministic fallbacks; a start lying in the
    nullspace is abandoned for the next one. A start that does not meet the
    tolerance within ``POWER_ITERATION_MAX_STEPS`` raises
    :class:`PowerIterationError` rather than returning its last iterate.
    """
    for v in _power_starts(cov.shape[0], start):
        v = v / np.linalg.norm(v)
        for _ in range(POWER_ITERATION_MAX_STEPS):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm <= POWER_ITERATION_TOL:
                break  # start vector is in the nullspace
            w /= norm
            if w @ v < 0:
                w = -w
            residual = np.linalg.norm(w - v)
            v = w
            if residual < POWER_ITERATION_TOL:
                return v, float(v @ cov @ v)
        else:
            raise PowerIterationError(POWER_ITERATION_MAX_STEPS, float(residual))
    raise DegenerateCovarianceError("every power-iteration start lies in the nullspace")


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
) -> CompositeIndex:
    """Composite index re-estimating the first PC each month.

    The value at month t is the last score of a PCA fitted on all panel rows
    through t, so the index is causal: appending later months never changes
    an already-emitted value. Nothing is emitted before ``min_window_months``
    rows have accumulated.

    The fit is updated rather than redone: the running mean ``mu`` and the
    centred scatter ``M`` (so that the covariance is ``M / t``) are seeded
    exactly from the first ``min_window_months`` rows, then each row x
    updates them by rank one, ``M += (x - mu_old)(x - mu_new)^T``, and power
    iteration starts from the previous month's signed eigenvector.
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
    if reference_series is None:
        ref_col = 0
    else:
        try:
            ref_col = panel.series_ids.index(reference_series)
        except ValueError:
            raise ValueError(f"reference series {reference_series!r} not in panel") from None
    mu = values[:min_window_months].mean(axis=0)
    centered = values[:min_window_months] - mu
    scatter = centered.T @ centered
    v = None
    out = np.empty(n - min_window_months + 1)
    for t in range(min_window_months, n + 1):
        x = values[t - 1]
        if t > min_window_months:
            delta = x - mu
            mu = mu + delta / t
            scatter += np.outer(delta, x - mu)
        cov = scatter / t
        _checked_trace(cov)
        v, _ = _top_eigenvector(cov, start=v)
        v = v * _reference_sign(v, ref_col)
        out[t - min_window_months] = (x - mu) @ v
    return CompositeIndex(
        kind=kind,
        months=panel.months[min_window_months - 1 :],
        values=out,
        min_window_months=min_window_months,
        region=panel.region,
    )
