"""Raw-series preprocessing: stationarity transforms, Z-scores, long-run
variance weighting, and panel alignment.

The pipeline order is fixed: stationarity transform first, then Z-score
standardization, then Newey-West long-run variance (computed on a subsampled
copy) used to rescale each series before index construction. Z-scores use the
population (divisor n) standard deviation throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Category, MonthStamp, RawSeries, Region, Transform
from .dataset import check_contiguous, set_arrays
from .errors import (
    EmptyOverlapError,
    NonPositiveForLogError,
    TooShortError,
    ZeroVarianceError,
)

__all__ = [
    "StandardizedSeries",
    "Provenance",
    "Panel",
    "AdfResult",
    "difference_transform",
    "adf_statistic",
    "schwert_lag",
    "newey_west_lag",
    "zscore",
    "newey_west_variance",
    "subsample",
    "nw_rescale",
    "ensure_stationary",
    "standardize_series",
    "align_panel",
]

# Large-sample Dickey-Fuller critical values, constant-only specification.
ADF_CRITICAL = {0.01: -3.43, 0.05: -2.86, 0.10: -2.57}
# Rounding spread of the differences of an exactly linear series: at most 4
# ulps of its level measured over random slopes and intercepts, 9.5 for
# log-differences of a geometric series.
LINEAR_SPREAD_ULPS = 16
# Differencing rounds ensure_stationary tries before it gives up.
MAX_DIFFERENCE_ROUNDS = 2


@dataclass(frozen=True)
class Provenance:
    """How a standardized series was produced."""

    transform: Transform = Transform.NONE
    zscore_mode: str = "full"
    nw_lag: int | None = None
    subsample_stride: int | None = None
    # The last ADF test ensure_stationary ran (stationarity "auto" only); not
    # stationary means it gave up after MAX_DIFFERENCE_ROUNDS.
    adf: "AdfResult | None" = None


@dataclass(frozen=True)
class StandardizedSeries:
    """Unitless standardized series, ready for panel alignment."""

    series_id: str
    region: Region
    category: Category
    months: np.ndarray
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        set_arrays(self, months=np.int64, values=float)

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    is_stationary: bool
    lag: int
    critical_value: float


@dataclass(frozen=True)
class Panel:
    """Rectangular months-by-series matrix with per-column availability.

    ``values[i, j]`` is NaN before column j's first observation; from that
    month on, unobserved months are forward-filled (fill counts per column in
    ``fills``). Rows cover contiguous months; a gap is a data error.
    """

    months: np.ndarray
    series_ids: tuple[str, ...]
    categories: tuple[Category, ...]
    values: np.ndarray
    fills: tuple[int, ...]
    region: Region | None = None

    def __post_init__(self):
        set_arrays(self, months=np.int64)
        check_contiguous(self.months, "panel")

    @property
    def n_months(self) -> int:
        return len(self.months)

    @property
    def n_series(self) -> int:
        return len(self.series_ids)

    def complete(self) -> "Panel":
        """Sub-panel trimmed from the first row where every column is available."""
        complete_rows = np.flatnonzero(~np.isnan(self.values).any(axis=1))
        if complete_rows.size == 0:
            raise EmptyOverlapError("no month has all series available")
        start = complete_rows[0]
        return replace(self, months=self.months[start:], values=self.values[start:].copy())

    def select_categories(self, keep: Iterable[Category]) -> "Panel":
        keep = set(keep)
        cols = [j for j, c in enumerate(self.categories) if c in keep]
        return replace(
            self,
            series_ids=tuple(self.series_ids[j] for j in cols),
            categories=tuple(self.categories[j] for j in cols),
            values=self.values[:, cols].copy(),
            fills=tuple(self.fills[j] for j in cols),
        )


def difference_transform(series: RawSeries, kind: Transform | str) -> RawSeries:
    """First difference (or log difference) of a raw series.

    Output is one observation shorter; ``transform_applied`` records the kind.
    """
    kind = Transform(kind) if not isinstance(kind, Transform) else kind
    if kind not in (Transform.DIFF, Transform.LOG_DIFF):
        raise ValueError(f"unsupported transform {kind}")
    if len(series) < 2:
        raise TooShortError(f"series {series.series_id!r} needs >= 2 observations to difference")
    x = np.asarray(series.values, dtype=float)
    if kind is Transform.LOG_DIFF:
        if np.any(x <= 0):
            raise NonPositiveForLogError(
                f"series {series.series_id!r} has non-positive values, cannot log-difference"
            )
        y = np.diff(np.log(x))
    else:
        y = np.diff(x)
    return replace(series, months=series.months[1:], values=y, transform_applied=kind)


def _difference_nonlinear(series: RawSeries, kind: Transform) -> RawSeries:
    """:func:`difference_transform` for the pipeline, which refuses a linear series.

    Each difference is exact only to about an ulp of the level it is taken
    from, so steps whose spread lies within ``LINEAR_SPREAD_ULPS`` ulps of the
    largest level are rounding noise around a constant. The series is then
    linear (log-linear for ``log_diff``) up to rounding, and standardizing
    that noise would scale it to unit variance, so it raises
    :class:`ZeroVarianceError` instead.
    """
    out = difference_transform(series, kind)
    level = np.asarray(series.values, dtype=float)
    level = np.log(level) if kind is Transform.LOG_DIFF else level
    if np.ptp(out.values) <= LINEAR_SPREAD_ULPS * np.spacing(np.abs(level).max()):
        raise ZeroVarianceError(
            f"series {series.series_id!r}: its {kind.value} steps are equal up to rounding "
            "(a constant or linear series)"
        )
    return out


def schwert_lag(n: int) -> int:
    """Schwert rule-of-thumb ADF lag: floor(12 * (n/100)^(1/4))."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def newey_west_lag(n: int) -> int:
    """Standard Newey-West truncation lag: floor(4 * (n/100)^(2/9))."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def adf_statistic(
    series: RawSeries | Sequence[float],
    max_lag: int | None = None,
    alpha: float = 0.05,
) -> AdfResult:
    """Augmented Dickey-Fuller t-statistic, constant-only specification.

    Regresses the first difference on a constant, the lagged level, and
    ``max_lag`` lagged differences; the unit root is rejected (series deemed
    stationary) when the t-ratio on the lagged level falls below the
    large-sample critical value for ``alpha``.

    The regression is centred: subtracting each regressor's mean sweeps out
    the constant and leaves the t-ratio on the lagged level unchanged
    (Frisch-Waugh-Lovell), so the statistic does not depend on the series'
    level. One ``np.linalg.solve`` of the centred normal equations gives both
    the coefficients and the lagged level's diagonal entry of their inverse.
    A singular system, as from a constant or exactly linear series, raises
    :class:`ZeroVarianceError` naming the series.
    """
    name = f"series {series.series_id!r}" if isinstance(series, RawSeries) else "series"
    values = np.asarray(series.values if isinstance(series, RawSeries) else series, dtype=float)
    n = values.size
    lag = schwert_lag(n) if max_lag is None else int(max_lag)
    if lag < 0:
        raise ValueError("max_lag must be >= 0")
    if alpha not in ADF_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(ADF_CRITICAL)}")
    if n < lag + 10:
        raise TooShortError(f"need >= {lag + 10} observations for ADF with lag {lag}, got {n}")

    dy = np.diff(values)
    # Observations t = lag .. n-2 of dy. The regressors are the rows of X (one
    # contiguous row each): y_{t-1}, then dy_{t-lag} .. dy_{t-1}.
    rows = dy[lag:]
    X = np.empty((lag + 1, rows.size))
    X[0] = values[lag:-1]
    X[1:] = sliding_window_view(dy, rows.size)[:lag]
    X -= X.mean(axis=1, keepdims=True)
    y = rows - rows.mean()
    dof = rows.size - (lag + 2)
    if dof <= 0:
        raise TooShortError("not enough observations for ADF degrees of freedom")
    rhs = np.zeros((lag + 1, 2))
    rhs[:, 0] = X @ y
    rhs[0, 1] = 1.0
    try:
        solution = np.linalg.solve(X @ X.T, rhs)
    except np.linalg.LinAlgError:
        raise ZeroVarianceError(f"{name}: singular ADF regression (constant or linear?)") from None
    resid = y - solution[:, 0] @ X
    var_rho = float(resid @ resid) / dof * solution[0, 1]
    if not var_rho > 0.0:
        raise ZeroVarianceError(f"{name}: degenerate ADF regression")
    stat = float(solution[0, 0] / math.sqrt(var_rho))
    crit = ADF_CRITICAL[alpha]
    return AdfResult(statistic=stat, is_stationary=stat < crit, lag=lag, critical_value=crit)


def zscore(
    series: RawSeries,
    mode: str = "full",
    min_window: int = 12,
) -> StandardizedSeries:
    """Standardize a series to zero mean and unit population variance.

    ``mode="full"`` uses whole-sample moments. ``mode="expanding"`` uses only
    observations up to each month, emitting values once ``min_window`` points
    have accumulated, so no future data leaks into any z-score.

    Expanding moments are running moments, computed for all months at once
    in O(n): the mean of ``x - x[0]`` from a cumulative sum (shifting by the
    first observation keeps the result causal and avoids cancellation on
    series with a large level), and the sum of squared deviations as the
    cumulative sum of Welford's non-negative increments
    ``(x_t - m_{t-1})(x_t - m_t)``. They agree with the per-month definition
    ``(x_t - x[:t+1].mean()) / x[:t+1].std()`` to about 1e-12 on unit-scale
    series. A series (``full``) or first window (``expanding``) whose values
    are all equal raises :class:`ZeroVarianceError`.
    """
    if mode not in ("full", "expanding"):
        raise ValueError(f"zscore mode must be 'full' or 'expanding', got {mode!r}")
    x = np.asarray(series.values, dtype=float)
    if x.size < 2:
        raise TooShortError(f"series {series.series_id!r} needs >= 2 observations to standardize")
    if mode == "full":
        std = float(x.std())
        if std == 0.0 or np.all(x == x[0]):
            raise ZeroVarianceError(f"series {series.series_id!r} is constant")
        z = (x - x.mean()) / std
        months = series.months
    else:
        if min_window < 2:
            raise ValueError("min_window must be >= 2")
        if x.size < min_window:
            raise TooShortError(
                f"series {series.series_id!r} shorter than expanding min_window {min_window}"
            )
        shifted = x - x[0]
        count = np.arange(1, x.size + 1)
        mean = np.cumsum(shifted) / count
        increments = np.empty_like(shifted)
        increments[0] = 0.0
        increments[1:] = (shifted[1:] - mean[:-1]) * (shifted[1:] - mean[1:])
        np.maximum(increments, 0.0, out=increments)  # rounding only; exact values are >= 0
        std = np.sqrt(np.cumsum(increments)[min_window - 1 :] / count[min_window - 1 :])
        if np.all(x[:min_window] == x[0]) or std[0] == 0.0:
            raise ZeroVarianceError(
                f"series {series.series_id!r} constant through "
                f"{MonthStamp.from_ordinal(series.months[min_window - 1])}"
            )
        z = (shifted[min_window - 1 :] - mean[min_window - 1 :]) / std
        months = series.months[min_window - 1 :]
    return StandardizedSeries(
        series_id=series.series_id,
        region=series.region,
        category=series.category,
        months=months,
        values=z,
        provenance=Provenance(transform=series.transform_applied, zscore_mode=mode),
    )


def newey_west_variance(values: Sequence[float] | np.ndarray, lag: int) -> float:
    """Bartlett-kernel long-run variance estimate.

    gamma_0 + 2 * sum_{k=1..lag} (1 - k/(lag+1)) * gamma_k, with gamma_k the
    lag-k autocovariance using divisor n. Non-negative by construction of the
    Bartlett weights. At lag 0 this reduces to the population variance.
    """
    if lag < 0:
        raise ValueError("lag must be >= 0")
    x = np.asarray(values, dtype=float)
    n = x.size
    if n <= lag:
        raise TooShortError(f"need more than lag={lag} observations, got {n}")
    xc = x - x.mean()
    total = float(xc @ xc) / n
    for k in range(1, lag + 1):
        gamma_k = float(xc[k:] @ xc[:-k]) / n
        total += 2.0 * (1.0 - k / (lag + 1.0)) * gamma_k
    return total


def subsample(values: Sequence[float], stride: int) -> list[float]:
    """Keep indices 0, stride, 2*stride, ..."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return list(values[::stride])


def nw_rescale(
    series: StandardizedSeries,
    lag: int | None = None,
    stride: int = 3,
) -> StandardizedSeries:
    """Rescale a standardized series by its long-run standard deviation.

    The Newey-West variance is estimated on a subsampled copy (default stride
    3, quarterly thinning of monthly data) and each value is divided by its
    square root, downweighting strongly autocorrelated series before PCA.
    The estimator-to-weight mapping is one defensible choice among several;
    both the lag and the stride are config-exposed.
    """
    thinned = subsample(series.values, stride)
    eff_lag = newey_west_lag(len(thinned)) if lag is None else int(lag)
    eff_lag = min(eff_lag, len(thinned) - 1)
    sigma2 = newey_west_variance(thinned, eff_lag)
    if sigma2 <= 0.0:
        raise ZeroVarianceError(f"series {series.series_id!r} has zero long-run variance")
    weight = 1.0 / math.sqrt(sigma2)
    return replace(
        series,
        values=series.values * weight,
        provenance=replace(series.provenance, nw_lag=eff_lag, subsample_stride=stride),
    )


def ensure_stationary(
    series: RawSeries,
    alpha: float = 0.05,
    max_lag: int | None = None,
) -> tuple[RawSeries, AdfResult]:
    """Difference a series until the ADF test rejects a unit root.

    Log differences are used when the level series is strictly positive,
    plain differences otherwise. Gives up after ``MAX_DIFFERENCE_ROUNDS``
    transforms and returns the last attempt together with its test result. A
    series whose steps are equal up to rounding raises
    :class:`ZeroVarianceError`.
    """
    current = series
    result = adf_statistic(current, max_lag=max_lag, alpha=alpha)
    rounds = 0
    while not result.is_stationary and rounds < MAX_DIFFERENCE_ROUNDS:
        kind = Transform.LOG_DIFF if np.all(current.values > 0) else Transform.DIFF
        current = _difference_nonlinear(current, kind)
        result = adf_statistic(current, max_lag=max_lag, alpha=alpha)
        rounds += 1
    return current, result


def standardize_series(
    series: RawSeries,
    stationarity: str = "auto",
    zscore_mode: str = "expanding",
    min_window: int = 12,
    nw_lag: int | None = None,
    subsample_stride: int = 3,
    adf_alpha: float = 0.05,
    adf_max_lag: int | None = None,
) -> StandardizedSeries:
    """Full per-series pipeline: stationarity, Z-score, Newey-West weighting.

    ``stationarity`` is ``"auto"`` (ADF-tested, differenced when needed),
    ``"none"``, ``"diff"`` or ``"log_diff"``. Differencing a series that is
    linear up to rounding raises :class:`ZeroVarianceError`.
    """
    adf = None
    if stationarity == "auto":
        series, adf = ensure_stationary(series, alpha=adf_alpha, max_lag=adf_max_lag)
    elif stationarity in ("diff", "log_diff"):
        series = _difference_nonlinear(series, Transform(stationarity))
    elif stationarity != "none":
        raise ValueError(f"unknown stationarity mode {stationarity!r}")
    standardized = zscore(series, mode=zscore_mode, min_window=min_window)
    standardized = nw_rescale(standardized, lag=nw_lag, stride=subsample_stride)
    if adf is not None:
        standardized = replace(standardized, provenance=replace(standardized.provenance, adf=adf))
    return standardized


def align_panel(
    series: Sequence[StandardizedSeries],
    start: int,
    end: int,
) -> Panel:
    """Align series onto a contiguous monthly grid over the ordinals [start, end].

    Interior and trailing gaps are forward-filled from the most recent prior
    observation (never back-filled); months before a series' first observation
    stay NaN, marking the column unavailable there. Each series' months must
    be strictly increasing, as every :class:`RawSeries` is.
    """
    if not series:
        raise EmptyOverlapError("no series to align")
    if end < start:
        raise ValueError("end month before start month")
    n_months = end - start + 1
    values = np.full((n_months, len(series)), np.nan)
    fills = []
    regions = {s.region for s in series}
    for j, s in enumerate(series):
        pos = s.months - start
        inside = np.nonzero((pos >= 0) & (pos < n_months))[0]
        if inside.size == 0:
            raise EmptyOverlapError(
                f"series {s.series_id!r} has no observation in "
                f"{MonthStamp.from_ordinal(start)}..{MonthStamp.from_ordinal(end)}"
            )
        # source[i]: index into s.values of the observation at grid month i, or -1.
        source = np.full(n_months, -1)
        source[pos[inside]] = inside
        observed = source >= 0
        # Seed the carry-forward value from the last observation before the range.
        source[0] = max(source[0], inside[0] - 1)
        source = np.maximum.accumulate(source)
        available = source >= 0
        values[available, j] = s.values[source[available]]
        fills.append(int(np.count_nonzero(available & ~observed)))
    return Panel(
        months=np.arange(start, end + 1, dtype=np.int64),
        series_ids=tuple(s.series_id for s in series),
        categories=tuple(s.category for s in series),
        values=values,
        fills=tuple(fills),
        region=regions.pop() if len(regions) == 1 else None,
    )
