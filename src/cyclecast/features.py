"""Trend features: per-series OLS slopes over a trailing window, aligned to
next-month phase labels.

Each feature row for month t holds, per included series, the slope of a
least-squares line through that series' values at months t-window+1..t, so a
row depends only on data available at month t. Commodity and stock-index
categories are excluded by default; they showed no useful correlation with
the phase task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import Category, LabeledDataset, month_row, next_month_labels, set_arrays
from .errors import (
    EmptyAfterFilterError,
    EmptyOverlapError,
    PanelTooShortError,
    TooShortError,
    ZeroVarianceError,
)
from .preprocess import Panel

__all__ = [
    "FeatureMatrix",
    "FeatureScaler",
    "DEFAULT_EXCLUDED_CATEGORIES",
    "ols_slope",
    "build_feature_matrix",
    "forecast_alignment",
]

DEFAULT_EXCLUDED_CATEGORIES = frozenset({Category.COMMODITY, Category.STOCK_INDEX})


@dataclass(frozen=True)
class FeatureMatrix:
    """Months-by-series slope matrix; every row has full window coverage."""

    months: np.ndarray
    feature_names: tuple[str, ...]
    values: np.ndarray
    window: int

    def __post_init__(self):
        set_arrays(self, months=np.int64)

    @property
    def n_rows(self) -> int:
        return len(self.months)

    def row_at(self, month: int) -> np.ndarray:
        return self.values[month_row(self.months, month)]


@dataclass(frozen=True)
class FeatureScaler:
    """Column-wise Z-scaler fitted on training rows only, to avoid leakage."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaler":
        X = np.asarray(X, dtype=float)
        if X.shape[0] < 2:
            raise TooShortError("need >= 2 rows to fit a feature scaler")
        std = X.std(axis=0)
        if np.any(std == 0.0):
            raise ZeroVarianceError("constant feature column; cannot scale")
        return cls(mean=X.mean(axis=0), std=std)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def ols_slope(values: Sequence[float] | np.ndarray) -> float:
    """Slope of the least-squares line through (0, y0), (1, y1), ..."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 2:
        raise TooShortError(f"slope needs >= 2 values, got {n}")
    x = np.arange(n, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def _window_slopes(column: np.ndarray, window: int) -> np.ndarray:
    """Slopes of every trailing window, vectorized via the closed form."""
    n = column.size
    xc = np.arange(window, dtype=float) - (window - 1) / 2.0
    sxx = float(xc @ xc)
    strides = np.lib.stride_tricks.sliding_window_view(column, window)
    return (strides @ xc) / sxx  # centering y cancels against centered x


def build_feature_matrix(
    panel: Panel,
    window: int,
    include: Iterable[Category] | None = None,
    sign_only: bool = False,
) -> FeatureMatrix:
    """Per-series trailing-window slopes for every month with full history.

    ``include`` selects categories to keep (default: everything except
    commodities and stock indices). Rows are dropped while any included
    column still lacks a complete window, so the matrix never contains NaN.
    ``sign_only`` replaces each slope with its sign, the stricter
    direction-only reading of the trend features.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if include is None:
        keep = [c for c in Category if c not in DEFAULT_EXCLUDED_CATEGORIES]
    else:
        keep = list(include)
    filtered = panel.select_categories(keep)
    if filtered.n_series == 0:
        raise EmptyAfterFilterError("category filter removed every series")
    if filtered.n_months < window:
        raise PanelTooShortError(
            f"panel has {filtered.n_months} months, window {window} requires at least that many"
        )
    # A window is usable once every column has real (non-NaN) data covering it.
    available = ~np.isnan(filtered.values)
    full_window = np.all(
        np.lib.stride_tricks.sliding_window_view(available, window, axis=0), axis=(1, 2)
    )
    if not full_window.any():
        raise PanelTooShortError("no month has a complete window across all series")

    slopes_all = np.column_stack(
        [
            _window_slopes(np.nan_to_num(filtered.values[:, j], nan=0.0), window)
            for j in range(filtered.n_series)
        ]
    )
    slopes = slopes_all[full_window]
    months = filtered.months[np.flatnonzero(full_window) + window - 1]
    if sign_only:
        slopes = np.sign(slopes)
    return FeatureMatrix(
        months=months,
        feature_names=filtered.series_ids,
        values=slopes,
        window=window,
    )


def forecast_alignment(
    features: FeatureMatrix,
    labels: LabeledDataset,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair the feature row at month t with the phase label at month t+1.

    Returns (X, y, feature_months): y holds integer phase codes and
    feature_months the ordinals the rows were computed at (the forecasts
    target the following month). Feature months without a next-month label
    drop out.
    """
    codes = next_month_labels(labels, features.months)
    kept = np.flatnonzero(codes)
    if kept.size == 0:
        raise EmptyOverlapError("feature months and next-month labels do not overlap")
    return features.values[kept], codes[kept], features.months[kept]
