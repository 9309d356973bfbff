"""Trend features: per-series OLS slopes over a trailing window, aligned to
next-month phase labels.

Each feature row for month t holds, per included series, the slope of a
least-squares line through that series' values at months t-window+1..t, so a
row depends only on data available at month t. Commodity and stock-index
categories are excluded; they showed no useful correlation with the phase
task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    "window_slopes",
    "build_feature_matrix",
    "feature_months",
    "forecast_alignment",
]

DEFAULT_EXCLUDED_CATEGORIES = frozenset({Category.COMMODITY, Category.STOCK_INDEX})
# Windows window_slopes copies out at a time, which bounds its memory on a wide panel.
SLOPE_BLOCK = 1 << 10


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


def window_slopes(values: Sequence[float] | np.ndarray, window: int, ends=None) -> np.ndarray:
    """Least-squares slope of trailing ``window``s of ``values`` against the
    abscissae 0..window-1.

    Of the windows ending at the rows ``ends`` (default: every window) of each
    column of a 1-D or 2-D ``values``: entry i fits
    values[ends[i]-window+1 : ends[i]+1], shape ``(len(ends), *values.shape[1:])``.

    Each window is copied out C-contiguously, at most :data:`SLOPE_BLOCK` at
    a time, then centred on its own mean and summed along its own cells, never
    in a BLAS product or a strided copy, so a window gets the same bits alone,
    gathered with others or inside a longer array; a constant window gives 0.0.
    """
    y = np.asarray(values, dtype=float)
    if window < 2 or len(y) < window:
        raise TooShortError(f"slope needs a window >= 2 within the {len(y)} values, got {window}")
    ends = np.arange(window - 1, len(y)) if ends is None else np.asarray(ends, dtype=np.int64)
    if ends.size and not (ends.min() >= window - 1 and ends.max() < len(y)):
        raise IndexError(f"a window of {window} must end in rows {window - 1}..{len(y) - 1}")
    view = np.lib.stride_tricks.sliding_window_view(y, window, axis=0)  # (rows, columns..., window)
    xc = np.arange(window, dtype=float) - (window - 1) / 2.0
    slopes = np.empty((ends.size, *y.shape[1:]))
    step = max(1, SLOPE_BLOCK // (y[0].size or 1))
    for lo in range(0, ends.size, step):
        windows = np.ascontiguousarray(view[ends[lo : lo + step] - (window - 1)])
        windows -= windows.mean(axis=-1, keepdims=True)
        windows *= xc
        slopes[lo : lo + step] = windows.sum(axis=-1) / (xc * xc).sum()
    return slopes


def _feature_layout(panel: Panel, window: int) -> tuple[Panel, np.ndarray]:
    """The columns of ``panel`` the features keep, and the rows where a window
    complete in every one of them ends, one per feature month."""
    if window < 2:
        raise ValueError("window must be >= 2")
    filtered = panel.select_categories([c for c in Category if c not in DEFAULT_EXCLUDED_CATEGORIES])
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
    return filtered, np.flatnonzero(full_window) + window - 1


def feature_months(panel: Panel, window: int) -> tuple[tuple[str, ...], np.ndarray]:
    """(feature names, feature months) of :func:`build_feature_matrix`, without its rows."""
    filtered, ends = _feature_layout(panel, window)
    return filtered.series_ids, filtered.months[ends]


def build_feature_matrix(
    panel: Panel,
    window: int,
    sign_only: bool = False,
    months: np.ndarray | None = None,
) -> FeatureMatrix:
    """Per-series trailing-window slopes for every month with full history.

    Every category but :data:`DEFAULT_EXCLUDED_CATEGORIES` is kept. Rows are
    dropped while any kept column still lacks a complete window, so the
    matrix never contains NaN. ``sign_only`` replaces each slope with its
    sign, the stricter direction-only reading of the trend features.

    ``months`` (ordinals) asks for those feature months only, in that order,
    each row bit-identical to the same row of the full matrix; the first
    without a complete window raises KeyError naming it. Either way the rows
    come from one :func:`window_slopes` call.
    """
    filtered, ends = _feature_layout(panel, window)
    if months is not None:
        ends = ends[month_row(filtered.months[ends], months)]
    slopes = window_slopes(filtered.values, window, ends)
    if sign_only:
        slopes = np.sign(slopes)
    return FeatureMatrix(
        months=filtered.months[ends],
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
