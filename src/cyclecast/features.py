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
from typing import Sequence

import numpy as np

from .dataset import Category, LabeledDataset, MonthStamp, next_month_labels, prefix_sha256, set_arrays
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
    "feature_key",
    "forecast_alignment",
]

DEFAULT_EXCLUDED_CATEGORIES = frozenset({Category.COMMODITY, Category.STOCK_INDEX})
# Bumped whenever the rows build_feature_matrix computes from the same panel change.
FEATURE_KEY_SCHEMA = 1


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

    Without ``ends``, of every window of a 1-D ``values``: entry i fits
    values[i:i+window]. With ``ends``, of the windows ending at those rows of
    each column of a 1-D or 2-D ``values``: entry i fits
    values[ends[i]-window+1 : ends[i]+1], shape ``(len(ends), *values.shape[1:])``.

    Each window is centred on its own mean and summed along its own cells,
    never in a BLAS product, so a window gets the same bits alone, gathered
    with others or inside a longer array, and a constant window gives exactly
    0.0.
    """
    y = np.asarray(values, dtype=float)
    if window < 2 or len(y) < window:
        raise TooShortError(f"slope needs a window >= 2 within the {len(y)} values, got {window}")
    if ends is not None:
        ends = np.asarray(ends, dtype=np.int64)
        if ends.size and not (ends.min() >= window - 1 and ends.max() < len(y)):
            raise IndexError(f"a window of {window} must end in rows {window - 1}..{len(y) - 1}")
        # (len(ends), columns..., window), each window's cells adjacent as in a column's windows
        windows = np.moveaxis(y[ends[:, None] + np.arange(1 - window, 1)], 1, -1).copy()
    elif y.size == window:  # rbbcp's one window a call: a strided view would cost more than the fit
        windows = y[None, :]
    else:
        windows = np.lib.stride_tricks.sliding_window_view(y, window)
    xc = np.arange(window, dtype=float) - (window - 1) / 2.0
    centred = windows - windows.mean(axis=-1, keepdims=True)
    return (centred * xc).sum(axis=-1) / (xc * xc).sum()


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


def feature_key(panel: Panel, window: int, sign_only: bool, n_rows: int) -> str:
    """The key of the first ``n_rows`` rows of :func:`build_feature_matrix`: a
    :func:`prefix_sha256` over the settings, the kept columns, the first month
    and the panel rows those feature rows are computed from. Equal keys mean
    equal rows, which is what ``reuse`` relies on."""
    filtered, ends = _feature_layout(panel, window)
    return _key(filtered, window, sign_only, ends[:n_rows])


def _key(filtered: Panel, window: int, sign_only: bool, ends: np.ndarray) -> str:
    header = [FEATURE_KEY_SCHEMA, window, sign_only, list(filtered.series_ids), int(filtered.months[0])]
    return prefix_sha256(header, filtered.values[: ends[-1] + 1 if ends.size else 0])


def build_feature_matrix(
    panel: Panel,
    window: int,
    sign_only: bool = False,
    months: np.ndarray | None = None,
    reuse: tuple[str, np.ndarray] | None = None,
) -> FeatureMatrix:
    """Per-series trailing-window slopes for every month with full history.

    Every category but :data:`DEFAULT_EXCLUDED_CATEGORIES` is kept. Rows are
    dropped while any kept column still lacks a complete window, so the
    matrix never contains NaN. ``sign_only`` replaces each slope with its
    sign, the stricter direction-only reading of the trend features.

    Two ways to compute fewer rows, each bit-identical to the same rows of the
    full matrix: ``months`` (ordinals) asks for those feature months only, in
    that order, and a month without a complete window raises KeyError naming
    it; ``reuse`` is (key, rows) of rows built before, kept as they are when
    key is the :func:`feature_key` of that many leading rows, so that only the
    later rows are computed.
    """
    filtered, ends = _feature_layout(panel, window)
    kept = np.zeros((0, filtered.n_series))
    if months is not None:
        months = np.asarray(months, dtype=np.int64)
        all_months = filtered.months[ends]
        at = np.minimum(np.searchsorted(all_months, months), ends.size - 1)
        missing = np.flatnonzero(all_months[at] != months)
        if missing.size:
            raise KeyError(str(MonthStamp.from_ordinal(months[missing[0]])))
        ends = ends[at]
    elif (
        reuse is not None
        and 0 < len(reuse[1]) <= ends.size
        and reuse[1].shape[1:] == kept.shape[1:]
        and reuse[0] == _key(filtered, window, sign_only, ends[: len(reuse[1])])
    ):
        kept = reuse[1]
    new = ends[len(kept) :]
    if months is None and not len(kept):  # every row: each column's windows in one view
        start = new[0] - window + 1
        slopes = np.column_stack(
            [
                window_slopes(np.nan_to_num(filtered.values[start:, j], nan=0.0), window)
                for j in range(filtered.n_series)
            ]
        )[new - new[0]]
    else:  # the rows asked for, or those after the reused ones: their windows gathered in one call
        slopes = window_slopes(filtered.values, window, new)
    if sign_only:
        slopes = np.sign(slopes)
    return FeatureMatrix(
        months=filtered.months[ends],
        feature_names=filtered.series_ids,
        values=np.concatenate([kept, slopes]) if len(kept) else slopes,
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
