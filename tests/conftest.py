import dataclasses

import numpy as np
import pytest

from cyclecast.dataset import Category, MonthStamp, RawSeries, Region
from cyclecast.preprocess import Panel, Provenance, StandardizedSeries


def month_range(start: MonthStamp, n: int) -> np.ndarray:
    """Ordinals of ``n`` consecutive months from ``start``."""
    return start.ordinal + np.arange(n, dtype=np.int64)


def make_series(
    values,
    series_id: str = "s",
    start: MonthStamp = MonthStamp(2000, 1),
    region: Region = Region.US,
    category: Category = Category.GROWTH,
) -> RawSeries:
    values = np.asarray(values, dtype=float)
    return RawSeries(
        series_id=series_id,
        region=region,
        category=category,
        months=month_range(start, len(values)),
        values=values,
    )


def make_std(
    values,
    series_id: str = "s",
    start: MonthStamp = MonthStamp(2000, 1),
    category: Category = Category.GROWTH,
) -> StandardizedSeries:
    values = np.asarray(values, dtype=float)
    return StandardizedSeries(
        series_id=series_id,
        region=Region.US,
        category=category,
        months=month_range(start, len(values)),
        values=values,
        provenance=Provenance(),
    )


def make_panel(
    columns: dict[str, list[float]],
    categories: dict[str, Category] | None = None,
    start: MonthStamp = MonthStamp(2000, 1),
) -> Panel:
    ids = tuple(columns)
    n = len(next(iter(columns.values())))
    cats = categories or {}
    return Panel(
        months=month_range(start, n),
        series_ids=ids,
        categories=tuple(cats.get(i, Category.GROWTH) for i in ids),
        values=np.column_stack([np.asarray(columns[i], dtype=float) for i in ids]),
        fills=tuple(0 for _ in ids),
        region=Region.US,
    )


def assert_fields_equal(a, b) -> None:
    """Field-by-field equality of two dataclass records; array fields must match exactly."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
