"""Labeled monthly datasets: domain types, CSV loading, and the chronological split.

Inside the library a month is an int64 ordinal, ``year * 12 + month - 1``: the
time axis of every series and table type is an int64 array. :class:`MonthStamp`
is for text (config, flags, split boundaries, messages); ``MonthStamp.ordinal``
and ``MonthStamp.from_ordinal`` convert between the two.

Phase labels use the integer encoding 1=recovery, 2=expansion, 3=slowdown,
4=recession. Label files are CSV with a ``year,month,phase`` header; series
files are CSV with a ``year,month,value`` header. Months of labels, panels and
indices must be contiguous: gaps are data errors, never silently filled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidPhaseCodeError, MalformedRowError, NonContiguousMonthsError

__all__ = [
    "MonthStamp",
    "PhaseLabel",
    "Region",
    "Category",
    "Transform",
    "RawSeries",
    "LabeledDataset",
    "SplitSpec",
    "split_rows",
    "next_month_labels",
    "load_labels",
    "write_labels",
    "load_series_csv",
    "read_month_table",
    "format_month_table",
    "finite_cell",
    "finite_cell_or_nan",
]


@dataclass(frozen=True, order=True)
class MonthStamp:
    """One Gregorian calendar month, totally ordered by (year, month)."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} not in 1..12")

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        """Parse ``YYYY-MM``."""
        try:
            year_s, month_s = text.strip().split("-")
            return cls(int(year_s), int(month_s))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse month stamp {text!r}, expected YYYY-MM") from exc

    @property
    def ordinal(self) -> int:
        """The library's month representation: ``year * 12 + month - 1``."""
        return self.year * 12 + self.month - 1

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "MonthStamp":
        year, month0 = divmod(int(ordinal), 12)
        return cls(year, month0 + 1)

    def next(self) -> "MonthStamp":
        return self.add_months(1)

    def add_months(self, n: int) -> "MonthStamp":
        return MonthStamp.from_ordinal(self.ordinal + n)

    def months_until(self, other: "MonthStamp") -> int:
        """Signed month count from self to other (0 for the same month)."""
        return other.ordinal - self.ordinal


class PhaseLabel(IntEnum):
    """Business-cycle phase with its integer wire encoding."""

    RECOVERY = 1
    EXPANSION = 2
    SLOWDOWN = 3
    RECESSION = 4


class Region(Enum):
    US = "us"
    EZ = "ez"


class Category(Enum):
    GROWTH = "growth"
    INFLATION = "inflation"
    COMMODITY = "commodity"
    STOCK_INDEX = "stock_index"
    RATES = "rates"
    OTHER = "other"


class Transform(Enum):
    NONE = "none"
    DIFF = "diff"
    LOG_DIFF = "log_diff"


def set_arrays(obj, **dtypes) -> None:
    """Store the named fields of a frozen dataclass as 1-D arrays of the given dtypes."""
    for name, dtype in dtypes.items():
        array = np.asarray(getattr(obj, name), dtype=dtype)
        if array.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional")
        object.__setattr__(obj, name, array)


def check_contiguous(months: np.ndarray, what: str) -> None:
    """Raise :class:`NonContiguousMonthsError` at the first missing or repeated month."""
    bad = np.flatnonzero(np.diff(months) != 1)
    if bad.size:
        expected, found = months[bad[0]] + 1, months[bad[0] + 1]
        raise NonContiguousMonthsError(what, *map(MonthStamp.from_ordinal, (expected, found)))


def month_row(months: np.ndarray, month: int) -> int:
    """Row of ``month`` on a strictly increasing ordinal axis; KeyError naming it if absent."""
    row = int(np.searchsorted(months, month))
    if row == len(months) or months[row] != month:
        raise KeyError(str(MonthStamp.from_ordinal(month)))
    return row


@dataclass(frozen=True)
class RawSeries:
    """One named monthly macroeconomic series in native units.

    ``months`` (int64 ordinals) and ``values`` (float64) are parallel arrays;
    months must be strictly increasing (gaps are allowed here and handled
    downstream by the panel aligner). An empty series is legal for export but
    rejected by every numeric operation that needs history.
    """

    series_id: str
    region: Region
    category: Category
    months: np.ndarray
    values: np.ndarray
    transform_applied: Transform = Transform.NONE

    def __post_init__(self):
        set_arrays(self, months=np.int64, values=float)
        if len(self.months) != len(self.values):
            raise ValueError("months and values length mismatch")
        back = np.flatnonzero(np.diff(self.months) <= 0)
        if back.size:
            month = MonthStamp.from_ordinal(self.months[back[0] + 1])
            raise ValueError(f"series {self.series_id!r} months not strictly increasing at {month}")
        if not np.isfinite(self.values).all():
            raise ValueError(f"series {self.series_id!r} has a non-finite value")

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class LabeledDataset:
    """Contiguous ordered months (int64 ordinals), each annotated with one phase label."""

    months: np.ndarray
    labels: tuple[PhaseLabel, ...]
    region: Region | None = None

    def __post_init__(self):
        set_arrays(self, months=np.int64)
        if len(self.months) != len(self.labels):
            raise ValueError("months and labels length mismatch")
        check_contiguous(self.months, "labels")

    def __len__(self) -> int:
        return len(self.months)


def next_month_labels(labels: LabeledDataset, months: np.ndarray) -> np.ndarray:
    """Phase code of the month after each ordinal in ``months``; 0 where there is no label."""
    codes = np.zeros(len(months), dtype=int)
    if len(labels):
        pos = np.asarray(months, dtype=np.int64) + 1 - labels.months[0]
        hit = (pos >= 0) & (pos < len(labels))
        codes[hit] = np.asarray(labels.labels, dtype=int)[pos[hit]]
    return codes


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive month-end boundaries of the train/validation/test split."""

    train_end: MonthStamp
    validation_end: MonthStamp
    test_end: MonthStamp

    def __post_init__(self):
        if not self.train_end < self.validation_end < self.test_end:
            raise ValueError("split boundaries must satisfy train_end < validation_end < test_end")


def split_rows(months: np.ndarray, spec: SplitSpec) -> dict[str, np.ndarray]:
    """Row indices per split; a row belongs where its TARGET month (t+1) falls.

    ``months`` are ordinals. Boundaries are inclusive; a row whose target is
    after test_end is in no split.
    """
    ends = [spec.train_end.ordinal, spec.validation_end.ordinal, spec.test_end.ordinal]
    split = np.searchsorted(ends, np.asarray(months, dtype=np.int64) + 1)  # 3: after test_end
    return {name: np.flatnonzero(split == i) for i, name in enumerate(("train", "validation", "test"))}


def finite_cell(text: str) -> float:
    """Parse one value cell; non-finite values are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def finite_cell_or_nan(text: str) -> float:
    """Like :func:`finite_cell`, but an empty cell reads as NaN (panel gaps)."""
    value = float(text) if text else 0.0  # one call per cell: this parses every panel cell
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value if text else math.nan


def read_month_table(
    path: str | Path,
    columns: Sequence[str] | None = None,
    cell: Callable[[str], float] = finite_cell,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Read a ``year,month,<columns...>`` CSV into (names, months, rows).

    This is the one reader of the toolkit's monthly tables (series, labels,
    panel, features, indices). ``columns`` fixes the lower-case value-column
    names (the header is compared case-insensitively); None accepts any names.
    ``cell`` parses every value cell of the file. ``months`` is an int64
    ordinal array and ``rows`` a months-by-columns float array. Blank lines
    are skipped; every other defect raises :class:`MalformedRowError` with
    its line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    expected = ",".join(("year", "month", *(columns or ("<columns...>",))))
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRowError(1, f"empty file, expected header {expected}")
        keys = [h.strip().lower() for h in header]
        if keys[:2] != ["year", "month"] or (columns is not None and keys[2:] != list(columns)):
            raise MalformedRowError(1, f"bad header {header!r}, expected {expected}")
        width = len(header)
        months: list[int] = []
        cells: list[float] = []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MalformedRowError(reader.line_num, f"expected {width} fields, got {len(row)}")
            try:
                year, month = int(row[0]), int(row[1])
                if not (1 <= month <= 12 and 0 <= year <= 9999):  # YYYY-MM months only
                    raise ValueError(f"year {year} or month {month} out of range")
                months.append(year * 12 + month - 1)
                cells.extend(map(cell, row[2:]))
            except ValueError as exc:
                raise MalformedRowError(reader.line_num, f"{row!r}: {exc}") from None
    rows = np.asarray(cells, dtype=float).reshape(len(months), width - 2)
    return tuple(header[2:]), np.asarray(months, dtype=np.int64), rows


def format_month_table(names: Sequence[str], months: np.ndarray, rows) -> str:
    """``year,month,<names...>`` CSV text readable by :func:`read_month_table`.

    ``months`` are ordinals. Cells are ``repr`` of the values (integers stay
    integers), so floats round-trip bit-exactly; NaN is an empty cell. LF line
    endings, no trailing blank line.
    """
    isnan = math.isnan
    lines = [",".join(("year", "month", *names))]
    years, month0 = np.divmod(np.asarray(months, dtype=np.int64), 12)
    values = np.asarray(rows).reshape(len(months), len(names)).tolist()
    for year, m, row in zip(years.tolist(), month0.tolist(), values):
        lines.append(f"{year},{m + 1}," + ",".join(["" if isnan(v) else repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def load_labels(path: str | Path, region: Region | None = None) -> LabeledDataset:
    """Read a ``year,month,phase`` CSV into a :class:`LabeledDataset`.

    Rejects missing files, malformed rows, phase codes outside 1..4, and any
    gap in the month sequence.
    """
    _, months, rows = read_month_table(path, ("phase",), cell=int)
    codes = [int(code) for code in rows[:, 0].tolist()]
    for code in codes:
        if code not in (1, 2, 3, 4):
            raise InvalidPhaseCodeError(code)
    return LabeledDataset(months=months, labels=tuple(map(PhaseLabel, codes)), region=region)


def write_labels(ds: LabeledDataset, path: str | Path) -> None:
    """Write ``year,month,phase`` CSV: LF line endings, no trailing blank line."""
    text = format_month_table(("phase",), ds.months, [int(label) for label in ds.labels])
    Path(path).write_bytes(text.encode("utf-8"))


def load_series_csv(
    path: str | Path,
    series_id: str,
    region: Region,
    category: Category,
    transform_applied: Transform = Transform.NONE,
) -> RawSeries:
    """Read a ``year,month,value`` CSV into a :class:`RawSeries`."""
    _, months, rows = read_month_table(path, ("value",))
    return RawSeries(
        series_id=series_id,
        region=region,
        category=category,
        months=months,
        values=rows[:, 0],
        transform_applied=transform_applied,
    )

