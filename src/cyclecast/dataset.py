"""Labeled monthly datasets: domain types, CSV loading, and the chronological split.

Phase labels use the integer encoding 1=recovery, 2=expansion, 3=slowdown,
4=recession. Label files are CSV with a ``year,month,phase`` header; series
files are CSV with a ``year,month,value`` header. Months inside a dataset must
be contiguous: gaps are data errors, never silently filled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
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

    def next(self) -> "MonthStamp":
        if self.month == 12:
            return MonthStamp(self.year + 1, 1)
        return MonthStamp(self.year, self.month + 1)

    def add_months(self, n: int) -> "MonthStamp":
        total = self.year * 12 + (self.month - 1) + n
        return MonthStamp(total // 12, total % 12 + 1)

    def months_until(self, other: "MonthStamp") -> int:
        """Signed month count from self to other (0 for the same month)."""
        return (other.year - self.year) * 12 + (other.month - self.month)


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


def _check_strictly_increasing(months: tuple[MonthStamp, ...], what: str) -> None:
    for prev, cur in zip(months, months[1:]):
        if cur <= prev:
            raise ValueError(f"{what} months not strictly increasing at {cur}")


@dataclass(frozen=True)
class RawSeries:
    """One named monthly macroeconomic series in native units.

    ``months`` and ``values`` are parallel tuples; months must be strictly
    increasing (gaps are allowed here and handled downstream by the panel
    aligner). An empty series is legal for export but rejected by every
    numeric operation that needs history.
    """

    series_id: str
    region: Region
    category: Category
    months: tuple[MonthStamp, ...]
    values: tuple[float, ...]
    transform_applied: Transform = Transform.NONE

    def __post_init__(self):
        if len(self.months) != len(self.values):
            raise ValueError("months and values length mismatch")
        _check_strictly_increasing(self.months, f"series {self.series_id!r}")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"series {self.series_id!r} has a non-finite value")

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class LabeledDataset:
    """Contiguous ordered months, each annotated with one phase label."""

    months: tuple[MonthStamp, ...]
    labels: tuple[PhaseLabel, ...]
    region: Region | None = None

    def __post_init__(self):
        if len(self.months) != len(self.labels):
            raise ValueError("months and labels length mismatch")
        for prev, cur in zip(self.months, self.months[1:]):
            expected = prev.next()
            if cur != expected:
                raise NonContiguousMonthsError(expected)

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive month-end boundaries of the train/validation/test split."""

    train_end: MonthStamp
    validation_end: MonthStamp
    test_end: MonthStamp

    def __post_init__(self):
        if not self.train_end < self.validation_end < self.test_end:
            raise ValueError("split boundaries must satisfy train_end < validation_end < test_end")


def split_rows(months: Sequence[MonthStamp], spec: SplitSpec) -> dict[str, np.ndarray]:
    """Row indices per split; a row belongs where its TARGET month (t+1) falls.

    Boundaries are inclusive; a row whose target is after test_end is in no split.
    """
    idx = {"train": [], "validation": [], "test": []}
    for i, m in enumerate(months):
        target = m.next()
        if target <= spec.train_end:
            idx["train"].append(i)
        elif target <= spec.validation_end:
            idx["validation"].append(i)
        elif target <= spec.test_end:
            idx["test"].append(i)
    return {k: np.asarray(v, dtype=int) for k, v in idx.items()}


def finite_cell(text: str) -> float:
    """Parse one value cell; non-finite values are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def finite_cell_or_nan(text: str) -> float:
    """Like :func:`finite_cell`, but an empty cell reads as NaN (panel gaps)."""
    if not text:
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


@lru_cache(maxsize=4096)
def _parse_month(year: str, month: str) -> MonthStamp:
    # Series files of one panel repeat the same months; MonthStamp is immutable.
    return MonthStamp(int(year), int(month))


def read_month_table(
    path: str | Path,
    columns: Sequence[str] | None = None,
    cell: Callable[[str], float] = finite_cell,
) -> tuple[tuple[str, ...], tuple[MonthStamp, ...], np.ndarray]:
    """Read a ``year,month,<columns...>`` CSV into (names, months, rows).

    This is the one reader of the toolkit's monthly tables (series, labels,
    panel, features, indices). ``columns`` fixes the lower-case value-column
    names (the header is compared case-insensitively); None accepts any names.
    ``cell`` parses every value cell of the file. ``rows`` is a
    months-by-columns float array. Blank lines are skipped; every other defect
    raises :class:`MalformedRowError` with its line number.
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
        months: list[MonthStamp] = []
        cells: list[float] = []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MalformedRowError(reader.line_num, f"expected {width} fields, got {len(row)}")
            try:
                months.append(_parse_month(row[0], row[1]))
                cells.extend(map(cell, row[2:]))
            except ValueError as exc:
                raise MalformedRowError(reader.line_num, f"{row!r}: {exc}") from None
    rows = np.asarray(cells, dtype=float).reshape(len(months), width - 2)
    return tuple(header[2:]), tuple(months), rows


def format_month_table(names: Sequence[str], months: Sequence[MonthStamp], rows) -> str:
    """``year,month,<names...>`` CSV text readable by :func:`read_month_table`.

    Cells are ``repr(float)``, so values round-trip bit-exactly; NaN is an
    empty cell. LF line endings, no trailing blank line.
    """
    isnan = math.isnan
    lines = [",".join(("year", "month", *names))]
    values = np.asarray(rows, dtype=float).reshape(len(months), len(names)).tolist()
    for month, row in zip(months, values):
        lines.append(
            f"{month.year},{month.month}," + ",".join(["" if isnan(v) else repr(v) for v in row])
        )
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
    lines = ["year,month,phase"]
    lines.extend(f"{m.year},{m.month},{int(l)}" for m, l in zip(ds.months, ds.labels))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


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
        values=tuple(rows[:, 0].tolist()),
        transform_applied=transform_applied,
    )

