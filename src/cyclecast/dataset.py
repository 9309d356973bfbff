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
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidPhaseCodeError,
    MalformedRowError,
    NonContiguousMonthsError,
    UnorderedMonthsError,
)

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
    "write_month_table",
    "write_atomic",
    "digest_path",
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
            raise UnorderedMonthsError(
                self.series_id, MonthStamp.from_ordinal(self.months[back[0] + 1])
            )
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
    return finite_cell(text) if text else math.nan


# The cell parsers read_month_table accepts, and the loadtxt cell dtype of each.
_CELL_DTYPES = {finite_cell: np.float64, finite_cell_or_nan: np.float64, int: np.int64}


def read_month_table(
    path: str | Path,
    columns: Sequence[str] | None = None,
    cell: Callable[[str], float] = finite_cell,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Read a ``year,month,<columns...>`` CSV into (names, months, rows).

    This is the one reader of the toolkit's monthly tables (series, labels,
    panel, features, indices). ``columns`` fixes the lower-case value-column
    names (the header is compared case-insensitively); None accepts any names.
    ``cell`` names the cell format: :func:`finite_cell` (finite floats, the
    default), :func:`finite_cell_or_nan` (the same, but an empty cell is NaN;
    the panel) or ``int``. ``months`` is an int64 ordinal array and ``rows`` a
    months-by-columns float array. Blank lines are skipped; every other defect
    raises :class:`MalformedRowError` with its line number.

    Only the header goes through ``csv``. The body is parsed in one
    ``np.loadtxt`` pass (quoted cells allowed), and the month range and
    finiteness are checked as array masks; only a file that fails is parsed
    again, one line at a time, to name its first bad line. A token that
    Python's ``int``/``float`` accept but ``loadtxt`` does not, such as
    ``1_0`` or one with non-ASCII digits, is malformed. So is a float token
    in an integer field (year, month, a label's phase), such as ``1981.0`` or
    ``2.5``, whatever the warning filters.
    """
    if cell not in _CELL_DTYPES:
        raise ValueError(f"unsupported cell parser {cell!r}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    expected = ",".join(("year", "month", *(columns or ("<columns...>",))))
    with path.open(encoding="utf-8") as fh:  # universal newlines: \r\n and \r end a line too
        header_line = fh.readline()
        lines = fh.read().split("\n")
    if not header_line:
        raise MalformedRowError(1, f"empty file, expected header {expected}")
    header = next(csv.reader([header_line]), [])
    keys = [h.strip().lower() for h in header]
    if keys[:2] != ["year", "month"] or (columns is not None and keys[2:] != list(columns)):
        raise MalformedRowError(1, f"bad header {header!r}, expected {expected}")
    width = len(header)
    dtype = np.dtype(
        [("year", np.int64), ("month", np.int64), ("cells", _CELL_DTYPES[cell], (width - 2,))]
    )
    gaps = cell is finite_cell_or_nan
    table = _parse_month_rows(lines, dtype, gaps)
    bad = None if table is None else _bad_rows(table, gaps)
    if bad is None or bad.size:
        numbers = [number for number, line in enumerate(lines, start=2) if line]  # of each row
        if bad is None:  # the first line rejected on its own; else a quote left open to the end
            number = next((n for n in numbers if _line_is_bad(lines[n - 2], dtype, gaps)), numbers[-1])
        else:
            number = numbers[bad[0]]
        raise MalformedRowError(number, _row_fault(lines[number - 2], width, cell))
    months = table["year"] * 12 + table["month"] - 1
    return tuple(header[2:]), months, table["cells"].astype(float)


def _parse_month_rows(lines: list[str], dtype: np.dtype, gaps: bool) -> np.ndarray | None:
    """The non-blank ``lines`` parsed by one ``np.loadtxt`` pass, or None if it rejects one."""
    n_rows = len(lines) - lines.count("")
    if n_rows == 0:
        return np.zeros(0, dtype)
    try:
        with warnings.catch_warnings():
            # Before numpy's deprecation expired, loadtxt read an integer field
            # such as "2.5" or "1981.0" through a float, warned and truncated it;
            # as an error the warning becomes loadtxt's ValueError.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                _fill_gaps(lines) if gaps else lines,
                dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1,
            )
    except ValueError:
        return None
    return table if len(table) == n_rows else None


def _fill_gaps(lines: list[str]):
    """Panel lines with every empty cell written ``nan``.

    A line with an ``n`` or ``N`` of its own raises ValueError: no finite
    number contains one, and every spelling of ``nan`` and ``inf`` does. So
    the NaN cells of a parsed panel are exactly its empty cells.
    """
    for line in lines:
        if "n" in line or "N" in line:
            raise ValueError(f"{line!r} has a non-numeric cell")
        line = line.replace(",,", ",nan,").replace(",,", ",nan,")  # one pass fills one of ",,,"
        yield line + "nan" if line.endswith(",") else line


def _bad_rows(table: np.ndarray, gaps: bool) -> np.ndarray:
    """Rows with a month outside 1..12, a year outside 0..9999 or a non-finite cell
    (NaN is an empty cell, allowed with ``gaps``)."""
    year, month, cells = table["year"], table["month"], table["cells"]
    bad = (month < 1) | (month > 12) | (year < 0) | (year > 9999)
    if cells.dtype.kind == "f":
        bad |= (np.isinf(cells) if gaps else ~np.isfinite(cells)).any(axis=1)
    return np.flatnonzero(bad)


def _line_is_bad(line: str, dtype: np.dtype, gaps: bool) -> bool:
    table = _parse_month_rows([line], dtype, gaps)
    return table is None or _bad_rows(table, gaps).size > 0


def _row_fault(line: str, width: int, cell: Callable[[str], float]) -> str:
    """Why one bad body line is malformed, in the words of the per-cell parser."""
    try:
        row = next(csv.reader([line]))
    except csv.Error as exc:
        return f"{line!r}: {exc}"
    if len(row) != width:
        return f"expected {width} fields, got {len(row)}"
    try:
        year, month = int(row[0]), int(row[1])
        if not (1 <= month <= 12 and 0 <= year <= 9999):  # YYYY-MM months only
            raise ValueError(f"year {year} or month {month} out of range")
        for text in row[2:]:
            cell(text)
    except ValueError as exc:
        return f"{row!r}: {exc}"
    return f"{row!r}: a cell is not a plain ASCII number"


def format_month_table(names: Sequence[str], months: np.ndarray, rows) -> str:
    """``year,month,<names...>`` CSV text readable by :func:`read_month_table`.

    ``months`` are ordinals. Cells are ``repr`` of the values (integers stay
    integers), so floats round-trip bit-exactly; NaN is an empty cell. LF line
    endings, no trailing blank line.
    """
    rows = np.asarray(rows).reshape(len(months), len(names))
    return _format_rows(_format_header(names), months, rows)


def _format_header(names: Sequence[str]) -> str:
    return ",".join(("year", "month", *names)) + "\n"


def _format_rows(head: str, months: np.ndarray, rows: np.ndarray) -> str:
    """``head`` followed by the body lines of :func:`format_month_table`, each ending in LF."""
    isnan = math.isnan
    years, month0 = np.divmod(np.asarray(months, dtype=np.int64), 12)
    lines = [head]
    for year, m, row in zip(years.tolist(), month0.tolist(), rows.tolist()):
        lines.append(f"{year},{m + 1}," + ",".join(["" if isnan(v) else repr(v) for v in row]) + "\n")
    return "".join(lines)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (str as UTF-8) to a temporary file beside ``path``, then rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data, encoding="utf-8")
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def digest_path(path: str | Path) -> Path:
    """The digest record :func:`write_month_table` keeps beside table ``path``: ``<stem>_digest.json``."""
    path = Path(path)
    return path.with_name(f"{path.stem}_digest.json")


def write_month_table(
    path: str | Path,
    names: Sequence[str],
    months: np.ndarray,
    values,
    write: Callable[[Path, str | bytes], None] = write_atomic,
) -> str:
    """Write a float table as :func:`format_month_table` text, reusing the file's verified prefix.

    ``months`` must be contiguous ordinals; ``values`` is months by names.
    After the table, a digest record (:func:`digest_path`) is written: the
    row count, the first month's ordinal, the column names, and SHA-256
    hashes of the rows' float64 bytes and of the file's bytes. If the record
    on disk describes the first k rows of this table and still matches the
    file, the file's bytes are kept and only rows k onwards are formatted;
    otherwise k = 0 and every row is. The bytes written are those of
    :func:`format_month_table` either way. Both files go through ``write``
    (:func:`write_atomic`, or the caller's own atomic writer).

    Returns which path ran: ``appended N rows``, or ``rewritten:`` followed
    by ``no digest``, ``unreadable digest``, ``changed rows`` (another
    header, first month, row count or cell) or ``edited file`` (the file
    differs from the one the record was written with). A bad record never
    raises; it only costs a full write.
    """
    path = Path(path)
    months = np.asarray(months, dtype=np.int64)
    check_contiguous(months, path.name)
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(len(months), len(names))
    kept = _verified_prefix(path, names, months, values)
    if isinstance(kept, str):
        k, data, head, note = 0, b"", _format_header(names), f"rewritten: {kept}"
    else:
        (k, data), head, note = kept, "", f"appended {len(months) - kept[0]} rows"
    data += _format_rows(head, months[k:], values[k:]).encode("utf-8")  # b"" + x does not copy x
    write(path, data)
    record = {**_row_digest(names, months, values), "file_sha256": hashlib.sha256(data).hexdigest()}
    write(digest_path(path), json.dumps(record, sort_keys=True, indent=1) + "\n")
    return note


def _row_digest(names: Sequence[str], months: np.ndarray, values: np.ndarray) -> dict:
    """The digest record's fields that describe a table's rows."""
    return {
        "rows": len(months),
        "first_month": int(months[0]) if len(months) else None,
        "columns": list(names),
        "values_sha256": hashlib.sha256(values).hexdigest(),
    }


_DIGEST_FIELDS = {"rows", "first_month", "columns", "values_sha256", "file_sha256"}


def _verified_prefix(
    path: Path, names: Sequence[str], months: np.ndarray, values: np.ndarray
) -> tuple[int, bytes] | str:
    """(k, the file's bytes) when the digest record proves the file holds this
    table's first k rows; otherwise why not."""
    record_path = digest_path(path)
    if not record_path.exists():
        return "no digest"
    try:
        record = json.loads(record_path.read_bytes())
        n = record["rows"]
        if record.keys() != _DIGEST_FIELDS or type(n) is not int or n < 0:
            return "unreadable digest"
    except (OSError, ValueError, KeyError, TypeError):  # ValueError: not UTF-8 or not JSON
        return "unreadable digest"
    file_sha256 = record.pop("file_sha256")
    if n > len(months) or record != _row_digest(names, months[:n], values[:n]):
        return "changed rows"
    try:
        data = path.read_bytes()
    except OSError:
        return "edited file"
    if hashlib.sha256(data).hexdigest() != file_sha256:
        return "edited file"
    return n, data


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

