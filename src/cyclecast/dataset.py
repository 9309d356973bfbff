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
import re
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
    "phase_codes",
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
    "SeriesParse",
    "SeriesParses",
    "read_month_table",
    "format_month_table",
    "write_month_table",
    "read_table_record",
    "TableRecord",
    "write_atomic",
    "prefix_sha256",
    "pack_record",
    "unpack_record",
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


def _is_code(value) -> bool:
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return numeric and value in (1, 2, 3, 4)


def phase_codes(values) -> np.ndarray:
    """``values`` as an int array of phase codes: the one check of labels,
    training targets, predictions and truth. A value that is not an integer in
    1..4 (0, 5, 2.5, NaN, text, a bool) raises :class:`InvalidPhaseCodeError`
    naming the first one. A numeric array is checked as a whole.
    """
    arr = np.asarray(values)
    if isinstance(values, np.ndarray) and arr.dtype.kind in "iuf":
        named, ok = arr, (arr >= 1) & (arr <= 4) & (np.floor(arr) == arr)
    else:  # one by one: np.asarray reads the True in [1, True] as 1
        named = np.asarray(values, dtype=object)
        ok = np.vectorize(_is_code, otypes=[bool])(named)
    if not ok.all():
        bad = named[~ok][0]
        bad = bad.item() if isinstance(bad, np.generic) else bad
        raise InvalidPhaseCodeError(int(bad) if isinstance(bad, float) and bad.is_integer() else bad)
    return arr.astype(int)


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


def month_row(months: np.ndarray, month: int | np.ndarray) -> int | np.ndarray:
    """Row of the ordinal ``month`` on a strictly increasing ordinal axis, or
    the rows of an array of ordinals; KeyError naming the first absent month."""
    asked = np.asarray(month, dtype=np.int64)
    rows = np.minimum(np.searchsorted(months, asked), len(months) - 1)
    absent = np.flatnonzero(months[rows] != asked) if len(months) else np.arange(asked.size)
    if absent.size:
        raise KeyError(str(MonthStamp.from_ordinal(asked.flat[absent[0]])))
    return int(rows) if asked.ndim == 0 else rows


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
    months-by-columns array, int64 for ``int`` and float64 otherwise. Blank
    lines are skipped; every other defect, bytes that are not UTF-8 among them,
    raises :class:`MalformedRowError` naming the file and the line.

    A table :func:`write_month_table` wrote is not parsed again: when its
    digest record (:func:`digest_path`) holds the SHA-256 of the file's bytes,
    the rows come from the record. They are the rows parsing would return, bit
    for bit (NaN cells as the parser's NaN), and a header that fails
    ``columns`` raises the same error. Float cells only: ``int`` tables, and
    tables whose rows this ``cell`` would reject, are always parsed.

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
    recorded = None if cell is int else _recorded_rows(path, cell is finite_cell_or_nan)
    if recorded is not None:
        names, months, values = recorded
        _header_names(path, ["year", "month", *names], columns, _expected_header(columns))
        return names, months, values
    return _parse_table(path, path.read_bytes(), columns, cell)


def _expected_header(columns: Sequence[str] | None) -> str:
    return ",".join(("year", "month", *(columns or ("<columns...>",))))


def _parse_table(
    path: Path, data: bytes, columns: Sequence[str] | None, cell: Callable[[str], float]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """:func:`read_month_table`'s parse of ``data``, the bytes of table ``path``."""
    expected = _expected_header(columns)
    gaps = cell is finite_cell_or_nan
    lines = _lines(_utf8(path, data))
    if lines == [""]:
        raise MalformedRowError(1, f"{path}: empty file, expected header {expected}")
    header = next(csv.reader([lines[0] + "\n" if len(lines) > 1 else lines[0]]), [])  # as readline() gives it
    names = _header_names(path, header, columns, expected)
    lines = lines[1:]
    width = len(header)
    dtype = np.dtype(
        [("year", np.int64), ("month", np.int64), ("cells", _CELL_DTYPES[cell], (width - 2,))]
    )
    table = _parse_month_rows(lines, dtype, gaps)
    bad = None if table is None else _bad_rows(table, gaps)
    if bad is None or bad.size:
        numbers = [number for number, line in enumerate(lines, start=2) if line]  # of each row
        if bad is None:  # the first line rejected on its own; else a quote left open to the end
            number = next((n for n in numbers if _line_is_bad(lines[n - 2], dtype, gaps)), numbers[-1])
        else:
            number = numbers[bad[0]]
        raise MalformedRowError(number, f"{path}: {_row_fault(lines[number - 2], width, cell)}")
    months = table["year"] * 12 + table["month"] - 1
    return names, months, table["cells"].copy()


def _lines(text: str) -> list[str]:
    """``text`` split into lines with universal newlines, as text-mode open() reads:
    ``\\r\\n`` and ``\\r`` end a line too."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _utf8(path: Path, data: bytes) -> str:
    """``data`` decoded as UTF-8, or :class:`MalformedRowError` naming the file and the line of
    the first byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise MalformedRowError(
            before.count(b"\n") + 1, f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def _header_names(
    path: Path, header: list[str], columns: Sequence[str] | None, expected: str
) -> tuple[str, ...]:
    """The value-column names of table ``path``'s parsed header row, checked against ``columns``."""
    keys = [h.strip().lower() for h in header]
    if keys[:2] != ["year", "month"] or (columns is not None and keys[2:] != list(columns)):
        raise MalformedRowError(1, f"{path}: bad header {header!r}, expected {expected}")
    return tuple(header[2:])


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
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def prefix_sha256(header, rows) -> str:
    """SHA-256, in hex, of ``json.dumps(header)`` followed by the native float64
    bytes of ``rows``: the key ``indices.IndexState`` keeps for the panel rows
    it was built from."""
    digest = hashlib.sha256(json.dumps(header).encode())
    digest.update(np.ascontiguousarray(rows, dtype=float))
    return digest.hexdigest()


def pack_record(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """``meta`` and ``arrays`` as one record, the format of the table digests.

    In order: a 4-byte little-endian header length; the header,
    ``{"meta": meta, "shapes": {name: shape}}`` as sorted-key JSON; each
    array as little-endian float64 in C order, in sorted-name order; and the
    SHA-256 of everything before it. Equal inputs give equal bytes.
    """
    blobs = {name: np.require(arrays[name], "<f8", "C") for name in sorted(arrays)}
    shapes = {name: blob.shape for name, blob in blobs.items()}
    header = json.dumps({"meta": meta, "shapes": shapes}, sort_keys=True).encode()
    parts = [len(header).to_bytes(4, "little"), header, *(blob.data for blob in blobs.values())]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()])  # one copy of the arrays' bytes, not two


def unpack_record(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of :func:`pack_record` bytes; the arrays are writable float64.

    The trailer is checked first, so bytes truncated, extended or changed
    anywhere raise ``ValueError``. So does a header :func:`pack_record` does
    not write: other keys, a ``meta`` that is not an object, a shape that is
    not a list of non-negative ints, or arrays that do not fill the body.
    """
    view = memoryview(data)
    body = view[:-32]
    if len(view) < 36 or hashlib.sha256(body).digest() != view[-32:]:
        raise ValueError("record fails its SHA-256 trailer")
    size = int.from_bytes(body[:4], "little")
    header = json.loads(bytes(body[4 : 4 + size]))  # its errors are ValueErrors
    if not (isinstance(header, dict) and header.keys() == {"meta", "shapes"}):
        raise ValueError("record header is not {meta, shapes}")
    meta, shapes = header["meta"], header["shapes"]
    if not (isinstance(meta, dict) and isinstance(shapes, dict)) or not all(
        isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape) for shape in shapes.values()
    ):
        raise ValueError("record meta or shapes is not an object, or a shape not a list of ints >= 0")
    shapes = {name: shapes[name] for name in sorted(shapes)}
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = np.frombuffer(body, "<f8", offset=4 + size).astype(np.float64)
    if flat.size != sum(sizes):
        raise ValueError("record arrays do not fill its body")
    parts = np.split(flat, np.cumsum(sizes[:-1], dtype=np.int64))
    return meta, {name: part.reshape(shapes[name]) for name, part in zip(shapes, parts)}


def digest_path(path: str | Path) -> Path:
    """The digest record :func:`write_month_table` keeps beside table ``path``: ``<stem>_digest.rec``."""
    path = Path(path)
    return path.with_name(f"{path.stem}_digest.rec")


class TableRecord(NamedTuple):
    """The digest record :func:`write_month_table` keeps beside a table, as read back."""

    file_sha256: str
    names: list[str]
    months: np.ndarray
    values: np.ndarray
    state: tuple[dict, dict[str, np.ndarray]] | None  # the (meta, arrays) stored with the table


def _read_record(path: Path) -> TableRecord:
    """The digest record beside table ``path``.

    FileNotFoundError if there is none; ValueError if it is damaged or not a record.
    """
    meta, arrays = unpack_record(digest_path(path).read_bytes())
    sha, names, first, state = (meta.get(key) for key in ("file_sha256", "names", "first_month", "state"))
    values = arrays.pop("values", None)
    if (
        meta.keys() - {"state"} != {"file_sha256", "names", "first_month"}
        or values is None
        or not all(name.startswith("state.") for name in arrays)
        or not (isinstance(state, dict) if "state" in meta else not arrays)
        or type(sha) is not str
        or not (isinstance(names, list) and all(type(n) is str for n in names))
        or values.shape[1:] != (len(names),)
        or type(first) is not (int if len(values) else type(None))
    ):
        raise ValueError(f"{digest_path(path).name}: not a table digest record")
    if state is not None:
        state = state, {name.removeprefix("state."): array for name, array in arrays.items()}
    return TableRecord(sha, names, (first or 0) + np.arange(len(values), dtype=np.int64), values, state)


def read_table_record(path: str | Path) -> TableRecord | str:
    """The digest record beside table ``path``, or why not: ``no digest`` or
    ``unreadable digest``. Never raises; pass it on to :func:`write_month_table`
    so that the record is unpacked once."""
    try:
        return _read_record(Path(path))
    except FileNotFoundError:
        return "no digest"
    except (OSError, ValueError):
        return "unreadable digest"


def _file_sha256(path: Path) -> str:
    """SHA-256, in hex, of the file's bytes, read 64 KiB at a time: a large table is never held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# Header names that csv reads back as written, one line, one field each.
_PLAIN_NAME = re.compile(r'[^,"\r\n\x00]*')


def _recorded_rows(path: Path, gaps: bool) -> tuple[tuple[str, ...], np.ndarray, np.ndarray] | None:
    """(names, months, values) from the digest record of table ``path``, when
    they are what parsing the file returns; else None.

    They are when the record holds the SHA-256 of the file's bytes (so the
    file is the text :func:`format_month_table` made of these rows) and that
    text parses: one or more plain names, years within 0..9999, and cells
    finite, or NaN (an empty cell) where ``gaps`` allows it.
    """
    try:
        sha, names, months, values, _ = _read_record(path)
        if sha != _file_sha256(path):
            return None
    except (OSError, ValueError):
        return None
    if not names or not all(_PLAIN_NAME.fullmatch(name) for name in names):
        return None
    if months.size and not (months.min() >= 0 and months.max() < 10000 * 12):
        return None
    nan = np.isnan(values)
    if np.isinf(values).any() or (nan.any() and not gaps):
        return None
    values[nan] = np.nan  # the parser's NaN, whatever NaN the writer was given
    return tuple(names), months, values


def write_month_table(
    path: str | Path,
    names: Sequence[str],
    months: np.ndarray,
    values,
    write: Callable[[Path, str | bytes], None] = write_atomic,
    state: tuple[dict, dict[str, np.ndarray]] | None = None,
    record: TableRecord | str | None = None,
) -> str:
    """Write a float table as :func:`format_month_table` text, reusing the file's verified prefix.

    ``months`` must be contiguous ordinals; ``values`` is months by names.
    After the table, a digest record (:func:`digest_path`) is written: a
    :func:`pack_record` whose meta holds the SHA-256 of the file's bytes
    (``file_sha256``), the column ``names`` and the first month's ordinal
    (``first_month``, null for no rows), and whose array ``values`` holds the
    float64 rows; a ``state`` (meta, arrays) to resume the table's build from
    adds its meta as ``state`` and its arrays as ``state.<name>``
    (:attr:`TableRecord.state`). :func:`read_month_table` returns the record's
    rows instead of parsing a file whose bytes it matches. If the record on disk
    holds the first k rows of this table, bit for bit, under the same names,
    and still matches the file, the file's bytes are kept and only rows k
    onwards are formatted; otherwise k = 0 and every row is. The bytes
    written are those of :func:`format_month_table` either way. Both files
    go through ``write`` (:func:`write_atomic`, or the caller's own atomic
    writer). ``record`` is the record on disk as :func:`read_table_record`
    gave it, when the caller has already read it; None reads it here.

    Returns which path ran: ``appended N rows``, or ``rewritten:`` followed
    by ``no digest``, ``unreadable digest``, ``changed rows`` (other names,
    an earlier first month or cell, or fewer rows) or ``edited file`` (the
    file differs from the one the record was written with). A bad record
    never raises; it only costs a full write.
    """
    path = Path(path)
    months = np.asarray(months, dtype=np.int64)
    check_contiguous(months, path.name)
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(len(months), len(names))
    if record is None:
        record = read_table_record(path)
    kept = _verified_prefix(path, names, months, values, record)
    del record  # a large table's recorded rows need not outlive the check while its text is built
    if isinstance(kept, str):
        k, data, digest, head, note = 0, b"", hashlib.sha256(), _format_header(names), f"rewritten: {kept}"
    else:
        (k, data, digest), head, note = kept, "", f"appended {len(months) - kept[0]} rows"
    text = _format_rows(head, months[k:], values[k:]).encode("utf-8")
    digest.update(text)  # the kept bytes are hashed already
    data += text  # b"" + x does not copy x
    del text
    write(path, data)
    meta = {
        "file_sha256": digest.hexdigest(),
        "names": list(names),
        "first_month": int(months[0]) if len(months) else None,  # the rest follow, contiguous
    }
    del data  # a large table's text need not outlive it while the record is packed
    arrays = {"values": values}
    if state is not None:
        meta["state"] = state[0]
        arrays.update({f"state.{name}": array for name, array in state[1].items()})
    write(digest_path(path), pack_record(meta, arrays))
    return note


def _verified_prefix(
    path: Path, names: Sequence[str], months: np.ndarray, values: np.ndarray, record: TableRecord | str
) -> tuple[int, bytes, "hashlib._Hash"] | str:
    """(k, the file's bytes, their SHA-256 object) when digest ``record`` proves
    the file holds this table's first k rows; otherwise why not."""
    if isinstance(record, str):
        return record
    sha, recorded_names, recorded_months, recorded_values, _ = record
    n = len(recorded_months)
    if (
        n > len(months)
        or recorded_names != list(names)
        or not np.array_equal(recorded_months, months[:n])
        or not np.array_equal(recorded_values.view(np.uint64), values[:n].view(np.uint64))
    ):
        return "changed rows"
    try:
        data = path.read_bytes()
    except OSError:
        return "edited file"
    digest = hashlib.sha256(data)
    if digest.hexdigest() != sha:
        return "edited file"
    return n, data, digest


def load_labels(path: str | Path, region: Region | None = None) -> LabeledDataset:
    """Read a ``year,month,phase`` CSV into a :class:`LabeledDataset`.

    Rejects missing files, malformed rows, phase codes outside 1..4, and any
    gap in the month sequence.
    """
    _, months, rows = read_month_table(path, ("phase",), cell=int)
    labels = tuple(map(PhaseLabel, phase_codes(rows[:, 0]).tolist()))
    return LabeledDataset(months=months, labels=labels, region=region)


def write_labels(ds: LabeledDataset, path: str | Path) -> None:
    """Write ``year,month,phase`` CSV: LF line endings, no trailing blank line."""
    write_atomic(path, format_month_table(("phase",), ds.months, [int(label) for label in ds.labels]))


def load_series_csv(
    path: str | Path,
    series_id: str,
    region: Region,
    category: Category,
    parses: "SeriesParses | None" = None,
) -> RawSeries:
    """Read a ``year,month,value`` CSV into a :class:`RawSeries`.

    With ``parses``, a file that only grew since the parse ``parses`` holds of
    it is parsed only past that parse (:class:`SeriesParses`). The series, or
    the error raised, is the full parse's either way.
    """
    if parses is None:
        _, months, rows = read_month_table(path, ("value",))
        values = rows[:, 0]
    else:
        months, values = parses.load(Path(path))
    return RawSeries(series_id, region, category, months=months, values=values)


# Bumped whenever SeriesParses.pack changes what it stores.
SERIES_PARSE_SCHEMA = 1
_SERIES_ROW = np.dtype([("year", np.int64), ("month", np.int64), ("cells", np.float64, (1,))])


@dataclass(frozen=True)
class SeriesParse:
    """The months and values parsed from the first ``length`` bytes of a series
    file, which end at a line feed and hash to ``sha256`` (hex)."""

    length: int
    sha256: str
    months: np.ndarray
    values: np.ndarray


class SeriesParses:
    """The parses of series files one run keeps for the next to resume from.

    :func:`load_series_csv` looks a file up in ``prior`` by its path. When the
    file still starts with the bytes of that parse (same length, same
    SHA-256), only the bytes after them are parsed, and the rows are the prior
    rows followed by theirs. A parse a line at a time gives the same rows as
    one pass over the whole file, because the prior bytes end at a line feed
    and parsed with no quote left open. Anything else (no prior parse, a file
    edited, truncated or prepended to, appended bytes that do not parse) takes
    the full parse, with its usual result or error. Every file loaded puts its
    new parse in ``kept``, unless its last byte is not a line feed; ``resumed``
    and ``parsed`` count the files loaded each way. :meth:`pack` and
    :meth:`read` store ``kept`` as a :func:`pack_record` and read it back.
    """

    def __init__(self, prior: dict[str, SeriesParse] | None = None):
        self.prior = prior or {}
        self.kept: dict[str, SeriesParse] = {}
        self.resumed = 0
        self.parsed = 0

    def load(self, path: Path) -> tuple[np.ndarray, np.ndarray]:
        """(months, values) of series file ``path``; see the class."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:  # as read_month_table names it
            raise FileNotFoundError(str(path)) from None
        # popped, so that its arrays are freed once the new ones are built
        prior, rows = self.prior.pop(str(path), None), None
        if prior is not None and prior.length <= len(data):
            digest = hashlib.sha256(memoryview(data)[: prior.length])
            tail = _series_rows(data[prior.length :]) if digest.hexdigest() == prior.sha256 else None
            if tail is not None:
                rows = np.concatenate([prior.months, tail[0]]), np.concatenate([prior.values, tail[1]])
                digest.update(memoryview(data)[prior.length :])
        if rows is None:
            _, months, table = _parse_table(path, data, ("value",), finite_cell)
            rows, digest = (months, table[:, 0]), hashlib.sha256(data)
            self.parsed += 1
        else:
            self.resumed += 1
        if data.endswith(b"\n"):
            self.kept[str(path)] = SeriesParse(len(data), digest.hexdigest(), *rows)
        return rows

    def pack(self) -> bytes:
        """``kept`` as a record: meta ``{"schema", "files": {path: {length, sha256,
        first_month, rows}}}``, arrays ``values:<path>``, and ``months:<path>``
        only for a file whose months are not contiguous from ``first_month``."""
        files, arrays = {}, {}
        for key, parse in self.kept.items():
            n = len(parse.months)
            first = int(parse.months[0]) if n else None
            files[key] = {"length": parse.length, "sha256": parse.sha256, "first_month": first, "rows": n}
            arrays[f"values:{key}"] = parse.values
            if n and not np.array_equal(parse.months, first + np.arange(n)):
                arrays[f"months:{key}"] = parse.months  # ordinals are exact in float64
        return pack_record({"schema": SERIES_PARSE_SCHEMA, "files": files}, arrays)

    @classmethod
    def read(cls, path: str | Path) -> "SeriesParses":
        """The parses :meth:`pack` stored at ``path`` as ``prior``; none when the
        record is missing, damaged or not such a record. Never raises."""
        try:
            meta, arrays = unpack_record(Path(path).read_bytes())
            return cls(_series_parses(meta, arrays))
        except (OSError, ValueError):
            return cls()


def _series_parses(meta: dict, arrays: dict[str, np.ndarray]) -> dict[str, SeriesParse]:
    """The parses of a :meth:`SeriesParses.pack` record; ValueError if it is not one."""
    files = meta.get("files")
    if meta != {"schema": SERIES_PARSE_SCHEMA, "files": files} or not isinstance(files, dict):
        raise ValueError("not a series parse record")
    parses = {}
    for key, entry in files.items():
        if not (isinstance(entry, dict) and entry.keys() == {"length", "sha256", "first_month", "rows"}):
            raise ValueError(f"series parse record: bad entry for {key!r}")
        length, sha, first, n = entry["length"], entry["sha256"], entry["first_month"], entry["rows"]
        values, months = arrays.pop(f"values:{key}", None), arrays.pop(f"months:{key}", None)
        if not (
            type(length) is int
            and length > 0
            and type(sha) is str
            and type(n) is int
            and type(first) is (int if n else type(None))
            and values is not None
            and values.shape == (n,)
            and (months is None or months.shape == (n,))
        ):
            raise ValueError(f"series parse record: bad entry for {key!r}")
        if months is None:
            months = (first or 0) + np.arange(n, dtype=np.int64)
        else:
            with np.errstate(invalid="ignore"):  # NaN or out of range: caught as unequal below
                ordinals = months.astype(np.int64)
            if not np.array_equal(ordinals, months):
                raise ValueError(f"series parse record: months of {key!r} are not ordinals")
            months = ordinals
        parses[key] = SeriesParse(length, sha, months, values)
    if arrays:
        raise ValueError("series parse record: arrays without an entry")
    return parses


def _series_rows(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(months, values) of series body lines ``data``, or None if one of them is bad."""
    try:
        lines = _lines(data.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    table = _parse_month_rows(lines, _SERIES_ROW, gaps=False)
    if table is None or _bad_rows(table, gaps=False).size:
        return None
    return table["year"] * 12 + table["month"] - 1, table["cells"][:, 0]

