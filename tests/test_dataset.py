import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclecast.dataset import (
    LabeledDataset,
    MonthStamp,
    PhaseLabel,
    Region,
    SplitSpec,
    digest_path,
    finite_cell,
    finite_cell_or_nan,
    format_month_table,
    load_labels,
    load_series_csv,
    read_month_table,
    split_rows,
    write_labels,
    write_month_table,
)
from cyclecast.errors import InvalidPhaseCodeError, MalformedRowError, NonContiguousMonthsError

from conftest import month_range


def write_csv(path, rows, header="year,month,phase"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestMonthStamp:
    def test_ordering(self):
        assert MonthStamp(1981, 1) < MonthStamp(1981, 2) < MonthStamp(1982, 1)

    def test_month_out_of_range(self):
        with pytest.raises(ValueError):
            MonthStamp(1981, 13)
        with pytest.raises(ValueError):
            MonthStamp(1981, 0)

    def test_next_wraps_year(self):
        assert MonthStamp(1999, 12).next() == MonthStamp(2000, 1)

    def test_add_months(self):
        assert MonthStamp(2000, 11).add_months(3) == MonthStamp(2001, 2)
        assert MonthStamp(2000, 3).add_months(-3) == MonthStamp(1999, 12)

    def test_months_until(self):
        assert MonthStamp(2000, 1).months_until(MonthStamp(2001, 1)) == 12
        assert MonthStamp(2001, 1).months_until(MonthStamp(2000, 12)) == -1

    def test_parse_and_str(self):
        assert MonthStamp.parse("1981-02") == MonthStamp(1981, 2)
        assert str(MonthStamp(1981, 2)) == "1981-02"
        with pytest.raises(ValueError):
            MonthStamp.parse("1981/02")


class TestLoadLabels:
    def test_basic_decode(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_csv(p, ["1981,1,1", "1981,2,1", "1981,3,2"])
        ds = load_labels(p)
        assert len(ds) == 3
        assert ds.labels == (PhaseLabel.RECOVERY, PhaseLabel.RECOVERY, PhaseLabel.EXPANSION)
        assert ds.months[0] == MonthStamp(1981, 1).ordinal

    def test_gap_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_csv(p, ["1981,1,1", "1981,3,2"])
        with pytest.raises(NonContiguousMonthsError) as exc:
            load_labels(p)
        assert "1981-02" in str(exc.value)

    def test_invalid_phase_code(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_csv(p, ["1981,1,5"])
        with pytest.raises(InvalidPhaseCodeError) as exc:
            load_labels(p)
        assert exc.value.value == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_labels(tmp_path / "nope.csv")

    def test_malformed_rows(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_csv(p, ["1981,1"])
        with pytest.raises(MalformedRowError):
            load_labels(p)
        write_csv(p, ["1981,one,1"])
        with pytest.raises(MalformedRowError):
            load_labels(p)
        write_csv(p, ["1981,1,2.5"])
        with pytest.raises(MalformedRowError):
            load_labels(p)
        for row in ("1981,13,1", "100000000000000000000,1,1"):  # month, and a year beyond YYYY
            write_csv(p, [row])
            with pytest.raises(MalformedRowError):
                load_labels(p)
        write_csv(p, ["1981,1,1"], header="y,m,p")
        with pytest.raises(MalformedRowError):
            load_labels(p)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_bytes(b"year,month,phase\r\n1981,1,1\r\n1981,2,4\r\n")
        ds = load_labels(p)
        assert ds.labels == (PhaseLabel.RECOVERY, PhaseLabel.RECESSION)


class TestWriteLabels:
    def test_round_trip(self, tmp_path):
        months = month_range(MonthStamp(1981, 11), 5)
        ds = LabeledDataset(
            months=months,
            labels=tuple(PhaseLabel((i % 4) + 1) for i in range(5)),
            region=Region.EZ,
        )
        p = tmp_path / "out.csv"
        write_labels(ds, p)
        loaded = load_labels(p, region=Region.EZ)
        np.testing.assert_array_equal(loaded.months, ds.months)
        assert loaded.labels == ds.labels and loaded.region == ds.region

    def test_lf_no_trailing_blank_line(self, tmp_path):
        ds = LabeledDataset(
            months=month_range(MonthStamp(1981, 1), 2),
            labels=(PhaseLabel.RECOVERY, PhaseLabel.EXPANSION),
        )
        p = tmp_path / "out.csv"
        write_labels(ds, p)
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"1981,2,2\n")
        assert not raw.endswith(b"\n\n")


def split_targets(months, spec):
    """split_rows' row indices per split, and each row's target month."""
    rows = split_rows(months, spec)
    return rows, {k: [MonthStamp.from_ordinal(months[i] + 1) for i in v] for k, v in rows.items()}


stamp = MonthStamp.from_ordinal


class TestSplitRows:
    def test_ez_table_boundaries(self):
        months = month_range(MonthStamp(1981, 1), 42 * 12)  # 1981-01 .. 2022-12
        spec = SplitSpec(
            MonthStamp(2001, 12), MonthStamp(2011, 12), MonthStamp(2022, 12)
        )
        rows, targets = split_targets(months, spec)
        assert stamp(months[rows["train"][0]]) == MonthStamp(1981, 1)
        assert stamp(months[rows["train"][-1]]) == MonthStamp(2001, 11)
        assert targets["train"][-1] == MonthStamp(2001, 12)
        assert targets["validation"][0] == MonthStamp(2002, 1)
        assert targets["validation"][-1] == MonthStamp(2011, 12)
        assert targets["test"][0] == MonthStamp(2012, 1)
        assert targets["test"][-1] == MonthStamp(2022, 12)
        # The last row's target, 2023-01, is after test_end.
        assert stamp(months[rows["test"][-1]]) == MonthStamp(2022, 11)

    def test_us_table_boundaries(self):
        months = month_range(MonthStamp(1969, 1), 54 * 12)  # 1969-01 .. 2022-12
        spec = SplitSpec(
            MonthStamp(1999, 12), MonthStamp(2009, 12), MonthStamp(2022, 12)
        )
        rows, targets = split_targets(months, spec)
        assert stamp(months[rows["test"][0]]) == MonthStamp(2009, 12)
        assert targets["test"][0] == MonthStamp(2010, 1)
        assert targets["test"][-1] == MonthStamp(2022, 12)

    def test_split_spec_invariant(self):
        with pytest.raises(ValueError):
            SplitSpec(MonthStamp(2011, 12), MonthStamp(2001, 12), MonthStamp(2022, 12))

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            start = MonthStamp(int(rng.integers(1960, 1990)), int(rng.integers(1, 13)))
            months = month_range(start, int(rng.integers(72, 480)))
            cuts = sorted(rng.choice(np.arange(1, len(months)), size=3, replace=False))
            spec = SplitSpec(*(stamp(months[int(c)]) for c in cuts))
            rows, targets = split_targets(months, spec)
            for k, (low, high) in {
                "train": (None, spec.train_end),
                "validation": (spec.train_end, spec.validation_end),
                "test": (spec.validation_end, spec.test_end),
            }.items():
                assert all((low is None or low < t) and t <= high for t in targets[k])
                assert list(rows[k]) == sorted(rows[k])
            train, validation, test = (set(rows[k].tolist()) for k in rows)
            assert not train & validation and not validation & test and not train & test
            # Row t is in some split iff its target t+1 is no later than test_end.
            assert train | validation | test == set(range(int(cuts[2])))
            assert len(train) == cuts[0] and len(train | validation) == cuts[1]


class TestSeriesCsv:
    def test_load_series(self, tmp_path):
        p = tmp_path / "series.csv"
        write_csv(p, ["2000,1,1.5", "2000,2,-2.25"], header="year,month,value")
        from cyclecast.dataset import Category

        s = load_series_csv(p, "x", Region.US, Category.GROWTH)
        np.testing.assert_array_equal(s.values, [1.5, -2.25])
        np.testing.assert_array_equal(s.months, [MonthStamp(2000, 1).ordinal, MonthStamp(2000, 2).ordinal])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "series.csv"
        write_csv(p, ["2000,1,1.5"], header="year,month,val")
        from cyclecast.dataset import Category

        with pytest.raises(MalformedRowError):
            load_series_csv(p, "x", Region.US, Category.GROWTH)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        p = tmp_path / "series.csv"
        write_csv(p, ["2000,1,1.5", "", f"2000,2,{cell}"], header="year,month,value")
        from cyclecast.dataset import Category

        with pytest.raises(MalformedRowError) as exc:
            load_series_csv(p, "x", Region.US, Category.GROWTH)
        assert exc.value.line_number == 4
        assert "line 4" in str(exc.value)


@st.composite
def month_tables(draw):
    """Strictly increasing, gapped ordinals in years 1-9999 and finite or NaN cells."""
    width = draw(st.integers(1, 4))
    steps = draw(st.lists(st.integers(1, 30), max_size=40))
    first = draw(st.integers(MonthStamp(1, 1).ordinal, MonthStamp(9999, 12).ordinal - 30 * 40))
    months = first + np.cumsum([0, *steps])
    cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(float("nan")))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=months.size,
                         max_size=months.size))
    return tuple(f"c{j}" for j in range(width)), months, np.array(rows, dtype=float).reshape(-1, width)


class TestMonthTableCodec:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(table=month_tables())
    def test_round_trip_is_exact(self, tmp_path_factory, table):
        names, months, rows = table
        path = tmp_path_factory.mktemp("codec") / "table.csv"
        path.write_text(format_month_table(names, months, rows), encoding="utf-8")
        got_names, got_months, got_rows = read_month_table(path, cell=finite_cell_or_nan)
        assert got_names == names
        assert got_months.dtype == np.int64
        np.testing.assert_array_equal(got_months, months)
        # Bit-identical cells: -0.0 stays -0.0, and NaN reads back where NaN was written.
        np.testing.assert_array_equal(np.isnan(got_rows), np.isnan(rows))
        finite = ~np.isnan(rows)
        assert got_rows[finite].tobytes() == rows[finite].tobytes()

    def test_ordinal_conversions(self):
        assert MonthStamp(1970, 1).ordinal == 1970 * 12
        assert MonthStamp.from_ordinal(MonthStamp(1999, 12).ordinal + 1) == MonthStamp(2000, 1)
        assert MonthStamp.from_ordinal(np.int64(12)) == MonthStamp(1, 1)


EXTREME_FLOATS = (5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-300, -0.0, 0.0)


@st.composite
def digest_tables(draw):
    """A contiguous table with panel-style leading NaN cells, and a prefix length k."""
    width = draw(st.integers(1, 12))
    n = draw(st.integers(1, 25))
    first = draw(st.integers(MonthStamp(1, 1).ordinal, MonthStamp(9999, 12).ordinal - 25))
    cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREME_FLOATS))
    pool = np.array(draw(st.lists(cells, min_size=1, max_size=8)))
    rows = pool[np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, pool.size, (n, width))]
    for j, lead in enumerate(draw(st.lists(st.integers(0, n), min_size=width, max_size=width))):
        rows[:lead, j] = np.nan
    names = tuple(f"s{j}" for j in range(width))
    return names, first + np.arange(n, dtype=np.int64), rows, draw(st.integers(0, n))


def flip_byte(path, at):
    blob = bytearray(path.read_bytes())
    blob[at % len(blob)] ^= 1
    path.write_bytes(bytes(blob))


def other_cell(rows, at):
    """``rows`` with the cell at flat index ``at`` replaced by a different value."""
    rows = rows.copy()
    i, j = divmod(at % rows.size, rows.shape[1])
    rows[i, j] = 0.5 if rows[i, j] != 0.5 else 0.25
    return rows


# A tamper either writes another table in place of the first k rows, or
# damages the files after they were written; the full write then names why.
PREFIX_TAMPERS = {
    "one cell": lambda t, at: (t[0], t[1], other_cell(t[2], at)),
    "column order": lambda t, at: (t[0][::-1], t[1], t[2][:, ::-1]),
    "first month": lambda t, at: (t[0], t[1] + 1, t[2]),
}
FILE_TAMPERS = {
    "truncated file": lambda path, at: path.write_bytes(path.read_bytes()[: -1 - at % 40]),
    "extended file": lambda path, at: path.write_bytes(path.read_bytes() + b"2000,1,1.0\n"),
    "flipped byte": lambda path, at: flip_byte(path, at),
    "deleted digest": lambda path, at: digest_path(path).unlink(),
    "garbled digest": lambda path, at: flip_byte(digest_path(path), at),
    "digest not JSON": lambda path, at: digest_path(path).write_text("[1, 2"),
}
TAMPER_NOTES = {
    **dict.fromkeys(PREFIX_TAMPERS, "rewritten: changed rows"),
    **dict.fromkeys(("truncated file", "extended file", "flipped byte"), "rewritten: edited file"),
    "deleted digest": "rewritten: no digest",
    "garbled digest": "rewritten: ",  # which field the flip hit decides the reason
    "digest not JSON": "rewritten: unreadable digest",
}


class TestWriteMonthTable:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(table=digest_tables(), tamper=st.sampled_from(sorted(TAMPER_NOTES)), at=st.integers(0, 10**6))
    def test_append_is_a_full_write_and_tampering_only_costs_one(
        self, tmp_path_factory, table, tamper, at
    ):
        names, months, rows, k = table
        expected = format_month_table(names, months, rows).encode("utf-8")
        path = tmp_path_factory.mktemp("writer") / "table.csv"
        assert write_month_table(path, names, months[:k], rows[:k]) == "rewritten: no digest"
        assert write_month_table(path, names, months, rows) == f"appended {len(months) - k} rows"
        assert path.read_bytes() == expected

        prefix = (names, months[:k], rows[:k])
        if tamper in PREFIX_TAMPERS:
            assume(k > 0 and (tamper != "column order" or len(names) > 1))
            prefix = PREFIX_TAMPERS[tamper](prefix, at)
        write_month_table(path, *prefix)
        if tamper in FILE_TAMPERS:
            FILE_TAMPERS[tamper](path, at)
        note = write_month_table(path, names, months, rows)
        assert note.startswith(TAMPER_NOTES[tamper])
        assert path.read_bytes() == expected

    def test_digest_record_is_written_after_the_table(self, tmp_path):
        path = tmp_path / "growth.csv"
        writes = []

        def write(target, data):
            writes.append(target.name)
            target.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))

        months = month_range(MonthStamp(1999, 11), 3)
        write_month_table(path, ("value",), months, [0.1, np.nan, -2.0], write)
        assert writes == ["growth.csv", "growth_digest.json"]
        record = json.loads((tmp_path / "growth_digest.json").read_text())
        assert sorted(record) == ["columns", "file_sha256", "first_month", "rows", "values_sha256"]
        assert (record["rows"], record["first_month"], record["columns"]) == (3, months[0], ["value"])
        first = (tmp_path / "growth_digest.json").read_bytes()
        assert write_month_table(path, ("value",), months, [0.1, np.nan, -2.0]) == "appended 0 rows"
        assert (tmp_path / "growth_digest.json").read_bytes() == first

    def test_gapped_months_are_refused(self, tmp_path):
        with pytest.raises(NonContiguousMonthsError):
            write_month_table(tmp_path / "t.csv", ("value",), np.array([10, 12]), [1.0, 2.0])


def reference_read(path, cell):
    """The reader np.loadtxt replaced: csv.reader, and one Python parser call per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        months, cells = [], []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise MalformedRowError(reader.line_num, "field count")
            try:
                year, month = int(row[0]), int(row[1])
                if not (1 <= month <= 12 and 0 <= year <= 9999):
                    raise ValueError("month out of range")
                months.append(year * 12 + month - 1)
                cells.extend(map(cell, row[2:]))
            except ValueError:
                raise MalformedRowError(reader.line_num, "bad cell") from None
    rows = np.asarray(cells, dtype=float).reshape(len(months), len(header) - 2)
    return tuple(header[2:]), np.asarray(months, dtype=np.int64), rows


def reference_finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


REFERENCE_CELL = {
    finite_cell: reference_finite,
    finite_cell_or_nan: lambda text: reference_finite(text) if text else math.nan,
    int: int,
}


@st.composite
def table_lines(draw):
    """A cell parser and the lines of a valid table for it, with blank lines among the rows."""
    cell = draw(st.sampled_from(list(REFERENCE_CELL)))
    width = draw(st.integers(1, 4))
    integers = st.integers(-10**6, 10**6).map(str)
    if cell is int:
        token = integers
    else:
        floats = st.floats(allow_nan=False, allow_infinity=False)
        token = st.one_of(floats.map(repr), floats.map("{:.6e}".format), integers)
    token = st.one_of(token, token.map('"{}"'.format))  # quoted cells
    if cell is finite_cell_or_nan:
        token = st.one_of(token, st.just(""))  # panel gaps
    lines = [",".join(("year", "month", *(f"c{j}" for j in range(width))))]
    for _ in range(draw(st.integers(0, 20))):
        lines += [""] * draw(st.integers(0, 2))
        year, month = draw(st.integers(0, 9999)), draw(st.integers(1, 12))
        lines.append(",".join((str(year), str(month), *draw(st.lists(token, min_size=width, max_size=width)))))
    return cell, lines


def write_lines(path, lines, newline, trailing):
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))


MUTATIONS = {
    "bad token": lambda f, draw: f[:2] + ["1.2.3"] + f[3:],
    "short row": lambda f, draw: f[:-1],
    "long row": lambda f, draw: f + ["1"],
    "non-finite": lambda f, draw: f[:2] + [draw(st.sampled_from(["nan", "inf", "-Infinity", "NaN"]))] + f[3:],
    "month 13": lambda f, draw: [f[0], "13"] + f[2:],
    "float year": lambda f, draw: [f[0] + ".0"] + f[1:],
    "empty cell": lambda f, draw: f[:2] + [""] + f[3:],
}


class TestReaderMatchesReference:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(table=table_lines(), newline=st.sampled_from(["\n", "\r\n"]), trailing=st.booleans())
    def test_same_names_months_and_cell_bits(self, tmp_path_factory, table, newline, trailing):
        cell, lines = table
        path = tmp_path_factory.mktemp("reader") / "table.csv"
        write_lines(path, lines, newline, trailing)
        names, months, rows = read_month_table(path, cell=cell)
        want_names, want_months, want_rows = reference_read(path, REFERENCE_CELL[cell])
        assert names == want_names
        assert months.dtype == np.int64
        np.testing.assert_array_equal(months, want_months)
        assert rows.shape == want_rows.shape
        np.testing.assert_array_equal(np.isnan(rows), np.isnan(want_rows))
        finite = ~np.isnan(want_rows)
        assert rows[finite].tobytes() == want_rows[finite].tobytes()

    def test_quoted_cell_across_lines_is_malformed(self, tmp_path):
        # np.loadtxt joins the two lines into one cell, "15", and returns one row for two.
        path = tmp_path / "table.csv"
        path.write_text('year,month,value\n2000,1,"1\n5"\n2000,2,3\n', encoding="utf-8")
        with pytest.raises(MalformedRowError) as want:
            reference_read(path, reference_finite)
        with pytest.raises(MalformedRowError) as got:
            read_month_table(path)
        assert got.value.line_number == want.value.line_number == 3

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        table=table_lines(),
        newline=st.sampled_from(["\n", "\r\n"]),
        mutation=st.sampled_from(list(MUTATIONS)),
        data=st.data(),
    )
    def test_one_bad_cell_names_the_same_line(self, tmp_path_factory, table, newline, mutation, data):
        cell, lines = table
        rows = [i for i, line in enumerate(lines) if i and line]
        if not rows or (mutation == "empty cell" and cell is finite_cell_or_nan):
            return
        i = data.draw(st.sampled_from(rows))
        lines[i] = ",".join(MUTATIONS[mutation](next(csv.reader([lines[i]])), data.draw))
        path = tmp_path_factory.mktemp("reader") / "table.csv"
        write_lines(path, lines, newline, True)
        with pytest.raises(MalformedRowError) as want:
            reference_read(path, REFERENCE_CELL[cell])
        with pytest.raises(MalformedRowError) as got:
            read_month_table(path, cell=cell)
        assert got.value.line_number == want.value.line_number == i + 1


FLOAT_INTEGER_FIELDS = [  # a float token in the year, month or phase field
    ("1981,1,2.5", ("phase",), int),
    ("1981.0,1,2.5", ("value",), finite_cell),
    ("1.981e3,1,2.5", ("value",), finite_cell),
    ("1981,1.5,2.5", ("value",), finite_cell),
]


class TestFloatInIntegerField:
    # DeprecationWarning is ignored here as it is outside a test run: the reader
    # itself must not let loadtxt truncate these tokens.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("row,columns,cell", FLOAT_INTEGER_FIELDS)
    def test_rejected_under_default_warning_filters(self, tmp_path, row, columns, cell):
        path = tmp_path / "table.csv"
        write_csv(path, [row], header=",".join(("year", "month", *columns)))
        with pytest.raises(MalformedRowError) as exc:
            read_month_table(path, columns, cell=cell)
        assert exc.value.line_number == 2

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_rejected_by_a_loadtxt_that_only_warns(self, tmp_path, monkeypatch):
        # numpy before the deprecation expired: warn, then parse "2.5" as 2.
        loadtxt = np.loadtxt

        def warning_loadtxt(lines, **kwargs):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:  # numpy reports the escalated warning as a ValueError
                raise ValueError("could not convert string '2.5' to int64") from exc
            return loadtxt([line.replace("2.5", "2") for line in lines], **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "labels.csv"
        write_csv(path, ["1981,1,2.5"])
        with pytest.raises(MalformedRowError) as exc:
            read_month_table(path, ("phase",), cell=int)
        assert exc.value.line_number == 2
