import csv
import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclecast.dataset import (
    LabeledDataset,
    MonthStamp,
    Category,
    PhaseLabel,
    Region,
    SeriesParses,
    SplitSpec,
    digest_path,
    finite_cell,
    finite_cell_or_nan,
    format_month_table,
    load_labels,
    phase_codes,
    load_series_csv,
    month_row,
    pack_record,
    prefix_sha256,
    read_month_table,
    read_table_record,
    split_rows,
    unpack_record,
    write_labels,
    write_month_table,
)
from cyclecast.errors import CycleCastError, InvalidPhaseCodeError, MalformedRowError, NonContiguousMonthsError

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

    def test_month_row_of_one_month_or_many(self):
        months = month_range(MonthStamp(2000, 1), 6)  # 2000-01..2000-06
        assert month_row(months, MonthStamp(2000, 3).ordinal) == 2
        asked = [MonthStamp(2000, m).ordinal for m in (6, 1, 1, 4)]
        np.testing.assert_array_equal(month_row(months, asked), [5, 0, 0, 3])
        assert month_row(months, []).shape == (0,)
        for axis, first in [(months, "2000-07"), (months[:0], "2000-06")]:
            with pytest.raises(KeyError, match=first):  # the first absent month
                month_row(axis, [asked[0], MonthStamp(2000, 7).ordinal, MonthStamp(1999, 12).ordinal])

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

    def test_code_beyond_2_to_the_53_is_named_exactly(self, tmp_path):
        # Read as a float, 2**53 + 1 was rounded to 2**53 before the check named it.
        p = tmp_path / "labels.csv"
        write_csv(p, ["1981,1,1", "1981,2,9007199254740993"])
        assert read_month_table(p, ("phase",), cell=int)[2].dtype == np.int64
        with pytest.raises(InvalidPhaseCodeError) as exc:
            load_labels(p)
        assert str(exc.value) == "phase code 9007199254740993 is not in 1..4"

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


class TestPhaseCodes:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, 3, 4],
            list(PhaseLabel),
            np.array([4, 1], dtype=np.uint8),
            [2.0, 3.0],
            np.array([1, 2], dtype=object),
        ],
    )
    def test_codes_read_as_an_int_array(self, values):
        codes = phase_codes(values)
        assert codes.dtype.kind == "i" and codes.tolist() == [int(v) for v in values]

    def test_empty_and_matrix_shapes_are_kept(self):
        assert phase_codes([]).shape == (0,) and phase_codes([]).dtype.kind == "i"
        assert phase_codes([[1, 2], [3, 4]]).tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([1, 0], 0),
            ([5], 5),
            ([-1, 2], -1),
            ([2.5], 2.5),
            ([1.0, math.inf], math.inf),
            (np.array([2.0, 7.0]), 7),
            (np.array([True, False]), True),
            (["2"], "2"),
            ([3, None], None),
            ([1, True], True),
            ((2.0, np.False_), False),
            ([[1, 2], [True, 3]], True),
        ],
    )
    def test_first_bad_value_is_named(self, values, bad):
        with pytest.raises(InvalidPhaseCodeError) as exc:
            phase_codes(values)
        assert exc.value.value == bad and str(exc.value) == f"phase code {bad!r} is not in 1..4"

    def test_nan_is_not_a_code(self):
        with pytest.raises(InvalidPhaseCodeError) as exc:
            phase_codes([1.0, math.nan])
        assert math.isnan(exc.value.value)

    def test_numeric_array_is_checked_without_a_per_element_call(self, monkeypatch):
        monkeypatch.setattr(np, "vectorize", None)
        assert phase_codes(np.array([1, 4, 2])).tolist() == [1, 4, 2]
        with pytest.raises(InvalidPhaseCodeError):
            phase_codes(np.array([1.0, 0.0]))


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
        assert f"line 4: {p}: " in str(exc.value)


def series_lines(months, values) -> list[bytes]:
    return [f"{m // 12},{m % 12 + 1},{v!r}\n".encode() for m, v in zip(months.tolist(), values.tolist())]


def load_outcome(path, parses=None):
    """The series load_series_csv reads from ``path`` as bytes, or the error it raises."""
    try:
        s = load_series_csv(path, "x", Region.US, Category.GROWTH, parses=parses)
    except (CycleCastError, ValueError) as exc:
        return type(exc), str(exc)
    return s.months.dtype, s.months.tobytes(), s.values.tobytes()


def resume_from(parses: SeriesParses, tmp_path) -> SeriesParses:
    """``parses.kept`` through a record on disk, as the next run reads it."""
    record = tmp_path / "series_parse.rec"
    record.write_bytes(parses.pack())
    return SeriesParses.read(record)


BAD_LINES = [b"2099,13,1.0", b"2099,1,nan", b"2099,1,-inf", b"10000,1,1.0", b"2099,1", b"2099,1,1_0", b"\xff,1,1"]
JUNK = (
    st.sampled_from(BAD_LINES)
    | st.binary(max_size=12)
    | st.text(alphabet='0123456789,.-e+" \r\n', max_size=24).map(str.encode)
)
SERIES_EDITS = {
    "append": lambda base, more, junk, at: base + b"".join(more),
    "append nothing": lambda base, more, junk, at: base,
    "edit inside the prefix": lambda base, more, junk, at: base[:at] + junk[:1] + base[at + 1 :] + b"".join(more),
    "truncate": lambda base, more, junk, at: base[:at],
    "prepend": lambda base, more, junk, at: junk + base + b"".join(more),
    "crlf": lambda base, more, junk, at: (base + b"".join(more)).replace(b"\n", b"\r\n"),
    "bom": lambda base, more, junk, at: b"\xef\xbb\xbf" + base + b"".join(more),
    "no final newline": lambda base, more, junk, at: base + b"".join(more).rstrip(b"\n"),
    "malformed appended line": lambda base, more, junk, at: base + b"".join(more) + junk + b"\n",
}


class TestSeriesResume:
    """A series file parsed past its prior parse reads as the full parse does."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        edit=st.sampled_from(sorted(SERIES_EDITS)),
        first=st.integers(MonthStamp(1950, 1).ordinal, MonthStamp(2050, 1).ordinal),
        steps=st.lists(st.integers(1, 3), min_size=1, max_size=12),
        values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=13, max_size=13),
        cut=st.integers(0, 12),
        crlf=st.booleans(),
        junk=JUNK,
        at=st.integers(0, 10**6),
    )
    def test_resumed_parse_is_the_full_parse(self, tmp_path_factory, edit, first, steps, values, cut, crlf, junk, at):
        months = first + np.cumsum([0, *steps])
        lines = series_lines(months, np.array(values[: months.size]))
        cut = min(cut, len(lines))
        base = b"year,month,value\n" + b"".join(lines[:cut])
        if crlf:
            base = base.replace(b"\n", b"\r\n")
        tmp_path = tmp_path_factory.mktemp("series")
        path = tmp_path / "x.csv"
        path.write_bytes(base)
        first_run = SeriesParses()
        assert load_outcome(path, first_run)[0] == np.int64
        assert first_run.parsed == 1 and str(path) in first_run.kept

        data = SERIES_EDITS[edit](base, lines[cut:], junk, at % len(base))
        path.write_bytes(data)
        parses = resume_from(first_run, tmp_path)
        full = load_outcome(path)
        assert load_outcome(path, parses) == full
        assert parses.resumed + parses.parsed <= 1  # 0 when the file no longer parses
        if parses.resumed:
            assert data.startswith(base)
        elif data.startswith(base) and full[0] == np.int64:
            pytest.fail(f"{edit}: a file that only grew was parsed in full")
        if full[0] == np.int64:
            assert (str(path) in parses.kept) == data.endswith(b"\n")

    def test_gapped_months_are_kept_as_an_array(self, tmp_path):
        path = tmp_path / "x.csv"
        months = np.array([100, 101, 105])
        path.write_bytes(b"year,month,value\n" + b"".join(series_lines(months, np.array([1.0, 2.0, 3.0]))))
        first_run = SeriesParses()
        load_series_csv(path, "x", Region.US, Category.GROWTH, parses=first_run)
        meta, arrays = unpack_record(first_run.pack())
        assert sorted(arrays) == [f"months:{path}", f"values:{path}"]
        assert meta["files"][str(path)]["first_month"] == 100
        with path.open("ab") as fh:
            fh.writelines(series_lines(np.array([106]), np.array([4.0])))
        parses = resume_from(first_run, tmp_path)
        assert load_outcome(path, parses) == load_outcome(path) and parses.resumed == 1

    def test_contiguous_months_are_kept_as_first_month_and_count(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"year,month,value\n" + b"".join(series_lines(np.arange(7, 10), np.ones(3))))
        parses = SeriesParses()
        load_series_csv(path, "x", Region.US, Category.GROWTH, parses=parses)
        meta, arrays = unpack_record(parses.pack())
        assert sorted(arrays) == [f"values:{path}"]
        assert arrays[f"values:{path}"].tobytes() == np.ones((3, 1)).tobytes()
        assert meta == {
            "files": {str(path): {
                "length": path.stat().st_size,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "names": ["value"],
                "first_month": 7,
            }},
        }

    def test_missing_file_raises_as_the_full_parse(self, tmp_path):
        path = tmp_path / "gone.csv"
        with pytest.raises(FileNotFoundError) as full:
            load_series_csv(path, "x", Region.US, Category.GROWTH)
        with pytest.raises(FileNotFoundError) as resumed:
            load_series_csv(path, "x", Region.US, Category.GROWTH, parses=SeriesParses())
        assert str(resumed.value) == str(full.value)

    def test_damaged_or_foreign_record_only_costs_a_full_parse(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"year,month,value\n" + b"".join(series_lines(np.arange(5), np.arange(5.0))))
        first_run = SeriesParses()
        load_series_csv(path, "x", Region.US, Category.GROWTH, parses=first_run)
        blob = first_run.pack()
        meta, arrays = unpack_record(blob)
        entry = meta["files"][str(path)]
        foreign = [
            pack_record({**meta, "schema": 1}, arrays),
            pack_record({**meta, "other": 1}, arrays),
            pack_record({"files": {str(path): {**entry, "rows": 5}}}, arrays),
            pack_record({"files": {str(path): {**entry, "length": 0}}}, arrays),
            pack_record({"files": {str(path): {**entry, "first_month": 1.0}}}, arrays),
            pack_record({"files": {str(path): {**entry, "sha256": None}}}, arrays),
            pack_record({"files": {str(path): {**entry, "names": "value"}}}, arrays),
            pack_record({"files": {str(path): {**entry, "names": ["value", "other"]}}}, arrays),
            pack_record({"files": {str(path): {**entry, "state": 1}}}, arrays),
            pack_record({"files": {str(path): [entry]}}, arrays),
            pack_record(meta, {**arrays, "values:other": np.zeros((1, 1))}),
            pack_record(meta, {**arrays, f"months:{path}": np.arange(5.0) + 0.5}),
            pack_record(meta, {f"values:{path}": np.arange(5.0)}),  # one-dimensional values
            pack_record(meta, {}),
        ]
        damaged = [blob[:n] for n in range(0, len(blob), 7)] + [
            blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :] for at in range(0, len(blob), 5)
        ]
        with path.open("ab") as fh:
            fh.writelines(series_lines(np.array([5]), np.array([5.0])))
        record = tmp_path / "series_parse.rec"
        for data in [*foreign, *damaged]:
            record.write_bytes(data)
            parses = SeriesParses.read(record)
            assert parses.prior == {}
            assert load_outcome(path, parses) == load_outcome(path) and parses.parsed == 1
        record.unlink()
        assert SeriesParses.read(record).prior == {}
        assert SeriesParses.read(tmp_path).prior == {}  # a directory in its place


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
    "garbled digest": "rewritten: unreadable digest",  # the record's SHA-256 trailer fails
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
        assert writes == ["growth.csv", "growth_digest.rec"]
        meta, arrays = unpack_record((tmp_path / "growth_digest.rec").read_bytes())
        assert meta == {
            "length": path.stat().st_size,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "names": ["value"],
            "first_month": int(months[0]),
        }
        assert sorted(arrays) == ["values"]
        assert arrays["values"].tobytes() == np.array([[0.1], [np.nan], [-2.0]]).tobytes()
        first = (tmp_path / "growth_digest.rec").read_bytes()
        assert write_month_table(path, ("value",), months, [0.1, np.nan, -2.0]) == "appended 0 rows"
        assert (tmp_path / "growth_digest.rec").read_bytes() == first

    def test_state_is_stored_in_the_table_record(self, tmp_path):
        path = tmp_path / "growth.csv"
        months, rows = month_range(MonthStamp(1999, 11), 3), [0.1, 0.2, 0.3]
        assert read_table_record(path) == "no digest"
        write_month_table(path, ("value",), months, rows)
        assert read_table_record(path).state is None
        state = ({"key": "k"}, {"mean": np.arange(2.0), "scatter": np.eye(2)})
        assert write_month_table(path, ("value",), months, rows, state=state) == "appended 0 rows"
        record = read_table_record(path)
        meta, arrays = record.state
        assert meta == {"key": "k"} and sorted(arrays) == ["mean", "scatter"]
        np.testing.assert_array_equal(arrays["scatter"], np.eye(2))
        assert record.values[:, 0].tolist() == rows
        assert read_month_table(path)[2][:, 0].tolist() == rows
        good_meta, good_arrays = unpack_record(digest_path(path).read_bytes())
        for bad_meta, bad_arrays in (  # members write_month_table never writes
            ({**good_meta, "state": 5}, good_arrays),
            ({k: v for k, v in good_meta.items() if k != "state"}, good_arrays),
            (good_meta, {**good_arrays, "other": np.zeros(1)}),
        ):
            digest_path(path).write_bytes(pack_record(bad_meta, bad_arrays))
            assert read_table_record(path) == "unreadable digest"
            assert write_month_table(path, ("value",), months, rows) == "rewritten: unreadable digest"

    def test_gapped_months_are_refused(self, tmp_path):
        with pytest.raises(NonContiguousMonthsError):
            write_month_table(tmp_path / "t.csv", ("value",), np.array([10, 12]), [1.0, 2.0])

    def test_five_field_record_reads_as_unreadable(self, tmp_path):
        path = tmp_path / "panel.csv"
        months = month_range(MonthStamp(2000, 1), 2)
        write_month_table(path, ("a",), months, [1.0, 2.0])
        expected = path.read_bytes()
        record = {
            "rows": 2, "first_month": int(months[0]), "columns": ["a"],
            "values_sha256": hashlib.sha256(np.array([1.0, 2.0])).hexdigest(),
            "file_sha256": hashlib.sha256(expected).hexdigest(),
        }
        digest_path(path).write_text(json.dumps(record), encoding="utf-8")
        assert write_month_table(path, ("a",), months, [1.0, 2.0]) == "rewritten: unreadable digest"
        assert path.read_bytes() == expected


def read_outcome(path, columns=None, cell=finite_cell_or_nan):
    """What read_month_table returns, bit for bit, or the type and message of what it raises."""
    try:
        names, months, rows = read_month_table(path, columns, cell)
    except (MalformedRowError, ValueError) as exc:
        return type(exc), str(exc)
    return names, months.dtype, months.tobytes(), rows.dtype, rows.shape, rows.tobytes()


def parse_outcome(path, columns=None, cell=finite_cell_or_nan):
    """:func:`read_outcome` with the digest record deleted, so the file is parsed."""
    digest_path(path).unlink(missing_ok=True)
    return read_outcome(path, columns, cell)


def flip_digit(path, at):
    """``path`` with one digit of its body replaced by another digit."""
    blob = bytearray(path.read_bytes())
    digits = [i for i in range(blob.index(b"\n"), len(blob)) if chr(blob[i]).isdigit()]
    if digits:
        i = digits[at % len(digits)]
        blob[i] = ord("0") + (blob[i] - ord("0") + 1 + at % 9) % 10
    path.write_bytes(bytes(blob))


def copy_record_of_another_table(path, at):
    """The record of the same table with one cell changed, copied over ``path``'s."""
    names, months, rows = read_month_table(path, cell=finite_cell_or_nan)
    other = path.with_name("other.csv")
    write_month_table(other, names, months, other_cell(rows, at))
    digest_path(path).write_bytes(digest_path(other).read_bytes())


# Damage to a table or its record after write_month_table wrote them.
READ_TAMPERS = {
    "edited cell": flip_digit,
    "CRLF line endings": lambda path, at: path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n")),
    "truncated file": FILE_TAMPERS["truncated file"],
    "extended file": FILE_TAMPERS["extended file"],
    "deleted record": lambda path, at: digest_path(path).unlink(),
    "truncated record": lambda path, at: digest_path(path).write_bytes(
        digest_path(path).read_bytes()[: at % digest_path(path).stat().st_size]
    ),
    "flipped record bit": lambda path, at: flip_byte(digest_path(path), at),
    "foreign record": FILE_TAMPERS["digest not JSON"],
    "record of another table": copy_record_of_another_table,
}


class TestRecordedRead:
    """read_month_table takes a table's rows from its digest record only when
    they are bit for bit what parsing the file returns."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        table=digest_tables(),
        cell=st.sampled_from([finite_cell_or_nan, finite_cell]),
        columns=st.sampled_from(["any", "names", "other"]),
    )
    def test_record_reads_as_the_parse(self, tmp_path_factory, table, cell, columns):
        names, months, rows, k = table
        path = tmp_path_factory.mktemp("recorded") / "table.csv"
        write_month_table(path, names, months[:k], rows[:k])
        write_month_table(path, names, months, rows)  # appended: the record covers both writes
        columns = {"any": None, "names": names, "other": (*names, "extra")}[columns]
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            recorded = read_outcome(path, columns, cell)
        parses_nan = cell is finite_cell and np.isnan(rows).any()
        assert (loadtxt.call_count > 0) == (parses_nan and columns != (*names, "extra"))
        assert recorded == parse_outcome(path, columns, cell)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(table=digest_tables(), tamper=st.sampled_from(sorted(READ_TAMPERS)), at=st.integers(0, 10**6))
    def test_tampered_table_or_record_reads_as_the_parse(self, tmp_path_factory, table, tamper, at):
        names, months, rows, _ = table
        path = tmp_path_factory.mktemp("tampered") / "table.csv"
        write_month_table(path, names, months, rows)
        READ_TAMPERS[tamper](path, at)
        assert read_outcome(path) == parse_outcome(path)

    def test_record_with_its_file_hash_is_still_refused_for_what_the_parse_rejects(self, tmp_path):
        months = month_range(MonthStamp(2000, 1), 2)
        cases = [
            (("phase",), [1.0, 2.0], int),  # "1.0" in an integer field
            (("a\nb",), [1.0, 2.0], finite_cell),  # a name csv splits over two lines
            (("a,b",), [1.0, 2.0], finite_cell),  # a name csv splits into two columns
            (("a",), [1.0, np.inf], finite_cell),  # "inf" is not a finite cell
        ]
        for names, values, cell in cases:
            path = tmp_path / "table.csv"
            write_month_table(path, names, months, values)
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
                recorded = read_outcome(path, cell=cell)
            assert loadtxt.call_count >= 1
            assert recorded == parse_outcome(path, cell=cell)
            assert recorded[0] is MalformedRowError

    def test_only_the_rows_past_the_record_are_parsed(self, tmp_path):
        path = tmp_path / "table.csv"
        months = month_range(MonthStamp(2000, 1), 5)
        write_month_table(path, ("a", "b"), months[:3], [[1.0, np.nan], [2.0, 3.0], [-0.0, 4.0]])
        with path.open("a") as fh:
            fh.write("2000,4,5.0,\n\n2000,5,6.0,7.0\n")
        parsed, loadtxt = [], np.loadtxt

        def counting_loadtxt(lines, *args, **kwargs):
            parsed.append(list(lines))
            return loadtxt(parsed[-1], *args, **kwargs)

        with mock.patch.object(np, "loadtxt", counting_loadtxt):
            recorded = read_outcome(path)
        assert parsed == [["2000,4,5.0,nan", "", "2000,5,6.0,7.0", ""]]  # only the lines past the record
        assert recorded == parse_outcome(path)
        assert recorded[2] == months.tobytes()

    def test_nan_cells_read_as_the_parsers_nan(self, tmp_path):
        path = tmp_path / "table.csv"
        other_nan = np.float64(-np.nan)  # sign bit set: bits the parser never returns
        months = month_range(MonthStamp(2000, 1), 2)
        write_month_table(path, ("a", "b"), months, [[other_nan, 1.0], [2.0, -0.0]])
        assert read_outcome(path) == parse_outcome(path)

    def test_years_outside_the_format_are_parsed(self, tmp_path):
        path = tmp_path / "table.csv"
        write_month_table(path, ("a",), np.array([-2, -1]), [1.0, 2.0])  # year -1
        assert read_outcome(path)[0] is MalformedRowError
        assert read_outcome(path) == parse_outcome(path)

    def test_non_utf8_table_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"year,month,a\r\n2000,1,1.0\r2000,2,\xff2.0\n")
        with pytest.raises(MalformedRowError, match=r"line 3: .*table\.csv is not UTF-8") as info:
            read_month_table(path)
        assert info.value.line_number == 3


def test_prefix_sha256_hashes_the_json_header_then_the_float64_bytes():
    rows = np.arange(6, dtype=np.int32).reshape(3, 2)
    header = [["a", "b"], 24000, None]
    expected = hashlib.sha256(json.dumps(header).encode() + rows.astype(np.float64).tobytes())
    assert prefix_sha256(header, rows) == expected.hexdigest()
    assert prefix_sha256(header, rows[:, ::-1]) != expected.hexdigest()


# Bit patterns the codec must keep: -0.0, the smallest subnormal, infinity,
# and NaNs with payloads (signalling, quiet with low bits set, negative).
SPECIAL_BITS = (
    0x8000000000000000, 0x0000000000000001, 0x7FF0000000000000,
    0x7FF0000000000001, 0x7FF8000000000123, 0xFFF8000000000000,
)


@st.composite
def record_arrays(draw):
    """0 to 3 named float64 arrays of 0 rows, 1x1, dxd and other shapes, from raw bit patterns."""
    bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))
    arrays = {}
    for name in draw(st.lists(st.text(max_size=6), max_size=3, unique=True)):
        d = draw(st.integers(1, 5))
        shape = draw(st.sampled_from([(0, d), (1, 1), (d, d), (d,), ()]))
        cells = draw(st.lists(bits, min_size=math.prod(shape), max_size=math.prod(shape)))
        arrays[name] = np.array(cells, dtype=np.uint64).view(np.float64).reshape(shape)
    return arrays


def seal(header: bytes, body: bytes = b"", length: int | None = None) -> bytes:
    """A record of this header and body, its length field ``length`` (the
    header's own by default), under a trailer that matches it."""
    data = (len(header) if length is None else length).to_bytes(4, "little") + header + body
    return data + hashlib.sha256(data).digest()


class TestRecordCodec:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        arrays=record_arrays(),
        meta=st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.none(), st.integers(), st.text(max_size=8), st.lists(st.text(max_size=4))),
            max_size=4,
        ),
    )
    def test_round_trip_is_bit_exact_and_deterministic(self, arrays, meta):
        meta = {**meta, "names": ["Wachstum_ä", "通胀", "ñ\u2028"]}
        data = pack_record(meta, arrays)
        assert pack_record(dict(reversed(meta.items())), dict(reversed(arrays.items()))) == data
        got_meta, got = unpack_record(data)
        assert got_meta == meta
        assert got.keys() == arrays.keys()
        for name, array in arrays.items():
            assert got[name].dtype == np.float64 and got[name].shape == array.shape
            np.testing.assert_array_equal(got[name].view(np.uint64), array.view(np.uint64))
            assert got[name].flags.writeable

    def test_layout(self):
        data = pack_record({"k": 1}, {"b": np.array([2.0]), "a": np.eye(2)})
        header = b'{"meta": {"k": 1}, "shapes": {"a": [2, 2], "b": [1]}}'
        assert data == seal(header, np.eye(2).astype("<f8").tobytes() + np.array([2.0], "<f8").tobytes())

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            seal(b"{}")[:-1],
            seal(b'{"meta": {}, "shapes": {}}') + b"\0",
            seal(b'{"meta": {}, "shapes": {}}')[:-40] + b"\1" + seal(b'{"meta": {}, "shapes": {}}')[-39:],
            seal(b"\xff"),
            seal(b"[1, 2]"),
            seal(b'{"meta": {}}'),
            seal(b'{"shapes": {}}'),
            seal(b'{"meta": {}, "shapes": {}, "extra": 1}'),
            seal(b'{"meta": [], "shapes": {}}'),
            seal(b'{"meta": {}, "shapes": []}'),
            seal(b'{"meta": {}, "shapes": {"a": 1}}', bytes(8)),
            seal(b'{"meta": {}, "shapes": {"a": [-1]}}'),
            seal(b'{"meta": {}, "shapes": {"a": [1.0]}}', bytes(8)),
            seal(b'{"meta": {}, "shapes": {"a": [true]}}', bytes(8)),
            seal(b'{"meta": {}, "shapes": {"a": [2]}}', bytes(8)),
            seal(b'{"meta": {}, "shapes": {"a": [2]}}', bytes(24)),
            seal(b'{"meta": {}, "shapes": {}}', bytes(8)),
            seal(b'{"meta": {}, "shapes": {}}', length=100),
        ],
        ids=[
            "empty", "truncated", "extended", "flipped", "not UTF-8", "not an object", "no shapes", "no meta",
            "extra key", "meta not an object", "shapes not an object", "shape not a list",
            "negative dimension", "float dimension", "bool dimension", "short body", "long body",
            "body without arrays", "header length past the end",
        ],
    )
    def test_malformed_record_raises_value_error(self, data):
        with pytest.raises(ValueError):
            unpack_record(data)


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
    rows = np.asarray(cells, dtype=np.int64 if cell is int else float).reshape(len(months), len(header) - 2)
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
        assert rows.shape == want_rows.shape and rows.dtype == want_rows.dtype
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
