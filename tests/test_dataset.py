import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.dataset import (
    LabeledDataset,
    MonthStamp,
    PhaseLabel,
    Region,
    SplitSpec,
    finite_cell_or_nan,
    format_month_table,
    load_labels,
    load_series_csv,
    read_month_table,
    split_rows,
    write_labels,
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
