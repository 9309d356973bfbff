import numpy as np
import pytest

from cyclecast.dataset import (
    LabeledDataset,
    MonthStamp,
    PhaseLabel,
    Region,
    SplitSpec,
    load_labels,
    load_series_csv,
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
        assert ds.months[0] == MonthStamp(1981, 1)

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
        assert load_labels(p, region=Region.EZ) == ds

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
    return rows, {k: [months[i].next() for i in v] for k, v in rows.items()}


class TestSplitRows:
    def test_ez_table_boundaries(self):
        months = month_range(MonthStamp(1981, 1), 42 * 12)  # 1981-01 .. 2022-12
        spec = SplitSpec(
            MonthStamp(2001, 12), MonthStamp(2011, 12), MonthStamp(2022, 12)
        )
        rows, targets = split_targets(months, spec)
        assert months[rows["train"][0]] == MonthStamp(1981, 1)
        assert months[rows["train"][-1]] == MonthStamp(2001, 11)
        assert targets["train"][-1] == MonthStamp(2001, 12)
        assert targets["validation"][0] == MonthStamp(2002, 1)
        assert targets["validation"][-1] == MonthStamp(2011, 12)
        assert targets["test"][0] == MonthStamp(2012, 1)
        assert targets["test"][-1] == MonthStamp(2022, 12)
        # The last row's target, 2023-01, is after test_end.
        assert months[rows["test"][-1]] == MonthStamp(2022, 11)

    def test_us_table_boundaries(self):
        months = month_range(MonthStamp(1969, 1), 54 * 12)  # 1969-01 .. 2022-12
        spec = SplitSpec(
            MonthStamp(1999, 12), MonthStamp(2009, 12), MonthStamp(2022, 12)
        )
        rows, targets = split_targets(months, spec)
        assert months[rows["test"][0]] == MonthStamp(2009, 12)
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
            spec = SplitSpec(*(months[int(c)] for c in cuts))
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
        assert s.values == (1.5, -2.25)
        assert s.months == (MonthStamp(2000, 1), MonthStamp(2000, 2))

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
