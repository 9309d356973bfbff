import json

import pytest

from cyclecast.dataset import Category, MonthStamp, Region, load_series_csv
from cyclecast.errors import (
    AuthError,
    NetworkError,
    NonNumericPayloadError,
    UnknownSeriesError,
)
from cyclecast.fetch import (
    CsvProvider,
    FredJsonProvider,
    ProviderConfig,
    SeriesClient,
    export_series_csv,
    load_series_manifest,
)

from conftest import assert_fields_equal, make_series


def fred_payload(observations):
    return json.dumps({"observations": observations}).encode()


def obs(date, value):
    return {"date": date, "value": value}


class FakeTransport:
    """Maps url substrings to (status, body); counts calls."""

    def __init__(self, routes):
        self.routes = routes
        self.calls = []

    def __call__(self, url, timeout=30.0):
        self.calls.append(url)
        for key, response in self.routes.items():
            if key in url:
                return response
        return 404, b"not found"


def make_client(tmp_path, routes, **kwargs):
    cfg = ProviderConfig(provider_id="fred", base_url="https://x.test/fred", rate_limit=1000)
    transport = FakeTransport(routes)
    client = SeriesClient(
        cfg, FredJsonProvider(), cache_dir=tmp_path / "cache", transport=transport, **kwargs
    )
    return client, transport


class TestFetchSeries:
    def test_monthly_passthrough(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.5"), obs("2020-02-01", "2.5")])
        client, _ = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        series = client.fetch_series("GDP", category=Category.GROWTH)
        assert series.months.tolist() == [MonthStamp(2020, 1).ordinal, MonthStamp(2020, 2).ordinal]
        assert series.values.tolist() == [1.5, 2.5]

    def test_daily_aggregated_to_last_observation(self, tmp_path):
        days = [obs(f"2020-01-{d:02d}", str(float(d))) for d in range(1, 32)]
        client, _ = make_client(tmp_path, {"series_id=DAILY": (200, fred_payload(days))})
        series = client.fetch_series("DAILY")
        assert series.months.tolist() == [MonthStamp(2020, 1).ordinal]
        assert series.values.tolist() == [31.0]

    def test_missing_values_skipped(self, tmp_path):
        payload = fred_payload(
            [obs("2020-01-01", "1.0"), obs("2020-02-01", "."), obs("2020-03-01", "3.0")]
        )
        client, _ = make_client(tmp_path, {"series_id=GAPPY": (200, payload)})
        series = client.fetch_series("GAPPY")
        assert series.months.tolist() == [MonthStamp(2020, 1).ordinal, MonthStamp(2020, 3).ordinal]

    def test_cache_hit_skips_network(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.0")])
        client, transport = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        first = client.fetch_series("GDP")
        assert len(transport.calls) == 1
        second = client.fetch_series("GDP")
        assert len(transport.calls) == 1
        assert first == second

    def test_offline_serves_cache_and_fails_on_miss(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.0")])
        client, _ = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        fetched = client.fetch_series("GDP")
        offline, transport = make_client(tmp_path, {}, offline=True)
        assert_fields_equal(offline.fetch_series("GDP"), fetched)
        assert transport.calls == []
        with pytest.raises(NetworkError):
            offline.fetch_series("MISSING")

    def test_unknown_series(self, tmp_path):
        client, _ = make_client(tmp_path, {})
        with pytest.raises(UnknownSeriesError):
            client.fetch_series("NOPE")

    def test_auth_error(self, tmp_path):
        client, _ = make_client(tmp_path, {"series_id=SECRET": (403, b"denied")})
        with pytest.raises(AuthError):
            client.fetch_series("SECRET")

    def test_server_error_is_network_error(self, tmp_path):
        client, _ = make_client(tmp_path, {"series_id=FLAKY": (500, b"oops")})
        with pytest.raises(NetworkError):
            client.fetch_series("FLAKY")

    def test_non_numeric_payload(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "abc")])
        client, _ = make_client(tmp_path, {"series_id=BAD": (200, payload)})
        with pytest.raises(NonNumericPayloadError):
            client.fetch_series("BAD")

    def test_no_tmp_files_left_behind(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.0")])
        client, _ = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        client.fetch_series("GDP")
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []


class TestCache:
    def test_entry_is_the_series_csv(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.5"), obs("2020-02-01", "2.5")])
        client, _ = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        series = client.fetch_series("GDP")
        exported = tmp_path / "GDP.csv"
        export_series_csv(series, exported)
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["fred__GDP.csv"]
        assert (tmp_path / "cache" / "fred__GDP.csv").read_bytes() == exported.read_bytes()

    def test_hit_takes_the_callers_region_and_category(self, tmp_path):
        payload = fred_payload([obs("2020-01-01", "1.0")])
        client, transport = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        client.fetch_series("GDP", region=Region.US, category=Category.GROWTH)
        offline, _ = make_client(tmp_path, {}, offline=True)
        for c in (client, offline):
            series = c.fetch_series("GDP", region=Region.EZ, category=Category.INFLATION)
            assert (series.region, series.category) == (Region.EZ, Category.INFLATION)
        assert len(transport.calls) == 1

    @pytest.mark.parametrize(
        "damage", [b"", b"garbage\n", b"\xff\xfe\x00", b"year,month,value\n2020,1,nan\n"]
    )
    def test_damaged_entry_is_fetched_again_once(self, tmp_path, damage):
        payload = fred_payload([obs("2020-01-01", "1.0")])
        client, transport = make_client(tmp_path, {"series_id=GDP": (200, payload)})
        (tmp_path / "cache" / "fred__GDP.csv").write_bytes(damage)
        assert client.fetch_series("GDP").values.tolist() == [1.0]
        assert client.fetch_series("GDP").values.tolist() == [1.0]
        assert len(transport.calls) == 1

    def test_json_entry_of_the_old_format_is_a_miss(self, tmp_path):
        client, _ = make_client(tmp_path, {}, offline=True)
        doc = {"series_id": "GDP", "region": "us", "category": "growth", "transform": "none",
               "months": [[2020, 1]], "values": [1.0]}
        (tmp_path / "cache" / "fred__GDP.json").write_text(json.dumps(doc))
        with pytest.raises(NetworkError, match="not in cache"):
            client.fetch_series("GDP")

    def test_distinct_ids_get_distinct_files(self, tmp_path):
        routes = {
            "series_id=A%2FB": (200, fred_payload([obs("2020-01-01", "1.0")])),
            "series_id=A_B": (200, fred_payload([obs("2020-01-01", "2.0")])),
        }
        client, _ = make_client(tmp_path, routes)
        assert client.fetch_series("A/B").values.tolist() == [1.0]
        assert client.fetch_series("A_B").values.tolist() == [2.0]
        names = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert names == ["fred__A%2FB.csv", "fred__A_B.csv"]
        offline, _ = make_client(tmp_path, {}, offline=True)
        assert offline.fetch_series("A/B").values.tolist() == [1.0]
        assert offline.fetch_series("A_B").values.tolist() == [2.0]


class TestRateLimiter:
    def test_never_exceeds_limit_in_any_window(self, tmp_path):
        clock = {"now": 0.0}
        sleeps = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        payload = fred_payload([obs("2020-01-01", "1.0")])
        cfg = ProviderConfig(provider_id="fred", base_url="https://x.test", rate_limit=3)
        transport = FakeTransport({"series_id=": (200, payload)})
        client = SeriesClient(
            cfg,
            FredJsonProvider(),
            cache_dir=tmp_path / "cache",
            transport=transport,
            clock=fake_clock,
            sleep=fake_sleep,
        )
        stamps = []
        for i in range(8):
            client.fetch_series(f"S{i}")
            stamps.append(clock["now"])
            clock["now"] += 1.0
        assert sleeps, "limiter should have slept at least once"
        for i in range(len(stamps)):
            in_window = [s for s in stamps if stamps[i] <= s < stamps[i] + 60.0]
            assert len(in_window) <= 3


class TestExport:
    def test_three_rows_plus_header(self, tmp_path):
        series = make_series([1.0, 2.5, -3.25])
        path = tmp_path / "s.csv"
        export_series_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "year,month,value"
        assert len(lines) == 4

    def test_empty_series_header_only(self, tmp_path):
        from cyclecast.dataset import RawSeries

        empty = RawSeries("e", Region.US, Category.OTHER, (), ())
        path = tmp_path / "e.csv"
        export_series_csv(empty, path)
        assert path.read_text() == "year,month,value\n"

    def test_round_trip_exact(self, tmp_path, rng):
        series = make_series(rng.standard_normal(24) * 1234.5678, "rt")
        path = tmp_path / "rt.csv"
        export_series_csv(series, path)
        loaded = load_series_csv(path, "rt", Region.US, Category.GROWTH)
        assert_fields_equal(loaded, series)


class TestCsvProvider:
    def test_parse(self):
        payload = b"date,value\n2020-01-31,1.5\n2020-02-29,2.5\n"
        rows = CsvProvider().parse(payload, "X")
        assert rows == [(2020, 1, 31, 1.5), (2020, 2, 29, 2.5)]

    def test_bad_value(self):
        with pytest.raises(NonNumericPayloadError):
            CsvProvider().parse(b"2020-01-31,abc\n", "X")

    def test_bad_shape(self):
        with pytest.raises(NonNumericPayloadError):
            CsvProvider().parse(b"2020-01-31,1,2\n", "X")


@pytest.mark.parametrize(
    "payload",
    [
        b'{"observations": [{"value": "1.0"}]}',  # no date
        b'{"observations": 5}',
        b"5",
        b"[]",
        b'{"observations": [5]}',
        b'{"observations": [{"date": 20200101, "value": "1.0"}]}',
        b'{"observations": [{"date": "2020-13-01", "value": "1.0"}]}',
        b"\xff",  # not UTF-8
    ],
)
def test_fred_payload_of_another_shape_is_a_data_error(payload):
    with pytest.raises(NonNumericPayloadError):
        FredJsonProvider().parse(payload, "X")


def test_shape_errors_name_the_series():
    for payload in (b'{"observations": [{"value": "1.0"}]}', b'{"observations": 5}', b"5"):
        with pytest.raises(NonNumericPayloadError, match="series 'X'"):
            FredJsonProvider().parse(payload, "X")


@pytest.mark.parametrize("payload", [b"2020-13-31,1.0\n", b"date,value\n2020-01-31,\xff\n"])
def test_csv_payload_with_a_bad_month_or_bytes_is_a_data_error(payload):
    with pytest.raises(NonNumericPayloadError):
        CsvProvider().parse(payload, "X")


@pytest.mark.parametrize("token", ["NaN", "inf", "-Infinity"])
class TestNonFiniteValues:
    def test_fred_json(self, token):
        payload = fred_payload([obs("2020-01-01", "1.0"), obs("2020-02-01", token)])
        with pytest.raises(NonNumericPayloadError, match=f"series 'X'.*{token!r}"):
            FredJsonProvider().parse(payload, "X")

    def test_csv(self, token):
        payload = f"date,value\n2020-01-31,1.0\n2020-02-29,{token}\n".encode()
        with pytest.raises(NonNumericPayloadError, match=f"series 'X'.*{token!r}"):
            CsvProvider().parse(payload, "X")


class TestManifest:
    def test_bundled_manifest_loads(self):
        doc = load_series_manifest()
        assert doc["provider"] == "fred"
        categories = {entry["category"] for entry in doc["series"]}
        assert "growth" in categories and "inflation" in categories

    def test_rate_limit_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(provider_id="p", base_url="u", rate_limit=0)


class TestApiKeys:
    def test_env_var_used_when_config_has_none(self, monkeypatch):
        monkeypatch.setenv("CYCLECAST_FRED_KEY", "sekrit")
        cfg = ProviderConfig(provider_id="fred", base_url="https://x.test/fred")
        url = FredJsonProvider().build_url(cfg, "GDP")
        assert "api_key=sekrit" in url

    def test_config_key_wins(self, monkeypatch):
        monkeypatch.setenv("CYCLECAST_FRED_KEY", "env-key")
        cfg = ProviderConfig(
            provider_id="fred", base_url="https://x.test/fred", api_key="cfg-key"
        )
        url = FredJsonProvider().build_url(cfg, "GDP")
        assert "api_key=cfg-key" in url

    def test_no_key_omits_parameter(self, monkeypatch):
        monkeypatch.delenv("CYCLECAST_FRED_KEY", raising=False)
        cfg = ProviderConfig(provider_id="fred", base_url="https://x.test/fred")
        assert "api_key" not in FredJsonProvider().build_url(cfg, "GDP")
