"""Optional external-data client.

Downloads raw monthly series from provider HTTP APIs into the toolkit's CSV
format, with a directory cache (one file per provider/series pair, written
atomically) so the rest of the pipeline never needs network access. Providers
hide behind one request/parse interface; sub-monthly observations collapse to
the last value of each month. API keys come from the config or from
``CYCLECAST_<PROVIDER>_KEY``.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .dataset import Category, MonthStamp, RawSeries, Region, Transform, format_month_table
from .errors import (
    AuthError,
    NetworkError,
    NonNumericPayloadError,
    UnknownSeriesError,
)

__all__ = [
    "ProviderConfig",
    "CacheEntry",
    "Provider",
    "FredJsonProvider",
    "CsvProvider",
    "SeriesClient",
    "export_series_csv",
    "api_key_from_env",
    "load_series_manifest",
]

CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ProviderConfig:
    provider_id: str
    base_url: str
    api_key: str | None = None
    rate_limit: int = 60  # requests per minute

    def __post_init__(self):
        if self.rate_limit <= 0:
            raise ValueError("rate_limit must be > 0")


@dataclass(frozen=True)
class CacheEntry:
    provider_id: str
    series_id: str
    fetched_at: float
    payload: RawSeries


def api_key_from_env(provider_id: str) -> str | None:
    return os.environ.get(f"CYCLECAST_{provider_id.upper()}_KEY")


# One raw observation: calendar date plus value, pre-aggregation.
Observation = tuple[int, int, int, float]


class Provider(Protocol):
    """Request building and payload parsing for one upstream API."""

    def build_url(self, cfg: ProviderConfig, series_id: str) -> str: ...

    def parse(self, payload: bytes, series_id: str) -> list[Observation]: ...


def _parse_date(text: str) -> tuple[int, int, int]:
    m = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", text.strip())
    if m is None:
        raise NonNumericPayloadError(f"bad date {text!r}")
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


class FredJsonProvider:
    """FRED-style JSON: {"observations": [{"date": ..., "value": ...}, ...]}.

    A value of "." marks a missing observation and is skipped.
    """

    def build_url(self, cfg: ProviderConfig, series_id: str) -> str:
        params = {"series_id": series_id, "file_type": "json"}
        key = cfg.api_key or api_key_from_env(cfg.provider_id)
        if key:
            params["api_key"] = key
        return f"{cfg.base_url.rstrip('/')}/series/observations?{urllib.parse.urlencode(params)}"

    def parse(self, payload: bytes, series_id: str) -> list[Observation]:
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise NonNumericPayloadError(f"series {series_id!r}: not JSON ({exc})") from exc
        if "observations" not in doc:
            raise UnknownSeriesError(series_id)
        out: list[Observation] = []
        for obs in doc["observations"]:
            raw = obs.get("value", ".")
            if raw == ".":
                continue
            year, month, day = _parse_date(obs["date"])
            try:
                out.append((year, month, day, float(raw)))
            except (TypeError, ValueError):
                raise NonNumericPayloadError(
                    f"series {series_id!r}: value {raw!r} is not numeric"
                ) from None
        return out


class CsvProvider:
    """Generic ``date,value`` CSV payload (EuroStat-style simple exports)."""

    def build_url(self, cfg: ProviderConfig, series_id: str) -> str:
        return f"{cfg.base_url.rstrip('/')}/{urllib.parse.quote(series_id)}.csv"

    def parse(self, payload: bytes, series_id: str) -> list[Observation]:
        text = payload.decode("utf-8")
        out: list[Observation] = []
        for line_no, line in enumerate(text.splitlines()):
            if not line.strip() or (line_no == 0 and line.lower().startswith("date")):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise NonNumericPayloadError(f"series {series_id!r}: bad row {line!r}")
            year, month, day = _parse_date(parts[0])
            try:
                out.append((year, month, day, float(parts[1])))
            except ValueError:
                raise NonNumericPayloadError(
                    f"series {series_id!r}: value {parts[1]!r} is not numeric"
                ) from None
        return out


def _monthly_last(observations: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """One observation per month, in month order: the latest day wins, then the later row."""
    dated = sorted(observations, key=lambda obs: obs[:3])
    latest = {MonthStamp(year, month).ordinal: value for year, month, _, value in dated}
    return np.fromiter(latest, dtype=np.int64), np.fromiter(latest.values(), dtype=float)


def _urllib_transport(url: str, timeout: float = 30.0) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(str(exc)) from exc


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", text)


class SeriesClient:
    """Fetches series through a provider, with rate limiting and a disk cache.

    ``transport``, ``clock``, and ``sleep`` are injectable so tests can run
    without a network or a real clock. ``offline=True`` forbids network use:
    cache hits are served, misses raise :class:`NetworkError`.
    """

    def __init__(
        self,
        cfg: ProviderConfig,
        provider: Provider,
        cache_dir: str | Path,
        transport: Callable[[str], tuple[int, bytes]] | None = None,
        offline: bool = False,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.provider = provider
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.transport = transport or _urllib_transport
        self.offline = offline
        self._clock = clock
        self._sleep = sleep
        self._request_times: deque[float] = deque()

    def _cache_path(self, series_id: str) -> Path:
        return self.cache_dir / f"{_safe_name(self.cfg.provider_id)}__{_safe_name(series_id)}.json"

    def _throttle(self) -> None:
        """Never exceed rate_limit requests in any sliding 60-second window."""
        now = self._clock()
        while self._request_times and now - self._request_times[0] >= 60.0:
            self._request_times.popleft()
        if len(self._request_times) >= self.cfg.rate_limit:
            wait = 60.0 - (now - self._request_times[0])
            if wait > 0:
                self._sleep(wait)
            now = self._clock()
            while self._request_times and now - self._request_times[0] >= 60.0:
                self._request_times.popleft()
        self._request_times.append(self._clock())

    def fetch_series(
        self,
        series_id: str,
        region: Region = Region.US,
        category: Category = Category.OTHER,
        refresh: bool = False,
    ) -> RawSeries:
        """Return the monthly series, from cache when possible."""
        cached = None if refresh else self._read_cache(series_id, region, category)
        if cached is not None:
            return cached.payload
        if self.offline:
            raise NetworkError(
                f"offline mode: series {series_id!r} not in cache {self.cache_dir}"
            )
        self._throttle()
        url = self.provider.build_url(self.cfg, series_id)
        status, body = self.transport(url)
        if status in (401, 403):
            raise AuthError(f"provider {self.cfg.provider_id!r} rejected credentials ({status})")
        if status == 404:
            raise UnknownSeriesError(series_id)
        if status != 200:
            raise NetworkError(f"HTTP {status} from {self.cfg.provider_id!r}")
        observations = self.provider.parse(body, series_id)
        if not observations:
            raise UnknownSeriesError(series_id)
        months, values = _monthly_last(observations)
        series = RawSeries(
            series_id=series_id,
            region=region,
            category=category,
            months=months,
            values=values,
        )
        self._write_cache(CacheEntry(self.cfg.provider_id, series_id, time.time(), series))
        return series

    def _read_cache(
        self, series_id: str, region: Region, category: Category
    ) -> CacheEntry | None:
        path = self._cache_path(series_id)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            series = RawSeries(
                series_id=doc["series_id"],
                region=Region(doc["region"]),
                category=Category(doc["category"]),
                months=[MonthStamp(y, m).ordinal for y, m in doc["months"]],
                values=doc["values"],
                transform_applied=Transform(doc["transform"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None  # unreadable cache entries are treated as misses
        return CacheEntry(
            provider_id=doc.get("provider_id", self.cfg.provider_id),
            series_id=series_id,
            fetched_at=float(doc.get("fetched_at", 0.0)),
            payload=series,
        )

    def _write_cache(self, entry: CacheEntry) -> None:
        doc = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "provider_id": entry.provider_id,
            "series_id": entry.series_id,
            "fetched_at": entry.fetched_at,
            "region": entry.payload.region.value,
            "category": entry.payload.category.value,
            "transform": entry.payload.transform_applied.value,
            "months": [[m // 12, m % 12 + 1] for m in entry.payload.months.tolist()],
            "values": entry.payload.values.tolist(),
        }
        path = self._cache_path(entry.series_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)  # atomic on POSIX


def export_series_csv(series: RawSeries, path: str | Path) -> None:
    """Write ``year,month,value`` CSV readable by the dataset module."""
    text = format_month_table(("value",), series.months, series.values)
    Path(path).write_bytes(text.encode("utf-8"))


def load_series_manifest(path: str | Path | None = None) -> dict:
    """Load a series manifest; the bundled one is a convenience list of
    public series ids, not a curated research dataset."""
    if path is None:
        from importlib.resources import files

        text = files("cyclecast.data").joinpath("us_series_manifest.json").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return json.loads(text)
