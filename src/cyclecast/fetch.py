"""Optional external-data client.

Downloads raw monthly series from provider HTTP APIs into the toolkit's CSV
format, with a directory cache so the rest of the pipeline never needs network
access. Each cache entry is the series' ``year,month,value`` CSV,
``<provider>__<id>.csv`` with both names percent-encoded, written atomically
like every other file; the caller's region and category are applied when an
entry is read, and a missing or damaged entry is a miss. Providers hide behind
one request/parse interface; sub-monthly observations collapse to the last
value of each month, and a value that is not a finite number is a data error.
API keys come from the config or from ``CYCLECAST_<PROVIDER>_KEY``.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.parse
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .dataset import (
    Category,
    MonthStamp,
    RawSeries,
    Region,
    finite_cell,
    format_month_table,
    load_series_csv,
    write_atomic,
)
from .errors import (
    AuthError,
    DataError,
    NetworkError,
    NonNumericPayloadError,
    UnknownSeriesError,
)

__all__ = [
    "ProviderConfig",
    "Provider",
    "FredJsonProvider",
    "CsvProvider",
    "SeriesClient",
    "export_series_csv",
    "api_key_from_env",
    "load_series_manifest",
]


@dataclass(frozen=True)
class ProviderConfig:
    provider_id: str
    base_url: str
    api_key: str | None = None
    rate_limit: int = 60  # requests per minute

    def __post_init__(self):
        if self.rate_limit <= 0:
            raise ValueError("rate_limit must be > 0")


def api_key_from_env(provider_id: str) -> str | None:
    return os.environ.get(f"CYCLECAST_{provider_id.upper()}_KEY")


# One raw observation: calendar date plus value, pre-aggregation.
Observation = tuple[int, int, int, float]


class Provider(Protocol):
    """Request building and payload parsing for one upstream API."""

    def build_url(self, cfg: ProviderConfig, series_id: str) -> str: ...

    def parse(self, payload: bytes, series_id: str) -> list[Observation]: ...


def _parse_date(text: str) -> tuple[int, int, int]:
    m = re.fullmatch(r"(\d{4})-(0[1-9]|1[0-2])-(\d{2})", text.strip())
    if m is None:
        raise NonNumericPayloadError(f"bad date {text!r}")
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


def _finite_value(raw, series_id: str) -> float:
    try:
        return finite_cell(raw)
    except (TypeError, ValueError):
        raise NonNumericPayloadError(
            f"series {series_id!r}: value {raw!r} is not a finite number"
        ) from None


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
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise NonNumericPayloadError(f"series {series_id!r}: not JSON ({exc})") from exc
        if isinstance(doc, dict) and "observations" not in doc:
            raise UnknownSeriesError(series_id)
        observations = doc["observations"] if isinstance(doc, dict) else None
        if not isinstance(observations, list) or not all(isinstance(o, dict) for o in observations):
            raise NonNumericPayloadError(
                f"series {series_id!r}: expected an object with a list of observations"
            )
        out: list[Observation] = []
        for obs in observations:
            raw = obs.get("value", ".")
            if raw == ".":
                continue
            date = obs.get("date")
            if not isinstance(date, str):
                raise NonNumericPayloadError(f"series {series_id!r}: observation {obs!r} has no date")
            out.append((*_parse_date(date), _finite_value(raw, series_id)))
        return out


class CsvProvider:
    """Generic ``date,value`` CSV payload (EuroStat-style simple exports)."""

    def build_url(self, cfg: ProviderConfig, series_id: str) -> str:
        return f"{cfg.base_url.rstrip('/')}/{urllib.parse.quote(series_id)}.csv"

    def parse(self, payload: bytes, series_id: str) -> list[Observation]:
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NonNumericPayloadError(f"series {series_id!r}: not UTF-8 ({exc})") from exc
        out: list[Observation] = []
        for line_no, line in enumerate(text.splitlines()):
            if not line.strip() or (line_no == 0 and line.lower().startswith("date")):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise NonNumericPayloadError(f"series {series_id!r}: bad row {line!r}")
            out.append((*_parse_date(parts[0]), _finite_value(parts[1], series_id)))
        return out


def _monthly_last(observations: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """One observation per month, in month order: the latest day wins, then the later row."""
    dated = sorted(observations, key=lambda obs: obs[:3])
    latest = {MonthStamp(year, month).ordinal: value for year, month, _, value in dated}
    return np.fromiter(latest, dtype=np.int64), np.fromiter(latest.values(), dtype=float)


def _urllib_transport(url: str, timeout: float = 30.0) -> tuple[int, bytes]:
    import urllib.request  # here, not at module level: it pulls in http.client, ssl and email

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(str(exc)) from exc


def _safe_name(text: str) -> str:
    """``text`` percent-encoded: one file-name part per string, ``[A-Za-z0-9._~-]`` kept as is."""
    return urllib.parse.quote(text, safe="")


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
        return self.cache_dir / f"{_safe_name(self.cfg.provider_id)}__{_safe_name(series_id)}.csv"

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
    ) -> RawSeries:
        """Return the monthly series, from cache when possible."""
        path = self._cache_path(series_id)
        try:
            return load_series_csv(path, series_id, region, category)
        except (FileNotFoundError, UnicodeDecodeError, DataError):
            pass  # a missing, non-UTF-8 or malformed entry is a miss
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
        export_series_csv(series, path)
        return series


def export_series_csv(series: RawSeries, path: str | Path) -> None:
    """Write ``year,month,value`` CSV readable by the dataset module."""
    write_atomic(path, format_month_table(("value",), series.months, series.values))


def load_series_manifest() -> dict:
    """Load the bundled series manifest, a convenience list of public series
    ids, not a curated research dataset."""
    from importlib.resources import files

    return json.loads(files("cyclecast.data").joinpath("us_series_manifest.json").read_text("utf-8"))
