"""Command-line surface wiring the pipeline together.

Commands: fetch, preprocess, build-indices, features, train, evaluate,
predict, synth. Configuration comes from a JSON file plus flag overrides
(flags > file > defaults). Exit codes are a stable contract: 0 success,
2 config error, 3 data error, 4 usage error.

Every artifact write is atomic (temp file + rename) and free of wall-clock
content, so reruns on unchanged inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from . import evaluation, fetch as fetchmod
from .dataset import (
    Category,
    MonthStamp,
    PhaseLabel,
    RawSeries,
    Region,
    SeriesParses,
    SplitSpec,
    TableRecord,
    finite_cell_or_nan,
    load_labels,
    load_series_csv,
    next_month_labels,
    read_month_table,
    read_table_record,
    split_rows,
    write_atomic as _write_atomic,
    write_labels,
    write_month_table,
)
from .errors import (
    ConfigError,
    CycleCastError,
    DataError,
    InsufficientHistoryError,
    MalformedRowError,
)
from .features import (
    FeatureMatrix,
    FeatureScaler,
    build_feature_matrix,
    feature_months,
    forecast_alignment,
)
from .indices import (
    CompositeIndex,
    IndexKind,
    IndexState,
    expanding_pca_index,
    pca_first_component,
    sign_normalize,
)
from .models import (
    ModelArtifact,
    TrainConfig,
    load_model,
    nll_loss,
    rank_phases,
    save_model,
    train_mlp,
    train_mlr,
    train_svm,
)
from .preprocess import ADF_CRITICAL, MAX_DIFFERENCE_ROUNDS, Panel, align_panel, standardize_series
from .rbbcp import RbbcpModel
from .synthgen import RegimeSpec, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_USAGE = 4

DEFAULT_WINDOWS = {Region.EZ: 12, Region.US: 9}


# --- config schema -------------------------------------------------------------
# A check takes (value, dotted key) and returns the value typed or raises a
# ConfigError naming the key. Bounds are the library's, so none is looser.


def _fail(key: str, what: str, value) -> NoReturn:
    raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass(frozen=True)
class _Range:
    """An int, or a finite float (ints accepted), with lo <= value <= hi, above < value, value < below."""

    kind: type
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    below: float | None = None

    def __call__(self, value, key: str):
        if isinstance(value, bool) or not isinstance(value, (self.kind, int)):
            _fail(key, "an integer" if self.kind is int else "a number", value)
        if not abs(value) <= sys.float_info.max:  # also rejects NaN
            _fail(key, "finite", value)
        value = self.kind(value)
        if self.lo is not None and value < self.lo:
            _fail(key, f">= {self.lo}", value)
        if self.hi is not None and value > self.hi:
            _fail(key, f"<= {self.hi}", value)
        if self.above is not None and value <= self.above:
            _fail(key, f"> {self.above}", value)
        if self.below is not None and value >= self.below:
            _fail(key, f"< {self.below}", value)
        return value


@dataclass(frozen=True)
class _OneOf:
    choices: tuple

    def __call__(self, value, key: str):
        if value not in self.choices or type(value) not in {type(c) for c in self.choices}:
            _fail(key, f"one of {'/'.join(json.dumps(c) for c in self.choices)}", value)
        return value


@dataclass(frozen=True)
class _Nullable:
    check: Callable

    def __call__(self, value, key: str):
        return None if value is None else self.check(value, key)


@dataclass(frozen=True)
class _ListOf:
    """A non-empty list (of exactly ``length`` entries when set), returned as a tuple."""

    item: Callable
    length: int | None = None

    def __call__(self, value, key: str) -> tuple:
        if not isinstance(value, list) or not value or self.length not in (None, len(value)):
            _fail(key, f"a list of {self.length or 'one or more'} entries", value)
        return tuple(self.item(v, f"{key}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class _Record:
    """An object with only ``fields``, each required unless ``optional``, passed to ``build``."""

    fields: dict
    optional: tuple = ()
    build: Callable = dict

    def __call__(self, value, key: str):
        if not isinstance(value, dict):
            _fail(key, "an object", value)
        for name in [*value, *self.fields]:
            if name not in self.fields:
                raise ConfigError(f"unknown config key {f'{key}.{name}'!r}")
            if name not in value and name not in self.optional:
                raise ConfigError(f"{key}.{name} is required")
        try:
            return self.build(**{n: self.fields[n](v, f"{key}.{n}") for n, v in value.items()})
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        _fail(key, "a string", value)
    return value


def _month(value, key: str) -> MonthStamp:
    try:
        return MonthStamp.parse(_string(value, key))
    except ValueError:
        _fail(key, "a YYYY-MM month", value)


_boolean = _OneOf((False, True))
_REGIONS = tuple(r.value for r in Region)
_CATEGORIES = tuple(c.value for c in Category)
_SPLIT = _Record({"train_end": _month, "validation_end": _month, "test_end": _month}, build=SplitSpec)
_SERIES_ENTRY = _Record(
    {"id": _string, "region": _OneOf(_REGIONS), "category": _OneOf(_CATEGORIES)},
    optional=("region", "category"),
)

# Every config key: dotted name -> (default, check). Defaults pass the checks too.
# A flag overrides the key named by its argparse ``dest``.
CONFIG_SCHEMA: dict[str, tuple[object, Callable]] = {
    "region": ("us", _OneOf(_REGIONS)),
    "seed": (0, _Range(int, lo=0)),
    "window": (None, _Nullable(_Range(int, lo=2))),  # null: DEFAULT_WINDOWS[region]
    "model": ("mlr", _OneOf(("rbbcp", "mlr", "svm", "mlp"))),
    "split": (None, _Nullable(_SPLIT)),
    "paths.data_dir": ("data", _string),
    "paths.out_dir": ("out", _string),
    "paths.labels": (None, _Nullable(_string)),  # null: data_dir/labels.csv
    "preprocess.stationarity": ("auto", _OneOf(("auto", "none", "diff", "log_diff"))),
    "preprocess.zscore_mode": ("expanding", _OneOf(("expanding", "full"))),
    "preprocess.zscore_min_window": (12, _Range(int, lo=2)),
    "preprocess.nw_lag": (None, _Nullable(_Range(int, lo=0))),
    "preprocess.subsample_stride": (3, _Range(int, lo=1)),
    "preprocess.adf_alpha": (0.05, _OneOf(tuple(ADF_CRITICAL))),
    "preprocess.adf_max_lag": (None, _Nullable(_Range(int, lo=0))),
    "indices.min_window_months": (60, _Range(int, lo=2)),
    "indices.growth_reference_series": (None, _Nullable(_string)),
    "indices.inflation_reference_series": (None, _Nullable(_string)),
    "features.trend_sign_only": (False, _boolean),
    "rbbcp.trend_window": (None, _Nullable(_Range(int, lo=2))),  # null: window
    "rbbcp.zero_is_up": (False, _boolean),
    "train.learning_rate": (0.005, _Range(float, above=0)),
    "train.epochs": (500, _Range(int, lo=1, hi=100_000)),  # about 3 minutes of MLP at paper shape
    "train.l2": (0.001, _Range(float, lo=0)),
    "train.hidden_layers": ([50, 50, 50, 50], _ListOf(_Range(int, lo=1))),
    "train.dropout": (0.2, _Range(float, lo=0, below=1)),
    "train.window_candidates": (None, _Nullable(_ListOf(_Range(int, lo=2)))),
    "fetch.provider": ("fred", _OneOf(("fred", "csv"))),
    "fetch.base_url": ("https://api.stlouisfed.org/fred", _string),
    "fetch.api_key": (None, _Nullable(_string)),
    "fetch.rate_limit": (60, _Range(int, lo=1)),
    "fetch.cache_dir": ("cache", _string),
    "fetch.series": (None, _Nullable(_ListOf(_SERIES_ENTRY))),  # null: the bundled manifest
    "synth.months": (600, _Range(int, lo=1)),
    "synth.n_series": (20, _Range(int, lo=2)),
    "synth.noise_sigma": (0.05, _Range(float, above=0)),
    "synth.mean_durations": ([15.0, 22.0, 10.0, 13.0], _ListOf(_Range(float, lo=1), length=4)),
    "synth.start": ("1970-01", _month),
}
_SECTIONS = {key.partition(".")[0] for key in CONFIG_SCHEMA if "." in key}


@dataclass
class RunConfig:
    """Validated run configuration shared by all commands."""

    region: Region
    seed: int
    window: int
    model: str
    split: SplitSpec | None
    data_dir: Path
    out_dir: Path
    labels_path: Path
    preprocess: dict
    indices: dict
    features: dict
    rbbcp: dict
    train: dict
    fetch: dict
    synth: dict


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags; every key checked once."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    values = {key: default for key, (default, _) in CONFIG_SCHEMA.items()}
    for name, value in doc.items():
        entries = {name: value}
        if name in _SECTIONS:
            if not isinstance(value, dict):
                _fail(name, "an object", value)
            entries = {f"{name}.{sub}": v for sub, v in value.items()}
        for key, v in entries.items():
            if key not in CONFIG_SCHEMA or "." in name:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = v
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_SCHEMA and v is not None)
    checked = {key: check(values[key], key) for key, (_, check) in CONFIG_SCHEMA.items()}
    sections = {
        s: {k.partition(".")[2]: v for k, v in checked.items() if k.startswith(f"{s}.")}
        for s in _SECTIONS
    }
    region = Region(checked["region"])
    paths = sections.pop("paths")
    data_dir = Path(paths["data_dir"])
    return RunConfig(
        region=region,
        seed=checked["seed"],
        window=DEFAULT_WINDOWS[region] if checked["window"] is None else checked["window"],
        model=checked["model"],
        split=checked["split"],
        data_dir=data_dir,
        out_dir=Path(paths["out_dir"]),
        labels_path=data_dir / "labels.csv" if paths["labels"] is None else Path(paths["labels"]),
        **sections,
    )


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as sorted-key JSON, unless the file already holds exactly those bytes."""
    data = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except OSError:  # missing or unreadable: the write below says what is wrong
        pass
    _write_atomic(path, data)


# --- panel and feature artifacts -------------------------------------------
# The table writers hand write_month_table this module's _write_atomic, so a
# wrapper installed on that name (the benchmark tracer, perfbench/spans.py)
# sees the table bytes too.


def write_panel(panel: Panel, csv_path: Path, meta_path: Path) -> str:
    """Write the panel and its sidecar; :func:`write_month_table`'s note on which path ran."""
    note = write_month_table(csv_path, panel.series_ids, panel.months, panel.values, _write_atomic)
    meta = {
        "region": panel.region.value if panel.region else None,
        "columns": [
            {"id": sid, "category": cat.value}
            for sid, cat in zip(panel.series_ids, panel.categories)
        ],
        "fills": list(panel.fills),
    }
    _write_json(meta_path, meta)
    return note


def _read_sidecar(path: Path, parse: Callable[[dict], object]):
    """``parse`` of a JSON sidecar; a missing key or a bad value is a data error naming the file."""
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: {type(exc).__name__}: {exc}") from None


def _panel_meta(meta: dict) -> tuple[dict[str, Category], tuple | None, Region | None]:
    categories = {col["id"]: Category(col["category"]) for col in meta["columns"]}
    fills = tuple(meta["fills"]) if "fills" in meta else None
    if fills is not None and not (
        len(fills) == len(meta["columns"]) and all(type(f) is int and f >= 0 for f in fills)
    ):
        raise ValueError(f"fills {meta['fills']!r} are not one non-negative int per column")
    return categories, fills, Region(meta["region"]) if meta.get("region") else None


def read_panel(csv_path: Path, meta_path: Path) -> Panel:
    ids, months, values = read_month_table(csv_path, cell=finite_cell_or_nan)
    categories, fills, region = _read_sidecar(meta_path, _panel_meta)
    unknown = [i for i in ids if i not in categories]
    if unknown:
        raise MalformedRowError(1, f"{csv_path}: columns {unknown} are not in {meta_path.name}")
    return Panel(
        months=months,
        series_ids=ids,
        categories=tuple(categories[i] for i in ids),
        values=values,
        fills=(0,) * len(ids) if fills is None else fills,
        region=region,
    )


def write_features(fm: FeatureMatrix, csv_path: Path, meta_path: Path, sign_only: bool) -> str:
    """Write the features and their sidecar; :func:`write_month_table`'s note on which path ran."""
    note = write_month_table(csv_path, fm.feature_names, fm.months, fm.values, _write_atomic)
    meta = {"window": fm.window, "sign_only": sign_only, "feature_names": list(fm.feature_names)}
    _write_json(meta_path, meta)
    return note


def read_features(csv_path: Path, meta_path: Path) -> FeatureMatrix:
    names, months, values = read_month_table(csv_path)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return FeatureMatrix(
        months=months, feature_names=names, values=values, window=int(meta["window"])
    )


def write_index_csv(index: CompositeIndex, path: Path, record: TableRecord | str | None = None) -> str:
    """Write the index, with its state's key, mean, scatter and vector in the
    table's record; :func:`write_month_table`'s note on which path ran.
    ``record`` is the table's record as already read."""
    s = index.state
    state = s and ({"key": s.key}, {"mean": s.mean, "scatter": s.scatter, "vector": s.vector})
    return write_month_table(path, ("value",), index.months, index.values, _write_atomic, state, record)


def read_index_csv(path: Path, kind: IndexKind) -> CompositeIndex:
    _, months, values = read_month_table(path, ("value",))
    return CompositeIndex(kind=kind, months=months, values=values[:, 0])


def _index_state(record: TableRecord | str) -> tuple[IndexState | None, str]:
    """The state :func:`write_index_csv` stored in an index table's record
    (:func:`read_table_record`), or None and why not."""
    if isinstance(record, str):
        return None, "no state" if record == "no digest" else "unreadable state"
    if record.state is None:
        return None, "no state"
    meta, arrays = record.state
    try:
        return IndexState(values=record.values[:, 0], **meta, **arrays), ""
    except (IndexError, TypeError, ValueError):
        return None, "unreadable state"


def _write_series_dir(cfg: RunConfig, series: Sequence[RawSeries]) -> None:
    series_dir = cfg.data_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"series": []}
    for s in series:
        fname = f"{s.series_id}.csv"
        fetchmod.export_series_csv(s, series_dir / fname)
        manifest["series"].append(
            {"id": s.series_id, "file": fname, "region": s.region.value, "category": s.category.value}
        )
    _write_json(series_dir / "manifest.json", manifest)


def _load_series_dir(cfg: RunConfig, parses: SeriesParses | None = None) -> list[RawSeries]:
    series_dir = cfg.data_dir / "series"
    if not series_dir.is_dir():
        raise FileNotFoundError(str(series_dir))
    entries = _read_sidecar(
        series_dir / "manifest.json",
        lambda manifest: [
            (series_dir / e["file"], e["id"], Region(e["region"]), Category(e["category"]))
            for e in manifest["series"]
        ],
    )
    out = [
        load_series_csv(path, series_id=sid, region=region, category=category, parses=parses)
        for path, sid, region, category in entries
    ]
    if not out:
        raise CycleCastError("series manifest lists no series")
    return out


# --- commands ----------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    synth = cfg.synth
    months, n_series, start = synth["months"], synth["n_series"], synth["start"]
    if start.add_months(months - 1).year > 9999:  # the series readers take years 0..9999
        raise ConfigError(f"synth.months {months} from synth.start {start} runs past 9999-12")
    if months * n_series > 10**7:  # 80 MB of float64 values, a few hundred MB of CSV text
        raise ConfigError(f"synth.months x synth.n_series {months} x {n_series} exceeds 10**7 cells")
    spec = RegimeSpec(
        mean_durations=synth["mean_durations"],
        noise_sigma=synth["noise_sigma"],
        n_series=n_series,
        seed=cfg.seed,
    )
    ds, series = generate(spec, months, start=start, region=cfg.region)
    _write_series_dir(cfg, series)
    write_labels(ds, cfg.labels_path)
    print(f"wrote {len(series)} series and {len(ds)} labeled months under {cfg.data_dir}")
    return EXIT_OK


def cmd_fetch(cfg: RunConfig, args: argparse.Namespace) -> int:
    fc = cfg.fetch
    provider_cfg = fetchmod.ProviderConfig(
        provider_id=fc["provider"],
        base_url=fc["base_url"],
        api_key=fc["api_key"],
        rate_limit=fc["rate_limit"],
    )
    provider = {"fred": fetchmod.FredJsonProvider, "csv": fetchmod.CsvProvider}[fc["provider"]]()
    client = fetchmod.SeriesClient(
        provider_cfg,
        provider,
        cache_dir=Path(fc["cache_dir"]),
        offline=args.offline,
    )
    entries = fc["series"]
    if entries is None:
        entries = fetchmod.load_series_manifest()["series"]
    fetched = []
    for entry in entries:
        series = client.fetch_series(
            entry["id"],
            region=Region(entry.get("region", cfg.region.value)),
            category=Category(entry.get("category", "other")),
        )
        fetched.append(series)
        print(f"fetched {series.series_id}: {len(series)} monthly observations")
    _write_series_dir(cfg, fetched)
    return EXIT_OK


def cmd_preprocess(cfg: RunConfig, args: argparse.Namespace) -> int:
    parses_path = cfg.out_dir / "series_parse.rec"
    parses = SeriesParses.read(parses_path)
    series = _load_series_dir(cfg, parses)
    pp = cfg.preprocess
    standardized = [
        standardize_series(
            s,
            stationarity=pp["stationarity"],
            zscore_mode=pp["zscore_mode"],
            min_window=pp["zscore_min_window"],
            nw_lag=pp["nw_lag"],
            subsample_stride=pp["subsample_stride"],
            adf_alpha=pp["adf_alpha"],
            adf_max_lag=pp["adf_max_lag"],
        )
        for s in series
    ]
    start = min(int(s.months[0]) for s in standardized)
    end = max(int(s.months[-1]) for s in standardized)
    panel = align_panel(standardized, start, end)
    note = write_panel(panel, cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    _write_atomic(parses_path, parses.pack())  # after the panel: read by the next preprocess only
    print(f"series files: {parses.resumed} resumed, {parses.parsed} parsed in full")
    for s in standardized:
        adf = s.provenance.adf
        if adf is not None and not adf.is_stationary:
            print(
                f"warning: series {s.series_id!r} still has a unit root after {MAX_DIFFERENCE_ROUNDS}"
                f" differencing rounds (ADF statistic {adf.statistic:.4f}, critical value"
                f" {adf.critical_value:.4f}); its last difference is used"
            )
    print(
        f"wrote panel: {panel.n_months} months x {panel.n_series} series -> {cfg.out_dir / 'panel.csv'}"
        f" ({note})"
    )
    return EXIT_OK


def cmd_build_indices(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json").complete()
    min_window = cfg.indices["min_window_months"]
    loadings_doc = {}
    for kind, ref_key, out_name in (
        (IndexKind.GROWTH, "growth_reference_series", "growth.csv"),
        (IndexKind.INFLATION, "inflation_reference_series", "inflation.csv"),
    ):
        sub = panel.select_categories([Category(kind.value)])
        if sub.n_series == 0:
            raise CycleCastError(f"panel has no {kind.value} series")
        reference = cfg.indices[ref_key]
        reference = sub.series_ids[0] if reference is None else reference
        if reference not in sub.series_ids:
            raise ConfigError(f"indices.{ref_key} {reference!r} is not a {kind.value} series")
        record = read_table_record(cfg.out_dir / out_name)
        state, why = _index_state(record)
        if state is not None and not state.describes(sub, reference, min_window):
            state, why = None, "key mismatch"
        how = f"resumed, {state.values.size} months reused" if state is not None else f"rebuilt: {why}"
        index = expanding_pca_index(sub, kind, min_window, reference_series=reference, resume=state)
        note = write_index_csv(index, cfg.out_dir / out_name, record)
        final = sign_normalize(
            pca_first_component(sub.values), sub.series_ids.index(reference)
        )
        loadings_doc[kind.value] = {
            "series": list(sub.series_ids),
            "loadings": [float(v) for v in final.loadings],
            "explained_variance_ratio": final.explained_variance_ratio,
            "reference_series": reference,
        }
        print(
            f"wrote {kind.value} index: {len(index)} months -> {cfg.out_dir / out_name} ({note}) ({how})"
        )
    _write_json(cfg.out_dir / "loadings.json", loadings_doc)
    return EXIT_OK


def cmd_features(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    sign_only = cfg.features["trend_sign_only"]
    fm = build_feature_matrix(panel, cfg.window, sign_only=sign_only)
    note = write_features(fm, cfg.out_dir / "features.csv", cfg.out_dir / "features_meta.json", sign_only)
    print(
        f"wrote {fm.n_rows} feature rows x {len(fm.feature_names)} series"
        f" -> {cfg.out_dir / 'features.csv'} ({note})"
    )
    return EXIT_OK


def _require_split(cfg: RunConfig) -> SplitSpec:
    if cfg.split is None:
        raise ConfigError("this command needs a split spec in the config")
    return cfg.split


def _fit_model(kind: str, X: np.ndarray, y: np.ndarray, tc: TrainConfig, validation=None):
    trainer = {"mlr": train_mlr, "svm": train_svm, "mlp": train_mlp}[kind]
    try:  # a run that diverges overflows; the model's finiteness check reports it, not numpy
        with np.errstate(all="ignore"):
            return trainer(X, y, tc) if validation is None else trainer(X, y, tc, validation)
    except ValueError as exc:  # the model's own checks, e.g. weights that diverged
        raise DataError(f"{kind} training gave no valid model: {exc}") from None
    except MemoryError as exc:  # numpy could not allocate, or describe, the MLP's layers
        if kind != "mlp":
            raise
        raise ConfigError(f"train.hidden_layers {list(tc.hidden_layers)}: {exc}") from None


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    log_lines = [f"model={cfg.model} region={cfg.region.value} seed={cfg.seed}"]
    model_path = cfg.out_dir / "model.json"
    if cfg.model == "rbbcp":
        trend_window = cfg.rbbcp["trend_window"]
        trend_window = cfg.window if trend_window is None else trend_window
        model = RbbcpModel(trend_window=trend_window, zero_is_up=cfg.rbbcp["zero_is_up"])
        artifact = ModelArtifact(
            model=model, region=cfg.region, window=cfg.window, extra={"kind": "rbbcp"}
        )
        save_model(artifact, model_path)
        log_lines.append(f"rbbcp trend_window={trend_window} (no training)")
        _write_atomic(cfg.out_dir / "training_log.txt", "\n".join(log_lines) + "\n")
        print(f"wrote rule-based model snapshot -> {model_path}")
        return EXIT_OK

    split = _require_split(cfg)
    settings = {k: v for k, v in cfg.train.items() if k != "window_candidates"}
    tc = TrainConfig(seed=cfg.seed, **settings)
    labels = load_labels(cfg.labels_path, region=cfg.region)
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    sign_only = cfg.features["trend_sign_only"]

    # A probe fits the train rows alone: to pick among several windows, and on
    # the validation rows to fit the SVM's temperature and to find the epoch
    # where the MLP's validation NLL stops improving.
    candidates = cfg.train["window_candidates"] or (cfg.window,)
    validates = cfg.model in ("svm", "mlp")
    best = None
    for window in candidates:
        fm = build_feature_matrix(panel, window, sign_only=sign_only)
        X, y, months = forecast_alignment(fm, labels)
        rows = split_rows(months, split)
        if rows["train"].size == 0 or (len(candidates) > 1 and rows["validation"].size == 0):
            raise CycleCastError(f"window {window}: empty train or validation split")
        probe = validation = None
        if len(candidates) > 1 or (validates and rows["validation"].size):
            scaler = FeatureScaler.fit(X[rows["train"]])
            validation = scaler.apply(X[rows["validation"]]), y[rows["validation"]]
            probe = _fit_model(
                cfg.model,
                scaler.apply(X[rows["train"]]),
                y[rows["train"]],
                tc,
                validation if validates else None,
            )
        if len(candidates) > 1:
            val_acc = evaluation.topk_accuracy(probe.predict_proba(validation[0]), validation[1], 1)
            log_lines.append(f"window={window} validation_top1={val_acc:.6f}")
            if best is None or val_acc > best[0]:
                best = (val_acc, window, fm, X, y, months, rows, probe, validation)
        else:
            best = (None, window, fm, X, y, months, rows, probe, validation)
    _, window, fm, X, y, months, rows, probe, validation = best
    log_lines.append(f"selected window={window}")

    # Final fit uses train and validation together; the SVM's takes its probe's
    # temperature, the MLP's runs for its probe's stop epoch.
    if cfg.model == "mlp" and probe is None:
        log_lines.append("mlp stop_epoch=none validation_nll=none")
    elif cfg.model == "mlp":
        val_nll = nll_loss(probe.predict_proba(validation[0]), validation[1])
        log_lines.append(f"mlp stop_epoch={probe.stop_epoch} validation_nll={val_nll!r}")
        tc = TrainConfig(seed=cfg.seed, **(settings | {"epochs": probe.stop_epoch}))
    fit_rows = np.concatenate([rows["train"], rows["validation"]])
    scaler = FeatureScaler.fit(X[fit_rows])
    model = _fit_model(cfg.model, scaler.apply(X[fit_rows]), y[fit_rows], tc)
    if cfg.model == "svm" and probe is not None:
        model = replace(
            model, temperature=probe.temperature, temperature_at_bound=probe.temperature_at_bound
        )
    final_loss = nll_loss(model.predict_proba(scaler.apply(X[fit_rows])), y[fit_rows])
    log_lines.append(f"final_fit rows={fit_rows.size} loss={final_loss:.6f}")
    if cfg.model in ("mlr", "svm"):
        steps, norms = zip(*model.newton_fits)
        log_lines.append(f"newton_steps={','.join(map(str, steps))} gradient_norm={max(norms)!r}")
    if cfg.model == "svm" and probe is None:
        log_lines.append("temperature=none at_bound=none")
    elif cfg.model == "svm":
        at_bound = model.temperature_at_bound or "none"
        log_lines.append(f"temperature={model.temperature!r} at_bound={at_bound}")
    artifact = ModelArtifact(
        model=model,
        region=cfg.region,
        window=window,
        feature_names=fm.feature_names,
        scaler=scaler,
        extra={"kind": cfg.model, "trend_sign_only": sign_only},
    )
    save_model(artifact, model_path)
    _write_atomic(cfg.out_dir / "training_log.txt", "\n".join(log_lines) + "\n")
    print(f"trained {cfg.model} on {fit_rows.size} rows (final loss {final_loss:.6f}) -> {model_path}")
    return EXIT_OK


def _scorer(cfg: RunConfig, artifact: ModelArtifact) -> tuple[np.ndarray, Callable]:
    """The feature months (ordinals) the model can forecast from, and ``score``,
    which maps some of them to the model's distributions for the months after
    them: the one scoring path of ``evaluate`` and ``predict``."""
    model, scaler = artifact.model, artifact.scaler
    if isinstance(artifact.model, RbbcpModel):  # every month where both trend windows are full
        growth = read_index_csv(cfg.out_dir / "growth.csv", IndexKind.GROWTH)
        inflation = read_index_csv(cfg.out_dir / "inflation.csv", IndexKind.INFLATION)
        tw = model.trend_window
        # Not np.intersect1d: its first call imports numpy.ma, about 1 MB.
        common = set(growth.months[tw - 1 :].tolist()) & set(inflation.months[tw - 1 :].tolist())
        months = np.array(sorted(common), dtype=np.int64)
        return months, lambda ms: model.predict_proba_at(inflation, growth, ms)

    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    if artifact.window is None:
        raise DataError("model file records no feature window")
    sign_only = cfg.features["trend_sign_only"]
    # A model file from before train recorded the setting is scored as the config says.
    trained = artifact.extra.get("trend_sign_only", sign_only)
    if trained != sign_only:
        raise DataError(
            f"model.json was trained with features.trend_sign_only {json.dumps(trained)}, "
            f"the config sets {json.dumps(sign_only)}; rerun train"
        )
    names, months = feature_months(panel, artifact.window)
    if names != artifact.feature_names:
        raise DataError(f"model features {artifact.feature_names} differ from panel.csv's {names}")

    def score(ms: np.ndarray) -> np.ndarray:  # only the rows of the months scored are built
        rows = build_feature_matrix(panel, artifact.window, sign_only=sign_only, months=ms).values
        return model.predict_proba(rows if scaler is None else scaler.apply(rows))

    return months, score


def _phase_step_svg(months: np.ndarray, truth: Sequence[int], preds: Sequence[int]) -> str:
    """Self-contained step chart: true vs predicted phase codes on a 1-4 axis."""
    width, height = 900, 260
    left, right, top, bottom = 60, 20, 20, 40
    n = len(months)
    plot_w = width - left - right
    plot_h = height - top - bottom

    def x_at(i: int) -> float:
        return left + plot_w * i / max(n - 1, 1)

    def y_at(code: int) -> float:
        return top + plot_h * (4 - code) / 3.0

    def step_path(codes: Sequence[int]) -> str:
        pts = [f"M {x_at(0):.1f} {y_at(codes[0]):.1f}"]
        for i in range(1, n):
            pts.append(f"L {x_at(i):.1f} {y_at(codes[i - 1]):.1f}")
            pts.append(f"L {x_at(i):.1f} {y_at(codes[i]):.1f}")
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for code in (1, 2, 3, 4):
        y = y_at(code)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{code} {PhaseLabel(code).name.lower()}</text>'
        )
    for i, m in enumerate(map(MonthStamp.from_ordinal, months)):  # increasing: one January a year
        if m.month == 1 and m.year % 2 == 0:
            parts.append(
                f'<text x="{x_at(i):.1f}" y="{height - 12}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{m.year}</text>'
            )
    parts.append(
        f'<path d="{step_path(list(truth))}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
    )
    parts.append(
        f'<path d="{step_path(list(preds))}" fill="none" stroke="#d62728" '
        f'stroke-width="1.5" stroke-dasharray="5,3"/>'
    )
    parts.append(
        f'<text x="{left}" y="{top - 6}" font-size="11" font-family="sans-serif">'
        f'true (solid) vs predicted (dashed)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    artifact = load_model(args.model_file or cfg.out_dir / "model.json")
    split = _require_split(cfg)
    labels = load_labels(cfg.labels_path, region=cfg.region)
    months, score = _scorer(cfg, artifact)
    targets = next_month_labels(labels, months)
    rows = split_rows(months, split)["test"]
    rows = rows[targets[rows] > 0]
    if rows.size == 0:
        raise CycleCastError("the test split holds no labeled month the model can score")
    months, truth = months[rows], targets[rows]
    dists = score(months)
    report = evaluation.build_report(dists, truth)
    fmt = args.format
    suffix = {"text": "txt", "json": "json", "csv": "csv"}[fmt]
    rendered = evaluation.render_report(report, fmt)
    _write_atomic(cfg.out_dir / f"report.{suffix}", rendered)
    preds = evaluation.argmax_predictions(dists)
    _write_atomic(cfg.out_dir / "phases.svg", _phase_step_svg(months, truth, preds))
    sys.stdout.write(evaluation.render_report(report, "text"))
    print(f"wrote report.{suffix} and phases.svg under {cfg.out_dir}")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    artifact = load_model(args.model_file or cfg.out_dir / "model.json")
    months, score = _scorer(cfg, artifact)
    if args.month.ordinal not in months:
        span = " to ".join(str(MonthStamp.from_ordinal(m)) for m in (*months[:1], *months[-1:]))
        raise InsufficientHistoryError(
            f"cannot forecast from {args.month}: the model can score feature months {span or 'none'}"
        )
    dist = score([args.month.ordinal])[0]
    target = args.month.next()
    names = [phase.name.lower() for phase in PhaseLabel]
    top2 = rank_phases(dist)[:2] - 1
    if args.format == "json":
        doc = {
            "month": str(target),
            "distribution": dict(zip(names, dist.tolist())),
            "top2": [{"phase": names[i], "probability": float(dist[i])} for i in top2],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for heading, rows in ((f"phase distribution for {target}:", range(len(names))), ("top-2:", top2)):
            print(heading)
            for i in rows:
                print(f"  {names[i]:<10} {100.0 * dist[i]:6.2f}%")
    return EXIT_OK


# --- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (4, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> _Parser:
    parser = _Parser(prog="cyclecast", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--region", choices=["us", "ez"], default=None)
    parser.add_argument("--offline", action="store_true", help="forbid network access")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--months", dest="synth.months", type=int, default=None, metavar="N")
    p.add_argument("--series", dest="synth.n_series", type=int, default=None, metavar="N")
    p.add_argument("--noise", dest="synth.noise_sigma", type=float, default=None, metavar="SIGMA")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fetch", help="download raw series into the data directory")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("preprocess", help="standardize series and build the panel")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-indices", help="expanding-window PCA composite indices")
    p.set_defaults(func=cmd_build_indices)

    p = sub.add_parser("features", help="trailing-window slope features")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a classifier (or snapshot the rule-based one)")
    p.add_argument("--model", choices=["rbbcp", "mlr", "svm", "mlp"], default=None)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the evaluation protocol on the test split")
    p.add_argument("--model-file", dest="model_file", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="phase distribution for the month after --month")
    p.add_argument("--month", required=True, type=MonthStamp.parse, help="feature month, YYYY-MM")
    p.add_argument("--model-file", dest="model_file", default=None)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CycleCastError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
