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
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evaluation, fetch as fetchmod
from .dataset import (
    Category,
    MonthStamp,
    PhaseLabel,
    RawSeries,
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
from .errors import (
    ConfigError,
    CycleCastError,
    DataError,
    InsufficientHistoryError,
    MalformedRowError,
)
from .features import FeatureMatrix, FeatureScaler, build_feature_matrix, forecast_alignment
from .indices import CompositeIndex, IndexKind, expanding_pca_index, pca_first_component, sign_normalize
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
from .preprocess import ADF_CRITICAL, Panel, align_panel, standardize_series
from .rbbcp import RbbcpModel
from .synthgen import RegimeSpec, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_USAGE = 4

DEFAULT_WINDOWS = {Region.EZ: 12, Region.US: 9}

_CONFIG_DEFAULTS: dict = {
    "region": "us",
    "seed": 0,
    "window": None,  # falls back to the per-region default
    "model": "mlr",
    "split": None,  # {"train_end": "YYYY-MM", "validation_end": ..., "test_end": ...}
    "paths": {"data_dir": "data", "out_dir": "out", "labels": None},
    "preprocess": {
        "stationarity": "auto",
        "zscore_mode": "expanding",
        "zscore_min_window": 12,
        "nw_lag": None,
        "subsample_stride": 3,
        "adf_alpha": 0.05,
        "adf_max_lag": None,
    },
    "indices": {
        "min_window_months": 60,
        "growth_reference_series": None,
        "inflation_reference_series": None,
    },
    "features": {"trend_sign_only": False},
    "rbbcp": {"trend_window": None, "zero_is_up": False},
    "train": {
        "learning_rate": 0.005,
        "epochs": 500,
        "l2": 0.001,
        "hidden_layers": [50, 50, 50, 50],
        "dropout": 0.2,
        "window_candidates": None,
    },
    "fetch": {
        "provider": "fred",
        "base_url": "https://api.stlouisfed.org/fred",
        "api_key": None,
        "rate_limit": 60,
        "cache_dir": "cache",
        "series": None,  # list of {"id", "region", "category"}; None = bundled manifest
    },
    "synth": {
        "months": 600,
        "n_series": 20,
        "noise_sigma": 0.05,
        "mean_durations": [15.0, 22.0, 10.0, 13.0],
        "start": "1970-01",
    },
}


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
    format: str = "text"
    offline: bool = False
    raw: dict = field(default_factory=dict)


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def _parse_split(doc) -> SplitSpec | None:
    if doc is None:
        return None
    try:
        return SplitSpec(
            train_end=MonthStamp.parse(doc["train_end"]),
            validation_end=MonthStamp.parse(doc["validation_end"]),
            test_end=MonthStamp.parse(doc["test_end"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad split spec: {exc}") from exc


def _config_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def build_run_config(args: argparse.Namespace) -> RunConfig:
    file_doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_doc, dict):
            raise ConfigError("config file must hold a JSON object")
    merged = _merge(_CONFIG_DEFAULTS, file_doc)
    if getattr(args, "region", None):
        merged["region"] = args.region
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    if getattr(args, "model", None):
        merged["model"] = args.model
    if getattr(args, "window", None):
        merged["window"] = args.window

    try:
        region = Region(merged["region"])
    except ValueError as exc:
        raise ConfigError(f"region must be 'us' or 'ez', got {merged['region']!r}") from exc
    window = _config_int(merged["window"] or DEFAULT_WINDOWS[region], "window")
    if window < 2:
        raise ConfigError(f"window must be >= 2, got {window}")
    model = merged["model"]
    if model not in ("rbbcp", "mlr", "svm", "mlp"):
        raise ConfigError(f"model must be one of rbbcp/mlr/svm/mlp, got {model!r}")
    for key, allowed in (
        ("stationarity", ("auto", "none", "diff", "log_diff")),
        ("zscore_mode", ("expanding", "full")),
        ("adf_alpha", tuple(ADF_CRITICAL)),
    ):
        if merged["preprocess"][key] not in allowed:
            raise ConfigError(
                f"preprocess.{key} must be one of {'/'.join(map(str, allowed))}, "
                f"got {merged['preprocess'][key]!r}"
            )
    for section, key in (
        ("preprocess", "zscore_min_window"),
        ("preprocess", "subsample_stride"),
        ("preprocess", "nw_lag"),
        ("preprocess", "adf_max_lag"),
        ("indices", "min_window_months"),
        ("rbbcp", "trend_window"),
        ("synth", "months"),
        ("synth", "n_series"),
    ):
        value = merged[section][key]
        if value is not None or _CONFIG_DEFAULTS[section][key] is not None:
            _config_int(value, f"{section}.{key}")
    for section, key in (("features", "trend_sign_only"), ("rbbcp", "zero_is_up")):
        if not isinstance(merged[section][key], bool):
            raise ConfigError(
                f"{section}.{key} must be true or false, got {merged[section][key]!r}"
            )
    candidates = merged["train"]["window_candidates"]
    if candidates is not None:
        if not isinstance(candidates, list):
            raise ConfigError(f"train.window_candidates must be a list, got {candidates!r}")
        for candidate in candidates:
            _config_int(candidate, "train.window_candidates entry")
    paths = merged["paths"]
    data_dir = Path(paths["data_dir"])
    labels = Path(paths["labels"]) if paths["labels"] else data_dir / "labels.csv"
    return RunConfig(
        region=region,
        seed=_config_int(merged["seed"], "seed"),
        window=window,
        model=model,
        split=_parse_split(merged["split"]),
        data_dir=data_dir,
        out_dir=Path(paths["out_dir"]),
        labels_path=labels,
        preprocess=merged["preprocess"],
        indices=merged["indices"],
        features=merged["features"],
        rbbcp=merged["rbbcp"],
        train=merged["train"],
        fetch=merged["fetch"],
        synth=merged["synth"],
        format=getattr(args, "format", None) or "text",
        offline=bool(getattr(args, "offline", False)),
        raw=merged,
    )


def _write_atomic(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data, encoding="utf-8")
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


# --- panel and feature artifacts -------------------------------------------


def write_panel(panel: Panel, csv_path: Path, meta_path: Path) -> None:
    _write_atomic(csv_path, format_month_table(panel.series_ids, panel.months, panel.values))
    meta = {
        "region": panel.region.value if panel.region else None,
        "columns": [
            {"id": sid, "category": cat.value}
            for sid, cat in zip(panel.series_ids, panel.categories)
        ],
        "fills": list(panel.fills),
    }
    _write_json(meta_path, meta)


def read_panel(csv_path: Path, meta_path: Path) -> Panel:
    ids, months, values = read_month_table(csv_path, cell=finite_cell_or_nan)
    if not meta_path.exists():
        raise FileNotFoundError(str(meta_path))
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    categories = {col["id"]: Category(col["category"]) for col in meta["columns"]}
    unknown = [i for i in ids if i not in categories]
    if unknown:
        raise MalformedRowError(1, f"columns {unknown} are not in {meta_path.name}")
    return Panel(
        months=months,
        series_ids=ids,
        categories=tuple(categories[i] for i in ids),
        values=values,
        fills=tuple(meta.get("fills", [0] * len(ids))),
        region=Region(meta["region"]) if meta.get("region") else None,
    )


def write_features(fm: FeatureMatrix, csv_path: Path, meta_path: Path, sign_only: bool) -> None:
    _write_atomic(csv_path, format_month_table(fm.feature_names, fm.months, fm.values))
    meta = {"window": fm.window, "sign_only": sign_only, "feature_names": list(fm.feature_names)}
    _write_json(meta_path, meta)


def read_features(csv_path: Path, meta_path: Path) -> FeatureMatrix:
    names, months, values = read_month_table(csv_path)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return FeatureMatrix(
        months=months, feature_names=names, values=values, window=int(meta["window"])
    )


def write_index_csv(index: CompositeIndex, path: Path) -> None:
    _write_atomic(path, format_month_table(("value",), index.months, index.values))


def read_index_csv(path: Path, kind: IndexKind, min_window: int) -> CompositeIndex:
    _, months, values = read_month_table(path, ("value",))
    return CompositeIndex(
        kind=kind, months=months, values=tuple(values[:, 0].tolist()), min_window_months=min_window
    )


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


def _load_series_dir(cfg: RunConfig) -> list[RawSeries]:
    series_dir = cfg.data_dir / "series"
    manifest_path = series_dir / "manifest.json"
    if not series_dir.is_dir():
        raise FileNotFoundError(str(series_dir))
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    out = []
    for entry in manifest["series"]:
        out.append(
            load_series_csv(
                series_dir / entry["file"],
                series_id=entry["id"],
                region=Region(entry["region"]),
                category=Category(entry["category"]),
            )
        )
    if not out:
        raise CycleCastError("series manifest lists no series")
    return out


# --- commands ----------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    synth = dict(cfg.synth)
    if args.months:
        synth["months"] = args.months
    if args.series:
        synth["n_series"] = args.series
    if args.noise:
        synth["noise_sigma"] = args.noise
    spec = RegimeSpec(
        mean_durations=tuple(float(d) for d in synth["mean_durations"]),
        noise_sigma=float(synth["noise_sigma"]),
        n_series=synth["n_series"],
        seed=cfg.seed,
    )
    ds, series = generate(
        spec, synth["months"], start=MonthStamp.parse(synth["start"]), region=cfg.region
    )
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
        rate_limit=int(fc["rate_limit"]),
    )
    provider = fetchmod.FredJsonProvider() if fc["provider"] == "fred" else fetchmod.CsvProvider()
    client = fetchmod.SeriesClient(
        provider_cfg,
        provider,
        cache_dir=Path(fc["cache_dir"]),
        offline=cfg.offline,
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
    series = _load_series_dir(cfg)
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
    start = min(s.months[0] for s in standardized)
    end = max(s.months[-1] for s in standardized)
    panel = align_panel(standardized, start, end)
    write_panel(panel, cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    print(f"wrote panel: {panel.n_months} months x {panel.n_series} series -> {cfg.out_dir / 'panel.csv'}")
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
        reference = cfg.indices[ref_key] or sub.series_ids[0]
        index = expanding_pca_index(sub, kind, min_window, reference_series=reference)
        write_index_csv(index, cfg.out_dir / out_name)
        final = sign_normalize(
            pca_first_component(sub.values), sub.series_ids.index(reference)
        )
        loadings_doc[kind.value] = {
            "series": list(sub.series_ids),
            "loadings": [float(v) for v in final.loadings],
            "explained_variance_ratio": final.explained_variance_ratio,
            "reference_series": reference,
        }
        print(f"wrote {kind.value} index: {len(index)} months -> {cfg.out_dir / out_name}")
    _write_json(cfg.out_dir / "loadings.json", loadings_doc)
    return EXIT_OK


def cmd_features(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    sign_only = cfg.features["trend_sign_only"]
    fm = build_feature_matrix(panel, cfg.window, sign_only=sign_only)
    write_features(fm, cfg.out_dir / "features.csv", cfg.out_dir / "features_meta.json", sign_only)
    print(f"wrote {fm.n_rows} feature rows x {len(fm.feature_names)} series -> {cfg.out_dir / 'features.csv'}")
    return EXIT_OK


def _train_config(cfg: RunConfig) -> TrainConfig:
    t = cfg.train
    try:
        return TrainConfig(
            learning_rate=float(t["learning_rate"]),
            epochs=int(t["epochs"]),
            l2=float(t["l2"]),
            seed=cfg.seed,
            hidden_layers=tuple(int(h) for h in t["hidden_layers"]),
            dropout=float(t["dropout"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train settings: {exc}") from exc


def _require_split(cfg: RunConfig) -> SplitSpec:
    if cfg.split is None:
        raise ConfigError("this command needs a split spec in the config")
    return cfg.split


def _fit_model(kind: str, X: np.ndarray, y: np.ndarray, tc: TrainConfig):
    if kind == "mlr":
        return train_mlr(X, y, tc)
    if kind == "svm":
        return train_svm(X, y, tc)
    if kind == "mlp":
        return train_mlp(X, y, tc)
    raise ConfigError(f"cannot train model kind {kind!r}")


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    log_lines = [f"model={cfg.model} region={cfg.region.value} seed={cfg.seed}"]
    model_path = cfg.out_dir / "model.json"
    if cfg.model == "rbbcp":
        trend_window = cfg.rbbcp["trend_window"] or cfg.window
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
    tc = _train_config(cfg)
    labels = load_labels(cfg.labels_path, region=cfg.region)
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    sign_only = cfg.features["trend_sign_only"]

    candidates = cfg.train["window_candidates"] or [cfg.window]
    best = None
    for window in candidates:
        fm = build_feature_matrix(panel, window, sign_only=sign_only)
        X, y, months = forecast_alignment(fm, labels)
        rows = split_rows(months, split)
        if rows["train"].size == 0 or (len(candidates) > 1 and rows["validation"].size == 0):
            raise CycleCastError(f"window {window}: empty train or validation split")
        scaler = FeatureScaler.fit(X[rows["train"]])
        if len(candidates) > 1:
            probe = _fit_model(cfg.model, scaler.apply(X[rows["train"]]), y[rows["train"]], tc)
            val_acc = evaluation.topk_accuracy(
                probe.predict_proba(scaler.apply(X[rows["validation"]])), y[rows["validation"]], 1
            )
            log_lines.append(f"window={window} validation_top1={val_acc:.6f}")
            if best is None or val_acc > best[0]:
                best = (val_acc, window, fm, X, y, months, rows)
        else:
            best = (None, window, fm, X, y, months, rows)
    _, window, fm, X, y, months, rows = best
    log_lines.append(f"selected window={window}")

    # Final fit uses train and validation together.
    fit_rows = np.concatenate([rows["train"], rows["validation"]])
    scaler = FeatureScaler.fit(X[fit_rows])
    model = _fit_model(cfg.model, scaler.apply(X[fit_rows]), y[fit_rows], tc)
    final_loss = nll_loss(model.predict_proba(scaler.apply(X[fit_rows])), y[fit_rows])
    log_lines.append(f"final_fit rows={fit_rows.size} loss={final_loss:.6f}")
    artifact = ModelArtifact(
        model=model,
        region=cfg.region,
        window=window,
        feature_names=fm.feature_names,
        scaler=scaler,
        extra={"kind": cfg.model},
    )
    save_model(artifact, model_path)
    _write_atomic(cfg.out_dir / "training_log.txt", "\n".join(log_lines) + "\n")
    print(f"trained {cfg.model} on {fit_rows.size} rows (final loss {final_loss:.6f}) -> {model_path}")
    return EXIT_OK


def _indices_for_rbbcp(cfg: RunConfig) -> tuple[CompositeIndex, CompositeIndex]:
    min_window = cfg.indices["min_window_months"]
    growth = read_index_csv(cfg.out_dir / "growth.csv", IndexKind.GROWTH, min_window)
    inflation = read_index_csv(cfg.out_dir / "inflation.csv", IndexKind.INFLATION, min_window)
    return growth, inflation


def _model_features(cfg: RunConfig, artifact: ModelArtifact) -> FeatureMatrix:
    """Features rebuilt from panel.csv with the window the model was trained on."""
    panel = read_panel(cfg.out_dir / "panel.csv", cfg.out_dir / "panel_meta.json")
    if artifact.window is None:
        raise DataError("model file records no feature window")
    sign_only = cfg.features["trend_sign_only"]
    fm = build_feature_matrix(panel, artifact.window, sign_only=sign_only)
    if fm.feature_names != artifact.feature_names:
        raise DataError(
            f"model features {artifact.feature_names} differ from panel.csv's {fm.feature_names}"
        )
    return fm


def _test_distributions(
    cfg: RunConfig, artifact: ModelArtifact
) -> tuple[np.ndarray, np.ndarray, list[MonthStamp]]:
    """Distributions, truth codes, and feature months for the test split."""
    split = _require_split(cfg)
    labels = load_labels(cfg.labels_path, region=cfg.region)
    if isinstance(artifact.model, RbbcpModel):
        growth, inflation = _indices_for_rbbcp(cfg)
        dists = []
        truth = []
        months = []
        label_lookup = dict(zip(labels.months, labels.labels))
        for i in split_rows(growth.months, split)["test"]:
            m = growth.months[i]
            target = m.next()
            if target not in label_lookup:
                continue
            try:
                dists.append(artifact.model.predict_proba_at(inflation, growth, m))
            except InsufficientHistoryError:
                continue
            truth.append(int(label_lookup[target]))
            months.append(m)
        if not dists:
            raise CycleCastError("no test months with enough index history")
        return np.asarray(dists), np.asarray(truth, dtype=int), months

    fm = _model_features(cfg, artifact)
    X, y, feat_months = forecast_alignment(fm, labels)
    rows = split_rows(feat_months, split)["test"]
    if rows.size == 0:
        raise CycleCastError("test split contains no feature rows")
    X_test = X[rows]
    if artifact.scaler is not None:
        X_test = artifact.scaler.apply(X_test)
    dists = artifact.model.predict_proba(X_test)
    return dists, y[rows], [feat_months[i] for i in rows]


def _phase_step_svg(
    months: Sequence[MonthStamp], truth: Sequence[int], preds: Sequence[int]
) -> str:
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

    phase_names = {1: "recovery", 2: "expansion", 3: "slowdown", 4: "recession"}
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
            f'font-family="sans-serif">{code} {phase_names[code]}</text>'
        )
    seen_years = set()
    for i, m in enumerate(months):
        if m.month == 1 and m.year not in seen_years and m.year % 2 == 0:
            seen_years.add(m.year)
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
    dists, truth, months = _test_distributions(cfg, artifact)
    report = evaluation.build_report(dists, truth)
    fmt = cfg.format
    suffix = {"text": "txt", "json": "json", "csv": "csv"}[fmt]
    rendered = evaluation.render_report(report, fmt)
    _write_atomic(cfg.out_dir / f"report.{suffix}", rendered)
    preds = [int(p) for p in evaluation.argmax_predictions(dists)]
    _write_atomic(
        cfg.out_dir / "phases.svg",
        _phase_step_svg(months, [int(t) for t in truth], preds),
    )
    sys.stdout.write(evaluation.render_report(report, "text"))
    print(f"wrote report.{suffix} and phases.svg under {cfg.out_dir}")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    artifact = load_model(args.model_file or cfg.out_dir / "model.json")
    month = args.month
    if isinstance(artifact.model, RbbcpModel):
        growth, inflation = _indices_for_rbbcp(cfg)
        dist = artifact.model.predict_proba_at(inflation, growth, month)
    else:
        fm = _model_features(cfg, artifact)
        try:
            row = fm.row_at(month)
        except KeyError:
            raise InsufficientHistoryError(
                f"no feature row at {month}; window history incomplete"
            ) from None
        if artifact.scaler is not None:
            row = artifact.scaler.apply(row[None, :])[0]
        dist = artifact.model.predict_proba(row[None, :])[0]
    target = month.next()
    ranked = rank_phases(dist)
    if cfg.format == "json":
        doc = {
            "month": str(target),
            "distribution": {
                phase.name.lower(): float(dist[int(phase) - 1]) for phase in PhaseLabel
            },
            "top2": [
                {"phase": p.name.lower(), "probability": float(dist[int(p) - 1])}
                for p in ranked[:2]
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"phase distribution for {target}:")
        for phase in PhaseLabel:
            print(f"  {phase.name.lower():<10} {100.0 * dist[int(phase) - 1]:6.2f}%")
        print("top-2:")
        for p in ranked[:2]:
            print(f"  {p.name.lower():<10} {100.0 * dist[int(p) - 1]:6.2f}%")
    return EXIT_OK


# --- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (4, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclecast", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--region", choices=["us", "ez"], default=None)
    parser.add_argument("--offline", action="store_true", help="forbid network access")
    parser.add_argument("--format", choices=["text", "json", "csv"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--months", type=int, default=None)
    p.add_argument("--series", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
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
    except (CycleCastError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
