import argparse
import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import models
from cyclecast.cli import (
    CONFIG_SCHEMA,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _ListOf,
    _Nullable,
    _Range,
    build_run_config,
    main,
    read_features,
    read_index_csv,
    read_panel,
    write_features,
    write_index_csv,
    write_panel,
)
from cyclecast.dataset import Category, MonthStamp
from cyclecast.errors import ConfigError
from cyclecast.evaluation import report_from_json
from cyclecast.features import build_feature_matrix
from cyclecast.indices import CompositeIndex, IndexKind

from conftest import assert_fields_equal, make_panel, month_range


def write_config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "region": "us",
        "seed": 0,
        "window": 4,
        "model": "mlr",
        "split": {
            "train_end": "1977-12",
            "validation_end": "1979-12",
            "test_end": "1982-06",
        },
        "paths": {
            "data_dir": str(tmp_path / "data"),
            "out_dir": str(tmp_path / "out"),
        },
        "preprocess": {"stationarity": "none", "zscore_mode": "full"},
        "synth": {
            "months": 150,
            "n_series": 8,
            "noise_sigma": 0.05,
            "mean_durations": [10.0, 14.0, 8.0, 10.0],
            "start": "1970-01",
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(config: Path, *argv: str) -> int:
    return main(["--config", str(config), *argv])


FLAG_KEYS = {
    "--window": "window",
    "--months": "synth.months",
    "--series": "synth.n_series",
    "--noise": "synth.noise_sigma",
}


def named_key(overrides: dict, command: str) -> str:
    """The dotted config key the last override sets, or else the command's flag."""
    if not overrides:
        return FLAG_KEYS[command.split()[1]]
    name, value = list(overrides.items())[-1]
    if name in SECTIONS and isinstance(value, dict):
        return f"{name}.{list(value)[-1]}"
    return name


@pytest.fixture
def pipeline(tmp_path):
    """Run synth through features once; return (tmp_path, config path)."""
    config = write_config(tmp_path)
    assert run(config, "synth") == EXIT_OK
    assert run(config, "preprocess") == EXIT_OK
    assert run(config, "build-indices") == EXIT_OK
    assert run(config, "features") == EXIT_OK
    return tmp_path, config


class TestConfigHandling:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, typo_key=1)
        assert run(config, "synth") == EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    def test_config_file_missing(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "synth"]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "synth"]) == EXIT_CONFIG

    def test_bad_model_name(self, tmp_path):
        config = write_config(tmp_path, model="forest")
        assert run(config, "synth") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, command",
        [
            ({"preprocess": {"zscore_mode": "bogus"}}, "preprocess"),
            ({"preprocess": {"stationarity": "sometimes"}}, "preprocess"),
            ({"train": {"epochs": "many"}}, "train"),
            ({"window": 4.5}, "features"),
            ({"window": True}, "features"),
            ({"preprocess": {"adf_alpha": "a"}}, "preprocess"),
            ({"preprocess": {"adf_alpha": 0.07}}, "preprocess"),
            ({"features": {"trend_sign_only": "no"}}, "features"),
            ({"features": {"trend_sign_only": 0}}, "train"),
            ({"rbbcp": {"zero_is_up": "no"}}, "train"),
            ({"rbbcp": {"trend_window": 1}}, "train --model rbbcp"),
            ({"preprocess": {"nw_lag": -1}}, "preprocess"),
            ({"preprocess": {"subsample_stride": 0}}, "preprocess"),
            ({"preprocess": {"zscore_min_window": 1}}, "preprocess"),
            ({"indices": {"min_window_months": 1}}, "build-indices"),
            ({"synth": {"noise_sigma": "x"}}, "synth"),
            ({"synth": {"start": "1970-13"}}, "synth"),
            ({"fetch": {"rate_limit": 0}}, "--offline fetch"),
            ({"paths": {"data_dir": 5}}, "synth"),
            ({"preprocess": "x"}, "preprocess"),
            ({"seed": -1}, "synth"),
            ({"train": {"window_candidates": [1]}}, "train"),
            ({"window": 0}, "features"),
            ({"rbbcp": {"trend_window": 0}}, "train --model rbbcp"),
            ({}, "features --window 0"),
            ({}, "synth --months 0"),
            ({}, "synth --series 0"),
            ({}, "synth --noise 0"),
            ({"fetch": {"series": [{"region": "us"}]}}, "--offline fetch"),
            ({"fetch": {"provider": "bogus"}}, "--offline fetch"),
            ({"fetch": {"series": [{"id": "A", "title": "x"}]}}, "--offline fetch"),
            ({"train": {"l2": math.nan}}, "train"),
            ({"train": {"window_candidates": []}}, "train"),
            ({"preprocess.nw_lag": 3}, "preprocess"),
            ({"train": {"dropout": 1}}, "train --model mlp"),
            ({"synth": {"mean_durations": [10.0, 10.0]}}, "synth"),
            ({"split": {"train_end": "1980-01", "validation_end": "1979-12", "test_end": "1982-06"}}, "train"),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, overrides, command):
        config = write_config(tmp_path, **overrides)
        assert run(config, *command.split()) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and named_key(overrides, command) in err

    @pytest.mark.parametrize(
        "overrides, command",
        [
            ({"seed": "x"}, "synth"),
            ({"preprocess": {"zscore_min_window": "a"}}, "preprocess"),
            ({"indices": {"min_window_months": "a"}}, "build-indices"),
            ({"train": {"window_candidates": ["a", 4]}}, "train"),
            ({"preprocess": {"nw_lag": "x"}}, "preprocess"),
            ({"preprocess": {"adf_max_lag": "q"}}, "preprocess"),
            ({"model": "rbbcp", "rbbcp": {"trend_window": "a"}}, "train"),
            ({"synth": {"months": "many"}}, "synth"),
            ({"synth": {"n_series": 2.5}}, "synth"),
            ({"train": {"epochs": 2.7}}, "train --model mlp"),
            ({"train": {"epochs": True}}, "train --model mlp"),
            ({"fetch": {"rate_limit": "x"}}, "--offline fetch"),
        ],
    )
    def test_bad_integer_setting_is_config_error(self, tmp_path, capsys, overrides, command):
        config = write_config(tmp_path, **overrides)
        assert run(config, *command.split()) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be an integer" in err
        assert named_key(overrides, command) in err

    def test_usage_error_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["--definitely-not-a-flag"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_predict_month_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--month", "1975-13"])
        assert exc.value.code == EXIT_USAGE
        assert "1975-13" in capsys.readouterr().err

    def test_flag_overrides_file_seed(self, tmp_path):
        config = write_config(tmp_path)
        assert run(config, "--seed", "1", "synth") == EXIT_OK
        labels_seed1 = (tmp_path / "data" / "labels.csv").read_bytes()
        assert run(config, "synth") == EXIT_OK
        labels_seed0 = (tmp_path / "data" / "labels.csv").read_bytes()
        assert labels_seed1 != labels_seed0


def set_key(doc: dict, key: str, value) -> None:
    """Set a dotted config key; a section already set to a non-object keeps that value."""
    section, _, name = key.partition(".")
    if not name:
        doc[key] = value
    elif isinstance(doc.setdefault(section, {}), dict):
        doc[section][name] = value


def lower_bound(check):
    """(smallest accepted, largest rejected) value of a check with a lower bound, else None."""
    if isinstance(check, _Nullable):
        return lower_bound(check.check)
    if isinstance(check, _ListOf):
        pair = lower_bound(check.item)
        return pair and tuple([v] * (check.length or 1) for v in pair)
    if isinstance(check, _Range) and check.lo is not None:
        lo = check.kind(check.lo)
        return lo, lo - 1 if check.kind is int else math.nextafter(lo, -math.inf)
    if isinstance(check, _Range) and check.above is not None:
        return math.nextafter(check.above, math.inf), check.above
    return None


BOUNDED_KEYS = [key for key, (_, check) in CONFIG_SCHEMA.items() if lower_bound(check)]

# For each key with a lower bound: the settings under which it is read, and the
# commands that read it, run on data/ and out/ of the `prepared` fixture.
MLP = {"model": "mlp", "train.epochs": 5}
BOUND_READERS = {
    "seed": ({}, ["synth"]),
    "window": ({}, ["features"]),
    "preprocess.zscore_min_window": ({"preprocess.zscore_mode": "expanding"}, ["preprocess"]),
    "preprocess.nw_lag": ({}, ["preprocess"]),
    "preprocess.subsample_stride": ({}, ["preprocess"]),
    "preprocess.adf_max_lag": ({"preprocess.stationarity": "auto"}, ["preprocess"]),
    "indices.min_window_months": ({}, ["build-indices"]),
    "rbbcp.trend_window": ({"model": "rbbcp"}, ["train", "evaluate"]),
    "train.learning_rate": (MLP, ["train"]),
    "train.epochs": (MLP, ["train"]),
    "train.l2": ({}, ["train"]),
    "train.hidden_layers": (MLP, ["train"]),
    "train.dropout": (MLP, ["train"]),
    "train.window_candidates": ({}, ["train"]),
    "fetch.rate_limit": ({"fetch.series": [{"id": "X"}]}, ["--offline fetch"]),
    "synth.months": ({}, ["synth"]),
    "synth.n_series": ({}, ["synth"]),
    "synth.noise_sigma": ({}, ["synth"]),
    "synth.mean_durations": ({}, ["synth"]),
}


@pytest.fixture(scope="class")
def prepared(tmp_path_factory):
    """data/ and out/ after synth through features on write_config data, built once."""
    base = tmp_path_factory.mktemp("prepared")
    config = write_config(base)
    for command in ("synth", "preprocess", "build-indices", "features"):
        assert run(config, command) == EXIT_OK
    return base


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 700),
    st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from(["", "us", "mlr", "fred", "1996-12", "2003-04", "2019-12", "x"]),
    st.sampled_from(["1970-13", "1970-0", "1970", "a-b", "1970-01-01", " 1970-1 "]),
)
JSON_OBJECTS = st.dictionaries(
    st.sampled_from(["train_end", "validation_end", "test_end", "id", "region", "x"]),
    JSON_LEAVES,
    max_size=3,
)
MONTHS = st.sampled_from(["1996-12", "2003-04", "2019-12", "1970-13"])
SPLITS = st.fixed_dictionaries(dict.fromkeys(["train_end", "validation_end", "test_end"], MONTHS))
JSON_VALUES = st.one_of(
    JSON_LEAVES, st.lists(JSON_LEAVES | JSON_OBJECTS, max_size=4), JSON_OBJECTS, SPLITS
)
SECTIONS = sorted({key.partition(".")[0] for key in CONFIG_SCHEMA if "." in key})


def nest(flat: dict) -> dict:
    """A config object from dotted keys; a bare section name may set a non-object."""
    doc = {}
    for key, value in flat.items():
        set_key(doc, key, value)
    return doc


SETTINGS = st.dictionaries(
    st.sampled_from([*CONFIG_SCHEMA, *SECTIONS, "typo", "train.typo"]), JSON_VALUES, max_size=6
)
FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(),
        "window": st.integers(),
        "synth.months": st.integers(),
        "synth.n_series": st.integers(),
        "synth.noise_sigma": st.floats(),
    },
)


class TestConfigSchema:
    def test_bound_readers_cover_the_schema(self):
        assert sorted(BOUND_READERS) == sorted(BOUNDED_KEYS)

    @pytest.mark.parametrize("key", BOUNDED_KEYS)
    def test_lower_bound_is_accepted(self, prepared, tmp_path, key):
        lowest, rejected = lower_bound(CONFIG_SCHEMA[key][1])
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            CONFIG_SCHEMA[key][1](rejected, key)
        extra, commands = BOUND_READERS[key]
        config = write_config(tmp_path)
        doc = json.loads(config.read_text())
        for name, value in {"fetch.cache_dir": str(tmp_path / "cache"), **extra, key: lowest}.items():
            set_key(doc, name, value)
        config.write_text(json.dumps(doc))
        for sub in ("data", "out"):
            shutil.copytree(prepared / sub, tmp_path / sub)
        for command in commands:
            assert run(config, *command.split()) in (EXIT_OK, EXIT_DATA), command

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(value=JSON_VALUES, flat=SETTINGS, flags=FLAGS)
    def test_any_json_object_is_checked_or_config_error(self, value, flat, flags):
        """One drawn value under every key and section, and several settings with
        the flags, give a typed RunConfig or a ConfigError, never another exception."""
        runs = [(nest({key: value}), {}) for key in [*CONFIG_SCHEMA, *SECTIONS]]
        runs.append((nest(flat), flags))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            for doc, flag_values in runs:
                path.write_text(json.dumps(doc), encoding="utf-8")
                try:
                    cfg = build_run_config(argparse.Namespace(config=str(path), **flag_values))
                except ConfigError:
                    continue
                assert isinstance(cfg.synth["start"], MonthStamp) and cfg.window >= 2
                numbers = [cfg.train[k] for k in ("learning_rate", "l2", "dropout")]
                numbers += [cfg.synth["noise_sigma"], *cfg.synth["mean_durations"]]
                assert all(isinstance(v, float) and math.isfinite(v) for v in numbers)

    @pytest.mark.parametrize(
        "key, reference",
        [("growth_reference_series", "inflation_01"), ("inflation_reference_series", "nope")],
    )
    def test_reference_series_must_be_in_its_category(self, pipeline, capsys, key, reference):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        doc["indices"] = {key: reference}
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_CONFIG
        assert f"indices.{key} {reference!r}" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path):
        assert main(["--config", str(tmp_path), "synth"]) == EXIT_CONFIG

    def test_readme_key_table_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration", 1)[1].split("```", 2)[1]
        header, *lines = table.splitlines()[1:]  # after the fence's line
        column = header.index("default")
        defaults = {}  # key -> its default cell; a continuation line may hold it
        for line in lines:
            if line[:1].strip():
                key = line.split()[0]
                defaults[key] = ""
            if line[column - 2 : column] == "  " and line[column : column + 1].strip():
                defaults[key] += line[column:].strip()
        assert sorted(defaults) == sorted(CONFIG_SCHEMA)
        for key, cell in defaults.items():
            # "null: <what null means>" documents a null default
            shown = None if cell.split(":")[0] == "null" else json.loads(cell)
            default = CONFIG_SCHEMA[key][0]
            assert (type(shown), shown) == (type(default), default), key


class TestDataErrors:
    def test_preprocess_missing_dir_names_path(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "data" / "series") in err

    def test_evaluate_without_model(self, pipeline):
        tmp_path, config = pipeline
        assert run(config, "evaluate") == EXIT_DATA

    def test_predict_insufficient_history(self, pipeline):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        assert run(config, "predict", "--month", "1970-01") == EXIT_DATA

    def test_failed_mlr_line_search_exits_3(self, pipeline, capsys, monkeypatch):
        tmp_path, config = pipeline
        # A negative-definite "Hessian" makes every Newton direction point uphill.
        monkeypatch.setattr(
            models, "mlr_hessian", lambda W, *a, **k: -np.eye(4 * (W.shape[1] + 1))
        )
        capsys.readouterr()
        assert run(config, "train") == EXIT_DATA
        err = capsys.readouterr().err
        assert "after 0 Newton steps" in err and "gradient norm" in err

    def test_non_finite_series_cell_names_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(config, "synth") == EXIT_OK
        path = next((tmp_path / "data" / "series").glob("*.csv"))
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 5" in err and "non-finite" in err

    @pytest.mark.parametrize("edit", ["repeat", "swap"])
    def test_unordered_series_months_name_the_month(self, tmp_path, capsys, edit):
        config = write_config(tmp_path)
        assert run(config, "synth") == EXIT_OK
        path = tmp_path / "data" / "series" / "growth_00.csv"
        lines = path.read_text().splitlines()
        if edit == "repeat":
            lines.insert(3, lines[2])
        else:
            lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        year, month = lines[3].split(",")[:2]
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "'growth_00'" in err and f"{int(year):04d}-{int(month):02d}" in err

    @pytest.mark.parametrize("shape", ["constant", "linear", "linear up to rounding"])
    def test_degenerate_series_under_adf_names_it(self, tmp_path, capsys, shape):
        synth = json.loads(write_config(tmp_path).read_text())["synth"]
        config = write_config(tmp_path, preprocess={"stationarity": "auto"}, synth={**synth, "n_series": 4})
        assert run(config, "synth") == EXIT_OK
        path = tmp_path / "data" / "series" / "growth_00.csv"
        lines = path.read_text().splitlines()
        for i in range(1, len(lines)):
            # 0.1 * k: no singular ADF regression, but differences that are
            # rounding noise around 0.1
            value = {"constant": 5, "linear": 3 * i - 7, "linear up to rounding": 0.1 * (i - 1)}[shape]
            lines[i] = ",".join(lines[i].split(",")[:2] + [str(value)])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        reason = "equal up to rounding" if shape == "linear up to rounding" else "ADF"
        assert "'growth_00'" in err and reason in err

    @pytest.mark.parametrize(
        "line, corrupt",
        [
            (7, lambda cells: cells[:-1] + ["abc"]),  # bad cell
            (7, lambda cells: cells[:-1]),  # short row
            (1, lambda cells: cells[:-1] + ["not_in_meta"]),  # unknown series id
        ],
    )
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_corrupt_panel_names_line(self, pipeline, capsys, line, corrupt, command):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        panel_path = tmp_path / "out" / "panel.csv"
        lines = panel_path.read_text().splitlines()
        lines[line - 1] = ",".join(corrupt(lines[line - 1].split(",")))
        panel_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(config, command) == EXIT_DATA
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["delete", "repeat"])
    @pytest.mark.parametrize(
        "table, line, commands",
        [
            ("panel.csv", 100, [["features"]]),
            ("growth.csv", 30, [["train", "--model", "rbbcp"], ["evaluate"]]),
            ("inflation.csv", 80, [["train", "--model", "rbbcp"], ["predict", "--month", "1982-06"]]),
        ],
    )
    def test_gapped_table_names_the_month(self, pipeline, capsys, table, line, commands, edit):
        tmp_path, config = pipeline
        path = tmp_path / "out" / table
        lines = path.read_text().splitlines()
        year, month = lines[line - 1].split(",")[:2]
        if edit == "delete":
            del lines[line - 1]
        else:
            lines.insert(line, lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        for argv in commands[:-1]:
            assert run(config, *argv) == EXIT_OK
        capsys.readouterr()
        assert run(config, *commands[-1]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{int(year):04d}-{int(month):02d}" in err

    @pytest.mark.parametrize(
        "sidecar, damage, command",
        [
            ("data/series/manifest.json", lambda doc: doc["series"][0].pop("file"), "preprocess"),
            (
                "data/series/manifest.json",
                lambda doc: doc["series"][0].update(category="weird"),
                "preprocess",
            ),
            ("out/panel_meta.json", lambda doc: doc.pop("columns"), "features"),
            ("out/panel_meta.json", lambda doc: doc["columns"][0].pop("id"), "build-indices"),
            ("out/panel_meta.json", None, "features"),  # not JSON
        ],
    )
    def test_damaged_sidecar_is_data_error(self, pipeline, capsys, sidecar, damage, command):
        tmp_path, config = pipeline
        path = tmp_path / sidecar
        if damage is None:
            path.write_text("{not json")
        else:
            doc = json.loads(path.read_text())
            damage(doc)
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, command) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and path.name in err

    def test_model_feature_names_must_match_panel(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        doc["feature_names"][0] = "renamed"
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "evaluate") == EXIT_DATA
        assert "renamed" in capsys.readouterr().err
        assert run(config, "predict", "--month", "1981-06") == EXIT_DATA


class TestPipeline:
    def test_full_flow(self, pipeline, capsys):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        assert (out / "panel.csv").exists()
        assert (out / "growth.csv").exists()
        assert (out / "inflation.csv").exists()
        assert (out / "loadings.json").exists()
        assert (out / "features.csv").exists()

        assert run(config, "train") == EXIT_OK
        assert (out / "model.json").exists()
        log = (out / "training_log.txt").read_text()
        assert "loss=" in log

        assert run(config, "--format", "json", "evaluate") == EXIT_OK
        report = report_from_json((out / "report.json").read_text())
        assert 0.0 <= report.top1 <= 1.0
        assert report.top2 >= report.top1
        assert (out / "phases.svg").read_text().startswith("<svg")

        capsys.readouterr()
        assert run(config, "predict", "--month", "1981-06") == EXIT_OK
        text = capsys.readouterr().out
        assert "phase distribution for 1981-07" in text
        assert "top-2" in text

    def test_min_window_boundary_single_index_row(self, tmp_path):
        config = write_config(
            tmp_path,
            synth={
                "months": 60,
                "n_series": 6,
                "noise_sigma": 0.05,
                "mean_durations": [10.0, 14.0, 8.0, 10.0],
                "start": "1970-01",
            },
        )
        assert run(config, "synth") == EXIT_OK
        assert run(config, "preprocess") == EXIT_OK
        assert run(config, "build-indices") == EXIT_OK
        for name in ("growth.csv", "inflation.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert len(lines) == 2  # header + exactly one value at the boundary

    def test_rbbcp_training_is_snapshot(self, pipeline):
        tmp_path, config = pipeline
        assert run(config, "train", "--model", "rbbcp") == EXIT_OK
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["model"]["kind"] == "rbbcp"
        assert doc["model"]["trend_window"] == 4
        assert run(config, "evaluate") == EXIT_OK

    def test_json_and_csv_reports_agree(self, pipeline):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        assert run(config, "--format", "json", "evaluate") == EXIT_OK
        report = report_from_json((tmp_path / "out" / "report.json").read_text())
        assert run(config, "--format", "csv", "evaluate") == EXIT_OK
        csv_lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
        values = dict(line.split(",") for line in csv_lines[1:])
        assert values["top1"] == f"{100.0 * report.top1:.2f}%"
        assert values["macro"] == f"{100.0 * report.macro_f:.2f}%"
        assert values["two_label"] == f"{100.0 * report.two_label_accuracy:.2f}%"

    def test_mlp_and_svm_train_paths(self, pipeline):
        tmp_path, config = pipeline
        new_config = json.loads(Path(config).read_text())
        new_config["train"] = {"epochs": 30}
        Path(config).write_text(json.dumps(new_config))
        for kind in ("svm", "mlp"):
            assert run(config, "train", "--model", kind) == EXIT_OK
            doc = json.loads((tmp_path / "out" / "model.json").read_text())
            assert doc["extra"]["kind"] == kind
            assert doc["model"]["kind"] == {"svm": "linear", "mlp": "mlp"}[kind]
            assert run(config, "evaluate") == EXIT_OK

    def test_svm_log_reports_the_temperature_bound(self, pipeline):
        tmp_path, config = pipeline
        assert run(config, "train", "--model", "svm") == EXIT_OK
        log = (tmp_path / "out" / "training_log.txt").read_text()
        match = re.search(r"^temperature=(\S+) at_bound=(lower|upper|none)$", log, re.MULTILINE)
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert match and float(match[1]) == doc["model"]["temperature"]

    def test_window_selection_on_validation(self, pipeline):
        tmp_path, config = pipeline
        new_config = json.loads(Path(config).read_text())
        new_config["train"] = {"window_candidates": [3, 4, 6]}
        Path(config).write_text(json.dumps(new_config))
        assert run(config, "train") == EXIT_OK
        log = (tmp_path / "out" / "training_log.txt").read_text()
        assert log.count("validation_top1=") == 3
        assert "selected window=" in log
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["window"] in (3, 4, 6)

    def test_evaluate_and_predict_use_the_model_window(self, pipeline, capsys):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        assert run(config, "train") == EXIT_OK
        assert json.loads((out / "model.json").read_text())["window"] == 4

        def outputs():
            capsys.readouterr()
            assert run(config, "--format", "json", "evaluate") == EXIT_OK
            assert run(config, "--format", "json", "predict", "--month", "1981-06") == EXIT_OK
            predicted = capsys.readouterr().out.splitlines()[-1]
            return (out / "report.json").read_bytes(), (out / "phases.svg").read_bytes(), predicted

        matching = outputs()
        assert run(config, "features", "--window", "6") == EXIT_OK
        assert json.loads((out / "features_meta.json").read_text())["window"] == 6
        assert outputs() == matching

    def test_predict_with_rbbcp_is_one_hot(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert run(config, "train", "--model", "rbbcp") == EXIT_OK
        capsys.readouterr()
        assert run(config, "--format", "json", "predict", "--month", "1981-06") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        values = sorted(doc["distribution"].values())
        assert values == [0.0, 0.0, 0.0, 1.0]
        assert doc["month"] == "1981-07"


class TestFetchCommand:
    def test_fetch_writes_series_and_manifest(self, tmp_path, monkeypatch):
        payload = json.dumps(
            {
                "observations": [
                    {"date": "2019-12-01", "value": "1.0"},
                    {"date": "2020-01-01", "value": "2.0"},
                ]
            }
        ).encode()

        def fake_transport(url, timeout=30.0):
            return 200, payload

        monkeypatch.setattr("cyclecast.fetch._urllib_transport", fake_transport)
        config = write_config(
            tmp_path,
            fetch={
                "cache_dir": str(tmp_path / "cache"),
                "series": [
                    {"id": "AAA", "region": "us", "category": "growth"},
                    {"id": "BBB", "region": "us", "category": "inflation"},
                ],
            },
        )
        assert run(config, "fetch") == EXIT_OK
        series_dir = tmp_path / "data" / "series"
        manifest = json.loads((series_dir / "manifest.json").read_text())
        assert [e["id"] for e in manifest["series"]] == ["AAA", "BBB"]
        assert (series_dir / "AAA.csv").read_text().startswith("year,month,value\n")
        # cached now: offline rerun succeeds without a transport
        monkeypatch.setattr(
            "cyclecast.fetch._urllib_transport",
            lambda url, timeout=30.0: (_ for _ in ()).throw(AssertionError("network hit")),
        )
        assert run(config, "--offline", "fetch") == EXIT_OK

    def test_offline_cache_miss_is_data_error(self, tmp_path):
        config = write_config(
            tmp_path,
            fetch={
                "cache_dir": str(tmp_path / "cache"),
                "series": [{"id": "NOPE", "region": "us", "category": "growth"}],
            },
        )
        assert run(config, "--offline", "fetch") == EXIT_DATA


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        outputs = []
        for run_dir in ("one", "two"):
            base = tmp_path / run_dir
            base.mkdir()
            config = write_config(base)
            for cmd in ("synth", "preprocess", "build-indices", "features", "train"):
                assert run(config, cmd) == EXIT_OK
            assert run(config, "--format", "json", "evaluate") == EXIT_OK
            out = base / "out"
            outputs.append(
                {
                    name: (out / name).read_bytes()
                    for name in (
                        "panel.csv",
                        "growth.csv",
                        "inflation.csv",
                        "features.csv",
                        "model.json",
                        "report.json",
                        "phases.svg",
                    )
                }
            )
        assert outputs[0] == outputs[1]


INDEX_ARTIFACTS = ("growth.csv", "inflation.csv", "loadings.json", "indices_state.npz")


def rebuilt_indices(tmp_path: Path, config: Path) -> dict[str, bytes]:
    """The index artifacts build-indices writes from out/panel.csv into an empty out dir."""
    fresh = tmp_path / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir()
    for name in ("panel.csv", "panel_meta.json"):
        shutil.copy(tmp_path / "out" / name, fresh / name)
    doc = json.loads(config.read_text())
    doc["paths"]["out_dir"] = str(fresh)
    fresh_config = tmp_path / "fresh_config.json"
    fresh_config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(fresh_config, "build-indices") == EXIT_OK
    return {name: (fresh / name).read_bytes() for name in INDEX_ARTIFACTS}


def index_paths(out: str) -> list[str]:
    """The per-category path note build-indices printed, e.g. ``rebuilt: no state``."""
    return [line.rsplit(" (", 1)[1].rstrip(")") for line in out.splitlines() if " index: " in line]


class TestIndexResume:
    def test_appending_months_matches_a_rebuild(self, tmp_path, capsys):
        # expanding z-scores with a whole-sample Newey-West weight: some
        # appends leave the consumed panel rows alone (a hit), others rescale
        # them (a miss)
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = {}
        for path in sorted((tmp_path / "data" / "series").glob("*.csv")):
            lines = path.read_text().splitlines(keepends=True)
            held[path], lines = lines[-6:], lines[:-6]
            path.write_text("".join(lines))
        paths = []
        for k in range(6):
            for path, lines in held.items():
                with path.open("a") as fh:
                    fh.write(lines[k])
            capsys.readouterr()
            assert run(config, "preprocess") == EXIT_OK
            assert run(config, "build-indices") == EXIT_OK
            paths += index_paths(capsys.readouterr().out)
            out = tmp_path / "out"
            assert {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS} == rebuilt_indices(
                tmp_path, config
            )
        assert paths[:2] == ["rebuilt: no state"] * 2
        assert any(p.startswith("resumed, ") for p in paths)
        assert "rebuilt: key mismatch" in paths

    def test_rerun_resumes_every_month(self, pipeline, capsys):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS}
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_OK
        assert index_paths(capsys.readouterr().out) == ["resumed, 91 months reused"] * 2
        assert {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS} == first

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: blob[:-200] + bytes([blob[-200] ^ 1]) + blob[-199:],  # a flipped bit
            lambda blob: b"",
            lambda blob: b"not an npz file",
        ],
    )
    def test_damaged_state_is_rebuilt(self, pipeline, capsys, damage):
        tmp_path, config = pipeline
        path = tmp_path / "out" / "indices_state.npz"
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_OK
        assert index_paths(capsys.readouterr().out) == ["rebuilt: unreadable state"] * 2
        out = tmp_path / "out"
        assert {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS} == rebuilt_indices(
            tmp_path, config
        )

    @pytest.mark.parametrize(
        "indices",
        [{"min_window_months": 61}, {"growth_reference_series": "growth_02"}],
    )
    def test_changed_index_config_is_rebuilt(self, pipeline, capsys, indices):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        doc["indices"] = indices
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_OK
        paths = index_paths(capsys.readouterr().out)
        assert paths[0] == "rebuilt: key mismatch"
        out = tmp_path / "out"
        assert {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS} == rebuilt_indices(
            tmp_path, config
        )


TABLES = ("panel.csv", "features.csv", "growth.csv", "inflation.csv")


def fresh_tables(tmp_path: Path, config: Path) -> dict[str, bytes]:
    """The tables preprocess -> build-indices -> features write into an empty out dir."""
    fresh = tmp_path / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    doc = json.loads(config.read_text())
    doc["paths"]["out_dir"] = str(fresh)
    fresh_config = tmp_path / "fresh_config.json"
    fresh_config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("preprocess", "build-indices", "features"):
            assert run(fresh_config, command) == EXIT_OK
    return {name: (fresh / name).read_bytes() for name in TABLES}


def table_notes(out: str) -> list[str]:
    """The table-write notes printed, e.g. ``appended 1 rows`` or ``rewritten: no digest``."""
    return re.findall(r"\((appended \d+ rows|rewritten: [a-z ]+)\)", out)


class TestTableAppend:
    def test_appending_months_matches_a_fresh_build(self, tmp_path, capsys):
        # as in TestIndexResume: the whole-sample Newey-West weight rescales
        # the panel on some appends, so those rewrite every table
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = {}
        for path in sorted((tmp_path / "data" / "series").glob("*.csv")):
            lines = path.read_text().splitlines(keepends=True)
            held[path], lines = lines[-6:], lines[:-6]
            path.write_text("".join(lines))
        notes = []
        for k in range(6):
            for path, lines in held.items():
                with path.open("a") as fh:
                    fh.write(lines[k])
            capsys.readouterr()
            for command in ("preprocess", "build-indices", "features"):
                assert run(config, command) == EXIT_OK
            notes += table_notes(capsys.readouterr().out)
            out = tmp_path / "out"
            assert {name: (out / name).read_bytes() for name in TABLES} == fresh_tables(tmp_path, config)
        assert len(notes) == 4 * 6
        assert notes[:4] == ["rewritten: no digest"] * 4
        assert "appended 1 rows" in notes
        assert "rewritten: changed rows" in notes

    def test_rerun_appends_nothing(self, pipeline, capsys):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in TABLES}
        capsys.readouterr()
        for command in ("preprocess", "build-indices", "features"):
            assert run(config, command) == EXIT_OK
        assert table_notes(capsys.readouterr().out) == ["appended 0 rows"] * 4
        assert {name: (out / name).read_bytes() for name in TABLES} == first

    def test_edited_table_is_rewritten(self, pipeline, capsys):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        first = (out / "features.csv").read_bytes()
        (out / "features.csv").write_bytes(first.replace(b"\n", b"\r\n"))  # same values, other bytes
        capsys.readouterr()
        assert run(config, "features") == EXIT_OK
        assert table_notes(capsys.readouterr().out) == ["rewritten: edited file"]
        assert (out / "features.csv").read_bytes() == first


class TestArtifactCodec:
    """Artifacts written, read back and written again are byte-identical."""

    def test_panel_with_gaps_round_trips(self, tmp_path):
        panel = make_panel(
            {"g1": [np.nan, np.nan, 0.1, -2.5e-17], "i1": [1.0, 1 / 3, np.nan, 7.25]},
            categories={"i1": Category.INFLATION},
        )
        csv_path, meta_path = tmp_path / "panel.csv", tmp_path / "panel_meta.json"
        write_panel(panel, csv_path, meta_path)
        first = csv_path.read_bytes()
        assert first.splitlines()[1] == b"2000,1,,1.0"
        loaded = read_panel(csv_path, meta_path)
        np.testing.assert_array_equal(loaded.values, panel.values)
        assert loaded.categories == panel.categories
        write_panel(loaded, csv_path, meta_path)
        assert csv_path.read_bytes() == first

    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = make_panel({"a": list(rng.standard_normal(12)), "b": list(rng.standard_normal(12))})
        fm = build_feature_matrix(panel, 4)
        csv_path, meta_path = tmp_path / "features.csv", tmp_path / "features_meta.json"
        write_features(fm, csv_path, meta_path, sign_only=False)
        first = csv_path.read_bytes()
        loaded = read_features(csv_path, meta_path)
        np.testing.assert_array_equal(loaded.months, fm.months)
        assert (loaded.feature_names, loaded.window) == (fm.feature_names, 4)
        np.testing.assert_array_equal(loaded.values, fm.values)
        write_features(loaded, csv_path, meta_path, sign_only=False)
        assert csv_path.read_bytes() == first

    def test_index_round_trip(self, tmp_path):
        index = CompositeIndex(
            kind=IndexKind.GROWTH,
            months=month_range(MonthStamp(1999, 11), 3),
            values=(0.1, -1e300, 2 / 3),
        )
        path = tmp_path / "growth.csv"
        write_index_csv(index, path)
        first = path.read_bytes()
        assert first.splitlines() == [
            b"year,month,value", b"1999,11,0.1", b"1999,12,-1e+300", b"2000,1,0.6666666666666666"
        ]
        loaded = read_index_csv(path, IndexKind.GROWTH)
        assert_fields_equal(loaded, index)
        write_index_csv(loaded, path)
        assert path.read_bytes() == first
