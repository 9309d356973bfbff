import argparse
import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import cli, dataset, evaluation, features, models
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
from cyclecast.dataset import (
    Category,
    MonthStamp,
    PhaseLabel,
    format_month_table,
    pack_record,
    read_month_table,
    read_table_record,
    unpack_record,
)
from cyclecast.errors import ConfigError
from cyclecast.evaluation import report_from_json
from cyclecast.features import build_feature_matrix
from cyclecast.indices import CompositeIndex, IndexKind

from conftest import assert_fields_equal, make_panel, month_range
from test_indices import eigh_index, window_with_ratio


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


def train_model(config: Path, model: str) -> None:
    """``train --model model``; the MLP for 30 epochs, which keeps a test fast."""
    if model == "mlp":
        doc = json.loads(config.read_text())
        doc["train"] = {"epochs": 30}
        config.write_text(json.dumps(doc))
    assert run(config, "train", "--model", model) == EXIT_OK


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
            ({"synth": {"start": "9990-01", "months": 600}}, "synth"),
            ({}, "synth --months 10000000000000"),
            ({}, "synth --series 10000000000000"),
            ({"train": {"epochs": 1000000000000}}, "train --model mlp"),
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

    def test_each_usage_error_prints_one_usage_line(self, capsys):
        for argv in (["--definitely-not-a-flag"], ["predict"], ["--definitely-not-a-flag"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            lines = capsys.readouterr().err.splitlines()
            assert [line.startswith("usage: cyclecast") for line in lines].count(True) == 1
            assert ": error: " in lines[-1] and all(": error: " not in line for line in lines[:-1])

    def test_bad_predict_month_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--month", "1975-13"])
        assert exc.value.code == EXIT_USAGE
        assert "1975-13" in capsys.readouterr().err

    def test_synth_ends_by_9999_12_and_reads_back(self, tmp_path):
        synth = {"start": "9989-01", "n_series": 2}
        assert run(write_config(tmp_path, synth={**synth, "months": 133}), "synth") == EXIT_CONFIG
        config = write_config(tmp_path, synth={**synth, "months": 132})
        assert run(config, "synth") == EXIT_OK
        assert run(config, "preprocess") == EXIT_OK

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

    @pytest.mark.parametrize("model", ["rbbcp", "mlr", "svm", "mlp"])
    def test_predict_insufficient_history(self, pipeline, capsys, model):
        # The panel runs 1970-01 to 1982-06. Features need 4 months (window 4);
        # the indices start at month 60 and rbbcp's trend needs 4 of them.
        tmp_path, config = pipeline
        train_model(config, model)
        before_first = "1975-02" if model == "rbbcp" else "1970-03"
        for month in (before_first, "1982-07"):
            capsys.readouterr()
            assert run(config, "predict", "--month", month) == EXIT_DATA
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("data error:") and month in err[0]

    def test_rbbcp_scores_the_months_both_indices_cover(self, pipeline, capsys):
        tmp_path, config = pipeline
        train_model(config, "rbbcp")
        path = tmp_path / "out" / "inflation.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(lines[11:]))  # starts 1975-10, growth 1974-12
        capsys.readouterr()
        assert run(config, "predict", "--month", "1975-03") == EXIT_DATA
        assert "feature months 1976-01 to 1982-06" in capsys.readouterr().err
        assert run(config, "predict", "--month", "1976-01") == EXIT_OK

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
        assert err.startswith("data error:") and f"line 5: {path}: " in err

    def test_non_utf8_series_names_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(config, "synth") == EXIT_OK
        path = tmp_path / "data" / "series" / "growth_00.csv"
        lines = path.read_bytes().count(b"\n")
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe")
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"line {lines + 1}:" in err and "growth_00.csv is not UTF-8" in err

    def test_non_utf8_labels_name_file_and_line(self, pipeline, capsys):
        tmp_path, config = pipeline
        path = tmp_path / "data" / "labels.csv"
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4][:-1] + b"\xff"
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run(config, "train") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "line 5:" in err and "labels.csv is not UTF-8" in err

    @pytest.mark.parametrize("code", ["0", "5"])
    def test_phase_code_outside_1_to_4_exits_3(self, pipeline, capsys, code):
        tmp_path, config = pipeline
        train_model(config, "rbbcp")
        path = tmp_path / "data" / "labels.csv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + code
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(config, "evaluate") == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: phase code {code} is not in 1..4\n"

    def test_directory_in_place_of_a_series_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(config, "synth") == EXIT_OK
        path = tmp_path / "data" / "series" / "growth_00.csv"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "Is a directory" in err and "growth_00.csv" in err

    def test_directory_in_place_of_the_panel(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run(config, "synth") == EXIT_OK
        (tmp_path / "out" / "panel.csv").mkdir(parents=True)
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "Is a directory" in err and "panel.csv" in err
        assert not list((tmp_path / "out").glob("*.tmp"))

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
        err = capsys.readouterr().err
        assert f"line {line}:" in err
        assert f"line {line}: {panel_path}: " in err

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
            ("out/panel_meta.json", lambda doc: doc["fills"].pop(), "features"),
            ("out/panel_meta.json", lambda doc: doc.update(fills=["0"] * len(doc["fills"])), "build-indices"),
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

    @pytest.mark.parametrize(
        "model,damage",
        [
            ("mlr", lambda doc: doc.update(scaler={})),
            ("mlr", lambda doc: doc.update(window="x")),
            ("mlr", lambda doc: doc.update(window=True)),
            ("mlr", lambda doc: doc.update(window=2.5)),
            ("mlr", lambda doc: doc.update(window=1)),
            ("mlr", lambda doc: doc["scaler"]["mean"].pop()),
            ("mlr", lambda doc: doc["scaler"].update(std=[0.0] * len(doc["scaler"]["std"]))),
            ("mlr", lambda doc: doc["scaler"]["mean"].__setitem__(0, float("nan"))),
            ("mlr", lambda doc: doc["model"].update(weights=[row[:-1] for row in doc["model"]["weights"]])),
            ("mlr", lambda doc: doc["model"]["bias"].pop()),
            ("mlr", lambda doc: doc["model"]["weights"].pop()),
            ("mlr", lambda doc: doc["model"]["weights"][0].__setitem__(0, float("inf"))),
            ("svm", lambda doc: doc["model"].update(temperature=float("nan"))),
            ("svm", lambda doc: doc["model"].update(temperature=0.0)),
            ("mlr", lambda doc: doc["model"].update(temperature="0.5")),
            ("mlr", lambda doc: doc["model"].update(temperature=True)),
            ("mlp", lambda doc: [row.pop() for row in doc["model"]["weights"][1]]),
            ("mlp", lambda doc: doc["model"]["biases"][-1].pop()),
            ("mlp", lambda doc: [r.append(0.0) for r in doc["model"]["weights"][-1] + [doc["model"]["biases"][-1]]]),
            ("mlp", lambda doc: doc["model"]["biases"].pop()),
            ("mlp", lambda doc: doc["model"]["weights"][2][0].__setitem__(0, float("nan"))),
            ("rbbcp", lambda doc: doc["model"].update(trend_window=1)),
            ("rbbcp", lambda doc: doc["model"].update(trend_window=0)),
            ("rbbcp", lambda doc: doc["model"].update(trend_window=2.7)),
            ("rbbcp", lambda doc: doc["model"].update(trend_window=True)),
            ("rbbcp", lambda doc: doc["model"].update(zero_is_up="no")),
            ("rbbcp", lambda doc: doc["model"].update(zero_is_up=0)),
            ("mlr", lambda doc: doc.update(extra=[])),
        ],
        ids=[
            "empty scaler", "string window", "bool window", "float window", "window 1",
            "short scaler mean", "zero scaler std", "NaN scaler mean", "narrow weights",
            "short bias", "three weight rows", "infinite weight", "NaN temperature",
            "zero temperature", "string temperature", "bool temperature", "second MLP layer 50x49", "short last MLP bias",
            "five MLP outputs", "MLP bias missing", "NaN MLP weight",
            "trend window 1", "trend window 0", "float trend window", "bool trend window",
            "string zero_is_up", "int zero_is_up", "extra not an object",
        ],
    )
    def test_bad_model_values_are_data_error(self, pipeline, capsys, model, damage):
        tmp_path, config = pipeline
        train_model(config, model)
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        damage(doc)
        model_path.write_text(json.dumps(doc))
        for argv in (["evaluate"], ["predict", "--month", "1981-06"]):
            capsys.readouterr()
            assert run(config, *argv) == EXIT_DATA
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("data error:") and "model.json" in err[0]

    def test_diverging_training_prints_one_data_error_line(self, pipeline, capsys):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        doc["train"] = {"learning_rate": 1e300, "epochs": 3, "hidden_layers": [5]}
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "train", "--model", "mlp") == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: mlp training gave no valid model")

    def test_unallocatable_mlp_width_is_a_config_error(self, pipeline, capsys):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        # A weight matrix of 10**12 columns asks for terabytes, which fails at once.
        doc["train"] = {"epochs": 3, "hidden_layers": [10**12]}
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "train", "--model", "mlp") == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: train.hidden_layers")

    # numpy refuses these widths before allocating anything: 10**18 columns
    # need more bytes than a 64-bit size holds, 10**30 is too long a dimension
    @pytest.mark.parametrize("width", [10**18, 10**30])
    def test_mlp_width_numpy_cannot_describe_is_a_config_error(self, pipeline, capsys, width):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        doc["train"] = {"epochs": 3, "hidden_layers": [width]}
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(config, "train", "--model", "mlp") == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: train.hidden_layers [{width}]: ")

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


    def test_flipped_trend_sign_only_is_a_data_error(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        assert doc["extra"]["trend_sign_only"] is False
        config.write_text(json.dumps(json.loads(config.read_text()) | {"features": {"trend_sign_only": True}}))
        for argv in (["evaluate"], ["predict", "--month", "1981-06"]):
            capsys.readouterr()
            assert run(config, *argv) == EXIT_DATA
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("data error: model.json") and "rerun train" in err[0]
        # A model file from before train recorded the setting is scored as the config says.
        del doc["extra"]["trend_sign_only"]
        model_path.write_text(json.dumps(doc))
        assert run(config, "evaluate") == EXIT_OK


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

    @pytest.mark.parametrize("kind,fits", [("mlr", 1), ("svm", 4)])
    def test_log_records_the_newton_steps_of_each_fit(self, pipeline, kind, fits):
        tmp_path, config = pipeline
        assert run(config, "train", "--model", kind) == EXIT_OK
        log = (tmp_path / "out" / "training_log.txt").read_text()
        match = re.search(r"^newton_steps=(\S+) gradient_norm=(\S+)$", log, re.MULTILINE)
        steps = [int(s) for s in match[1].split(",")]
        assert len(steps) == fits and min(steps) >= 1
        assert repr(float(match[2])) == match[2] and float(match[2]) < models.NEWTON_GRADIENT_TOL

    @staticmethod
    def record_mlp_fits(monkeypatch) -> list:
        """Wrap ``cli.train_mlp``; each call appends (rows, epochs, validated, stop_epoch)."""
        fits = []

        def recording(X, y, cfg, validation=None):
            model = models.train_mlp(X, y, cfg, validation)
            fits.append((X.shape[0], cfg.epochs, validation is not None, model.stop_epoch))
            return model

        monkeypatch.setattr(cli, "train_mlp", recording)
        return fits

    def test_mlp_refits_for_the_probe_stop_epoch(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        fits = self.record_mlp_fits(monkeypatch)
        train_model(config, "mlp")
        log = (tmp_path / "out" / "training_log.txt").read_text()
        lines = re.findall(r"^mlp stop_epoch=(\d+) validation_nll=(\S+)$", log, re.MULTILINE)
        assert len(lines) == 1 and repr(float(lines[0][1])) == lines[0][1]
        (probe_rows, cap, validated, stop), (rows, epochs, refit_validated, _) = fits
        assert validated and not refit_validated and cap == 30
        assert int(lines[0][0]) == stop == epochs and rows > probe_rows
        assert re.search(rf"^final_fit rows={rows} ", log, re.MULTILINE)

    def test_mlp_without_validation_rows_trains_every_epoch(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        # The labels end in 1982-06, so no row targets the validation month.
        doc["split"] = {"train_end": "1982-06", "validation_end": "1982-07", "test_end": "1982-08"}
        config.write_text(json.dumps(doc))
        fits = self.record_mlp_fits(monkeypatch)
        train_model(config, "mlp")
        log = (tmp_path / "out" / "training_log.txt").read_text()
        assert re.search(r"^mlp stop_epoch=none validation_nll=none$", log, re.MULTILINE)
        assert [fit[1:] for fit in fits] == [(30, False, None)]

    def test_mlp_window_selection_uses_the_selected_probe(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        doc["train"] = {"epochs": 300, "window_candidates": [3, 6]}
        config.write_text(json.dumps(doc))
        fits = self.record_mlp_fits(monkeypatch)
        assert run(config, "train", "--model", "mlp") == EXIT_OK
        log = (tmp_path / "out" / "training_log.txt").read_text()
        window = int(re.search(r"^selected window=(\d+)$", log, re.MULTILINE)[1])
        probes, final = fits[:2], fits[2]
        assert [fit[2] for fit in fits] == [True, True, False]
        assert probes[0][3] != probes[1][3]  # so the log shows which probe supplied it
        stop = probes[[3, 6].index(window)][3]
        assert final[1] == stop and f"mlp stop_epoch={stop} " in log

    @staticmethod
    def record_svm_fits(monkeypatch) -> list:
        """Wrap ``cli.train_svm``; each call appends (rows, validated, temperature, at_bound)."""
        fits = []

        def recording(X, y, cfg, validation=None):
            model = models.train_svm(X, y, cfg, validation)
            fits.append((X.shape[0], validation is not None, model.temperature, model.temperature_at_bound))
            return model

        monkeypatch.setattr(cli, "train_svm", recording)
        return fits

    def test_svm_without_validation_rows_keeps_unit_temperature(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        doc = json.loads(config.read_text())
        # The labels end in 1982-06, so no row targets the validation month.
        doc["split"] = {"train_end": "1982-06", "validation_end": "1982-07", "test_end": "1982-08"}
        config.write_text(json.dumps(doc))
        fits = self.record_svm_fits(monkeypatch)
        train_model(config, "svm")
        log = (tmp_path / "out" / "training_log.txt").read_text()
        assert re.search(r"^temperature=none at_bound=none$", log, re.MULTILINE)
        assert [fit[1:] for fit in fits] == [(False, 1.0, None)]
        assert json.loads((tmp_path / "out" / "model.json").read_text())["model"]["temperature"] == 1.0

    def test_svm_window_selection_uses_the_selected_probe(self, tmp_path, monkeypatch):
        # Noisy enough that each window's validation rows give an interior temperature.
        synth = json.loads(write_config(tmp_path).read_text())["synth"] | {"noise_sigma": 0.5}
        config = write_config(tmp_path, synth=synth, train={"window_candidates": [3, 6]})
        for command in ("synth", "preprocess", "build-indices", "features"):
            assert run(config, command) == EXIT_OK
        fits = self.record_svm_fits(monkeypatch)
        assert run(config, "train", "--model", "svm") == EXIT_OK
        log = (tmp_path / "out" / "training_log.txt").read_text()
        window = int(re.search(r"^selected window=(\d+)$", log, re.MULTILINE)[1])
        probes, final = fits[:2], fits[2]
        assert [fit[1] for fit in fits] == [True, True, False]
        assert probes[0][2] != probes[1][2]  # so the saved file shows which probe supplied it
        probe = probes[[3, 6].index(window)]
        assert final[2:] == (1.0, None) and final[0] > probe[0]
        saved = json.loads((tmp_path / "out" / "model.json").read_text())["model"]["temperature"]
        assert saved == probe[2]
        assert f"\ntemperature={probe[2]!r} at_bound={probe[3] or 'none'}\n" in log

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

    @pytest.mark.parametrize("model", ["rbbcp", "mlr", "svm", "mlp"])
    def test_evaluate_scores_what_predict_prints(self, pipeline, capsys, monkeypatch, model):
        tmp_path, config = pipeline
        train_model(config, model)
        seen = {}

        def capture(name, fn):
            def wrapper(*args):
                seen[name] = args[0]
                return fn(*args)

            return wrapper

        monkeypatch.setattr(evaluation, "build_report", capture("dists", evaluation.build_report))
        monkeypatch.setattr(cli, "_phase_step_svg", capture("months", cli._phase_step_svg))
        assert run(config, "evaluate") == EXIT_OK
        months, dists = seen["months"], seen["dists"]
        for i in sorted({*range(0, len(months), 20), len(months) - 1}):
            month = MonthStamp.from_ordinal(months[i])
            capsys.readouterr()
            assert run(config, "--format", "json", "predict", "--month", str(month)) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert doc["month"] == str(month.next())
            assert [doc["distribution"][p.name.lower()] for p in PhaseLabel] == dists[i].tolist()

    def test_evaluate_skips_unlabeled_test_months(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        labels = tmp_path / "data" / "labels.csv"
        labels.write_text("".join(labels.read_text().splitlines(keepends=True)[:-5]))  # to 1982-01
        seen = []
        monkeypatch.setattr(cli, "_phase_step_svg", lambda months, *_: seen.append(months) or "")
        assert run(config, "evaluate") == EXIT_OK
        assert [str(MonthStamp.from_ordinal(m)) for m in seen[0][[0, -1]]] == ["1979-12", "1981-12"]
        assert len(seen[0]) == 25

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

    def test_offline_fetch_takes_the_category_from_the_config(self, tmp_path, monkeypatch):
        payload = json.dumps({"observations": [{"date": "2020-01-01", "value": "1.0"}]}).encode()
        monkeypatch.setattr("cyclecast.fetch._urllib_transport", lambda url, timeout=30.0: (200, payload))
        for category, flags in (("growth", ()), ("inflation", ("--offline",))):
            config = write_config(
                tmp_path,
                fetch={
                    "cache_dir": str(tmp_path / "cache"),
                    "series": [{"id": "AAA", "region": "us", "category": category}],
                },
            )
            assert run(config, *flags, "fetch") == EXIT_OK
            manifest = json.loads((tmp_path / "data" / "series" / "manifest.json").read_text())
            assert [e["category"] for e in manifest["series"]] == [category]

    def test_non_finite_value_is_data_error(self, tmp_path, monkeypatch, capsys):
        payload = json.dumps({"observations": [{"date": "2020-01-01", "value": "NaN"}]}).encode()
        monkeypatch.setattr("cyclecast.fetch._urllib_transport", lambda url, timeout=30.0: (200, payload))
        config = write_config(
            tmp_path,
            fetch={"cache_dir": str(tmp_path / "cache"), "series": [{"id": "AAA"}]},
        )
        capsys.readouterr()
        assert run(config, "fetch") == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: series 'AAA': value 'NaN' is not a finite number\n"


class TestOneWriter:
    def test_every_file_goes_through_write_atomic(self, tmp_path, monkeypatch):
        """synth, fetch and the pipeline with a direct Path write refused for any non-temp file."""
        # The series synth writes alternate growth/inflation; fetch serves them back as FRED JSON.
        ids = [f"{('growth', 'inflation')[j % 2]}_{j:02d}" for j in range(8)]
        entries = [{"id": sid, "category": sid.partition("_")[0]} for sid in ids]
        config = write_config(tmp_path, fetch={"cache_dir": str(tmp_path / "cache"), "series": entries})
        series_dir = tmp_path / "data" / "series"

        def transport(url, timeout=30.0):
            sid = parse_qs(urlparse(url).query)["series_id"][0]
            _, months, rows = read_month_table(series_dir / f"{sid}.csv", ("value",))
            observations = [
                {"date": f"{MonthStamp.from_ordinal(m)}-01", "value": repr(v)}
                for m, v in zip(months.tolist(), rows[:, 0].tolist())
            ]
            return 200, json.dumps({"observations": observations}).encode()

        monkeypatch.setattr("cyclecast.fetch._urllib_transport", transport)
        for name in ("write_text", "write_bytes"):
            real = getattr(Path, name)

            def guarded(self, *args, _real=real, **kwargs):
                assert self.name.endswith(".tmp"), f"{self} written without write_atomic"
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Path, name, guarded)
        for command in ("synth", "fetch", "preprocess", "build-indices", "features", "train", "evaluate"):
            assert run(config, command) == EXIT_OK, command
        cached = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert cached == [f"fred__{sid}.csv" for sid in sorted(ids)]
        assert (tmp_path / "out" / "phases.svg").exists()
        assert not list(tmp_path.rglob("*.tmp"))


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


INDEX_ARTIFACTS = ("growth.csv", "inflation.csv", "loadings.json", "growth_digest.rec", "inflation_digest.rec")


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
            lambda blob: b"not a record",
        ],
    )
    def test_damaged_state_is_rebuilt(self, pipeline, capsys, damage):
        tmp_path, config = pipeline
        path = tmp_path / "out" / "growth_digest.rec"
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_OK
        assert index_paths(capsys.readouterr().out) == ["rebuilt: unreadable state", "resumed, 91 months reused"]
        out = tmp_path / "out"
        assert {name: (out / name).read_bytes() for name in INDEX_ARTIFACTS} == rebuilt_indices(
            tmp_path, config
        )

    def test_index_record_holds_each_array_once(self, pipeline):
        tmp_path, _ = pipeline
        index = read_index_csv(tmp_path / "out" / "growth.csv", IndexKind.GROWTH)
        meta, arrays = unpack_record((tmp_path / "out" / "growth_digest.rec").read_bytes())
        assert sorted(arrays) == ["state.mean", "state.scatter", "state.vector", "values"]
        assert meta["state"].keys() == {"key"}
        np.testing.assert_array_equal(arrays["values"][:, 0], index.values)
        assert not (tmp_path / "out" / "indices_state.rec").exists()

    def test_out_dir_with_a_separate_state_file_rebuilds_once(self, pipeline, capsys):
        # an out dir of a version that kept the states in indices_state.rec
        # and the index tables' records without them
        tmp_path, config = pipeline
        out = tmp_path / "out"
        meta, arrays = {}, {}
        for kind in IndexKind:
            path = out / f"{kind.value}.csv"
            state = cli._index_state(read_table_record(path))[0]
            meta[kind.value] = {"key": state.key, "t": state.values.size + 59}
            for name in ("mean", "scatter", "vector", "values"):
                arrays[f"{kind.value}.{name}"] = getattr(state, name)
            write_index_csv(read_index_csv(path, kind), path)  # a record without the state
        old = pack_record(meta, arrays)
        (out / "indices_state.rec").write_bytes(old)
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_OK
        assert index_paths(capsys.readouterr().out) == ["rebuilt: no state"] * 2
        assert run(config, "build-indices") == EXIT_OK
        assert index_paths(capsys.readouterr().out) == ["resumed, 91 months reused"] * 2
        assert (out / "indices_state.rec").read_bytes() == old
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


def write_tight_panel(tmp_path: Path) -> tuple[Path, np.ndarray]:
    """A hand-written panel whose first 60-month growth window has lambda2 / lambda1 = 0.999;
    returns the config and the growth block."""
    rng = np.random.default_rng(11)
    growth = np.vstack([window_with_ratio(rng, 5, 0.999), rng.standard_normal((12, 5))])
    values = np.hstack([growth, rng.standard_normal((72, 3)) + rng.standard_normal(72)[:, None]])
    ids = [f"growth_{j:02d}" for j in range(5)] + [f"inflation_{j:02d}" for j in range(3)]
    out = tmp_path / "out"
    out.mkdir()
    months = np.arange(72) + MonthStamp(1970, 1).ordinal
    (out / "panel.csv").write_text(format_month_table(ids, months, values))
    meta = {
        "region": "us",
        "columns": [{"id": i, "category": i.split("_")[0]} for i in ids],
        "fills": [0] * len(ids),
    }
    (out / "panel_meta.json").write_text(json.dumps(meta))
    return write_config(tmp_path), growth


class TestIndexSolver:
    def test_tight_first_window_builds(self, tmp_path, capsys):
        config, growth = write_tight_panel(tmp_path)
        assert run(config, "build-indices") == EXIT_OK
        _, _, got = read_month_table(tmp_path / "out" / "growth.csv", ("value",))
        assert np.abs(got[:, 0] - eigh_index(growth, 60)).max() <= 1e-9

    def test_eigh_that_does_not_converge_exits_3(self, tmp_path, capsys, monkeypatch):
        config, _ = write_tight_panel(tmp_path)

        def not_converged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converged)
        capsys.readouterr()
        assert run(config, "build-indices") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "eigh did not converge" in err


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


def hold_back(tmp_path: Path, n: int) -> dict[Path, list[str]]:
    """Cut the last ``n`` lines off every series file; return them per file."""
    held = {}
    for path in sorted((tmp_path / "data" / "series").glob("*.csv")):
        lines = path.read_text().splitlines(keepends=True)
        held[path], lines = lines[-n:], lines[:-n]
        path.write_text("".join(lines))
    return held


def fresh_build(tmp_path: Path, config: Path, *predict: str) -> tuple[dict[str, bytes], str]:
    """Every file preprocess -> build-indices -> features leave in an empty out
    dir, and what ``predict`` prints from it (nothing without ``predict``)."""
    fresh = tmp_path / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    doc = json.loads(config.read_text())
    doc["paths"]["out_dir"] = str(fresh)
    fresh_config = tmp_path / "fresh_config.json"
    fresh_config.write_text(json.dumps(doc))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for command in ("preprocess", "build-indices", "features"):
            assert run(fresh_config, command) == EXIT_OK
        printed.seek(0)
        printed.truncate()
        assert not predict or run(fresh_config, *predict) == EXIT_OK
    return {path.name: path.read_bytes() for path in sorted(fresh.iterdir())}, printed.getvalue()


def damage_record(kind: str, path: Path) -> None:
    blob = path.read_bytes()
    if kind == "deleted":
        path.unlink()
    else:
        path.write_bytes(
            {
                "truncated": blob[: len(blob) // 2],
                "flipped bit": blob[:-40] + bytes([blob[-40] ^ 4]) + blob[-39:],
                "empty": b"",
                "not a record": b"not a record",
            }[kind]
        )


RECORD_DAMAGE = ["truncated", "flipped bit", "empty", "not a record", "deleted"]


class TestRefresh:
    """Each month appended to the series files: preprocess parses only the new
    bytes, each table appends only the new rows' text, and every file equals a
    fresh build's."""

    def test_ten_appends_equal_fresh_builds(self, tmp_path, capsys):
        # expanding z-scores with a whole-sample Newey-West weight: some
        # appends rescale the panel's history, and those rebuild in full
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = hold_back(tmp_path, 10)
        for command in ("preprocess", "build-indices", "features", "train"):
            assert run(config, command) == EXIT_OK
        model = tmp_path / "model.json"
        shutil.copy(tmp_path / "out" / "model.json", model)
        notes = []
        for k in range(10):
            for path, lines in held.items():
                with path.open("a") as fh:
                    fh.write(lines[k])
            month = str(MonthStamp(1970, 1).add_months(140 + k))
            predict = ("--format", "json", "predict", "--month", month, "--model-file", str(model))
            capsys.readouterr()
            for command in ("preprocess", "build-indices", "features"):
                assert run(config, command) == EXIT_OK
            notes.append(capsys.readouterr().out)
            assert run(config, *predict) == EXIT_OK
            printed = capsys.readouterr().out
            files, fresh_printed = fresh_build(tmp_path, config, *predict)
            out = tmp_path / "out"
            assert {name: (out / name).read_bytes() for name in files} == files
            assert printed == fresh_printed
        assert all("series files: 8 resumed, 0 parsed in full\n" in note for note in notes)
        features_notes = [re.search(r"features.csv \((.*)\)", note)[1] for note in notes]
        assert "appended 1 rows" in features_notes
        assert "rewritten: changed rows" in features_notes  # a rewrite update

    @pytest.mark.parametrize("damage", RECORD_DAMAGE)
    def test_damaged_series_record_parses_in_full(self, pipeline, capsys, damage):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in ("panel.csv", "panel_meta.json", "series_parse.rec")}
        damage_record(damage, out / "series_parse.rec")
        capsys.readouterr()
        assert run(config, "preprocess") == EXIT_OK
        assert "series files: 0 resumed, 8 parsed in full\n" in capsys.readouterr().out
        assert {name: (out / name).read_bytes() for name in first} == first
        assert run(config, "preprocess") == EXIT_OK
        assert "series files: 8 resumed, 0 parsed in full\n" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", RECORD_DAMAGE)
    def test_missing_or_damaged_features_record_builds_in_full(self, pipeline, monkeypatch, damage):
        tmp_path, config = pipeline
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in ("features.csv", "features_digest.rec")}
        damage_record(damage, out / "features_digest.rec")
        windows = []
        window_slopes = features.window_slopes

        def spy(values, window, ends=None):
            windows.append("all" if ends is None else len(ends))
            return window_slopes(values, window, ends)

        monkeypatch.setattr(features, "window_slopes", spy)
        for _ in range(2):
            windows.clear()
            assert run(config, "features") == EXIT_OK
            assert windows == [147]  # every row's windows in one call
            assert {name: (out / name).read_bytes() for name in first} == first

    def test_record_with_an_old_features_key_is_appended_to(self, tmp_path, capsys):
        """A features record that still holds ``meta.state.key``, as earlier
        versions wrote it, is appended to, and the record written drops it."""
        # expanding z-scores; the appended month is not in the Newey-West subsample, so no row changes
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = hold_back(tmp_path, 2)
        for command in ("preprocess", "build-indices", "features", "train"):
            assert run(config, command) == EXIT_OK
        out = tmp_path / "out"
        record = out / "features_digest.rec"
        for appended in (0, 1):
            if appended:
                for path, lines in held.items():
                    with path.open("a") as fh:
                        fh.write(lines[0])
                for command in ("preprocess", "build-indices"):
                    assert run(config, command) == EXIT_OK
            meta, arrays = unpack_record(record.read_bytes())
            meta["state"] = {"key": "0" * 64}
            record.write_bytes(pack_record(meta, arrays))
            capsys.readouterr()
            assert run(config, "features") == EXIT_OK
            assert f"features.csv (appended {appended} rows)" in capsys.readouterr().out
            assert "state" not in unpack_record(record.read_bytes())[0]
            predict = ("predict", "--month", f"1982-0{4 + appended}", "--model-file", str(out / "model.json"))
            files, _ = fresh_build(tmp_path, config, *predict)
            assert (out / "features.csv").read_bytes() == files["features.csv"]

    def test_scorer_builds_only_the_rows_it_scores(self, pipeline, capsys, monkeypatch):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        capsys.readouterr()
        assert run(config, "--format", "json", "predict", "--month", "1981-06") == EXIT_OK
        printed = capsys.readouterr().out
        built = []
        build = cli.build_feature_matrix

        def spy(*args, **kwargs):
            fm = build(*args, **kwargs)
            built.append(fm.n_rows)
            return fm

        monkeypatch.setattr(cli, "build_feature_matrix", spy)
        assert run(config, "--format", "json", "predict", "--month", "1981-06") == EXIT_OK
        assert built == [1] and capsys.readouterr().out == printed
        built.clear()
        assert run(config, "evaluate") == EXIT_OK
        assert len(built) == 1 and 0 < built[0] < 100

    def test_unchanged_sidecars_are_not_rewritten(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        written = []
        write_atomic = cli._write_atomic

        def spy(path, data):
            written.append(Path(path).name)
            write_atomic(path, data)

        monkeypatch.setattr(cli, "_write_atomic", spy)
        for command in ("preprocess", "build-indices", "features"):
            assert run(config, command) == EXIT_OK
        assert not {"panel_meta.json", "loadings.json", "features_meta.json"} & set(written)
        assert run(config, "features", "--window", "5") == EXIT_OK
        assert "features_meta.json" in written
        assert json.loads((tmp_path / "out" / "features_meta.json").read_text())["window"] == 5

    def test_build_indices_unpacks_each_record_once(self, pipeline, monkeypatch):
        tmp_path, config = pipeline
        unpacked = []
        unpack = dataset.unpack_record

        def spy(data):
            unpacked.append(len(data))
            return unpack(data)

        monkeypatch.setattr(dataset, "unpack_record", spy)
        out = tmp_path / "out"
        for command, records in (
            ("preprocess", ("series_parse.rec", "panel_digest.rec")),  # the sizes read are the sizes written
            ("build-indices", ("panel_digest.rec", "growth_digest.rec", "inflation_digest.rec")),
        ):
            unpacked.clear()
            assert run(config, command) == EXIT_OK
            assert sorted(unpacked) == sorted((out / name).stat().st_size for name in records)

    def test_every_series_file_goes_through_load_series_csv(self, pipeline, capsys, monkeypatch):
        # the benchmark's dataset.load span hooks cli.load_series_csv, on a full run and a resumed one
        tmp_path, config = pipeline
        loaded = []
        load = cli.load_series_csv

        def spy(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_series_csv", spy)
        files = sorted(path.name for path in (tmp_path / "data" / "series").glob("*.csv"))
        (tmp_path / "out" / "series_parse.rec").unlink()
        for note in ("0 resumed, 8 parsed in full", "8 resumed, 0 parsed in full"):
            loaded.clear()
            capsys.readouterr()
            assert run(config, "preprocess") == EXIT_OK
            assert f"series files: {note}\n" in capsys.readouterr().out
            assert sorted(loaded) == files

    def test_series_that_keeps_a_unit_root_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, preprocess={"stationarity": "auto", "zscore_mode": "full"})
        series_dir = tmp_path / "data" / "series"
        series_dir.mkdir(parents=True)
        rng = np.random.default_rng(0)
        columns = {
            "growth_i3": np.cumsum(np.cumsum(np.cumsum(rng.standard_normal(200)))),
            "inflation_noise": rng.standard_normal(200),
        }
        months = month_range(MonthStamp(1970, 1), 200)
        for sid, values in columns.items():
            (series_dir / f"{sid}.csv").write_text(format_month_table(("value",), months, values))
        manifest = [{"id": sid, "file": f"{sid}.csv", "region": "us", "category": sid.split("_")[0]} for sid in columns]
        (series_dir / "manifest.json").write_text(json.dumps({"series": manifest}))
        assert run(config, "preprocess") == EXIT_OK
        warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: series 'growth_i3' still has a unit root after 2 differencing rounds (ADF statistic -"
        )


def to_previous_format(out: Path) -> None:
    """Rewrite the records of ``out`` as the version before the one record entry wrote them:
    table digests whose meta holds ``file_sha256`` and no ``length``, and a
    ``series_parse.rec`` of schema 1 with one-dimensional values."""
    for record in out.glob("*_digest.rec"):
        meta, arrays = unpack_record(record.read_bytes())
        del meta["length"]
        meta["file_sha256"] = meta.pop("sha256")
        record.write_bytes(pack_record(meta, arrays))
    meta, arrays = unpack_record((out / "series_parse.rec").read_bytes())
    files, old = {}, {}
    for key, entry in meta["files"].items():
        old[f"values:{key}"] = arrays[f"values:{key}"][:, 0]
        files[key] = {**entry, "rows": len(old[f"values:{key}"])}
        del files[key]["names"]
    (out / "series_parse.rec").write_bytes(pack_record({"schema": 1, "files": files}, old))


class TestRecordUpgrade:
    def test_previous_format_records_cost_one_full_pass(self, tmp_path, capsys):
        # expanding z-scores; the appended month is not in the Newey-West subsample, so no row changes
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = hold_back(tmp_path, 2)
        chain = ("preprocess", "build-indices", "features")
        for command in chain:
            assert run(config, command) == EXIT_OK
        out = tmp_path / "out"
        to_previous_format(out)
        capsys.readouterr()
        for command in chain:
            assert run(config, command) == EXIT_OK
        printed = capsys.readouterr().out
        assert "series files: 0 resumed, 8 parsed in full\n" in printed
        assert table_notes(printed) == ["rewritten: unreadable digest"] * 4
        assert index_paths(printed) == ["rebuilt: unreadable state"] * 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == fresh_build(tmp_path, config)[0]

        for path, lines in held.items():
            with path.open("a") as fh:
                fh.write(lines[0])
        for command in chain:
            assert run(config, command) == EXIT_OK
        printed = capsys.readouterr().out
        assert "series files: 8 resumed, 0 parsed in full\n" in printed
        assert table_notes(printed) == ["appended 1 rows"] * 4
        assert index_paths(printed) == ["resumed, 78 months reused"] * 2


class Crash(Exception):
    """The process killed at a write."""


class TestCrashLaw:
    """A chain killed at any write, then rerun, leaves the files of a run that was not killed."""

    CHAIN = ("preprocess", "build-indices", "features")

    def test_rerun_after_a_crash_at_any_write_equals_an_uninterrupted_run(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, preprocess={"stationarity": "none", "zscore_mode": "expanding"})
        assert run(config, "synth") == EXIT_OK
        held = hold_back(tmp_path, 2)
        out, before = tmp_path / "out", tmp_path / "before"
        with contextlib.redirect_stdout(io.StringIO()):
            for command in self.CHAIN:
                assert run(config, command) == EXIT_OK
        for path, lines in held.items():  # one appended month
            with path.open("a") as fh:
                fh.write(lines[0])
        shutil.copytree(out, before)
        written, crash = [], {}
        write_atomic = cli._write_atomic

        def write(path, data):
            written.append(Path(path).name)
            if len(written) == crash.get("at"):
                if crash["mode"] == "after the temporary file":
                    Path(f"{path}.tmp").write_bytes(data.encode() if isinstance(data, str) else data)
                raise Crash(path)
            write_atomic(path, data)

        def run_chain() -> dict[str, bytes]:
            with contextlib.redirect_stdout(io.StringIO()):
                for command in self.CHAIN:
                    assert run(config, command) == EXIT_OK
            return {path.name: path.read_bytes() for path in out.iterdir() if path.suffix != ".tmp"}

        monkeypatch.setattr(cli, "_write_atomic", write)
        expected = run_chain()
        assert written == [
            "panel.csv", "panel_digest.rec", "series_parse.rec", "growth.csv", "growth_digest.rec",
            "inflation.csv", "inflation_digest.rec", "loadings.json", "features.csv", "features_digest.rec",
        ]
        for at in range(1, len(written) + 1):
            for mode in ("before the write", "after the temporary file"):
                shutil.rmtree(out)
                shutil.copytree(before, out)
                written.clear()
                crash.update(at=at, mode=mode)
                with pytest.raises(Crash), contextlib.redirect_stdout(io.StringIO()):
                    for command in self.CHAIN:
                        run(config, command)
                crash.clear()
                assert run_chain() == expected, (at, mode)


class TestRecordedTables:
    """Tables the program wrote are read back from their digest records."""

    COMMANDS = (("build-indices",), ("features",), ("predict", "--month", "1981-06"))

    def test_only_a_hand_edited_table_is_parsed(self, pipeline, capsys, monkeypatch):
        tmp_path, config = pipeline
        assert run(config, "train") == EXIT_OK
        parses = []
        loadtxt = np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            parses.append(args[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        first = {}
        for argv in self.COMMANDS:
            capsys.readouterr()
            assert run(config, *argv) == EXIT_OK
            first[argv] = capsys.readouterr().out
        assert parses == []

        panel = tmp_path / "out" / "panel.csv"
        panel.write_bytes(panel.read_bytes().replace(b"\n", b"\r\n"))  # same rows, other bytes
        for argv in self.COMMANDS:
            parses.clear()
            capsys.readouterr()
            assert run(config, *argv) == EXIT_OK
            assert len(parses) == 1
            assert capsys.readouterr().out == first[argv]


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
