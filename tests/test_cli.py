import json
from pathlib import Path

import numpy as np
import pytest

from cyclecast import models
from cyclecast.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_features,
    read_index_csv,
    read_panel,
    write_features,
    write_index_csv,
    write_panel,
)
from cyclecast.dataset import Category, MonthStamp
from cyclecast.evaluation import report_from_json
from cyclecast.features import build_feature_matrix
from cyclecast.indices import CompositeIndex, IndexKind

from conftest import make_panel, month_range


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
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, overrides, command):
        config = write_config(tmp_path, **overrides)
        assert run(config, command) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

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
        ],
    )
    def test_bad_integer_setting_is_config_error(self, tmp_path, capsys, overrides, command):
        config = write_config(tmp_path, **overrides)
        assert run(config, command) == EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err

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
        assert loaded.months == fm.months
        assert (loaded.feature_names, loaded.window) == (fm.feature_names, 4)
        np.testing.assert_array_equal(loaded.values, fm.values)
        write_features(loaded, csv_path, meta_path, sign_only=False)
        assert csv_path.read_bytes() == first

    def test_index_round_trip(self, tmp_path):
        index = CompositeIndex(
            kind=IndexKind.GROWTH,
            months=month_range(MonthStamp(1999, 11), 3),
            values=(0.1, -1e300, 2 / 3),
            min_window_months=60,
        )
        path = tmp_path / "growth.csv"
        write_index_csv(index, path)
        first = path.read_bytes()
        assert first.splitlines() == [
            b"year,month,value", b"1999,11,0.1", b"1999,12,-1e+300", b"2000,1,0.6666666666666666"
        ]
        loaded = read_index_csv(path, IndexKind.GROWTH, 60)
        assert loaded == index
        write_index_csv(loaded, path)
        assert path.read_bytes() == first
