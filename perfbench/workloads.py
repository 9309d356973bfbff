"""The benchmark's workloads and the seeded inputs it writes for them.

Every workload shares the regime process of the paper's quickstart (window 4,
mean phase durations 28/40/22/30 months, observation noise 0.05). The phase
path, the latent factors, the loadings and the observation noise of every
month up to the validation boundary form a fixed scenario, and so do
weak-factor's random walks. The ``--seed`` draws the observation noise of the
months after that boundary. The trained models therefore always fit the same
history, and weak-factor keeps the same eigengaps: MLR's iteration count and
weak-factor's power-iteration steps each swing by a third or more from one
noise draw or random walk to the next, which would otherwise turn into
run-to-run spread. The seed still changes every index value, feature row and
forecast of the out-of-sample months.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cyclecast.dataset import MonthStamp
from cyclecast.synthgen import RegimeSpec, generate_paths

LAYERS = ("cli", "dataset", "preprocess", "indices", "features", "models", "rbbcp", "evaluation")

SCENARIO_SEED = 0
START = MonthStamp(1970, 1)
MEAN_DURATIONS = (28.0, 40.0, 22.0, 30.0)
NOISE_SIGMA = 0.05
WINDOW = 4
PAPER_SPLIT = ("1996-12", "2003-04", "2019-12")


@dataclass(frozen=True)
class Workload:
    name: str
    months: int
    n_series: int
    split: tuple[str, str, str]
    preprocess: dict
    models: tuple[str, ...]
    random_walk_sigma: float = 0.0
    # Months held back and published one per update; 0 for batch workloads.
    updates: int = 0
    # Layers that must record spans in a traced run.
    layers: tuple[str, ...] = LAYERS
    # (model, report key, floor) that every evaluation must reach.
    gates: tuple[tuple[str, str, float], ...] = ()

    def config(self, data_dir: Path, out_dir: Path) -> dict:
        train_end, validation_end, test_end = self.split
        return {
            "region": "us",
            "seed": 0,
            "window": WINDOW,
            "model": self.models[0],
            "split": {
                "train_end": train_end,
                "validation_end": validation_end,
                "test_end": test_end,
            },
            "paths": {"data_dir": str(data_dir), "out_dir": str(out_dir)},
            "preprocess": dict(self.preprocess),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            months=600,
            n_series=20,
            split=PAPER_SPLIT,
            preprocess={"stationarity": "none", "zscore_mode": "full"},
            models=("rbbcp", "mlr", "svm", "mlp"),
            # Acceptance criterion 8 of the test suite.
            gates=(("mlr", "top1", 0.90), ("mlr", "top2", 0.98), ("rbbcp", "top1", 0.80)),
        ),
        Workload(
            name="weak-factor",
            months=600,
            n_series=20,
            split=PAPER_SPLIT,
            preprocess={"stationarity": "diff", "zscore_mode": "full"},
            models=("rbbcp",),
            random_walk_sigma=3.0,
        ),
        Workload(
            name="large",
            months=1200,
            n_series=200,
            split=("2029-12", "2044-12", "2069-12"),
            preprocess={},
            models=("rbbcp",),
        ),
        Workload(
            name="monthly-update",
            months=600,
            n_series=20,
            split=PAPER_SPLIT,
            preprocess={"stationarity": "none", "zscore_mode": "expanding"},
            models=("mlr",),
            updates=72,
            layers=("cli", "dataset", "preprocess", "indices", "features", "models"),
        ),
    )
}


def generate_values(workload: Workload, seed: int) -> tuple[list[int], list[str], np.ndarray]:
    """Phase codes, series ids and the months-by-series matrix of raw values."""
    spec = RegimeSpec(
        mean_durations=MEAN_DURATIONS,
        noise_sigma=NOISE_SIGMA,
        n_series=workload.n_series,
        seed=SCENARIO_SEED,
    )
    phases, growth, inflation = generate_paths(spec, workload.months)
    n, d = workload.months, workload.n_series
    cut = START.months_until(MonthStamp.parse(workload.split[1])) + 1
    fixed = np.random.default_rng(SCENARIO_SEED + 1)
    drawn = np.random.default_rng(seed)

    loadings = fixed.uniform(0.5, 1.5, d)
    noise = fixed.standard_normal((n, d))
    noise[cut:] = drawn.standard_normal((n - cut, d))
    on_growth = np.arange(d) % 2 == 0
    latent = np.where(on_growth, growth[:, None], inflation[:, None])
    values = loadings * latent + NOISE_SIGMA * noise
    if workload.random_walk_sigma:
        walk = np.cumsum(fixed.standard_normal((n, d)), axis=0)
        values += workload.random_walk_sigma * walk
    ids = [f"{'growth' if g else 'inflation'}_{j:02d}" for j, g in enumerate(on_growth)]
    return [int(p) for p in phases], ids, values


def _series_lines(values: np.ndarray) -> list[str]:
    lines = []
    for t, v in enumerate(values):
        m = START.add_months(t)
        lines.append(f"{m.year},{m.month},{float(v)!r}\n")
    return lines


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> dict[str, list[str]]:
    """Write series CSVs, their manifest and ``labels.csv`` under ``data_dir``.

    For an update workload the last ``workload.updates`` rows of every series
    are held back; they are returned per file, in month order, for the
    benchmark to append one month at a time.
    """
    phases, ids, values = generate_values(workload, seed)
    series_dir = data_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    published = workload.months - workload.updates
    held_back: dict[str, list[str]] = {}
    manifest = {"series": []}
    for j, sid in enumerate(ids):
        fname = f"{sid}.csv"
        lines = _series_lines(values[:, j])
        (series_dir / fname).write_text("year,month,value\n" + "".join(lines[:published]))
        held_back[fname] = lines[published:]
        category = sid.split("_")[0]
        manifest["series"].append({"id": sid, "file": fname, "region": "us", "category": category})
    (series_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    label_lines = ["year,month,phase"]
    for t, code in enumerate(phases):
        m = START.add_months(t)
        label_lines.append(f"{m.year},{m.month},{code}")
    (data_dir / "labels.csv").write_text("\n".join(label_lines) + "\n")
    return held_back


def eigen_ratio(workload: Workload, seed: int) -> dict[str, float]:
    """Full-sample lambda2/lambda1 per category of the panel PCA will see.

    Applies the workload's own stationarity step (none or first difference)
    and a full-sample z-score to the generated values.
    """
    _, ids, values = generate_values(workload, seed)
    if workload.preprocess.get("stationarity") == "diff":
        values = np.diff(values, axis=0)
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    out = {}
    for category in ("growth", "inflation"):
        cols = [j for j, sid in enumerate(ids) if sid.startswith(category)]
        eig = np.linalg.eigvalsh(np.cov(z[:, cols], rowvar=False))
        out[category] = float(eig[-2] / eig[-1])
    return out
