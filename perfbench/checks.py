"""Output checks and metric arithmetic, applied after the worker has exited.

Every check is one attempted operation; a check that does not hold is one
failed operation, with a message on stderr.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from spans import read_spans, self_times
from workloads import LAYERS

ORACLE_TOL = 1e-8
PROB_TOL = 1e-9
MIN_WINDOW_MONTHS = 60  # the CLI's default indices.min_window_months
# An emitted index value that moves by more than this after an append counts
# as changed; recomputing an unchanged window reproduces it bit for bit.
EMITTED_TOL = 1e-12
PHASES = ("recovery", "expansion", "slowdown", "recession")


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def exits(self, rcs: list[int], what: str) -> None:
        for rc in rcs:
            self.check(rc == 0, f"{what}: command exited {rc}")


# --- artifacts ---------------------------------------------------------------


def read_panel(out: Path) -> tuple[list[str], np.ndarray]:
    """Column categories and values (NaN where unavailable) of panel.csv."""
    meta = json.loads((out / "panel_meta.json").read_text())
    category = {c["id"]: c["category"] for c in meta["columns"]}
    with (out / "panel.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    ids = rows[0][2:]
    values = np.array([[float(c) if c else math.nan for c in r[2:]] for r in rows[1:]])
    return [category[i] for i in ids], values


def read_index(path: Path) -> np.ndarray:
    with path.open(newline="") as fh:
        return np.array([float(r[2]) for r in list(csv.reader(fh))[1:]])


def oracle_index(block: np.ndarray, min_window: int = MIN_WINDOW_MONTHS) -> np.ndarray:
    """Expanding first-PC index from ``np.linalg.eigh``.

    Same definition as the program: the covariance (divisor t) of the first
    t complete rows, its top eigenvector signed so the first column's loading
    is positive, and the centred last row projected onto it. The running
    mean and scatter matrix are updated one row at a time (Welford).
    """
    n, d = block.shape
    mean = np.zeros(d)
    scatter = np.zeros((d, d))
    out = []
    for t in range(1, n + 1):
        x = block[t - 1]
        delta = x - mean
        mean = mean + delta / t
        scatter += np.outer(delta, x - mean)
        if t < min_window:
            continue
        _, vecs = np.linalg.eigh(scatter / t)
        v = vecs[:, -1]
        if v[0] < 0:
            v = -v
        out.append(float((x - mean) @ v))
    return np.asarray(out)


def check_indices(tally: Tally, out: Path, what: str) -> None:
    """Every emitted growth and inflation value against the eigh oracle."""
    categories, values = read_panel(out)
    complete = values[~np.isnan(values).any(axis=1)]
    for kind in ("growth", "inflation"):
        cols = [j for j, c in enumerate(categories) if c == kind]
        emitted = read_index(out / f"{kind}.csv")
        expected = oracle_index(complete[:, cols])
        if not tally.check(emitted.shape == expected.shape,
                           f"{what}: {kind} index has {emitted.size} values, oracle {expected.size}"):
            continue
        err = float(np.max(np.abs(emitted - expected)))
        tally.check(err <= ORACLE_TOL, f"{what}: {kind} index off the eigh oracle by {err:.3g}")


def check_prediction(tally: Tally, text: str, what: str) -> None:
    """Four probabilities summing to 1, and a top-2 that agrees with them."""
    try:
        doc = json.loads(text)
        dist = doc["distribution"]
        top2 = [(t["phase"], t["probability"]) for t in doc["top2"]]
    except (ValueError, KeyError, TypeError) as exc:
        tally.check(False, f"{what}: unreadable predict output ({exc})")
        return
    tally.check(sorted(dist) == sorted(PHASES), f"{what}: phases {sorted(dist)}")
    total = math.fsum(dist.values())
    tally.check(abs(total - 1.0) <= PROB_TOL, f"{what}: probabilities sum to {total!r}")
    rest = [q for p, q in dist.items() if p not in {p for p, _ in top2}]
    tally.check(
        len(top2) == 2
        and all(dist.get(p) == q for p, q in top2)
        and top2[0][1] >= top2[1][1] >= max(rest),
        f"{what}: top2 {top2} disagrees with {dist}",
    )


def report(out: Path, model: str) -> dict:
    return json.loads((out / f"report_{model}.json").read_text())


def check_gates(tally: Tally, reports: dict[str, dict], gates) -> None:
    for model, key, floor in gates:
        value = reports[model][key]
        tally.check(value >= floor, f"{model} {key} {value:.4f} < {floor}")


def same_files(tally: Tally, first: Path, other: Path, names: list[str]) -> None:
    """A repeated operation on the same inputs must write identical artifacts."""
    for name in names:
        a, b = first / name, other / name
        tally.check(a.exists() and b.exists() and a.read_bytes() == b.read_bytes(),
                    f"{other.name}/{name} differs from {first.name}/{name}")


def emitted_changes(op_dirs: list[Path]) -> int:
    """Updates that changed an index value emitted before them."""
    changes = 0
    for prev, cur in zip(op_dirs, op_dirs[1:]):
        for kind in ("growth", "inflation"):
            before = read_index(prev / f"{kind}.csv")
            after = read_index(cur / f"{kind}.csv")[: before.size]
            if np.max(np.abs(after - before)) > EMITTED_TOL:
                changes += 1
                break
    return changes


# --- statistics --------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- per-layer metrics from spans ------------------------------------------------

# Per-layer metric -> span name whose self time it sums.
SELF_TIME = {
    "preprocess.zscore_s": "preprocess.zscore",
    "preprocess.adf_s": "preprocess.adf",
    "preprocess.nw_s": "preprocess.nw",
    "preprocess.align_s": "preprocess.align",
    "indices.expanding_s": "indices.expanding",
    "indices.final_s": "indices.final",
    "models.mlr_train_s": "models.mlr_train",
    "models.svm_train_s": "models.svm_train",
    "models.mlp_train_s": "models.mlp_train",
    "models.predict_s": "models.predict",
    "models.io_s": "models.io",
    "cli.io_s": "cli.io",
    "cli.self_s": "cli.main",
    "dataset.load_s": "dataset.load",
    "features.build_s": "features.build",
    "features.align_s": "features.align",
    "rbbcp.predict_s": "rbbcp.predict",
    "evaluation.report_s": "evaluation.report",
}
# Per-layer metric -> (span names, count key) it sums.
COUNTS = {
    "preprocess.series": (("preprocess.standardize",), "series"),
    "preprocess.differenced": (("preprocess.standardize",), "differenced"),
    "indices.months_emitted": (("indices.expanding",), "months"),
    "models.train_rows": (("models.mlr_train", "models.svm_train", "models.mlp_train"), "rows"),
    "cli.io_bytes": (("cli.io",), "bytes"),
    "dataset.series_loaded": (("dataset.load",), "series"),
    "features.rows": (("features.build",), "rows"),
    "rbbcp.months": (("rbbcp.predict",), "months"),
}


def layer_metrics(spans_path: Path, layers: tuple[str, ...]) -> tuple[dict[str, float], list[str]]:
    """Per-operation means of the span metrics, and the expected layers with no span."""
    spans = read_spans(spans_path)
    selfs = self_times(spans)
    n_ops = len({s["trace"] for s in spans}) or 1
    sums: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        layer = s["name"].split(".")[0]
        sums[s["name"]] = sums.get(s["name"], 0.0) + own
        sums[f"{layer}.total_s"] = sums.get(f"{layer}.total_s", 0.0) + own
        for key, value in s.get("counts", {}).items():
            sums[(s["name"], key)] = sums.get((s["name"], key), 0) + value
    metrics = {m: sums.get(name, 0.0) / n_ops for m, name in SELF_TIME.items()}
    for m, (names, key) in COUNTS.items():
        metrics[m] = sum(sums.get((name, key), 0) for name in names) / n_ops
    months = metrics["indices.months_emitted"]
    metrics["indices.us_per_month"] = 1e6 * metrics["indices.expanding_s"] / months if months else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.total_s"] = sums.get(f"{layer}.total_s", 0.0) / n_ops
    missing = [layer for layer in layers if f"{layer}.total_s" not in sums]
    return metrics, missing
