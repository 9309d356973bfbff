"""Evaluation protocol: accuracy, top-k accuracy, per-class/macro/weighted
F-scores, confusion matrices, and the two-label downswing/upswing collapse.

Confusion matrices are oriented rows = predicted phase, columns = true label.
Top-k correctness means the true label appears among the k most probable
phases (ties broken toward the lower phase code); the alternative
summed-probability-mass reading is available as a diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import PhaseLabel
from .errors import BadKError, EmptyInputError, LengthMismatchError
from .models import rank_phases

__all__ = [
    "ConfusionMatrix",
    "FScores",
    "EvaluationReport",
    "accuracy",
    "topk_accuracy",
    "topk_mass",
    "confusion_matrix",
    "f_scores",
    "collapse_two_label",
    "argmax_predictions",
    "build_report",
    "render_report",
    "report_from_json",
]

N_PHASES = 4
REPORT_SCHEMA_VERSION = 1

_UPSWING = {PhaseLabel.EXPANSION, PhaseLabel.RECOVERY}


def _codes(labels) -> np.ndarray:
    return np.asarray([int(v) for v in labels], dtype=int)


def _check_pair(preds, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = _codes(preds), _codes(truth)
    if p.size != t.size:
        raise LengthMismatchError(f"{p.size} predictions vs {t.size} labels")
    return p, t


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 counts; counts[i][j] = predicted phase i+1, true label j+1."""

    counts: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.shape != (N_PHASES, N_PHASES):
            raise ValueError("confusion matrix must be 4x4")
        if (arr < 0).any():
            raise ValueError("confusion matrix counts must be non-negative")

    @classmethod
    def from_array(cls, arr) -> "ConfusionMatrix":
        return cls(counts=tuple(tuple(int(v) for v in row) for row in arr))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=int)

    @property
    def total(self) -> int:
        return int(self.as_array().sum())


@dataclass(frozen=True)
class FScores:
    per_class: tuple[float, float, float, float]
    macro: float
    weighted: float


@dataclass(frozen=True)
class EvaluationReport:
    confusion: ConfusionMatrix
    per_class_f: tuple[float, float, float, float]
    macro_f: float
    weighted_f: float
    top1: float
    top2: float
    two_label_accuracy: float

    def __post_init__(self):
        if self.top2 < self.top1 - 1e-12:
            raise ValueError("top2 accuracy cannot be below top1")


def accuracy(preds, truth) -> float:
    """Share of exact phase matches."""
    p, t = _check_pair(preds, truth)
    if p.size == 0:
        raise EmptyInputError("accuracy of an empty sample is undefined")
    return float((p == t).mean())


def argmax_predictions(distributions) -> list[PhaseLabel]:
    """Most probable phase per row, ties toward the lower code."""
    return [rank_phases(row)[0] for row in np.asarray(distributions, dtype=float)]


def topk_accuracy(distributions, truth, k: int) -> float:
    """Share of samples whose true phase ranks among the k most probable."""
    if not 1 <= k <= N_PHASES:
        raise BadKError(f"k must be in 1..4, got {k}")
    dist = np.asarray(distributions, dtype=float)
    t = _codes(truth)
    if dist.shape[0] != t.size:
        raise LengthMismatchError(f"{dist.shape[0]} distributions vs {t.size} labels")
    if t.size == 0:
        raise EmptyInputError("top-k accuracy of an empty sample is undefined")
    hits = 0
    for row, true_code in zip(dist, t):
        top = [int(phase) for phase in rank_phases(row)[:k]]
        hits += true_code in top
    return hits / t.size


def topk_mass(distributions, k: int) -> float:
    """Diagnostic: mean probability mass carried by the k most probable phases."""
    if not 1 <= k <= N_PHASES:
        raise BadKError(f"k must be in 1..4, got {k}")
    dist = np.asarray(distributions, dtype=float)
    if dist.shape[0] == 0:
        raise EmptyInputError("top-k mass of an empty sample is undefined")
    total = 0.0
    for row in dist:
        total += sum(row[int(phase) - 1] for phase in rank_phases(row)[:k])
    return total / dist.shape[0]


def confusion_matrix(preds, truth) -> ConfusionMatrix:
    """Counts indexed [predicted][true]."""
    p, t = _check_pair(preds, truth)
    counts = np.zeros((N_PHASES, N_PHASES), dtype=int)
    for pi, ti in zip(p, t):
        counts[pi - 1, ti - 1] += 1
    return ConfusionMatrix.from_array(counts)


def f_scores(cm: ConfusionMatrix) -> FScores:
    """Per-class F1 plus macro (unweighted mean) and support-weighted mean.

    Precision uses row sums (predictions), recall column sums (true labels);
    a class with precision + recall = 0 scores F = 0.
    """
    arr = cm.as_array().astype(float)
    total = arr.sum()
    if total == 0:
        raise EmptyInputError("confusion matrix has no samples")
    diag = np.diag(arr)
    row_sums = arr.sum(axis=1)
    col_sums = arr.sum(axis=0)
    per_class = []
    for c in range(N_PHASES):
        # 2PR/(P+R) with P = d/row, R = d/col simplifies to 2d/(row+col).
        denom = row_sums[c] + col_sums[c]
        per_class.append(0.0 if denom == 0 else float(2.0 * diag[c] / denom))
    macro = float(np.mean(per_class))
    weighted = float(sum(f * s for f, s in zip(per_class, col_sums)) / total)
    return FScores(per_class=tuple(per_class), macro=macro, weighted=weighted)


def collapse_two_label(preds, truth) -> float:
    """Accuracy after mapping phases to upswing/downswing super-classes."""
    p, t = _check_pair(preds, truth)
    if p.size == 0:
        raise EmptyInputError("two-label accuracy of an empty sample is undefined")
    up = np.asarray([int(ph) for ph in _UPSWING])
    p_up = np.isin(p, up)
    t_up = np.isin(t, up)
    return float((p_up == t_up).mean())


def build_report(distributions, truth) -> EvaluationReport:
    """Full protocol over per-sample phase distributions and true labels."""
    dist = np.asarray(distributions, dtype=float)
    preds = argmax_predictions(dist)
    cm = confusion_matrix(preds, truth)
    scores = f_scores(cm)
    return EvaluationReport(
        confusion=cm,
        per_class_f=scores.per_class,
        macro_f=scores.macro,
        weighted_f=scores.weighted,
        top1=topk_accuracy(dist, truth, 1),
        top2=topk_accuracy(dist, truth, 2),
        two_label_accuracy=collapse_two_label(preds, truth),
    )


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def render_report(report: EvaluationReport, format: str = "text") -> str:
    """Deterministic serialization in text, json, or csv form."""
    if format == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "confusion": [list(row) for row in report.confusion.counts],
            "per_class_f": list(report.per_class_f),
            "macro_f": report.macro_f,
            "weighted_f": report.weighted_f,
            "top1": report.top1,
            "top2": report.top2,
            "two_label_accuracy": report.two_label_accuracy,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if format == "csv":
        lines = ["metric,value"]
        for phase in PhaseLabel:
            lines.append(f"f_{phase.name.lower()},{_pct(report.per_class_f[int(phase) - 1])}")
        lines.append(f"macro,{_pct(report.macro_f)}")
        lines.append(f"weighted,{_pct(report.weighted_f)}")
        lines.append(f"top1,{_pct(report.top1)}")
        lines.append(f"top2,{_pct(report.top2)}")
        lines.append(f"two_label,{_pct(report.two_label_accuracy)}")
        return "\n".join(lines) + "\n"
    if format == "text":
        names = [p.name.lower() for p in PhaseLabel]
        width = max(len(n) for n in names) + 2
        lines = ["Confusion matrix (rows = predicted, columns = true)"]
        lines.append(" " * width + "".join(f"{n:>11}" for n in names))
        for phase in PhaseLabel:
            row = report.confusion.counts[int(phase) - 1]
            lines.append(f"{phase.name.lower():<{width}}" + "".join(f"{v:>11d}" for v in row))
        lines.append("")
        for phase in PhaseLabel:
            lines.append(
                f"F {phase.name.lower():<10} {_pct(report.per_class_f[int(phase) - 1])}"
            )
        lines.append(f"F macro      {_pct(report.macro_f)}")
        lines.append(f"F weighted   {_pct(report.weighted_f)}")
        lines.append(f"Top-1        {_pct(report.top1)}")
        lines.append(f"Top-2        {_pct(report.top2)}")
        lines.append(f"Two-label    {_pct(report.two_label_accuracy)}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def report_from_json(text: str) -> EvaluationReport:
    """Parse a json rendering back into an equal report."""
    doc = json.loads(text)
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version {doc.get('schema_version')}")
    return EvaluationReport(
        confusion=ConfusionMatrix.from_array(doc["confusion"]),
        per_class_f=tuple(float(v) for v in doc["per_class_f"]),
        macro_f=float(doc["macro_f"]),
        weighted_f=float(doc["weighted_f"]),
        top1=float(doc["top1"]),
        top2=float(doc["top2"]),
        two_label_accuracy=float(doc["two_label_accuracy"]),
    )
