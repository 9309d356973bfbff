"""Evaluation protocol: accuracy, top-k accuracy, per-class/macro/weighted
F-scores, confusion matrices, and the two-label downswing/upswing collapse.

Confusion matrices are oriented rows = predicted phase, columns = true label.
Each sample's phases are ranked by :func:`cyclecast.models.rank_phases`
(most probable first, ties to the lower code): the prediction is the first,
and top-k correctness means the true label is among the first k. The summed
probability mass of the first k is a diagnostic. Every measure works on whole
arrays (the distributions are one (n, 4) matrix, ranked in one call) and reads
phase codes through :func:`cyclecast.dataset.phase_codes`, so a code outside
1..4 raises :class:`~cyclecast.errors.InvalidPhaseCodeError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import PhaseLabel, phase_codes
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

_UPSWING = np.array([PhaseLabel.RECOVERY, PhaseLabel.EXPANSION])
_PHASES = np.array(list(PhaseLabel), dtype=object)  # PhaseLabel by code - 1


def _check_pair(preds, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = phase_codes(preds), phase_codes(truth)
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


def _top(distributions, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distributions as an (n, 4) matrix (n = 0 for an empty input) and the
    codes of each row's k most probable phases, an (n, k) matrix."""
    if not 1 <= k <= N_PHASES:
        raise BadKError(f"k must be in 1..4, got {k}")
    dist = np.asarray(distributions, dtype=float)
    dist = dist.reshape(len(dist), N_PHASES)
    return dist, rank_phases(dist)[:, :k]


def _hit_rate(top: np.ndarray, truth) -> float:
    """Share of rows of ``top`` (ranked phase codes) that hold their true code."""
    t = phase_codes(truth)
    if len(top) != t.size:
        raise LengthMismatchError(f"{len(top)} distributions vs {t.size} labels")
    if t.size == 0:
        raise EmptyInputError("top-k accuracy of an empty sample is undefined")
    return float((top == t[:, None]).any(axis=1).mean())


def argmax_predictions(distributions) -> list[PhaseLabel]:
    """Most probable phase per row, ties toward the lower code."""
    return _PHASES[_top(distributions, 1)[1][:, 0] - 1].tolist()


def topk_accuracy(distributions, truth, k: int) -> float:
    """Share of samples whose true phase ranks among the k most probable."""
    return _hit_rate(_top(distributions, k)[1], truth)


def topk_mass(distributions, k: int) -> float:
    """Diagnostic: mean probability mass carried by the k most probable phases."""
    dist, top = _top(distributions, k)
    if len(dist) == 0:
        raise EmptyInputError("top-k mass of an empty sample is undefined")
    return float(np.take_along_axis(dist, top - 1, axis=1).sum(axis=1).mean())


def confusion_matrix(preds, truth) -> ConfusionMatrix:
    """Counts indexed [predicted][true]."""
    p, t = _check_pair(preds, truth)
    cells = (p - 1) * N_PHASES + (t - 1)
    return ConfusionMatrix.from_array(np.bincount(cells, minlength=N_PHASES**2).reshape(N_PHASES, N_PHASES))


def f_scores(cm: ConfusionMatrix) -> FScores:
    """Per-class F1 plus macro (unweighted mean) and support-weighted mean.

    Precision uses row sums (predictions), recall column sums (true labels);
    a class with precision + recall = 0 scores F = 0.
    """
    arr = cm.as_array().astype(float)
    total = arr.sum()
    if total == 0:
        raise EmptyInputError("confusion matrix has no samples")
    col_sums = arr.sum(axis=0)
    # 2PR/(P+R) with P = d/row, R = d/col simplifies to 2d/(row+col).
    denom = arr.sum(axis=1) + col_sums
    per_class = np.divide(2.0 * np.diag(arr), denom, out=np.zeros(N_PHASES), where=denom > 0)
    macro = float(np.mean(per_class))
    # Summed left to right in phase order: report.json's bytes depend on this order.
    weighted = float(sum((per_class * col_sums).tolist()) / total)
    return FScores(per_class=tuple(per_class.tolist()), macro=macro, weighted=weighted)


def collapse_two_label(preds, truth) -> float:
    """Accuracy after mapping phases to upswing/downswing super-classes."""
    p, t = _check_pair(preds, truth)
    if p.size == 0:
        raise EmptyInputError("two-label accuracy of an empty sample is undefined")
    return float((np.isin(p, _UPSWING) == np.isin(t, _UPSWING)).mean())


def build_report(distributions, truth) -> EvaluationReport:
    """Full protocol over per-sample phase distributions and true labels."""
    top2 = _top(distributions, 2)[1]
    preds = top2[:, 0]
    cm = confusion_matrix(preds, truth)
    scores = f_scores(cm)
    return EvaluationReport(
        confusion=cm,
        per_class_f=scores.per_class,
        macro_f=scores.macro,
        weighted_f=scores.weighted,
        top1=_hit_rate(top2[:, :1], truth),
        top2=_hit_rate(top2, truth),
        two_label_accuracy=collapse_two_label(preds, truth),
    )


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


_NAMES = [phase.name.lower() for phase in PhaseLabel]


def _metrics(report: EvaluationReport) -> list[tuple[str, str, float]]:
    """(csv key, text label, value) of each scalar metric, in rendering order."""
    return [
        *((f"f_{name}", f"F {name}", f) for name, f in zip(_NAMES, report.per_class_f)),
        ("macro", "F macro", report.macro_f),
        ("weighted", "F weighted", report.weighted_f),
        ("top1", "Top-1", report.top1),
        ("top2", "Top-2", report.top2),
        ("two_label", "Two-label", report.two_label_accuracy),
    ]


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
        lines = ["metric,value", *(f"{key},{_pct(value)}" for key, _, value in _metrics(report))]
    elif format == "text":
        width = max(map(len, _NAMES)) + 2
        lines = ["Confusion matrix (rows = predicted, columns = true)"]
        lines.append(" " * width + "".join(f"{name:>11}" for name in _NAMES))
        for name, row in zip(_NAMES, report.confusion.counts):
            lines.append(f"{name:<{width}}" + "".join(f"{v:>11d}" for v in row))
        lines.append("")
        lines += [f"{label:<12} {_pct(value)}" for _, label, value in _metrics(report)]
    else:
        raise ValueError(f"unknown report format {format!r}")
    return "\n".join(lines) + "\n"


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
