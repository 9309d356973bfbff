"""Outside-in layer tracing: wrap the program's layer entry points.

Nothing in ``src/`` knows about this module. ``Tracer.install`` replaces, for
the duration of a ``with`` block, the names through which the program crosses
from one layer into another:

- the public functions ``cyclecast.cli`` imports from each layer, patched in
  the ``cli`` namespace (calls a layer makes to its own module globals stay
  unwrapped, so their time lands in the caller's span);
- ``ensure_stationary``, ``zscore`` and ``nw_rescale`` in
  ``cyclecast.preprocess``, which ``standardize_series`` reaches as module
  globals;
- every model's ``predict_proba`` and ``RbbcpModel.predict_proba_at``;
- ``cli``'s CSV artifact readers and writers and its atomic file writer;
- ``cli.main`` itself, the root span of each command.

Each span records its name, start, end, parent and the trace id of the
operation it belongs to, plus optional counts. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point.

    A counter maps a call's positional arguments and result to the span's
    counts.
    """
    from cyclecast import cli, evaluation, models, preprocess, rbbcp

    def train_rows(args, result):
        return {"rows": int(args[0].shape[0])}

    def io_read(args, result):
        return {"bytes": sum(os.path.getsize(a) for a in args if isinstance(a, Path))}

    def io_write(args, result):
        return {"bytes": len(args[1])}

    def standardized(args, result):
        return {"series": 1, "differenced": int(result.provenance.transform.value != "none")}

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "read_panel", "cli.io", io_read),
        (cli, "read_features", "cli.io", io_read),
        (cli, "read_index_csv", "cli.io", io_read),
        (cli, "write_panel", "cli.io", None),
        (cli, "write_features", "cli.io", None),
        (cli, "write_index_csv", "cli.io", None),
        (cli, "_write_atomic", "cli.io", io_write),
        (cli, "load_series_csv", "dataset.load", lambda a, r: {"series": 1}),
        (cli, "load_labels", "dataset.load", None),
        (cli, "standardize_series", "preprocess.standardize", standardized),
        (preprocess, "ensure_stationary", "preprocess.adf", None),
        (preprocess, "zscore", "preprocess.zscore", None),
        (preprocess, "nw_rescale", "preprocess.nw", None),
        (cli, "align_panel", "preprocess.align", None),
        (cli, "expanding_pca_index", "indices.expanding", lambda a, r: {"months": len(r)}),
        (cli, "pca_first_component", "indices.final", None),
        (cli, "sign_normalize", "indices.final", None),
        (cli, "build_feature_matrix", "features.build", lambda a, r: {"rows": r.n_rows}),
        (cli, "forecast_alignment", "features.align", None),
        (cli.FeatureScaler, "fit", "features.scale", None),
        (cli.FeatureScaler, "apply", "features.scale", None),
        (cli, "train_mlr", "models.mlr_train", train_rows),
        (cli, "train_svm", "models.svm_train", train_rows),
        (cli, "train_mlp", "models.mlp_train", train_rows),
        (models.MlrModel, "predict_proba", "models.predict", None),
        (models.SvmModel, "predict_proba", "models.predict", None),
        (models.MlpModel, "predict_proba", "models.predict", None),
        (cli, "nll_loss", "models.predict", None),
        (cli, "rank_phases", "models.predict", None),
        (cli, "save_model", "models.io", None),
        (cli, "load_model", "models.io", None),
        (rbbcp.RbbcpModel, "predict_proba_at", "rbbcp.predict", lambda a, r: {"months": 1}),
    ]
    for name in ("build_report", "render_report", "topk_accuracy", "argmax_predictions"):
        targets.append((evaluation, name, "evaluation.report", None))
    return targets


class Tracer:
    """In-memory span recorder; one trace id per timed operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = {
                "name": name,
                "trace": self.trace_id,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
            }
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def install(self, trace_id: int):
        """Wrap every target while the block runs; restore them afterwards."""
        self.trace_id = trace_id
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in self.spans))


def read_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
