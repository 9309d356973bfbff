"""Self-test of the benchmark harness at toy sizes (120 months x 4 series).

Run from the repository root: ``python3 perfbench/selftest.py``. It runs a
toy batch workload and a toy update workload through the same code as
``run.py``, with and without tracing, and checks that:

- every metric of ``BENCHMARK.json`` is reported with its declared unit, and
  the summary names every end-to-end figure;
- a clean run is correct, with no failed operation;
- a corrupted output (an index value off by 1e-6, a predict distribution
  that does not sum to 1) is counted as a failed operation.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run

SUMMARY_NAMES = ("setup_s", "pipeline_s", "peak_rss_mb", "failed_ratio", "top1_")
UPDATE_SUMMARY_NAMES = ("update_p50_s", "update_tail_s", "emitted_changes")


def toy_workloads():
    from workloads import WORKLOADS

    batch = replace(
        WORKLOADS["paper"],
        name="toy",
        months=120,
        n_series=4,
        split=("1975-12", "1977-06", "1979-11"),
        models=("rbbcp", "mlr"),
        gates=(),
    )
    update = replace(
        WORKLOADS["monthly-update"],
        name="toy-update",
        months=120,
        n_series=4,
        split=("1975-12", "1977-06", "1979-11"),
        updates=12,
    )
    return batch, update


def perturb_index(ops_dir: Path) -> None:
    path = ops_dir / "op000" / "growth.csv"
    lines = path.read_text().splitlines()
    year, month, value = lines[-1].split(",")
    lines[-1] = f"{year},{month},{float(value) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")


def unnormalise_prediction(ops_dir: Path) -> None:
    path = ops_dir / "op000" / "predict.json"
    doc = json.loads(path.read_text())
    doc["distribution"] = {k: 0.3 for k in doc["distribution"]}
    path.write_text(json.dumps(doc))


def run_toy(wl, trace: bool, tamper=None) -> tuple[dict, str]:
    work = run.ROOT / ".perfbench_work" / f"selftest-{wl.name}-{int(trace)}-{os.getpid()}"
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            doc = run.run(wl, seed=1, seconds=2, trace=trace, work=work, tamper=tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return doc, buf.getvalue()


def main() -> int:
    if not (run.SRC / "cyclecast" / "cli.py").is_file():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(run.THREADS)
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    batch, update = toy_workloads()
    for wl in (batch, update):
        for trace in (False, True):
            doc, summary = run_toy(wl, trace)
            key = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            label = f"{wl.name} trace={int(trace)}"
            expect(got == units, f"{label}: every {key} metric reported with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values()),
                   f"{label}: every metric value is a number")
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0,
                   f"{label}: clean run is correct ({doc['failed']} of {doc['attempted']} failed)")
            names = SUMMARY_NAMES + (UPDATE_SUMMARY_NAMES if wl.updates else ())
            expect(all(f"# {n}" in summary for n in names), f"{label}: summary names {', '.join(names)}")
            if trace:
                expect("heaviest layer" in summary, f"{label}: summary names the heaviest layer")

    doc, _ = run_toy(batch, False, tamper=perturb_index)
    expect(not doc["correct"] and doc["failed"] >= 1,
           f"index value off by 1e-6 is a failed operation ({doc['failed']} of {doc['attempted']})")
    doc, _ = run_toy(update, False, tamper=unnormalise_prediction)
    expect(not doc["correct"] and doc["failed"] >= 1,
           f"predict distribution summing to 1.2 is a failed operation ({doc['failed']} of {doc['attempted']})")

    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
