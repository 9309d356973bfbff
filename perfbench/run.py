"""cyclecast benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

It writes the workload's inputs from the seed under ``.perfbench_work/``,
times the program in a fresh worker process (``worker.py``, one BLAS thread,
``PYTHONPATH=src``), checks every output, prints a readable summary and, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones. The work directory is
removed before it exits. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBES = 3  # before the worker, and as many again after it
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
LAMBDA_RATIO_FLOOR = 0.7  # weak-factor's defining property, per category


def run_worker(args: list[str]) -> dict:
    """Start worker.py, wait for it, and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env={**os.environ, **THREADS, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ",".join(f"{k}={v}" for k, v in THREADS.items())
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} {threads}"
    )


def write_job(wl, seed: int, seconds: int, trace: bool, work: Path) -> Path:
    """Inputs, CLI config and the worker's job description under ``work``."""
    from workloads import START, write_inputs

    data, out, ops_dir = work / "data", work / "out", work / "ops"
    ops_dir.mkdir(parents=True)
    held_back = write_inputs(wl, seed, data)
    (work / "config.json").write_text(json.dumps(wl.config(data, out), indent=1))
    (work / "held_back.json").write_text(json.dumps(held_back))
    published = wl.months - wl.updates
    job = {
        "config": str(work / "config.json"),
        "data_dir": str(data),
        "out_dir": str(out),
        "ops_dir": str(ops_dir),
        "models": list(wl.models),
        "seconds": seconds,
        "trace": trace,
        "updates": wl.updates,
        "update_months": [str(START.add_months(published + k)) for k in range(wl.updates)],
        "held_back": str(work / "held_back.json") if wl.updates else None,
        "setup_repeats": SETUP_REPEATS,
    }
    (work / "job.json").write_text(json.dumps(job))
    return work / "job.json"


def check_outputs(tally, wl, ops: list[dict], setup_dir: Path) -> tuple[dict, int | None]:
    """Output checks of one run. Returns the evaluation reports and, for an
    update workload, how many updates changed an already-emitted value."""
    import checks

    dirs = [Path(o["dir"]) for o in ops]
    if wl.updates:
        for d in dirs:
            checks.check_indices(tally, d, d.name)
            checks.check_prediction(tally, (d / "predict.json").read_text(), d.name)
        return {"mlr": checks.report(setup_dir, "mlr")}, checks.emitted_changes(dirs)
    checks.check_indices(tally, dirs[0], dirs[0].name)
    names = ["panel.csv", "growth.csv", "inflation.csv", "features.csv"]
    names += [f"{kind}_{m}.json" for m in wl.models for kind in ("report", "model")]
    for d in dirs[1:]:
        checks.same_files(tally, dirs[0], d, names)
    reports = {m: checks.report(dirs[0], m) for m in wl.models}
    checks.check_gates(tally, reports, wl.gates)
    return reports, None


def run(wl, seed: int, seconds: int, trace: bool, work: Path, tamper=None) -> dict:
    """Measure and check one workload run; print the summary, return the result.

    ``tamper(ops_dir)``, when given, runs between the measurement and the
    checks; the self-test uses it to corrupt an output on purpose.
    """
    import checks
    from workloads import LAYERS, eigen_ratio

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tally = checks.Tally()
    job_path = write_job(wl, seed, seconds, trace, work)
    if wl.random_walk_sigma:
        for category, ratio in eigen_ratio(wl, seed).items():
            tally.check(ratio >= LAMBDA_RATIO_FLOOR, f"{category} lambda2/lambda1 {ratio:.3f} < 0.7")

    run_worker(["--probe"])  # untimed: leaves compiled bytecode behind
    # Probes before and after the worker, so that the median import time
    # spans the run rather than one moment of the host's speed.
    imports = [run_worker(["--probe"])["import_s"] for _ in range(IMPORT_PROBES)]
    result = run_worker([str(job_path)])
    imports.append(result["import_s"])
    imports += [run_worker(["--probe"])["import_s"] for _ in range(IMPORT_PROBES)]
    ops_dir = work / "ops"
    if tamper is not None:
        tamper(ops_dir)

    tally.exits(result["rcs"], "set-up")
    ops = result["ops"]
    for o in ops:
        tally.exits(o["rcs"], Path(o["dir"]).name)
    try:
        reports, changes = check_outputs(tally, wl, ops, ops_dir / "setup")
    except (OSError, ValueError, KeyError) as exc:
        tally.check(False, f"unreadable artifact: {exc!r}")
        reports, changes = {}, None

    untraced = [o["seconds"] for o in ops if not o["traced"]]
    import_s = statistics.median(imports)
    sequence_s = statistics.median(result["setup_runs"]) if result["setup_runs"] else 0.0
    values = {
        "setup_s": import_s + sequence_s,
        "pipeline_s": statistics.median(untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    kind = "update" if wl.updates else "pass"
    q1, q3 = checks.quartiles(untraced)
    lines = [
        f"cyclecast benchmark: workload={wl.name} seed={seed} seconds={seconds} trace={int(trace)}",
        f"environment: {environment()}",
        f"{kind} seconds: " + " ".join(f"{o['seconds']:.3f}{'*' if o['traced'] else ''}" for o in ops),
        f"setup_s       {values['setup_s']:.4f} s   import, median of {len(imports)}: {import_s:.4f} s"
        + (f"; preprocess->train, median of {len(result['setup_runs'])}: {sequence_s:.4f} s"
           if wl.updates else ""),
        f"pipeline_s    {values['pipeline_s']:.4f} s   median of {len(untraced)} untraced {kind}"
        f"{'es' if kind == 'pass' else 's'}"
        f" (quartiles {q1:.4f} .. {q3:.4f})",
    ]
    if wl.updates:
        t = checks.tail(untraced)
        lines += [
            f"update_p50_s  {values['pipeline_s']:.4f} s   (reported as pipeline_s)",
            "update_tail_s " + (f"{t[1]:.4f} s   p{t[0]:.0f} of {len(untraced)} updates"
                                if t else f"n/a: {len(untraced)} updates, 11 needed"),
            f"emitted_changes {changes} count   of {len(ops) - 1} appends",
        ]
    lines.append(f"peak_rss_mb   {values['peak_rss_mb']:.2f} MB")
    lines += [f"top1_{m:<8} {r['top1']:.4f} fraction   (top2 {r['top2']:.4f})" for m, r in reports.items()]

    if trace:
        layer, missing = checks.layer_metrics(Path(result["spans"]), wl.layers)
        for name in missing:
            tally.check(False, f"layer {name} recorded no span on {wl.name}")
        traced = [o["seconds"] for o in ops if o["traced"]]
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        for model in ("mlr", "svm", "mlp", "rbbcp"):
            layer[f"evaluation.top1_{model}"] = reports.get(model, {}).get("top1", 0.0)
        layer["update.emitted_changes"] = changes or 0
        layer["update.count"] = len(ops) if wl.updates else 0
        heaviest = max(LAYERS, key=lambda name: layer[f"{name}.total_s"])
        lines.append(f"heaviest layer: {heaviest}, {layer[f'{heaviest}.total_s']:.4f} s self time per traced {kind}")
        lines.append(f"trace.overhead_s {layer['trace.overhead_s']:.4f} s   traced minus untraced median {kind}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    lines.append(f"failed_ratio  {tally.failed / tally.attempted:.4f} ratio   "
                 f"{tally.failed} failed of {tally.attempted} operations (commands and checks)")
    print("\n".join("# " + line for line in lines))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    if not (SRC / "cyclecast" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/cyclecast/cli.py not found)", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, check=True)
        return 0
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        doc = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
