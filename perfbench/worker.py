"""One workload run in a fresh process: import the program, then time its
commands through ``cyclecast.cli.main`` in-process.

Usage: ``python3 perfbench/worker.py JOB.json`` runs the job and prints one
JSON result line; ``python3 perfbench/worker.py --probe`` only times the
import. ``run.py`` starts both with ``PYTHONPATH=src`` and one BLAS thread.
Output checks happen in ``run.py`` after this process has exited, on the
artifacts each operation leaves behind, so nothing here adds to the
program's time or memory.
"""

import time

_t0 = time.perf_counter()
import cyclecast.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

# At least this many operations per run, so a traced run has an untraced and
# a traced one to compare.
MIN_OPS = 2


def run_command(config: str, argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds and captured stdout of one CLI command."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--config", config, *argv])
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - start, buf.getvalue()


def run_sequence(config: str, commands: list[list[str]], after=None) -> tuple[float, list[int], list[str]]:
    """Run commands in order; only the commands themselves are timed.

    ``after(i, argv)`` runs untimed after command ``i`` (artifact bookkeeping).
    """
    total, rcs, outputs = 0.0, [], []
    for i, argv in enumerate(commands):
        rc, seconds, out = run_command(config, argv)
        total += seconds
        rcs.append(rc)
        outputs.append(out)
        if after is not None:
            after(i, argv)
    return total, rcs, outputs


def batch_op(job: dict, op_dir: Path) -> tuple[float, list[int]]:
    """One pass of a batch workload: preprocess to evaluate for every model."""
    out = Path(job["out_dir"])
    shutil.rmtree(out, ignore_errors=True)
    commands = [["preprocess"], ["build-indices"], ["features"]]
    for model in job["models"]:
        commands += [["train", "--model", model], ["--format", "json", "evaluate"]]

    def keep_model_outputs(i, argv):
        if argv[-1] == "evaluate":
            model = commands[i - 1][-1]
            for name in ("report.json", "model.json"):
                src = out / name
                if src.exists():
                    src.rename(out / name.replace(".json", f"_{model}.json"))

    seconds, rcs, _ = run_sequence(job["config"], commands, keep_model_outputs)
    if out.exists():
        out.rename(op_dir)
    return seconds, rcs


def setup_updates(job: dict) -> tuple[list[float], list[int]]:
    """Initial preprocess -> build-indices -> features -> train, repeated.

    Every repeat starts from an empty output directory; the last one leaves
    the state the updates start from. Then evaluate runs once, untimed, for
    the output checks.
    """
    out = Path(job["out_dir"])
    commands = [["preprocess"], ["build-indices"], ["features"], ["train"]]
    times, rcs = [], []
    for _ in range(job["setup_repeats"]):
        shutil.rmtree(out, ignore_errors=True)
        seconds, seq_rcs, _ = run_sequence(job["config"], commands)
        times.append(seconds)
        rcs += seq_rcs
    rc, _, _ = run_command(job["config"], ["--format", "json", "evaluate"])
    rcs.append(rc)
    setup_dir = Path(job["ops_dir"]) / "setup"
    setup_dir.mkdir(parents=True)
    for name, dest in (("report.json", "report_mlr.json"), ("model.json", "model_mlr.json")):
        if (out / name).exists():
            shutil.copy(out / name, setup_dir / dest)
    return times, rcs


def update_op(job: dict, k: int, op_dir: Path) -> tuple[float, list[int]]:
    """Publish month k, then time preprocess -> build-indices -> features -> predict."""
    series_dir = Path(job["data_dir"]) / "series"
    for fname, lines in job["held_back"].items():
        with open(series_dir / fname, "a", encoding="utf-8") as fh:
            fh.write(lines[k])
    commands = [
        ["preprocess"],
        ["build-indices"],
        ["features"],
        ["--format", "json", "predict", "--month", job["update_months"][k]],
    ]
    seconds, rcs, outputs = run_sequence(job["config"], commands)
    op_dir.mkdir(parents=True)
    out = Path(job["out_dir"])
    for name in ("panel.csv", "panel_meta.json", "growth.csv", "inflation.csv"):
        if (out / name).exists():
            shutil.copy(out / name, op_dir / name)
    (op_dir / "predict.json").write_text(outputs[-1])
    return seconds, rcs


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    if job["held_back"]:
        job["held_back"] = json.loads(Path(job["held_back"]).read_text())
    ops_dir = Path(job["ops_dir"])
    result = {"import_s": IMPORT_S, "setup_runs": [], "ops": [], "rcs": []}
    if job["updates"]:
        result["setup_runs"], result["rcs"] = setup_updates(job)
        limit = job["updates"]
    else:
        limit = None
    tracer = Tracer() if job["trace"] else None
    budget = job["seconds"]
    start = time.perf_counter()
    k = 0
    while limit is None or k < limit:
        elapsed = time.perf_counter() - start
        if k >= MIN_OPS and elapsed + statistics.median(o["seconds"] for o in result["ops"]) > budget:
            break
        traced = tracer is not None and k % 2 == 1
        op_dir = ops_dir / f"op{k:03d}"
        with tracer.install(k) if traced else contextlib.nullcontext():
            if job["updates"]:
                seconds, rcs = update_op(job, k, op_dir)
            else:
                seconds, rcs = batch_op(job, op_dir)
        result["ops"].append({"seconds": seconds, "traced": traced, "dir": str(op_dir), "rcs": rcs})
        k += 1
    if tracer is not None:
        spans_path = ops_dir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"import_s": IMPORT_S}))
    else:
        main(sys.argv[1])
