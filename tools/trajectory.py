"""Append a commit's benchmark results to the repository's performance trajectory.

Run from the repository root::

    python3 tools/trajectory.py                      # this checkout, every workload
    python3 tools/trajectory.py --checkout DIR --commit SHA --workload reg-hyper

For each workload the checkout's own ``perfbench/run.py`` runs twice in a
subprocess at seed ``SEED``, with ``--trace 0`` and with ``--trace 1``.  The
recorder parses what each run prints (the ``name value unit`` lines and the
final JSON line; the JSON's full-precision value wins over a printed one) and
appends one entry, a single JSON line, to ``BENCH_<workload>.json`` in the
output directory.  Earlier lines are never rewritten, and recording a commit
again adds an entry.  What each run prints, its stdout and then its stderr,
is written to the recorder's stderr when the run ends; the recorder's stdout
is one JSON summary line per workload.

Wall times move between processes on one host, so compare entries of one
``session`` for time; the ``counts`` are deterministic for a commit and a seed
and compare across sessions.  Exit status: 0 when every run printed
``checks: all passed``, 1 otherwise (the entries are appended either way).
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reg-hyper", "clf-stream", "bo-branin")
SEED = 1  # every entry is recorded at this seed, so counts compare across commits
RUN_TIMEOUT_S = 900
END_TO_END = ("nlpd", "error", "regret", "setup_s", "peak_rss_mb")  # from the --trace 0 run
STAGE_MS = (
    "sequential.hyper_ms", "sequential.refresh_ms", "sequential.remove_ms", "sequential.ngd_ms",
    "sequential.objective_ms", "sequential.memory_ms", "acquisition.maximize_ms", "acquisition.condition_ms",
    "harness.evaluate_ms", "trace.wall_ms",
)
# Deterministic for a commit and a seed: the entry's name -> the --trace 1 metric.
COUNTS = {
    "gram_calls": "kernels.gram_calls",
    "cholesky_calls": "kernels.cholesky_calls",
    "cholesky_jitter": "kernels.cholesky_jitter",
    "hyper_evals": "sequential.hyper_evals",
    "hyper_accepted": "sequential.hyper_accepted",
    "evaluate_calls": "acquisition.evaluate_calls",
    "clip_batches": "sequential.clip_batches",
    "clip_max": "sequential.clip_max",
    "missing_names": "trace.missing_names",
}


def parse_run(text: str) -> dict:
    """The header fields, ``env`` record, metrics and checks of one ``run.py`` output."""
    lines = text.strip().splitlines()
    header = lines[0].split()  # workload W  seed S  trace T  blas threads N
    final = json.loads(lines[-1])
    metrics = {}
    env = None
    for line in lines[1:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("  "):
            name, value, *_ = line.split() + [""]
            try:
                metrics[name] = float(value)
            except ValueError:  # a prose line such as "warnings captured from dualgp: none"
                continue
    metrics.update({name: entry["value"] for name, entry in final["metrics"].items()})
    return {
        "workload": header[1],
        "seed": int(header[3]),
        "threads": int(header[-1]),
        "env": env,
        "metrics": metrics,
        "correct": final["correct"] and "checks: all passed" in lines,
        "failed": final["failed"],
    }


def _count(value):
    return int(value) if value is not None and float(value).is_integer() else value


def make_entry(untraced: str, traced: str, *, commit: str, date: str, session: str, seconds: float) -> dict:
    """One trajectory entry from the printed output of a ``--trace 0`` and a ``--trace 1`` run."""
    timed, layers = parse_run(untraced), parse_run(traced)
    if (timed["workload"], timed["seed"]) != (layers["workload"], layers["seed"]):
        raise ValueError("the two runs are of different workloads or seeds")
    return {
        "commit": commit,
        "date": date,
        "session": session,
        "workload": timed["workload"],
        "seed": timed["seed"],
        "seconds": seconds,
        "threads": timed["threads"],
        "env": timed["env"],
        "correct": timed["correct"] and layers["correct"],
        "failed": timed["failed"] + layers["failed"],
        **{name: timed["metrics"].get(name) for name in END_TO_END},
        "stage_ms": {name: layers["metrics"].get(name) for name in STAGE_MS},
        "untraced_wall_ms": layers["metrics"].get("trace.untraced_wall_ms"),
        "single_thread_wall_ms": layers["metrics"].get("single_thread.wall_ms"),
        "counts": {name: _count(layers["metrics"].get(metric)) for name, metric in COUNTS.items()},
    }


def append_entry(path: Path, entry: dict) -> None:
    """Append ``entry`` as one JSON line; the bytes already in ``path`` stay as they are."""
    with path.open("a", encoding="utf-8") as out:
        out.write(json.dumps(entry) + "\n")


def run_benchmark(checkout: Path, workload: str, seconds: float, trace: int) -> str:
    """What ``checkout``'s ``perfbench/run.py`` prints, echoed with its stderr to this process's stderr.

    A run that exits other than 0 or 1, or prints no JSON line, raises.
    """
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip().endswith("}"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}; its output is on stderr above")
    return proc.stdout


def record(checkout: Path, out_dir: Path, workload: str, *, seconds: float, commit: str,
           session: str, run=run_benchmark) -> dict:
    """Run one workload untraced and traced, and append its entry to ``out_dir/BENCH_<workload>.json``."""
    untraced = run(checkout, workload, seconds, 0)
    traced = run(checkout, workload, seconds, 1)
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    entry = make_entry(untraced, traced, commit=commit, date=date, session=session, seconds=seconds)
    append_entry(out_dir / f"BENCH_{workload}.json", entry)
    return entry


def _head_commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} is not a git checkout; pass --commit")
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="append benchmark results to BENCH_<workload>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="tree whose perfbench/run.py runs")
    parser.add_argument("--commit", help="the checkout's commit (default: its git HEAD)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable (default: all)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of each --trace 0 run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH_*.json files")
    parser.add_argument("--session", default=uuid.uuid4().hex[:12], help="groups entries recorded together")
    args = parser.parse_args(argv)
    commit = args.commit or _head_commit(args.checkout)
    args.out.mkdir(parents=True, exist_ok=True)
    correct = True
    for workload in args.workload or WORKLOADS:
        entry = record(args.checkout, args.out, workload, seconds=args.seconds, commit=commit, session=args.session)
        print(json.dumps({key: entry[key] for key in ("commit", "workload", "correct", "nlpd", "counts")}), flush=True)
        correct &= entry["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
