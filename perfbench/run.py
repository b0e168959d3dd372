"""Stream and batch-BO benchmark for dualgp.

Run from the repository root::

    python3 perfbench/run.py --workload reg-hyper --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload bo-branin --seed 0 --trace 1

``--trace 0`` times the workload for ``--seconds`` with nothing patched and
prints the end-to-end metrics; the JSON line carries the ones that
``BENCHMARK.json`` declares, with the units declared there.  ``--trace 1``
runs the workload's fixed segment (the first stream pass, or the first BO
episodes) once untraced and once with every ``dualgp`` module wrapped, and
prints per-layer metrics, primitive micro-benchmarks and a single-BLAS-thread
reference; its run length is set by that segment, not by ``--seconds``.

Both modes check the outputs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
engine under ``src/`` cannot be imported.

The BLAS thread count is set, before numpy is imported, to what an
unconfigured OpenBLAS uses on this machine (one thread per available CPU),
and recorded with the rest of the environment.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_STEPS = 12  # the tail percentile needs at least 11 steps, and 12 keeps it off a pass's first step
SETUP_PROBES = 3  # setup_s is the median of this many fresh processes plus the run itself
CLI_CHECK_STEPS = 3
REFERENCE_TIMEOUT_S = 150
MAX_PRINTED_PROBLEMS = 20
# Printed on every timed run but not bounded in BENCHMARK.json: the step
# timings move with host speed by more than the largest allowed bound (see
# README.md), regret only exists for BO, and attempted/failed carry failed_frac.
PRINTED_ONLY_UNITS = {
    "points_per_s": "1/s", "step_ms_p50": "ms", "step_ms_tail": "ms", "regret": "1", "failed_frac": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dualgp stream and batch-BO benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--role", choices=("main", "setup-probe", "reference"), default="main", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class WarningCounter(logging.Handler):
    """Counts dualgp's warnings per logger instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record):
        self.counts[record.name] = self.counts.get(record.name, 0) + 1


def capture_warnings() -> WarningCounter:
    counter = WarningCounter()
    logger = logging.getLogger("dualgp")
    logger.addHandler(counter)
    logger.propagate = False
    return counter


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten values above it, its percentile, and n.

    With ten values or fewer no such statistic exists and the maximum is
    returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    k = n - 10
    return ordered[k - 1], 100.0 * k / n, n


def child(args, role: str, threads: int) -> dict:
    """Run this script again in a fresh process and return its last JSON line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace),
        "--blas-threads", str(threads), "--role", role,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quality_problems(quality: dict, ceilings: dict) -> list[str]:
    return [
        f"{name} {quality.get(name, float('nan')):.6g} above its ceiling {limit:g}"
        for name, limit in ceilings.items()
        if not quality.get(name, float("nan")) <= limit
    ]


def cli_problems(dg, workload, seed: int, proposals: list) -> list[str]:
    expected = workload.cli_proposals(dg, seed, CLI_CHECK_STEPS, str(HERE))
    if expected != proposals[:CLI_CHECK_STEPS] or len(expected) != CLI_CHECK_STEPS:
        return ["the benchmark's BO loop and `dualgp bo` proposed different points"]
    return []


def print_metrics(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, ''):<6} {notes.get(name, '')}".rstrip())


def timed_run(args, dg, workload, setup, setup_s: float, threads: int, counter, units) -> tuple[dict, object, list]:
    probes = [child(args, "setup-probe", threads)["setup_s"] for _ in range(SETUP_PROBES)]
    deadline = time.perf_counter() + args.seconds
    result = workload.run(dg, setup, args.seed, deadline=deadline, min_steps=MIN_STEPS)
    problems = list(result.problems) + quality_problems(result.quality, workload.ceilings)
    if result.proposals:
        problems += cli_problems(dg, workload, args.seed, result.proposals)

    steps_ms = [1000.0 * d for d in result.durations]
    tail, pct, n = tail_percentile(steps_ms) if steps_ms else (float("nan"), 0.0, 0)
    metrics = {
        "setup_s": statistics.median([setup_s, *probes]),
        "points_per_s": result.points / sum(result.durations) if result.durations else 0.0,
        "step_ms_p50": statistics.median(steps_ms) if steps_ms else float("nan"),
        "step_ms_tail": tail,
        "nlpd": result.quality.get("nlpd", float("nan")),
        "error": result.quality.get("error", float("nan")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if "regret" in result.quality:
        metrics["regret"] = result.quality["regret"]
    metrics["failed_frac"] = result.failed / result.attempted if result.attempted else 1.0
    notes = {
        "setup_s": f"median of {SETUP_PROBES + 1} setups",
        "points_per_s": f"{result.points} {workload.notes['points']} over {sum(result.durations):.3f} s of steps",
        "step_ms_p50": f"{n} steps",
        "step_ms_tail": f"p{pct:.1f} of {n} steps",
        **workload.notes,
    }
    print_metrics(metrics, units, notes)
    print(f"  warnings captured from dualgp: {counter.counts or 'none'}")
    return metrics, result, problems


def trace_segment(dg, workload, seed: int, counter):
    """The workload's fixed segment with every target wrapped."""
    from layers import TARGETS
    from tracer import Tracer

    counter.counts.clear()
    setup = workload.prepare(dg, seed)
    tracer = Tracer()
    with tracer:
        tracer.patch(TARGETS)
        start = time.perf_counter()
        result = workload.run(dg, setup, seed)
        wall_s = time.perf_counter() - start
    return tracer, result, wall_s, dict(counter.counts)


def traced_run(args, dg, workload, setup, counter, units) -> tuple[dict, object, list]:
    from layers import SINGLE_THREAD_KEYS, layer_metrics
    from micro import run as run_micro
    from workloads import same_states

    base = None
    if args.role == "main":
        start = time.perf_counter()
        base = workload.run(dg, setup, args.seed)
        untraced_s = time.perf_counter() - start
    tracer, traced, traced_s, warnings = trace_segment(dg, workload, args.seed, counter)
    metrics = layer_metrics(tracer)
    metrics["sequential.remove_warnings"] = warnings.get("dualgp.sequential", 0)
    metrics["trace.wall_ms"] = 1000.0 * traced_s
    metrics["trace.unattributed_ms"] = 1000.0 * (traced_s - tracer.top_level_s())
    problems = list(traced.problems)
    if base is None:
        return metrics, traced, problems

    for name in tracer.missing:
        print(f"trace: {name} is missing; its metrics read 0")
    problems += base.problems + quality_problems(base.quality, workload.ceilings)
    if not same_states(base.finals, traced.finals):
        problems.append("the traced run's final state differs from the untraced run's")
    if base.proposals:
        problems += cli_problems(dg, workload, args.seed, base.proposals)
    metrics["trace.untraced_wall_ms"] = 1000.0 * untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics.update(run_micro(dg, base.shapes))
    reference = child(args, "reference", 1)["metrics"]
    metrics["single_thread.wall_ms"] = reference["trace.wall_ms"]["value"]
    for key in SINGLE_THREAD_KEYS:
        metrics[f"single_thread.{key}"] = reference[key]["value"]
    share = metrics["sequential.hyper_ms"] / metrics["trace.wall_ms"]
    print(f"  sequential.hyper_ms is {100.0 * share:.1f}% of traced wall time")
    print_metrics(metrics, units, {})
    return metrics, traced, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    threads = args.blas_threads or envinfo.default_blas_threads()
    env_before = envinfo.pin_blas_threads(threads)

    if not (SRC / "dualgp" / "__init__.py").is_file():
        print(f"no dualgp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualgp as dg
    import dualgp.cli  # noqa: F401 - the BO correctness check calls dg.cli.run_cli

    if Path(dg.__file__).resolve().parent != SRC / "dualgp":
        print(f"imported dualgp from {dg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    units = {**PRINTED_ONLY_UNITS, **declared["end_to_end"], **declared["per_layer"]}
    counter = capture_warnings()
    setup = workload.prepare(dg, args.seed)
    setup_s = time.perf_counter() - started

    if args.role == "setup-probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.role == "main":
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  blas threads {threads}")
        print("env " + json.dumps(envinfo.record(ROOT, threads, env_before)))

    if args.trace:
        metrics, result, problems = traced_run(args, dg, workload, setup, counter, units)
    else:
        metrics, result, problems = timed_run(args, dg, workload, setup, setup_s, threads, counter, units)
    if args.role == "main":  # the JSON carries the metrics BENCHMARK.json declares for this mode
        wanted = declared["per_layer" if args.trace else "end_to_end"]
        problems += [f"declared metric {name} was not measured" for name in wanted if name not in metrics]
        metrics = {name: metrics[name] for name in wanted if name in metrics}

    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"CHECK FAILED: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    correct = not problems and result.failed == 0
    if args.role == "main":
        print("checks: " + ("all passed" if correct else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def declared_metrics() -> dict[str, dict[str, str]]:
    """Name -> unit of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    sys.exit(main())
