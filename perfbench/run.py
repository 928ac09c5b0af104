#!/usr/bin/env python3
"""patlab benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload wilf-chain --seed 1 --seconds 55 --trace 0

Run it from the repository root; it imports patlab from ``src/``.

Each workload is a closed loop: one client runs one job at a time through
``patlab.cli.main`` in-process, with the argv a user would type (see
workloads.py). Jobs run in whole rounds, every job once per round in an order
the seed shuffles; apart from that the seed only picks the traced run's probe
samples. The time metrics are taken over rounds, so every job of the
workload adds its share to every sample. Every job's exit code and stdout
are checked against reference.json outside the timed region. The only other
processes are the set-up probes and the workers ``count`` forks itself.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced rounds (tracer.py wraps the functions each
module imports from the layer below), then times single layers untraced
(probe.py), and prints the per-layer metrics. Extra detail (provenance,
sample counts, failures) goes to the line before the result; the last
stdout line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The tail reported is the highest round time with at least this many rounds
# beyond it. A run holds 20 to 25 rounds, so the tail sits near the median
# and goes to the detail line, not to the gated metrics.
TAIL_BEYOND = 10
SETUP_SAMPLES = 11

# The host's CPU speed drifts by up to 2x over minutes, longer than a run, so
# raw job times of whole runs disagree. A fixed loop timed just before every
# job and every set-up sample measures the speed of that moment; *_norm_s and
# setup_s rescale each sample to a CPU that runs the loop in
# CALIBRATION_REF_S. The loop is part of the benchmark, so a change to patlab
# moves them exactly as it moves raw time; raw times are in the detail line.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.020

# Set-up as a user pays it: a fresh interpreter imports patlab and parses
# the workload's class expressions. Interpreter start-up is not counted.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import patlab.cli
from patlab.patterns import parse_class_expression
for expr in sys.argv[2:]:
    parse_class_expression(expr)
print(time.perf_counter() - start)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="patlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs the same commands at n <= 6")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def calibration_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Runner:
    """Runs jobs through ``patlab.cli.main`` and checks their output."""

    def __init__(self, cli, reference: dict, parallel_min_n: int):
        self.cli = cli
        self.reference = reference
        self.parallel_min_n = parallel_min_n
        # One (job key, wall, cpu, calibration) list per recorded round.
        self.rounds: list[list[tuple[str, float, float, float]]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def expects_workers(self, argv: list[str]) -> bool:
        return argv[0] == "count" and int(argv[argv.index("--n") + 1]) >= self.parallel_min_n

    def run(self, argv: list[str], record: bool = True):
        """Run one job and check it. Returns (job key, wall, cpu, calibration),
        or None when ``record`` is false."""
        calibration = calibration_s() if record else 0.0
        buf = io.StringIO()
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop keeps going; the job counts as failed
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - start
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        kids_cpu = _cpu(kids_1) - _cpu(kids_0)

        want = self.reference[workloads.key(argv)]
        self.attempted += 1
        problem = None
        if code != want["exit"]:
            problem = f"exit {code}, expected {want['exit']}"
        elif buf.getvalue() != want["stdout"]:
            problem = "stdout differs from the reference"
        elif self.expects_workers(argv) and kids_cpu <= 0:
            problem = "no worker CPU: the parallel path fell back to sequential"
        if problem:
            self.failures.append(f"{workloads.key(argv)}: {problem}")
        if not record:
            return None
        cpu = _cpu(self_1) - _cpu(self_0) + kids_cpu
        return workloads.key(argv), wall, cpu, calibration

    def round(self, jobs: list[list[str]], rng: random.Random, record: bool = True) -> None:
        samples = [self.run(argv, record) for argv in rng.sample(jobs, len(jobs))]
        if record:
            self.rounds.append(samples)


def tail(values: list[float]) -> dict:
    """The highest value with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return {"value": ordered[rank - 1], "percentile": 100 * rank / len(ordered),
            "beyond": len(ordered) - rank}


def measure_setup(classes: tuple[str, ...]) -> tuple[float, float]:
    """(set-up seconds, calibration seconds just before it)."""
    calibration = calibration_s()
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), *classes],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]), calibration


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(reference: dict, jobs: list[list[str]]) -> dict:
    nproc = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc
    if affinity != nproc:
        print(f"perfbench: os.cpu_count() = {nproc} but only {affinity} CPUs are usable; "
              "count forks cpu_count() workers", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "affinity_cpus": affinity,
        "affinity_mismatch": affinity != nproc,
        "count_workers": nproc,
        "git_commit": git_commit(),
        "nodes_per_job": {workloads.key(a): reference[workloads.key(a)]["nodes"] for a in jobs},
    }


def end_to_end(runner: Runner, jobs, rng, seconds: float, classes) -> tuple[dict, dict]:
    # Set-up samples are spread over the run, between rounds, so that their
    # median does not hang on one moment of a shared machine.
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(measure_setup(classes))
        runner.round(jobs, rng)
        if time.perf_counter() - start >= seconds:
            break
    # The largest child is one of count's workers or a set-up interpreter,
    # so only the parent's peak is a metric.
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # A sample is a whole round: the sum of its jobs' times, each job rescaled
    # by the calibration taken just before it.
    walls = [sum(w * CALIBRATION_REF_S / c for _, w, _, c in r) for r in runner.rounds]
    cpus = [sum(u * CALIBRATION_REF_S / c for _, _, u, c in r) for r in runner.rounds]
    raw_walls = [sum(w for _, w, _, _ in r) for r in runner.rounds]
    by_job: dict[str, list[float]] = {}
    for r in runner.rounds:
        for key, w, _, c in r:
            by_job.setdefault(key, []).append(w * CALIBRATION_REF_S / c)
    metrics = {
        "wall_norm_s": (statistics.median(walls), "s"),
        "cpu_norm_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (parent_kb / 1024, "MB"),
        "setup_s": (statistics.median(s * CALIBRATION_REF_S / c for s, c in setup), "s"),
    }
    detail = {
        "rounds": len(walls),
        "wall_norm_s.tail": tail(walls),
        "wall_s": statistics.median(raw_walls),
        "wall_s.tail": tail(raw_walls),
        "cpu_s": statistics.median(sum(u for _, _, u, _ in r) for r in runner.rounds),
        "job_wall_norm_s": {key: statistics.median(v) for key, v in by_job.items()},
        "calibration_s": statistics.median(c for r in runner.rounds for *_, c in r),
        "child_peak_rss_mb": child_kb / 1024,
        "setup_samples_s": [s for s, _ in setup],
    }
    return metrics, detail


def traced(runner: Runner, jobs, rng, seconds: float, classes, workload: str, seed: int):
    import probe
    import tracer as tracing
    from patlab import patterns

    tracer = tracing.Tracer()

    def one_round() -> float:
        start = time.perf_counter()
        for expr in classes:
            patterns.parse_class_expression(expr)
        runner.round(jobs, rng, record=False)
        return time.perf_counter() - start

    plain: list[float] = []
    timed: list[float] = []
    own_total: dict[str, float] = {}
    calls_total: dict[str, int] = {}
    first_spans: list = []

    def plain_round() -> None:
        plain.append(one_round())

    def traced_round() -> None:
        nonlocal first_spans
        tracer.install()
        try:
            timed.append(one_round())
        finally:
            tracer.uninstall()
        spans = tracer.take()
        own, calls = tracing.self_times(spans)
        for name in own:
            own_total[name] = own_total.get(name, 0.0) + own[name]
            calls_total[name] = calls_total.get(name, 0) + calls[name]
        first_spans = first_spans or spans

    # Pairs of rounds, alternating which half runs first.
    deadline = time.perf_counter() + seconds
    while True:
        order = (plain_round, traced_round) if len(plain) % 2 == 0 else (traced_round, plain_round)
        for step in order:
            step()
        if time.perf_counter() >= deadline:
            break

    rounds = len(timed)
    own = {name: value / rounds for name, value in own_total.items()}
    calls = {name: value // rounds for name, value in calls_total.items()}
    wall = statistics.fmean(timed)
    metrics: dict[str, tuple[float, str]] = {
        "cli.self_s": (own["cli"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - statistics.fmean(plain), "s"),
        "trace.accounted_s": (sum(own.values()), "s"),
        "maps.self_s": (sum(v for n, v in own.items() if n.startswith("maps.")), "s"),
    }
    for name in tracing.SPAN_NAMES:
        if name == "cli":
            continue
        metrics[f"{name}.calls"] = (calls[name], "count")
        if not name.startswith("maps."):
            metrics[f"{name}.self_s"] = (own[name], "s")
    metrics.update(probe.run(random.Random(seed)))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracing.write(first_spans, spans_path)
    detail = {
        "traced_rounds": rounds,
        "untraced_round_s": plain,
        "traced_round_s": timed,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_in_first_round": len(first_spans),
    }
    return metrics, detail


def main() -> int:
    args = parse_args()
    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.NAMES)}")
    if not (SRC / "patlab" / "__init__.py").is_file():
        fail(f"no patlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import patlab.cli
    import patlab.enumeration

    if Path(patlab.cli.__file__).resolve().parent != SRC / "patlab":
        fail(f"imported patlab from {patlab.cli.__file__}, not from {SRC}")
    reference = json.loads((HERE / "reference.json").read_text())[args.size]
    jobs = workloads.jobs(args.workload, args.size)
    classes = workloads.CLASSES[args.workload]
    rng = random.Random(args.seed)
    # count forks workers only from this n on; below it a job without
    # worker CPU is the expected sequential path, not a fallback.
    parallel_min_n = getattr(patlab.enumeration, "_PARALLEL_MIN_N", 8)
    runner = Runner(patlab.cli, reference, parallel_min_n)

    info = provenance(reference, jobs)
    if args.trace:
        metrics, detail = traced(runner, jobs, rng, args.seconds, classes,
                                 args.workload, args.seed)
    else:
        metrics, detail = end_to_end(runner, jobs, rng, args.seconds, classes)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        size=args.size,
        provenance=info,
        ops_failed=len(runner.failures) / runner.attempted,
        failures=runner.failures[:20],
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
