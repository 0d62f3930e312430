"""Seeded closed-loop benchmark of qclimit.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

One process, one caller: each op starts when the previous one has finished.
Inputs come from `plans.plan(workload, seed, pass_index)`; a run executes
whole passes until `--seconds` have elapsed.  Every op checks its results
against the repo's tolerances, and a failed or raising op counts its checks
as failed.  The run re-executes itself once with PYTHONHASHSEED fixed and
sets the BLAS thread variables to min(2, cpu count).  setup_s is the median
of 25 imports of qclimit.cli, each in a fresh interpreter, spread between
the passes of the run.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the first pass
alternately untraced and traced, with every layer's public functions patched,
and reports the per-layer metrics per pass; it also fails the run when the
traced results differ from the untraced ones.

The last line of standard output is the result as one JSON object; the line
before it, starting with `info`, records the seed, input sizes, op counts,
the tail percentile used, result digests, the hash seed and the thread
settings.  Spans of a
traced run are written to `.perfbench_out/` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 2
SETUP_SAMPLES = 25
HASH_SEED = "0"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qclimit.cli; print(time.perf_counter() - t)"
)


def limit_threads() -> dict:
    """Set BLAS threads to min(2, cpu count) before numpy loads; returns the values as read."""
    read = {name: os.environ.get(name) for name in THREAD_VARS}
    cap = str(max(1, min(MAX_THREADS, os.cpu_count() or 1)))
    for name in THREAD_VARS:
        os.environ[name] = cap
    return read


def import_seconds() -> float:
    """Time to import qclimit.cli in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def combined_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value, percentile, ops beyond).

    With ten ops or fewer no percentile has ten beyond it; the maximum is
    reported instead, with the count of ops beyond it (zero).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


class Runner:
    """Runs passes of ops and keeps the check totals."""

    def __init__(self, ops, workload: str):
        self.ops = ops
        self.workload = workload
        self.checks = 0
        self.failed = 0
        self.errors: list[str] = []
        # the battery's check count is known once one `all` op has finished
        self.expected_checks = dict(ops.EXPECTED_CHECKS)

    def run_pass(self, op_list, tracer=None) -> list[tuple]:
        """(latency_s, outcome) per op; an op that raises fails every check it would make."""
        results = []
        for op in op_list:
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.start("op")
            start = time.perf_counter()
            try:
                outcome = self.ops.run_op(op, WORKDIR)
            except Exception as exc:  # counted as failed checks, reported in the info line
                expected = self.expected_checks.get(op["kind"], 1)
                outcome = self.ops.Outcome(expected, expected, f"error:{type(exc).__name__}")
                self.errors.append(f"{plans.describe(op)}: {type(exc).__name__}: {exc}")
            else:
                self.expected_checks[op["kind"]] = outcome.checks
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
                tracer.counters["cli.report_bytes"] += outcome.report_bytes
            self.checks += outcome.checks
            self.failed += outcome.failed
            results.append((latency, outcome))
        return results


def take_setup_samples(samples: list[float], upto: int) -> float:
    """Append fresh-process import times until there are `upto`; returns the wall time spent."""
    start = time.perf_counter()
    while len(samples) < upto:
        samples.append(import_seconds())
    return time.perf_counter() - start


def measure(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop over fresh passes; end-to-end metrics and run details.

    The setup samples are spread over the run, between passes, so that setup_s
    sees the same drift of the host as the ops; their time is not counted in
    the measured `seconds`.
    """
    latencies, pass_s, setup = [], [], []
    sampling = 0.0
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start - sampling < seconds:
        due = math.ceil(SETUP_SAMPLES * (time.perf_counter() - start - sampling) / seconds)
        sampling += take_setup_samples(setup, min(due, SETUP_SAMPLES))
        results = runner.run_pass(plans.plan(runner.workload, seed, len(pass_s)))
        latencies += [latency for latency, _ in results]
        pass_s.append(sum(latency for latency, _ in results))
        if len(pass_s) == 1:
            pass0 = [outcome.digest for _, outcome in results]
    take_setup_samples(setup, SETUP_SAMPLES)
    tail_ms, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
    }
    details = {
        "setup_samples_s": setup,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "ops": len(latencies),
        "tail_percentile": percentile,
        "ops_beyond_tail": beyond,
        "digest_pass0": combined_digest(pass0),
    }
    return metrics, details


def measure_traced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict, bool]:
    """Pass 0 alternately untraced and traced; per-layer metrics per traced pass."""
    import layers
    from spans import Tracer

    op_list = plans.plan(runner.workload, seed, 0)
    tracer = Tracer()
    untraced_s, traced_s = [], []
    same = True
    repeats = 0
    start = time.perf_counter()
    while repeats == 0 or time.perf_counter() - start < seconds:
        plain = runner.run_pass(op_list)
        layers.install(tracer)
        try:
            traced = runner.run_pass(op_list, tracer)
        finally:
            tracer.uninstall()
        same &= [o.result for _, o in plain] == [o.result for _, o in traced]
        untraced_s.append(sum(t for t, _ in plain))
        traced_s.append(sum(t for t, _ in traced))
        repeats += 1
        if repeats == 1:
            digest_pass0 = combined_digest([o.digest for _, o in traced])
    values = layers.layer_values(tracer, repeats)
    values["trace.overhead_ratio"] = statistics.median(untraced_s) / statistics.median(traced_s)
    values["checks_failed_ratio"] = runner.failed / runner.checks
    units = {m["name"]: m["unit"] for m in layers.per_layer_metrics()}
    metrics = {name: (values[name], units[name]) for name in units}
    spans_path = WORKDIR / f"spans-{runner.workload}-{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    details = {
        "repeats": repeats,
        "ops": len(op_list) * repeats,
        "traced_equals_untraced": same,
        "digest_pass0": digest_pass0,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qclimit" / "cli.py").is_file():
        print(f"error: qclimit sources not found under {SRC}", file=sys.stderr)
        return 2

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashes decide dict and set layouts, and with them the heap: under a
        # random hash seed the same `all` op peaks at 117 MB or 135 MB
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    threads_read = limit_threads()
    sys.path.insert(0, str(SRC))
    import qclimit.cli

    if SRC not in Path(qclimit.cli.__file__).resolve().parents:
        print(f"error: imported qclimit from {qclimit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ops

    WORKDIR.mkdir(exist_ok=True)
    runner = Runner(ops, args.workload)
    correct = True
    if args.trace:
        metrics, details, correct = measure_traced(runner, args.seed, args.seconds)
    else:
        metrics, details = measure(runner, args.seed, args.seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    correct = correct and runner.checks > 0 and runner.failed == 0

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **details,
        "checks": runner.checks,
        "checks_failed": runner.failed,
        "checks_failed_ratio": runner.failed / runner.checks if runner.checks else 1.0,
        "errors": runner.errors[:5],
        "sizes": plans.sizes(args.workload),
        "environment": environment(),
        "hash_seed": HASH_SEED,
        "threads_read": threads_read,
        "threads_used": {name: os.environ[name] for name in THREAD_VARS},
    }
    print("info " + json.dumps(info))
    result = {
        "correct": correct,
        "attempted": runner.checks,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
