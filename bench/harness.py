"""Closed-loop runner: one caller, one workload, one fresh interpreter.

Run through `run.py`, which pins the BLAS thread count before NumPy is
imported.  A run makes one untimed warm-up pass, then timed passes until
`--seconds` have gone by and the workload's minimum pass count is met.
Every operation of every pass is checked by the oracle outside its timed
region; a failing operation is counted and the run goes on.

With `--trace 0` the run reports the end-to-end metrics; `setup_s` comes
from separate fresh interpreters that only import the package, launched
between the timed passes.  With `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics, plus the
traced-over-untraced job time as the tracing overhead.  The last line
of standard output is the result; the line before it is a JSON record of
the environment and the run's details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 7
TRACE_MIN_PASSES = 2   # of each kind, untraced and traced
TAIL_BEYOND = 10       # samples the tail percentile must leave above it
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gsvdkit, gsvdkit.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("factor", "analyses"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------- set-up time

def launch_setup() -> float:
    """Import time of gsvdkit plus gsvdkit.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- passes

class Pass:
    """Latencies, failures and defects of one pass over the operation list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.defects: list[float] = []

    @property
    def job_s(self) -> float:
        return sum(self.latencies)


def execute(op, tracer=None, op_id: int = 0):
    """Run one op (timed, traced if a tracer is given), then check it (untimed).

    Returns (latency_s, defect_eps or None, failure text or None); a check
    that fails on accuracy still reports the defect it measured.
    """
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        result = op.run(*op.args)
        latency = time.perf_counter() - t0
    except Exception:  # a library error is a failed operation, not a failed run
        return time.perf_counter() - t0, None, f"{op.name}: raised\n{traceback.format_exc()}"
    finally:
        if tracer is not None:
            tracer.op_id = -1
    try:
        return latency, op.check(result), None
    except Exception as exc:
        return latency, getattr(exc, "defect_eps", None), f"{op.name}: {type(exc).__name__}: {exc}"


def run_pass(ops, tracer=None, first_op_id: int = 0) -> Pass:
    record = Pass()
    for i, op in enumerate(ops):
        latency, defect, failure = execute(op, tracer, first_op_id + i)
        record.latencies.append(latency)
        if defect is not None:
            record.defects.append(defect)
        if failure is not None:
            record.failures.append(failure)
    return record


def run_passes(workload, seconds: float, launches: int = 0):
    """Timed passes for `seconds`, and `launches` set-up times taken between them.

    The set-up launches are spread evenly over the run, and their own time
    is not counted in `seconds`.  The host's speed drifts over tens of
    seconds, and launches made back to back would all read one moment of
    it; the metric is their median.
    """
    passes, setup_times, paused = [], [], 0.0
    t0 = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t0 - paused

    while len(passes) < workload.min_passes or elapsed() < seconds:
        if len(setup_times) < launches and elapsed() >= len(setup_times) * seconds / launches:
            t = time.perf_counter()
            setup_times.append(launch_setup())
            paused += time.perf_counter() - t
        passes.append(run_pass(workload.ops))
    while len(setup_times) < launches:
        setup_times.append(launch_setup())
    return passes, setup_times


def run_traced(workload, seconds: float, tracer):
    """Alternate untraced and traced passes; return both lists."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < TRACE_MIN_PASSES or time.perf_counter() - t0 < seconds:
        plain.append(run_pass(workload.ops))
        tracer.install()
        try:
            traced.append(run_pass(workload.ops, tracer, len(traced) * len(workload.ops)))
        finally:
            tracer.uninstall()
    return plain, traced


# ---------------------------------------------------------------- metrics

def tally(passes):
    """(attempted, failure texts, defects in eps) over all passes."""
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    defects = [d for p in passes for d in p.defects]
    return attempted, failures, defects


def geometric_mean(defects) -> float:
    """Geometric mean of the defects; below one eps counts as one eps.

    The worst defect of a run is set by one seed-dependent pair and moves
    by a third between seeds; the geometric mean moves by a few percent,
    yet a route that loses a factor of ten on a few pairs still shows.
    """
    if not defects:  # every factor op raised; the run already reports failures
        return 0.0
    return math.exp(statistics.fmean(math.log(max(d, 1.0)) for d in defects))


def end_to_end(workload, passes, setup_times, attempted, failed, defects):
    """End-to-end metrics {name: (value, unit)} plus details for the record."""
    latencies = [x for p in passes for x in p.latencies]
    tail = float(np.percentile(latencies, workload.tail_pct))
    metrics = {
        "job_s": (statistics.median(p.job_s for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "defect_gmean_eps": (geometric_mean(defects), "eps"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    details = {
        "op_tail_pct": workload.tail_pct,
        "op_tail_beyond": sum(1 for x in latencies if x > tail),
        "op_samples": len(latencies),
        "worst_defect_eps": max(defects, default=0.0),
        "job_s_passes": [p.job_s for p in passes],
        "setup_s_launches": setup_times,
    }
    return metrics, details


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics {name: (value, unit)} of a traced run."""
    import spans

    job_plain = statistics.median(p.job_s for p in plain)
    job_traced = statistics.median(p.job_s for p in traced)
    values = tracer.layer_metrics(len(traced), sum(p.job_s for p in traced))
    values["trace.overhead_pct"] = (job_traced / job_plain - 1.0) * 100.0
    return {name: (values[name], unit) for name, unit, _ in spans.metric_specs()}


def per_op_medians(workload, passes) -> dict:
    out = {}
    for i, op in enumerate(workload.ops):
        out.setdefault(op.name, []).extend(p.latencies[i] for p in passes)
    return {name: statistics.median(xs) * 1e3 for name, xs in out.items()}


# ------------------------------------------------------------ environment

def _blas_version(module) -> str:
    try:
        return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "gsvdkit"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    """What must match for two results to be compared."""
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


COMPARABLE_KEYS = ("numpy", "scipy", "numpy_openblas", "scipy_openblas", "blas_threads",
                   "nproc", "python")


# ------------------------------------------------------------------- main

def result_line(attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gsvdkit", "__init__.py")):
        print(f"benchmark: no gsvdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import gsvdkit
    import spans
    import workloads

    if not os.path.abspath(gsvdkit.__file__).startswith(SRC + os.sep):
        print(f"benchmark: gsvdkit imported from {gsvdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        warm = run_pass(workload.ops)
        if args.trace:
            tracer = spans.Tracer()
            plain, traced = run_traced(workload, args.seconds, tracer)
            measured = plain + traced
        else:
            measured, setup_times = run_passes(workload, args.seconds, SETUP_LAUNCHES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    attempted, failures, defects = tally([warm] + measured)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        record.update(passes=len(traced), spans=len(tracer.start),
                      job_s_untraced=statistics.median(p.job_s for p in plain),
                      job_s_traced=statistics.median(p.job_s for p in traced))
    else:
        metrics, details = end_to_end(workload, measured, setup_times, attempted,
                                      len(failures), defects)
        record.update(details, passes=len(measured),
                      op_median_ms=per_op_medians(workload, measured))
        if details["op_tail_beyond"] < TAIL_BEYOND:
            print(f"benchmark: only {details['op_tail_beyond']} samples beyond the tail "
                  f"percentile", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(result_line(attempted, len(failures), metrics))
    return 0
