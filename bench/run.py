#!/usr/bin/env python3
"""Benchmark for sq-toolkit: time to a checked ``sq`` on three workloads.

Run from the repository root:

    python3 bench/run.py --workload search_4x4 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs search_4x4, gas_n9 and verify_battery serially in
this one process. Inputs are made from ``--seed`` before any timing and
sized so the timed ops take about ``--seconds`` at the baseline rate; one
caller issues them one after another, and every result is checked. The
package is imported from ``src/`` next to this directory; no library knob
is set.

For each workload two JSON lines go to stdout: first the report (host
record and every metric, with ``failed_ratio``, ``op_p90_ms`` where a run
has at least 100 ops, and ``sq_mean_nats`` on gas_n9), then the result line
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics named
in BENCHMARK.json: the end-to-end ones with ``--trace 0`` and the per-layer
ones with ``--trace 1``. A traced run estimates ``trace.overhead_s`` as its
span count times the cost of one span measured in the same process, and
writes its spans and the per-function table to ``.bench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

NAMES = ("search_4x4", "gas_n9", "verify_battery")
SETUP_REPEATS = 5
P90_MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Functions whose calls, total and self time the result line carries; the
# trace file has the same three figures for every public function.
TRACED_FUNCTIONS = {
    "sq.sq_search": ("calls", "total_s", "self_s"),
    "linalg.haar_unitary": ("calls", "self_s"),
    "scattering.gas_run": ("calls", "total_s", "self_s"),
    "scattering.propagator": ("calls", "self_s"),
    "observables.measurement_entropy": ("calls", "self_s"),
    "linalg.schmidt": ("calls", "self_s"),
    "sq.sq_bipartite": ("calls", "self_s"),
    "sq.adapted_pair": ("calls", "self_s"),
    "sq.convexity_gap": ("calls", "self_s"),
    "schemes.shannon_entropy": ("calls", "self_s"),
    "schemes.coarsen": ("calls", "self_s"),
    "schemes.entropy": ("calls", "self_s"),
    "verify.run_battery": ("calls", "total_s", "self_s"),
    "cli.main": ("calls", "total_s", "self_s"),
}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def per_layer_units() -> dict:
    units = {
        f"{fn}.{field}": UNITS[field]
        for fn, fields in TRACED_FUNCTIONS.items()
        for field in fields
    }
    units["sq.sq_search.restart_ms"] = "ms"
    units["sq.sq_search.converged_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def import_workloads():
    """Import the package from ``src/`` of this checkout, then the workloads."""
    if not (SRC / "sq_toolkit" / "__init__.py").is_file():
        raise BenchError(f"no sq_toolkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sq_toolkit

    if Path(sq_toolkit.__file__).resolve().parent != (SRC / "sq_toolkit").resolve():
        raise BenchError(f"sq_toolkit was imported from {sq_toolkit.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(name: str, seed: int, seconds: float, workdir: Path):
    """Import, make the inputs, run the warm-up op: (workload, ok, seconds)."""
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.make(name, seed, seconds, workdir)
    ok = workload.warm_up()
    return workload, ok, time.perf_counter() - start


def set_up_in_child(name: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh interpreter, so the import is cold each time."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up in a child process failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_ops(workload):
    """Issue every op in order, time it, then check it: (latencies, results, failed)."""
    latencies, results, failed = [], [], 0
    for x in workload.inputs:
        start = time.perf_counter()
        result = workload.op(x)
        latencies.append(time.perf_counter() - start)
        failed += not workload.check(x, result)
        results.append(result)
    return latencies, results, failed


def run_traced(workload, tracer):
    """Issue every op with the tracer installed: (latencies, failed).

    Each op and its check are root spans, ``bench.op`` and ``bench.check``.
    """
    latencies, failed = [], 0
    tracer.install()
    try:
        for x in workload.inputs:
            start = time.perf_counter()
            result = tracer.call("bench.op", workload.op, x)
            latencies.append(time.perf_counter() - start)
            failed += not tracer.call("bench.check", workload.check, x, result)
    finally:
        tracer.uninstall()
    return latencies, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_metrics(workload, latencies, results, failed, setup_samples) -> dict:
    """Every end-to-end metric of one untraced run, name -> (value, unit)."""
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "failed_ratio": (failed / len(latencies), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if len(latencies) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
        metrics["op_p90_samples"] = (len(latencies), "count")
    metrics.update(workload.accuracy(results))
    return metrics


def layer_metrics(table: dict, counters, overhead_s: float) -> dict:
    """Per-layer metrics from the tracer's table, name -> (value, unit)."""
    metrics = {}
    for fn, fields in TRACED_FUNCTIONS.items():
        row = table.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in fields:
            metrics[f"{fn}.{field}"] = (row[field], UNITS[field])
    search = table.get("sq.sq_search", {"calls": 0, "self_s": 0.0})
    restarts = counters["sq.sq_search.restarts"]
    metrics["sq.sq_search.restart_ms"] = (
        search["self_s"] * 1e3 / restarts if restarts else 0.0, "ms"
    )
    metrics["sq.sq_search.converged_ratio"] = (
        counters["sq.sq_search.converged"] / search["calls"] if search["calls"] else 0.0,
        "ratio",
    )
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def source_record() -> dict:
    """The commit when the checkout is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def host_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "env": {
                key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "SQ_TOOLKIT_THREADS": os.environ.get("SQ_TOOLKIT_THREADS"),
        **source_record(),
    }


def as_json_metrics(metrics: dict, names) -> dict:
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload: (report, result line)."""
    cold = "sq_toolkit" not in sys.modules
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workload, warm_ok, setup_s = set_up(name, seed, seconds, Path(tmp))
        report = {"workload": name, "seed": seed, "seconds": seconds,
                  "ops": len(workload.inputs), "trace": int(trace)}
        if not trace:
            samples = [setup_s] if cold else []
            while len(samples) < SETUP_REPEATS:
                samples.append(set_up_in_child(name, seed, seconds))
            latencies, results, failed = run_ops(workload)
            metrics = timed_metrics(workload, latencies, results, failed, samples)
            report["setup_samples_s"] = samples
            names = END_TO_END
        else:
            from tracing import Tracer, span_cost_s

            tracer = Tracer()
            latencies, failed = run_traced(workload, tracer)
            table = tracer.summary()
            spans = len(tracer.name)
            metrics = layer_metrics(table, tracer.counters, spans * span_cost_s())
            metrics["trace.wall_s"] = (sum(latencies), "s")
            metrics["trace.spans"] = (spans, "count")
            report["trace_file"] = str(write_trace(name, seed, tracer, table))
            names = PER_LAYER
    report["host"] = host_record()
    report["metrics"] = as_json_metrics(metrics, metrics)
    result = {
        "correct": bool(warm_ok and failed == 0),
        "attempted": len(latencies),
        "failed": failed,
        "metrics": as_json_metrics(metrics, names),
    }
    return report, result


def write_trace(name: str, seed: int, tracer, table: dict) -> Path:
    """Spans and the per-function table as gzip-compressed JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-{seed}.json.gz"
    record = {"workload": name, "seed": seed, "functions": table, "spans": tracer.columns()}
    with gzip.open(path, "wt", compresslevel=1) as out:
        json.dump(record, out)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
                _, ok, setup_s = set_up(args.workload, args.seed, args.seconds, Path(tmp))
            print(json.dumps({"setup_s": setup_s, "warm_up_ok": ok}))
            return 0
        names = NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            report, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report), flush=True)
            print(json.dumps(result), flush=True)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
