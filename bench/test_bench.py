"""Tests of the benchmark itself: its checks bite, and its output is complete.

Run from the repository root with ``python -m pytest bench``. The smoke tests
run every workload at its smallest size, which takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run

workloads = run.import_workloads()

import tracing  # noqa: E402  (after the package is importable)
from sq_toolkit import scattering, schemes, sq  # noqa: E402

SMOKE_SECONDS = {"search_4x4": 1.0, "gas_n9": 1.0, "verify_battery": 0.2}


def failed_ratio(workload) -> float:
    latencies, results, failed = run.run_ops(workload)
    return run.timed_metrics(workload, latencies, results, failed, [0.0])["failed_ratio"][0]


def test_workload_names_agree():
    assert set(run.NAMES) == set(workloads.WORKLOADS)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_search_check_counts_a_value_above_the_closed_form(tmp_path):
    workload = workloads.SearchWorkload(seed=3, count=2, workdir=tmp_path)
    closed = {id(x): sq.sq_bipartite(x).value for x in workload.inputs}
    tampered = workload.inputs[0]

    def op(state):
        excess = 1e-3 if state is tampered else 1e-7
        return SimpleNamespace(value=closed[id(state)] + excess)

    workload.op = op
    assert failed_ratio(workload) == 0.5


def test_gas_check_counts_a_row_below_its_pair_entropy(tmp_path):
    workload = workloads.GasWorkload(seed=3, count=2, workdir=tmp_path)
    model = scattering.CollisionModel.box(2, 2)
    tampered = workload.inputs[0]

    def op(seed):
        traj = scattering.gas_run(3, 2, 2, model, seed, restarts=1)
        if seed != tampered:
            return traj
        pair = list(traj.pair_entropies)
        pair[1] = traj.sq_estimates[1] + 1e-3
        return dataclasses.replace(traj, pair_entropies=tuple(pair))

    workload.op = op
    assert failed_ratio(workload) == 0.5


def test_verify_check_counts_a_failed_report(tmp_path):
    workload = workloads.VerifyWorkload(seed=3, count=2, workdir=tmp_path)
    real_op = workload.op
    tampered = workload.inputs[0]

    def op(argv):
        code = real_op(argv)
        if argv is tampered:
            report = json.loads(workload.out.read_text())
            workload.out.write_text(json.dumps({**report, "passed": False}))
        return code

    workload.op = op
    assert failed_ratio(workload) == 0.5


def test_search_inputs_follow_the_seed_on_fixed_spectra(tmp_path):
    a, b, c = (
        workloads.SearchWorkload(seed=seed, count=4, workdir=tmp_path) for seed in (5, 5, 6)
    )
    amps = lambda w: [x.amplitudes.tobytes() for x in [w.warm_up_input, *w.inputs]]  # noqa: E731
    assert amps(a) == amps(b)
    assert len(set(amps(a) + amps(c))) == 10
    spectra = lambda w: np.array([workloads.linalg.schmidt(x).weights for x in w.inputs])  # noqa: E731
    np.testing.assert_allclose(spectra(a), spectra(c), atol=1e-12)
    curvature = workloads.slowest_curvature(spectra(a))
    assert list(curvature) == sorted(curvature, reverse=True)


def test_tracer_links_parents_and_restores_the_package():
    original = sq.sq_search
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scattering.sq_search is not original and sq.sq_search is not original
        scheme = schemes.Scheme((0, 1, 2), (0.5, 0.25, 0.25))
        tracer.call("bench.op", schemes.entropy, scheme)
    finally:
        tracer.uninstall()
    assert scattering.sq_search is original and sq.sq_search is original
    table = tracer.summary()
    assert table["schemes.entropy"]["parents"] == {"bench.op": 1}
    assert table["schemes.shannon_entropy"]["parents"] == {"schemes.entropy": 1}
    outer = table["schemes.entropy"]
    inner = table["schemes.shannon_entropy"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-9)


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(name):
    seconds = SMOKE_SECONDS[name]
    report, result = run.run_workload(name, seed=2, seconds=seconds, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["metrics"]["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert len(report["setup_samples_s"]) == run.SETUP_REPEATS
    assert ("sq_mean_nats" in report["metrics"]) == (name == "gas_n9")
    assert ("op_p90_ms" in report["metrics"]) == (report["ops"] >= run.P90_MIN_OPS)
    assert report["host"]["nproc"] >= 1 and report["host"]["numpy"]

    report, result = run.run_workload(name, seed=2, seconds=seconds, trace=True)
    assert result["correct"] and result["attempted"] == report["ops"]
    layers = result["metrics"]
    assert {k: v["unit"] for k, v in layers.items()} == run.PER_LAYER
    searches = layers["sq.sq_search.calls"]["value"]
    if name == "verify_battery":
        assert searches == 0 and layers["sq.sq_search.self_s"]["value"] == 0.0
        assert layers["cli.main.calls"]["value"] == report["ops"]
    else:
        assert searches >= 1
        assert layers["sq.sq_search.converged_ratio"]["unit"] == "ratio"
    assert layers["trace.overhead_s"]["value"] > 0
    assert Path(report["trace_file"]).is_file()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
