#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, set against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 bench/steady.py

Each of two sets runs every workload once per seed 1..10, untraced, one
run after another. For each end-to-end metric the script reports the
median and quartiles of each set, the spread (q3 - q1) / median and the
drift of the second median from the first against the bound. The spread
is across seeds, so it holds the differences between inputs as well as
the machine's noise; that is the spread a regression gate sees. A spread
or drift beyond the bound is flagged, and so is a spread above a third of
the bound, the margin the benchmark aims for. One traced run per workload
adds the per-layer figures. The record is printed and written to
``baseline.json`` next to this script.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"
SETS = 2
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return report, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def judge(metric: dict, sets: list[dict]) -> list[str]:
    """Flags for one metric: spreads and drift measured against its bound."""
    flags = []
    bound = metric["bound"]
    for k, s in enumerate(sets):
        if s["spread"] is None or s["spread"] > bound:
            flags.append(f"set {k + 1}: spread {s['spread']} exceeds bound {bound}")
        elif s["spread"] > bound / 3:
            flags.append(f"set {k + 1}: spread {s['spread']:.4f} above a third of the bound")
    for k in range(1, len(sets)):
        first, later = sets[0]["median"], sets[k]["median"]
        worse = (later - first) / first
        if metric["better"] == "higher":
            worse = -worse
        if worse > bound:
            flags.append(f"set {k + 1}: median worse than set 1 by {worse:.4f} > {bound}")
    return flags


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {name: [[] for _ in range(SETS)] for name in names}
    host = None
    for k in range(SETS):
        for name in names:
            for seed in SEEDS:
                report, result = run_once(name, seed, seconds, trace=0)
                host = host or report["host"]
                runs[name][k].append((report, result))
                print(f"set {k + 1} {name} seed {seed}: " + json.dumps(
                    {m: v["value"] for m, v in report["metrics"].items()}), flush=True)

    record = {"host": host, "run_seconds": seconds, "seeds": SEEDS, "sets": SETS,
              "spread_over": "seeds: one run per seed, so input differences "
                             "and machine noise together",
              "workloads": {}}
    for name in names:
        entry = {"correct": all(r["correct"] for s in runs[name] for _, r in s),
                 "ops": runs[name][0][0][0]["ops"], "end_to_end": {}, "reported": {}}
        for metric in spec["end_to_end"]:
            sets = [spread([r["metrics"][metric["name"]]["value"] for _, r in s])
                    for s in runs[name]]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "sets": sets, "flags": judge(metric, sets),
            }
        for metric, value in runs[name][0][0][0]["metrics"].items():
            if metric not in entry["end_to_end"]:
                values = [rep["metrics"][metric]["value"] for rep, _ in runs[name][0]]
                entry["reported"][metric] = {"unit": value["unit"], **spread(values)}
        _, traced = run_once(name, SEEDS[0], seconds, trace=1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = traced["metrics"]
        record["workloads"][name] = entry

    text = json.dumps(record, indent=1)
    print(text)
    OUT.write_text(text + "\n")
    flagged = [
        (name, metric, flag)
        for name, entry in record["workloads"].items()
        for metric, row in entry["end_to_end"].items()
        for flag in row["flags"]
    ]
    for name, metric, flag in flagged:
        print(f"FLAG {name} {metric}: {flag}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
