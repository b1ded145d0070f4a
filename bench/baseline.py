"""Measure the baseline: ten runs per workload, each on its own seed.

    python3 bench/baseline.py

Runs ``bench/run.py`` on seeds 0 to ``RUNS - 1`` for every workload
(``--trace 0``), then once more with ``--trace 1``, and writes, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, which is the distance between the quartiles as a share of the median.
Per-layer values are those of the single traced run.  The git commit measured
is recorded with them.  Run it in a git checkout on an otherwise idle machine.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):]) if lines[0].startswith("env ") else None
    return {"env": env, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()

    out = {"git_commit": commit, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = []
        for seed in range(RUNS):
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  "correct" if runs[-1]["correct"] else "INCORRECT", file=sys.stderr)
        traced = run_once(name, 0, seconds, 1)
        out["env"] = runs[0]["env"]
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs])
                           for m in runs[0]["metrics"]},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, s in out["workloads"][name]["end_to_end"].items():
            print(f"{name} {m}: median {s['median']:.4g} spread {s['spread']:.3f}",
                  file=sys.stderr)
    with open(os.path.join(BENCH, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
