"""The benchmark's workloads: which CLI commands one pass runs, and what it must write.

Every workload drives the public entry point ``overadapt.cli.main`` at the
program's own defaults: no ``--workers``, no ``OVERADAPT_WORKERS`` and no BLAS
thread variable, so the process pool and the BLAS thread pools behave as a user
would see them.  Sizes follow the paper's commands, with replicates scaled down
so that several passes fit in one run.

Inputs come from a master seed.  Pass ``k`` of a run with ``--seed s`` uses
master seed ``(s + k) % REF_SEEDS``: the same ``--seed`` always gives the same
inputs, every input has recorded reference values (``reference.json``), and the
Monte-Carlo rows of a run span several design draws, so the 3-SE rule is applied
to enough rows to mean something.

``preset a --full`` (p = 10^4) is not a workload: at the defaults its pass
walls ranged from 1.8 s to 5.8 s at two replicates (and 6 s to 12 s at six),
so no median that fits in a run was steady within the largest allowed bound.
Its layers, design draws and evaluator construction, are measured at p = 2000
on every workload here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

REF_SEEDS = 32

# Estimator points per seed of one `preset` run: pretrained, ridgeless, ridge at
# the ten levels {1e-7} | {1e-4} | logspace(-6, -2, 9), and the ensemble over the
# 21-point tau grid at the trade-off and ft-only levels.
PRESET_POINTS = 2 + 10 + 2 * 21
PRESET_REPLICATES = 6

MC_REPLICATES = 2
MC_DRAWS = 2000
MC_ESTIMATORS = ["pretrained", "ridgeless_ft", "ridge_ft", "ensemble"]
MC_METHODS = ["analytic", "monte_carlo", "lemma_approx"]
MC_LAMBDA = 1e-4
MC_TAU = 0.5

VERIFY_P, VERIFY_N, VERIFY_SEEDS, VERIFY_TRIALS = 2000, 40, 20, 200

WHY = {
    "preset_sweep": (
        "preset a --plot and preset c at p=2000, analytic only: the paper's main command; "
        "n x n trace blocks dominate and pool plus BLAS oversubscription show fully"
    ),
    "mc_crosscheck": (
        "sweep with Monte Carlo (2000 draws) and lemma_approx on case a: Gaussian draws and "
        "p x 512 matmuls dominate; the only workload where shared MC draws would show"
    ),
    "verify_suite": (
        "verify at p=2000, n=40, 20 seeds, 200 band trials: one process, no pool, many taus "
        "per lambda, FtResolvent traces and eigvalsh; a pool change should leave it unchanged"
    ),
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Output:
    """One result file a step writes, with what the checks expect of it."""

    path: str
    kind: str                       # "rows" (CSV result rows) or "verify" (JSON report)
    seeds: int                      # seeds the file covers
    expected_rows: int = 0


@dataclass(frozen=True)
class Pass:
    """One pass of a workload: CLI argv lists run in order, and their outputs."""

    workload: str
    master_seed: int
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[Output, ...]
    svgs: tuple[str, ...] = field(default_factory=tuple)

    def with_workers(self, workers: int) -> "Pass":
        """The same pass with ``--workers`` pinned, for the traced runs."""
        steps = tuple((*argv, "--workers", str(workers)) for argv in self.steps)
        return Pass(self.workload, self.master_seed, steps, self.outputs, self.svgs)


def master_seed(seed: int, pass_index: int) -> int:
    return (int(seed) + pass_index) % REF_SEEDS


def mc_config(seed: int) -> dict:
    return {
        "case": "a", "p": 2000, "replicates": MC_REPLICATES, "master_seed": seed,
        "estimators": list(MC_ESTIMATORS), "lambda_grid": [MC_LAMBDA],
        "tau_grid": [MC_TAU], "methods": list(MC_METHODS), "mc_draws": MC_DRAWS,
    }


def sweep_pass(workload: str, seed: int, workdir: str, config: dict) -> Pass:
    """A `sweep` pass from a generated flat config; the seed goes in as master_seed.

    (`sweep --seed 0` would be ignored by the CLI, so the seed is never passed
    on the command line.)
    """
    cfg_path = os.path.join(workdir, f"{workload}.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    out = os.path.join(workdir, f"{workload}.csv")
    points = sum({"ridge_ft": len(config["lambda_grid"]),
                  "ensemble": len(config["lambda_grid"]) * len(config["tau_grid"])
                  }.get(e, 1) for e in config["estimators"])
    rows = config["replicates"] * points * len(config["methods"]) * 2
    return Pass(workload, seed, (("sweep", "--config", cfg_path, "--out", out),),
                (Output(out, "rows", config["replicates"], rows),))


def build_pass(workload: str, seed: int, workdir: str) -> Pass:
    """The pass of ``workload`` at master seed ``seed``, writing into ``workdir``."""
    s = str(seed)
    j = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "preset_sweep":
        r = str(PRESET_REPLICATES)
        rows = PRESET_REPLICATES * PRESET_POINTS * 2
        return Pass(
            workload, seed,
            (("preset", "a", "--seed", s, "--replicates", r, "--plot", j("case_a"),
              "--out", j("preset_a.csv")),
             ("preset", "c", "--seed", s, "--replicates", r, "--out", j("preset_c.csv"))),
            (Output(j("preset_a.csv"), "rows", PRESET_REPLICATES, rows),
             Output(j("preset_c.csv"), "rows", PRESET_REPLICATES, rows)),
            svgs=(j("case_a-tradeoff.svg"), j("case_a-ft.svg")),
        )
    if workload == "mc_crosscheck":
        return sweep_pass(workload, seed, workdir, mc_config(seed))
    if workload == "verify_suite":
        return Pass(
            workload, seed,
            (("verify", "--p", str(VERIFY_P), "--n", str(VERIFY_N),
              "--replicates", str(VERIFY_SEEDS), "--trials", str(VERIFY_TRIALS),
              "--seed", s, "--out", j("verify.json")),),
            (Output(j("verify.json"), "verify", VERIFY_SEEDS),),
        )
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
