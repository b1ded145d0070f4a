"""Experiment execution: one seed runner, its result type, and result persistence.

``run_sweep`` is the one runner: it evaluates every replicate of a config at
a list of estimator points, by default the factorial expansion of the
config's grids.  A preset run (``run_preset``) is the same runner over the
case's points (``presets.preset_points``).  Seeds fan out to a process pool,
where ``evaluate_seed`` evaluates each (the ``risk`` command is its replicate
0); each seed derives its own random streams, so the merged output is
independent of worker count and execution order.  Rows are emitted in a
fixed schema:

    case,seed,estimator,lambda,tau,task,method,value,se,
    bias_thetac,term_zeta1,term_zeta2,term_sigma,term_sigma_tilde

Floats are written as their shortest round-trip decimal; fields that do not
apply (lambda for the pretrained estimator, se for non-MC methods, the term
split for MC rows) stay empty.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ._blas import pin_single_thread
from .config import ExperimentConfig, config_from_dict
from .estimators import ENSEMBLE, PRETRAINED, RIDGE, RIDGELESS, EstimatorKind
from .presets import preset_defaults, preset_points
from .risk import (
    TERM_KEYS,
    AnalyticRisk,
    FtResolvent,
    RiskReport,
    lemma_approx_risk,
    mc_expected_risks,
)
from .synth import derive_rng, sample_designs, sample_parameters

WORKERS_ENV_VAR = "OVERADAPT_WORKERS"

TASKS = ("pre", "ft")


@dataclass(frozen=True)
class ResultRow:
    case: str
    seed: int
    estimator: str
    lam: float | None
    tau: float | None
    task: str
    method: str
    value: float
    se: float | None = None
    terms: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "case": self.case,
            "seed": self.seed,
            "estimator": self.estimator,
            "lambda": self.lam,
            "tau": self.tau,
            "task": self.task,
            "method": self.method,
            "value": self.value,
            "se": self.se,
        }
        for k in TERM_KEYS:
            d[k] = self.terms.get(k)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRow":
        terms = {k: d[k] for k in TERM_KEYS if d.get(k) is not None}
        return cls(
            case=d["case"], seed=int(d["seed"]), estimator=d["estimator"],
            lam=d["lambda"], tau=d["tau"], task=d["task"], method=d["method"],
            value=float(d["value"]),
            se=None if d.get("se") is None else float(d["se"]),
            terms=terms,
        )


CSV_COLUMNS = ("case", "seed", "estimator", "lambda", "tau", "task", "method",
               "value", "se", *TERM_KEYS)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_results(rows, path, format: str = "csv") -> None:
    """Persist rows; CSV columns are fixed, JSON re-parses losslessly."""
    try:
        if format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    d = row.to_dict()
                    writer.writerow([_fmt(d[c]) for c in CSV_COLUMNS])
        elif format == "json":
            with open(path, "w") as fh:
                json.dump([r.to_dict() for r in rows], fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> list[ResultRow]:
    """Inverse of write_results for the JSON format."""
    with open(path) as fh:
        raw = json.load(fh)
    return [ResultRow.from_dict(d) for d in raw]


def _row_params(kind: EstimatorKind) -> tuple[float | None, float | None]:
    # lambda only matters for ridge/ensemble provenances, tau only for ensembles
    lam = kind.lam if kind.name in (RIDGE, ENSEMBLE) else None
    tau = kind.tau if kind.name == ENSEMBLE else None
    return lam, tau


def rows_from_report(report: RiskReport, case: str, seed: int) -> list[ResultRow]:
    lam, tau = _row_params(report.kind)
    rows = []
    for task in TASKS:
        tr = report.pre if task == "pre" else report.ft
        if tr is None:
            continue
        rows.append(ResultRow(
            case=case, seed=seed, estimator=report.kind.name,
            lam=lam, tau=tau, task=task, method=report.method,
            value=tr.value, se=tr.se, terms=dict(tr.terms),
        ))
    return rows


def expand_estimator_points(config: ExperimentConfig) -> list[EstimatorKind]:
    """Factorial expansion of the configured estimators over the grids."""
    points: list[EstimatorKind] = []
    for name in config.estimators:
        if name == PRETRAINED:
            points.append(EstimatorKind.pretrained())
        elif name == RIDGELESS:
            points.append(EstimatorKind.ridgeless())
        elif name == RIDGE:
            points.extend(EstimatorKind.ridge(lam) for lam in config.lambda_grid)
        elif name == ENSEMBLE:
            points.extend(
                EstimatorKind.ensemble(lam, tau)
                for lam in config.lambda_grid
                for tau in config.tau_grid
            )
    return points


def evaluate_seed(config: ExperimentConfig, seed_index: int,
                  kinds: list[EstimatorKind]) -> list[RiskReport]:
    """Every report of one replicate, in row order: per kind, one per method.

    Deterministic in (master_seed, seed_index).
    """
    env, methods, jitter = config.environment(), config.methods, config.jitter
    X, Xt = sample_designs(env, config.master_seed, seed_index)
    theta_c = None
    if config.fix_theta_c:
        # one shared draw held fixed across every replicate of the sweep
        theta_c, _, _ = sample_parameters(env, derive_rng(config.master_seed, "params", 0))
    # one eigendecomposition per design: every method reads the same solvers
    analytic = resolvent = None
    if "analytic" in methods:
        analytic = AnalyticRisk.from_env(X, Xt, env, theta_c=theta_c, jitter=jitter)
        resolvent = analytic.resolvent
    elif "lemma_approx" in methods:
        resolvent = FtResolvent.from_env(Xt, env, jitter=jitter)
    mc = [None] * len(kinds)
    if "monte_carlo" in methods:
        mc = mc_expected_risks(X, Xt, env, kinds, config.mc_draws,
                               derive_rng(config.master_seed, "mc", seed_index),
                               theta_c=theta_c, jitter=jitter,
                               solver_pre=None if analytic is None else analytic.solver_pre,
                               solver_ft=None if resolvent is None else resolvent.solver)
    reports: list[RiskReport] = []
    for kind, mc_report in zip(kinds, mc):
        if analytic is not None:
            reports.append(analytic.report(kind))
        if mc_report is not None:
            reports.append(mc_report)
        if "lemma_approx" in methods:
            reports.append(lemma_approx_risk(Xt, env, kind, evaluator=resolvent))
    return reports


def _sweep_worker(args) -> tuple[int, list[ResultRow] | None, str | None]:
    config, seed_index, kinds = args
    try:
        rows = [row for report in evaluate_seed(config, seed_index, kinds)
                for row in rows_from_report(report, config.case or "", seed_index)]
        return seed_index, rows, None
    except Exception as exc:  # flagged, not fatal: the sweep continues
        return seed_index, None, f"{type(exc).__name__}: {exc}"


def resolve_workers(requested: int | None) -> int:
    """The worker count: ``requested``, else ``OVERADAPT_WORKERS``, else every core.

    Either source must name a positive integer; anything else is an error.
    """
    source, value = "workers", requested
    if value is None:
        source, value = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR)
        if not value:
            return os.cpu_count() or 1
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return count


def _run_seeds(jobs: list[tuple], nworkers: int) -> tuple[list[ResultRow], list[tuple[int, str]]]:
    """Evaluate every job; rows and failures come back in job (seed) order.

    Pool workers run with one BLAS thread each (see ``_blas``).
    """
    if nworkers == 1 or len(jobs) == 1:
        outputs = list(map(_sweep_worker, jobs))
    else:
        with ProcessPoolExecutor(max_workers=nworkers,
                                 initializer=pin_single_thread) as pool:
            outputs = list(pool.map(_sweep_worker, jobs))
    merged: list[ResultRow] = []
    failures: list[tuple[int, str]] = []
    for seed, rows, err in outputs:
        if err is None:
            merged.extend(rows)
        else:
            failures.append((seed, err))
    return merged, failures


@dataclass
class SweepResult:
    """The rows of a run, its failed seeds, its worker count and the config it ran."""

    rows: list[ResultRow]
    failures: list[tuple[int, str]]
    workers: int
    config: ExperimentConfig


def run_sweep(config: ExperimentConfig, workers: int | None = None,
              kinds: list[EstimatorKind] | None = None) -> SweepResult:
    """Every replicate of ``config`` at every estimator point and method.

    ``kinds`` defaults to the factorial expansion of the config's grids.
    Parallel over seeds; the merged row list is sorted by seed index and is
    byte-identical across worker counts.  Seeds that raise are recorded in
    ``failures`` and the sweep continues.
    """
    kinds = expand_estimator_points(config) if kinds is None else kinds
    nworkers = resolve_workers(workers if workers is not None else config.workers)
    jobs = [(config, s, kinds) for s in range(config.replicates)]
    return SweepResult(*_run_seeds(jobs, nworkers), nworkers, config)


def run_preset(case: str, overrides: dict | None = None, full: bool = False,
               workers: int | None = None) -> SweepResult:
    """One built-in case, with ``overrides`` on its config, over its preset points."""
    config = config_from_dict({"case": case, **preset_defaults(case, full), **(overrides or {})})
    return run_sweep(config, workers, preset_points(config))
