"""Experiment execution: sweeps, preset runs, and result persistence.

Seeds fan out to a process pool; each seed derives its own random streams,
so the merged output is independent of worker count and execution order.
Rows are emitted in a fixed schema:

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

import numpy as np

from ._blas import pin_single_thread
from .config import ExperimentConfig
from .estimators import ENSEMBLE, PRETRAINED, RIDGE, RIDGELESS, EstimatorKind
from .presets import (
    FT_ONLY_LAMBDA,
    RIDGE_FAMILY,
    TRADEOFF_LAMBDA,
    preset_defaults,
)
from .risk import (
    TERM_KEYS,
    AnalyticRisk,
    FtResolvent,
    RiskReport,
    lemma_approx_risk,
    mc_expected_risks,
)
from .synth import TaskEnvironment, derive_rng, sample_designs, sample_parameters

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


def evaluate_seed(
    env: TaskEnvironment,
    seed_index: int,
    master_seed: int,
    kinds: list[EstimatorKind],
    methods: list[str],
    mc_draws: int,
    case: str = "",
    fix_theta_c: bool = False,
    jitter: bool = False,
) -> list[ResultRow]:
    """All rows for one replicate; deterministic in (master_seed, seed_index)."""
    X, Xt = sample_designs(env, master_seed, seed_index)
    theta_c = None
    if fix_theta_c:
        # one shared draw held fixed across every replicate of the sweep
        theta_c, _, _ = sample_parameters(env, derive_rng(master_seed, "params", 0))
    # one eigendecomposition per design: every method reads the same solvers
    analytic = resolvent = None
    if "analytic" in methods:
        analytic = AnalyticRisk.from_env(X, Xt, env, theta_c=theta_c, jitter=jitter)
        resolvent = analytic.resolvent
    elif "lemma_approx" in methods:
        resolvent = FtResolvent.from_env(Xt, env, jitter=jitter)
    mc = [None] * len(kinds)
    if "monte_carlo" in methods:
        mc = mc_expected_risks(X, Xt, env, kinds, mc_draws,
                               derive_rng(master_seed, "mc", seed_index),
                               theta_c=theta_c, jitter=jitter,
                               solver_pre=None if analytic is None else analytic.solver_pre,
                               solver_ft=None if resolvent is None else resolvent.solver)
    rows: list[ResultRow] = []
    for kind, mc_report in zip(kinds, mc):
        if analytic is not None:
            rows.extend(rows_from_report(analytic.report(kind), case, seed_index))
        if mc_report is not None:
            rows.extend(rows_from_report(mc_report, case, seed_index))
        if "lemma_approx" in methods:
            rows.extend(rows_from_report(
                lemma_approx_risk(Xt, env, kind, evaluator=resolvent), case, seed_index))
    return rows


def _sweep_worker(args) -> tuple[int, list[ResultRow] | None, str | None]:
    (env, seed_index, master_seed, kinds, methods, mc_draws, case,
     fix_theta_c, jitter) = args
    try:
        rows = evaluate_seed(env, seed_index, master_seed, kinds, methods,
                             mc_draws, case, fix_theta_c, jitter)
        return seed_index, rows, None
    except Exception as exc:  # flagged, not fatal: the sweep continues
        return seed_index, None, f"{type(exc).__name__}: {exc}"


@dataclass
class SweepResult:
    rows: list[ResultRow]
    failures: list[tuple[int, str]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def resolve_workers(requested: int | None) -> int:
    if requested is not None:
        return max(1, requested)
    env_val = os.environ.get(WORKERS_ENV_VAR)
    if env_val:
        try:
            return max(1, int(env_val))
        except ValueError:
            pass
    return os.cpu_count() or 1


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


def _run_config(env: TaskEnvironment, config: ExperimentConfig, kinds: list[EstimatorKind],
                case: str, workers: int | None):
    """Rows, failures and worker count of every replicate; builds each seed's job."""
    jobs = [
        (env, s, config.master_seed, kinds, config.methods, config.mc_draws,
         case, config.fix_theta_c, config.jitter)
        for s in range(config.replicates)
    ]
    nworkers = resolve_workers(workers if workers is not None else config.workers)
    return (*_run_seeds(jobs, nworkers), nworkers)


def run_sweep(config: ExperimentConfig, workers: int | None = None) -> SweepResult:
    """Full factorial over (seed x estimator point x method).

    Parallel over seeds; the merged row list is sorted by seed index and is
    byte-identical across worker counts.  Seeds that raise are recorded in
    ``failures`` and the sweep continues.
    """
    env = config.environment()
    kinds = expand_estimator_points(config)
    merged, failures, nworkers = _run_config(env, config, kinds, config.case or "", workers)
    meta = {
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "workers": nworkers,
        "estimator_points": len(kinds),
        "methods": list(config.methods),
    }
    return SweepResult(rows=merged, failures=failures, meta=meta)


@dataclass
class PresetResult:
    case: str
    env: TaskEnvironment
    rows: list[ResultRow]
    tradeoff_lambda: float
    ft_lambda: float
    ridge_family: tuple[float, ...]
    replicates: int
    meta: dict = field(default_factory=dict)

    def mean_point(self, estimator: str, lam: float | None, tau: float | None,
                   task: str, method: str = "analytic") -> float:
        vals = [r.value for r in self.rows
                if r.estimator == estimator and r.task == task and r.method == method
                and (lam is None or (r.lam is not None and r.lam == lam))
                and (tau is None or (r.tau is not None and r.tau == tau))]
        if not vals:
            raise ValueError(f"no rows for {estimator} lam={lam} tau={tau} {task}")
        return float(np.mean(vals))


def run_preset(
    case_id: str,
    overrides: dict | None = None,
    full: bool = False,
    workers: int | None = None,
    methods: list[str] | None = None,
    tau_grid: list[float] | None = None,
    tradeoff_lambda: float | None = None,
    ft_lambda: float | None = None,
) -> PresetResult:
    """Run one built-in case: trade-off curves plus the ft-only curve.

    The trade-off run sweeps the ensemble weight at the near-optimal ridge
    level and also evaluates the ridge family, the interpolating fine-tune
    and the pretrained estimator.  The ft-only run repeats the weight sweep
    at the deliberately small ridge level.  Risks are exact conditional
    expectations unless other methods are requested.
    """
    from .config import config_from_dict

    raw = preset_defaults(case_id, full=full)
    raw.update(overrides or {})
    if methods is not None:
        raw["methods"] = list(methods)
    if tau_grid is not None:
        raw["tau_grid"] = list(tau_grid)
    base = config_from_dict(raw)

    lam_tradeoff = TRADEOFF_LAMBDA if tradeoff_lambda is None else float(tradeoff_lambda)
    lam_ft = FT_ONLY_LAMBDA if ft_lambda is None else float(ft_lambda)
    lam_grid = sorted({lam_tradeoff, lam_ft, *RIDGE_FAMILY})
    cfg = config_from_dict({**base.to_dict(), "lambda_grid": lam_grid,
                            "estimators": list(("pretrained", "ridgeless_ft",
                                                "ridge_ft", "ensemble"))})
    # ensembles only at the two designated levels; ridge family everywhere
    kinds = [EstimatorKind.pretrained(), EstimatorKind.ridgeless()]
    kinds += [EstimatorKind.ridge(lam) for lam in lam_grid]
    for lam in dict.fromkeys((lam_tradeoff, lam_ft)):
        kinds += [EstimatorKind.ensemble(lam, tau) for tau in cfg.tau_grid]

    env = cfg.environment()
    merged, failures, nworkers = _run_config(env, cfg, kinds, case_id, workers)
    return PresetResult(
        case=case_id, env=env, rows=merged,
        tradeoff_lambda=lam_tradeoff, ft_lambda=lam_ft,
        ridge_family=tuple(RIDGE_FAMILY), replicates=cfg.replicates,
        meta={"failures": failures, "master_seed": cfg.master_seed,
              "p": cfg.p, "workers": nworkers,
              "replicates_note": "curve points are means over replicates"},
    )
