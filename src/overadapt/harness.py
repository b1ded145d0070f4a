"""Experiment execution: one seed runner, its result type, and result persistence.

``run_sweep`` is the one runner: it evaluates every replicate of a config at
a list of estimator points, by default the factorial expansion of the
config's grids.  A preset run (``run_preset``) is the same runner over the
case's points (``presets.preset_points``).  ``evaluate_seed`` evaluates each
seed (the ``risk`` command is its replicate 0) on its ``DesignPair.draw``
into its rows, with every setting read from the config.  On Linux, seeds
fan out to forked processes: with k = min(workers, replicates), child i evaluates every
k-th seed from seed i and pipes its outputs back as one pickle.  The parent
has loaded every module a seed uses before it forks, so no child imports
anything.  Elsewhere,
and at one worker or one replicate, they run in the calling process.  Each
seed derives its own random streams, so the merged output is independent of
worker count and execution order.  A ``ResultRow`` is a tuple of the fixed
CSV columns, so rows leave the workers as tuples:

    case,seed,estimator,lambda,tau,task,method,value,se,
    bias_thetac,term_zeta1,term_zeta2,term_sigma,term_sigma_tilde

The CSV is written column by column.  Floats are written as their shortest
round-trip decimal; fields that do not apply (lambda for the pretrained
estimator, se for non-MC methods, the term split for MC rows) stay empty.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import NamedTuple

# Every seed draws from numpy.random, which numpy loads on first use, with
# secrets and hashlib behind it (and OpenSSL, unless ``cli.entry`` kept it
# out).  Loaded here, before seeds fan out, it is built once and inherited by
# each forked child instead of rebuilt there.
import numpy.random  # noqa: F401

from ._blas import pin_single_thread
from .config import METHODS, ExperimentConfig, config_from_dict
from .estimators import EstimatorKind
from .presets import preset_points
from .risk import TASKS, TERM_KEYS, AnalyticRisk, DesignPair, lemma_approx_risk
from .synth import derive_rng

WORKERS_ENV_VAR = "OVERADAPT_WORKERS"

# CPython's own multiprocessing defaults to spawn on macOS, where fork is
# unsafe once system frameworks have started threads; only Linux forks here.
_CAN_FORK = sys.platform == "linux"


class ResultRow(NamedTuple):
    """One result row: the fields are ``CSV_COLUMNS`` in order (``lam`` is "lambda")."""

    case: str
    seed: int
    estimator: str
    lam: float | None
    tau: float | None
    task: str
    method: str
    value: float
    se: float | None = None
    bias_thetac: float | None = None
    term_zeta1: float | None = None
    term_zeta2: float | None = None
    term_sigma: float | None = None
    term_sigma_tilde: float | None = None

    def to_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, self))


CSV_COLUMNS = ("case", "seed", "estimator", "lambda", "tau", "task", "method",
               "value", "se", *TERM_KEYS)
_NO_TERMS = dict.fromkeys(TERM_KEYS)  # a Monte Carlo row's term split: none


def _cells(column):
    """One column's CSV cells, made as the writer reaches them (no formatted column is
    held whole): empty for None, a float's shortest round-trip decimal."""
    return ("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
            for v in column)


def write_results(rows, path, format: str = "csv") -> None:
    """Persist rows; CSV columns are fixed, JSON re-parses losslessly."""
    try:
        if format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                writer.writerows(zip(*map(_cells, zip(*rows))))
        elif format == "json":
            with open(path, "w") as fh:
                json.dump([r.to_dict() for r in rows], fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def expand_estimator_points(config: ExperimentConfig) -> list[EstimatorKind]:
    """Factorial expansion of the configured estimators over their parameters' grids."""
    grids = {"lam": config.lambda_grid, "tau": config.tau_grid}
    points: list[EstimatorKind] = []
    for name in config.estimators:
        free = EstimatorKind.PARAMS[name]
        points += [EstimatorKind(name, **dict(zip(free, values)))
                   for values in itertools.product(*(grids[k] for k in free))]
    return points


def evaluate_seed(config: ExperimentConfig, seed_index: int,
                  kinds: list[EstimatorKind]) -> list[ResultRow]:
    """Every row of one replicate: per kind, per method in ``METHODS`` order, per task.

    Deterministic in (master_seed, seed_index).
    """
    methods = [m for m in METHODS if m in config.methods]
    # one reduction of the designs: every method reads the pair's Grams and
    # solvers, and the p-dimensional designs are freed before any method runs
    pair = DesignPair.draw(config, seed_index)
    closed = {m: make(pair, config) for m, make in
              (("analytic", AnalyticRisk), ("lemma_approx", lemma_approx_risk)) if m in methods}
    if "monte_carlo" in methods:
        from .mc import mc_expected_risks

        mc = mc_expected_risks(pair, config, kinds,
                               derive_rng(config.master_seed, "mc", seed_index))
    rows: list[ResultRow] = []
    for i, kind in enumerate(kinds):
        lam, tau = kind.shown
        for method in methods:
            for task in TASKS:
                if method == "monte_carlo":
                    (value, se), terms = mc[i][task], _NO_TERMS
                else:
                    (value, terms), se = closed[method].task_risk(kind, task), None
                rows.append(ResultRow(config.case or "", seed_index, kind.name, lam, tau,
                                      task, method, value, se, *terms.values()))
    return rows


def _sweep_worker(args) -> tuple[int, list[ResultRow] | None, str | None]:
    config, seed_index, kinds = args
    try:
        return seed_index, evaluate_seed(config, seed_index, kinds), None
    except Exception as exc:  # flagged, not fatal: the sweep continues
        return seed_index, None, f"{type(exc).__name__}: {exc}"


def resolve_workers(requested: int | None) -> int:
    """The worker count: ``requested``, else ``OVERADAPT_WORKERS``, else the
    CPUs this process may run on (its affinity mask, not the host's cores).

    Either source must name a positive integer; anything else is an error.
    """
    source, value = "workers", requested
    if value is None:
        source, value = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR)
        if not value:
            affinity = getattr(os, "sched_getaffinity", None)
            return len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return count


def _processes(nworkers: int, njobs: int) -> int:
    """How many processes evaluate ``njobs`` seeds; 1 means the calling process."""
    return min(nworkers, njobs) if _CAN_FORK else 1


def _run_seeds(jobs: list[tuple], nworkers: int) -> tuple[list[ResultRow], list[tuple[int, str]]]:
    """Evaluate every job; rows and failures come back in job (seed) order.

    With more than one process (``_processes``), the jobs fan out to forked
    children, each with one BLAS thread (see ``_blas``); otherwise they run
    here, at the caller's BLAS threads.
    """
    k = _processes(nworkers, len(jobs))
    outputs = list(map(_sweep_worker, jobs)) if k == 1 else _fork_join(jobs, k)
    merged: list[ResultRow] = []
    failures: list[tuple[int, str]] = []
    for seed, rows, err in outputs:
        if err is None:
            merged.extend(rows)
        else:
            failures.append((seed, err))
    return merged, failures


def _fork_join(jobs: list[tuple], k: int) -> list[tuple]:
    """``_sweep_worker`` over ``jobs`` in k forked children, outputs in job order.

    Child i evaluates ``jobs[i::k]`` and writes all its outputs to its own pipe
    at once, after its last job: while the parent drains another child's
    pipe, a child blocked on its own full pipe has no job left to run.  A
    child that cannot start (no pipe or no process), dies, or leaves output
    that does not unpickle, fails each of its jobs; the others run on.  Every
    child is reaped before this returns or raises: one not yet reaped is
    killed.  The package starts no threads, and OpenBLAS stops its own around
    a fork.  A child inherits the parent's modules, numpy.random
    among them (imported with this module), so its first seed imports nothing:
    on preset a at p = 2000 that seed took 47 ms when the child loaded
    numpy.random itself and 18 ms when it inherited it (a later seed: 9 ms).
    """
    outputs: list = [None] * len(jobs)
    running: dict[int, tuple[int, int]] = {}  # pid -> (i, read end of its pipe), until reaped
    sys.stdout.flush()  # so that no child inherits buffered output to write again
    sys.stderr.flush()
    try:
        for i in range(k):
            try:
                pid, read_end = _start_child(jobs[i::k])
            except OSError as exc:
                outputs[i::k] = [(seed, None, f"worker could not start: {exc}")
                                 for _, seed, _ in jobs[i::k]]
                continue
            running[pid] = (i, read_end)
        for pid in list(running):
            i, read_end = running[pid]
            with open(read_end, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            os.close(running.pop(pid)[1])
            outputs[i::k] = _child_outputs(jobs[i::k], data, status)
    finally:
        for pid, (_, read_end) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
    return outputs


def _start_child(jobs: list[tuple]) -> tuple[int, int]:
    """Fork a child that runs ``jobs``: its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(jobs, write_end)
    except OSError:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)  # else the parent holds it open and EOF never comes
    return pid, read_end


def _child(jobs: list[tuple], write_end: int) -> None:
    """The body of a forked child: it never returns into the caller's frames."""
    code = 1
    try:
        pin_single_thread()
        data = pickle.dumps(list(map(_sweep_worker, jobs)), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as fh:
            fh.write(data)
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _child_outputs(jobs: list[tuple], data: bytes, status: int) -> list[tuple]:
    """A child's outputs; if it died or left no readable output, a failure per job."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return pickle.loads(data)
        except Exception as exc:  # the child's output, truncated or malformed
            reason = f"worker left unreadable output: {type(exc).__name__}: {exc}"
    elif code < 0:
        reason = f"worker killed by signal {-code}"
    else:
        reason = f"worker exited with code {code}"
    return [(seed, None, reason) for _, seed, _ in jobs]


@dataclass
class SweepResult:
    """The rows of a run, its failed seeds, the processes that ran them and its config."""

    rows: list[ResultRow]
    failures: list[tuple[int, str]]
    workers: int
    config: ExperimentConfig


def run_sweep(config: ExperimentConfig, workers: int | None = None,
              kinds: list[EstimatorKind] | None = None) -> SweepResult:
    """Every replicate of ``config`` at every estimator point and method.

    ``kinds`` defaults to the factorial expansion of the config's grids.
    Parallel over seeds (up to ``workers`` processes, see ``_run_seeds``); the
    merged row list is sorted by seed index and is byte-identical across
    worker counts.  Seeds that raise are recorded in
    ``failures`` and the sweep continues.
    """
    kinds = expand_estimator_points(config) if kinds is None else kinds
    if "monte_carlo" in config.methods:  # loaded before seeds fan out, like numpy.random
        from . import mc  # noqa: F401
    nworkers = resolve_workers(workers if workers is not None else config.workers)
    jobs = [(config, s, kinds) for s in range(config.replicates)]
    return SweepResult(*_run_seeds(jobs, nworkers), _processes(nworkers, len(jobs)), config)


def run_preset(case: str, overrides: dict | None = None,
               workers: int | None = None) -> SweepResult:
    """One built-in case, with ``overrides`` on its config, over its preset points.

    The config fills the sizes that ``overrides`` leaves out from the case, so
    ``{"p": presets.FULL_P}`` is the full-size run.
    """
    config = config_from_dict({"case": case, **(overrides or {})})
    return run_sweep(config, workers, preset_points(config))
