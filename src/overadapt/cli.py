"""Command-line entry point.

Subcommands:
  preset <a|b|c|d>   run a built-in case over its estimator points and write the rows
  sweep --config F   run a factorial sweep from a flat JSON config
  verify             ordering suite + tail-eigenvalue concentration check
  risk               evaluate one estimator point on one drawn instance
                     (its rows to --out or the config's out, else the
                     rows as JSON on stdout, as --format json writes them)

Exit codes: 0 success, 1 validation error (usage errors included, and two
outputs, or an output and the --config file read, that name one file), 2
numerical failure (ill-conditioned Gram without --jitter, or any failed seed
of a preset or sweep, whose surviving rows are still written), 3 I/O error
(an output whose directory is missing or unwritable).  Every output is
checked before any seed runs.

``main`` runs one command and returns its exit code, with no other effect on
the process, so callers can run it in process.  ``entry`` is the process's
own entry (``python -m overadapt.cli`` and the ``overadapt`` script): it
keeps OpenSSL out of the process before ``main``, and after it freezes the
garbage collector's heap, which the collection at interpreter shutdown then
skips; that took a command's exit from 44 to 15 ms on 2 cores.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict

from ._blas import single_threaded, start_single_threaded

start_single_threaded()  # before the imports below load numpy

from .config import FORMATS, METHODS, ConfigError, config_from_dict, load_config, save_config
from .estimators import EstimatorKind, SingularDesignError
from .presets import CASES, DESK_P, FT_ONLY_LAMBDA, FULL_P, preset_points
from .synth import derive_rng

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3


def _add_common(parser, pool: bool = True, draws: bool = True, report: bool = False):
    """The flags the commands share: --seed, --out and --format, of the rows or with
    ``report`` of one JSON report; with ``pool`` --replicates and --workers, with
    ``draws`` --mc-draws and --jitter.  argparse refuses a flag a command lacks (exit 1)."""
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the config's master_seed)")
    parser.add_argument("--out", default=None, help="output path for "
                        + ("the JSON report" if report else "result rows"))
    parser.add_argument("--format", choices=("json",) if report else FORMATS, default=None,
                        help="report format, json only" if report
                        else "row format (default: the config's format)")
    if pool:
        parser.add_argument("--replicates", type=int, default=None)
        parser.add_argument("--workers", type=int, default=None,
                            help="worker processes (default: OVERADAPT_WORKERS, else the "
                                 "CPUs this process may run on)")
    if draws:  # an unset --jitter is None, which _config reads as not given
        parser.add_argument("--mc-draws", type=int, default=None)
        parser.add_argument("--jitter", action="store_true", default=None,
                            help="rescue near-singular Grams with a recorded diagonal boost")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation error: exit 1
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="overadapt",
        description="Pretrain/fine-tune linear-regression risk laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="run a built-in simulation case")
    p_preset.add_argument("case", choices=sorted(CASES))
    p_preset.add_argument("--full", action="store_true",
                          help="full dimension p=10000 (default p=2000)")
    p_preset.add_argument("--plot", default=None, metavar="PREFIX",
                          help="write PREFIX-tradeoff.svg and PREFIX-ft.svg")
    p_preset.add_argument("--methods", nargs="+", default=None, choices=METHODS)
    p_preset.add_argument("--tau-grid", type=float, nargs="+", default=None)
    # nargs=1: the flag's value is a one-level lambda_grid, as for sweep
    p_preset.add_argument("--lambda", dest="lambda_grid", type=float, nargs=1,
                          metavar="LAMBDA", help="replace the ridge grid (the trade-off "
                          "level) with one level")
    _add_common(p_preset)

    p_sweep = sub.add_parser("sweep", help="factorial sweep from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--save-config", default=None,
                         help="write the fully populated config back out")
    p_sweep.add_argument("--lambda", dest="lambda_grid", type=float, nargs=1,
                         metavar="LAMBDA", help="replace the config's ridge grid with one level")
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="ordering and concentration suites")
    p_verify.add_argument("--p", type=int, default=DESK_P)
    p_verify.add_argument("--n", type=int, default=40)
    p_verify.add_argument("--trials", type=int, default=200,
                          help="trials for the eigenvalue band check")
    p_verify.add_argument("--replicates", type=int, default=None)
    # one process and one JSON report of exact risks: 1 names that process
    p_verify.add_argument("--workers", type=int, choices=(1,), default=None)
    _add_common(p_verify, pool=False, draws=False, report=True)

    p_risk = sub.add_parser("risk", help="single-point risk evaluation")
    p_risk.add_argument("--estimator", required=True, choices=tuple(EstimatorKind.PARAMS))
    p_risk.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="ridge level of ridge_ft and ensemble (default 0)")
    p_risk.add_argument("--tau", type=float, default=None,
                        help="ensemble weight of ensemble (default 1)")
    p_risk.add_argument("--method", choices=METHODS, default="analytic")
    p_risk.add_argument("--case", choices=sorted(CASES), default=None,
                        help="take the environment from a preset case")
    p_risk.add_argument("--config", default=None,
                        help="take the environment from a config file")
    _add_common(p_risk, pool=False)

    return parser


def _config(args, base: dict):
    """The config ``base`` with the flags given; a flag left unset keeps its value."""
    keys = ("replicates", "mc_draws", "format", "jitter", "lambda_grid", "methods", "tau_grid")
    flags = {"master_seed": args.seed, **{k: getattr(args, k, None) for k in keys}}
    return config_from_dict({**base, **{k: v for k, v in flags.items() if v is not None}})


def _check_outputs(outputs, read: str | None = None) -> None:
    """Refuse, before any seed runs, outputs that cannot all be written.

    ``outputs`` holds a (flag, path) pair per output, ``None`` for one not
    written.  Two that resolve to one file, or one other than ``--save-config``
    that is the ``--config`` file ``read``, are a ``ValueError`` (exit 1); a
    path that cannot be written is an ``OSError`` (exit 3).  So a bad output
    costs no computation and overwrites no other file of the command.
    """
    claimed = {os.path.realpath(read): "--config"} if read else {}
    for flag, path in outputs:
        if not path:
            continue
        other = claimed.setdefault(os.path.realpath(path), flag)
        if other != flag and (flag, other) != ("--save-config", "--config"):
            raise ValueError(f"{other} and {flag} both name {path}; give each its own file")
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
        if not os.access(folder, os.W_OK | os.X_OK):
            raise OSError(f"cannot write {path}: directory {folder} is not writable")


def _out_flag(args, config) -> str:
    """What names the rows' file: the flag, the config's key or the default."""
    return "--out" if args.out else "the config's out" if config.out else "the default out"


def _run(args, config, kinds, name: str) -> int:
    """Run ``config`` over ``kinds``, report failed seeds, write the rows (and plots)."""
    out = args.out or config.out or f"{name}.{config.format}"
    plot, save_config_to = getattr(args, "plot", None), getattr(args, "save_config", None)
    svgs = (f"{plot}-tradeoff.svg", f"{plot}-ft.svg") if plot else ()
    _check_outputs([(_out_flag(args, config), out), *(("--plot", svg) for svg in svgs),
                    ("--save-config", save_config_to)], getattr(args, "config", None))
    from .harness import run_sweep, write_results

    result = run_sweep(config, workers=args.workers, kinds=kinds)
    for seed, err in result.failures:
        print(f"seed {seed} failed: {err}", file=sys.stderr)
    write_results(result.rows, out, config.format)
    print(f"wrote {len(result.rows)} rows to {out} "
          f"({result.workers} workers, {len(result.failures)} flagged)")
    if svgs and result.rows:
        from .svgplot import render_ft_svg, render_tradeoff_svg

        render_tradeoff_svg(result.rows, svgs[0], config.lambda_grid[0])
        render_ft_svg(result.rows, svgs[1], FT_ONLY_LAMBDA)
        print(f"wrote {svgs[0]} and {svgs[1]}")
    if save_config_to:  # once the run has resolved every setting
        save_config(config, save_config_to)
    return EXIT_NUMERICAL if result.failures else EXIT_OK


def _cmd_preset(args) -> int:
    config = _config(args, {"case": args.case, **({"p": FULL_P} if args.full else {})})
    if args.plot and "analytic" not in config.methods:
        raise ValueError("--plot draws the analytic rows; add analytic to --methods")
    return _run(args, config, preset_points(config), f"preset_{args.case}")


def _cmd_sweep(args) -> int:
    config = _config(args, load_config(args.config).to_dict())
    return _run(args, config, None, "sweep")


def _cmd_verify(args) -> int:
    _check_outputs([("--out", args.out)])
    from .theory import eigen_band_check, theorem_check_env, verify_theorem_orderings

    env = _config(args, theorem_check_env(p=args.p, n=args.n).to_dict())
    report = verify_theorem_orderings(env)
    r_k, gamma = env.spectrum_pre[1]  # the pretrain tail, after the k_star spike
    band = eigen_band_check(gamma, r_k, n=env.n, trials=args.trials,
                            rng=derive_rng(env.master_seed, "eigen", 0))
    if args.out:  # before the printout, which a closed pipe cuts short
        with open(args.out, "w") as fh:
            json.dump({**asdict(report), "eigen_band": asdict(band)}, fh, indent=2, sort_keys=True)
    print(f"lambda' = {report.env['lambda_star']!r}")
    for item, rate in report.rates.items():
        print(f"{item}: rate {rate:.3f} over {env.replicates} seeds")
    print(f"eigen band: {band.inside}/{band.trials} inside "
          f"[{band.band[0]:.3g}, {band.band[1]:.3g}] x scale (regime_ok={band.regime_ok})")
    if args.out:
        print(f"wrote {args.out}")
    ok = all(rate >= 0.9 for rate in report.rates.values()) and band.rate >= 0.95
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_risk(args) -> int:
    flags = {"lam": "--lambda", "tau": "--tau"}
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    for k in given:
        if k not in EstimatorKind.PARAMS[args.estimator]:
            takes = [name for name, free in EstimatorKind.PARAMS.items() if k in free]
            raise ValueError(f"{flags[k]} applies only to {' and '.join(takes)}, "
                             f"not to {args.estimator}")
    if args.case and args.config:
        raise ValueError("--case and --config both give the environment; give one")
    from .harness import evaluate_seed, write_results

    base = load_config(args.config).to_dict() if args.config else {"case": args.case or "a"}
    config = _config(args, {**base, "methods": [args.method]})
    out = args.out or config.out
    if args.format and not out:
        raise ValueError("risk prints its rows as JSON without --out or a config out; "
                         "--format does not apply")
    _check_outputs([(_out_flag(args, config), out)], args.config)
    kind = EstimatorKind(args.estimator, **given)
    # replicate 0 of a one-method sweep of the config at this one point
    rows = evaluate_seed(config, 0, [kind])
    if out:
        write_results(rows, out, config.format)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "preset": _cmd_preset,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "risk": _cmd_risk,
    }
    try:
        args = build_parser().parse_args(argv)
        for flag, least in (("seed", 0), ("workers", 1), ("replicates", 1), ("trials", 1),
                            ("n", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                sign = "positive" if least else "non-negative"
                raise ValueError(f"--{flag} must be a {sign} integer, got {value}")
        with single_threaded():
            return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularDesignError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> int:
    """``main`` as the whole process, with OpenSSL kept out and the heap frozen for the exit."""
    # numpy.random imports secrets, and with it hashlib, hmac and _hashlib,
    # which maps OpenSSL's libcrypto (3.3 MB resident); the program hashes
    # nothing.  Blocked, hashlib and hmac fall back to CPython's built-in
    # hashes, silently, and the forked workers inherit the block: peak RSS
    # 36.96 -> 33.53 MB on the benchmark's preset_sweep (2 cores)
    sys.modules.setdefault("_hashlib", None)
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
