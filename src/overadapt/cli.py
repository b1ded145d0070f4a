"""Command-line entry point.

Subcommands:
  preset <a|b|c|d>   run a built-in case over its estimator points and write the rows
  sweep --config F   run a factorial sweep from a flat JSON config
  verify             ordering suite + tail-eigenvalue concentration check
  risk               evaluate one estimator point on one drawn instance
                     (its rows to --out or the config's out, else the
                     report as JSON on stdout)

Exit codes: 0 success, 1 validation error (usage errors included), 2
numerical failure (ill-conditioned Gram without --jitter, or any failed seed
of a preset or sweep, whose surviving rows are still written), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ._blas import single_threaded, start_single_threaded

start_single_threaded()  # before the imports below load numpy

from .config import ConfigError, config_from_dict, load_config, save_config
from .estimators import EstimatorKind, SingularDesignError
from .presets import CASES, FT_ONLY_LAMBDA, preset_defaults, preset_points, theorem_check_env
from .spectra import SpectrumSpec
from .synth import derive_rng

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the config's master_seed)")
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--mc-draws", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path for result rows")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="row format (default: the config's format)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: OVERADAPT_WORKERS or all cores)")
    parser.add_argument("--jitter", action="store_true",
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
    p_preset.add_argument("--methods", nargs="+", default=None,
                          choices=("analytic", "monte_carlo", "lemma_approx"))
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
    p_verify.add_argument("--p", type=int, default=2000)
    p_verify.add_argument("--n", type=int, default=40)
    p_verify.add_argument("--trials", type=int, default=200,
                          help="trials for the eigenvalue band check")
    _add_common(p_verify)

    p_risk = sub.add_parser("risk", help="single-point risk evaluation")
    p_risk.add_argument("--estimator", required=True,
                        choices=("pretrained", "ridgeless_ft", "ridge_ft", "ensemble"))
    p_risk.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="ridge level of ridge_ft and ensemble (default 0)")
    p_risk.add_argument("--tau", type=float, default=None,
                        help="ensemble weight of ensemble (default 1)")
    p_risk.add_argument("--method", choices=("analytic", "monte_carlo", "lemma_approx"),
                        default="analytic")
    p_risk.add_argument("--case", choices=sorted(CASES), default=None,
                        help="take the environment from a preset case")
    p_risk.add_argument("--config", default=None,
                        help="take the environment from a config file")
    _add_common(p_risk)

    return parser


def _config(args, base: dict):
    """The config ``base`` with the flags given; a flag left unset keeps its value."""
    flags = {"master_seed": args.seed, "replicates": args.replicates,
             "mc_draws": args.mc_draws, "format": args.format,
             "jitter": args.jitter or None,
             "lambda_grid": getattr(args, "lambda_grid", None),
             "methods": getattr(args, "methods", None),
             "tau_grid": getattr(args, "tau_grid", None)}
    return config_from_dict({**base, **{k: v for k, v in flags.items() if v is not None}})


def _run(args, config, kinds, name: str) -> int:
    """Run ``config`` over ``kinds``, report failed seeds, write the rows (and plots)."""
    from .harness import run_sweep, write_results

    result = run_sweep(config, workers=args.workers, kinds=kinds)
    for seed, err in result.failures:
        print(f"seed {seed} failed: {err}", file=sys.stderr)
    out = args.out or config.out or f"{name}.{config.format}"
    write_results(result.rows, out, config.format)
    print(f"wrote {len(result.rows)} rows to {out} "
          f"({result.workers} workers, {len(result.failures)} flagged)")
    if getattr(args, "plot", None) and result.rows:
        from .svgplot import render_tradeoff_svg

        render_tradeoff_svg(result.rows, f"{args.plot}-tradeoff.svg", mode="tradeoff",
                            ensemble_lambda=config.lambda_grid[0])
        render_tradeoff_svg(result.rows, f"{args.plot}-ft.svg", mode="ft_curve",
                            ensemble_lambda=FT_ONLY_LAMBDA, ft_lambda=FT_ONLY_LAMBDA)
        print(f"wrote {args.plot}-tradeoff.svg and {args.plot}-ft.svg")
    return EXIT_NUMERICAL if result.failures else EXIT_OK


def _cmd_preset(args) -> int:
    config = _config(args, {"case": args.case, **preset_defaults(args.case, args.full)})
    if args.plot and "analytic" not in config.methods:
        raise ValueError("--plot draws the analytic rows; add analytic to --methods")
    return _run(args, config, preset_points(config), f"preset_{args.case}")


def _cmd_sweep(args) -> int:
    config = _config(args, load_config(args.config).to_dict())
    code = _run(args, config, None, "sweep")
    if args.save_config:  # once the run has resolved every setting
        save_config(config, args.save_config)
    return code


def _cmd_verify(args) -> int:
    # one process, exact risks, one JSON report: these flags cannot be honoured
    # (--workers 1 names the one process it runs in, so it is accepted)
    for flag, given in (("--workers", args.workers not in (None, 1)),
                        ("--jitter", args.jitter),
                        ("--mc-draws", args.mc_draws is not None),
                        ("--format csv", args.format == "csv")):
        if given:
            raise ValueError(f"verify runs in one process and writes a JSON report "
                             f"of exact risks; {flag} does not apply")
    from .theory import eigen_band_check, lambda_prime, verify_theorem_orderings

    env = theorem_check_env(p=args.p, n=args.n)
    seeds, master_seed = args.replicates or 20, args.seed or 0
    lam_star = lambda_prime(env)
    report = verify_theorem_orderings(env, seeds=seeds, master_seed=master_seed)
    print(f"lambda' = {lam_star!r}")
    for item in ("item1", "item2", "item3"):
        print(f"{item}: rate {report.rates[item]:.3f} over {seeds} seeds")
    spec = SpectrumSpec(k_star=1, gamma=1e-2, p=200 * args.n + 1, p_tilde=200 * args.n + 1)
    band = eigen_band_check(spec, n=args.n, trials=args.trials,
                            rng=derive_rng(master_seed, "eigen", 0))
    print(f"eigen band: {band.inside}/{band.trials} inside "
          f"[{band.band[0]:.3g}, {band.band[1]:.3g}] x scale (regime_ok={band.regime_ok})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**asdict(report), "eigen_band": asdict(band)}, fh, indent=2,
                      sort_keys=True)
        print(f"wrote {args.out}")
    ok = all(report.rates[i] >= 0.9 for i in ("item1", "item2", "item3"))
    ok = ok and band.rate >= 0.95
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_risk(args) -> int:
    for flag, value in (("--replicates", args.replicates), ("--workers", args.workers)):
        if value is not None:
            raise ValueError(f"risk evaluates one instance; {flag} does not apply")
    for flag, value, takes in (("--lambda", args.lam, ("ridge_ft", "ensemble")),
                               ("--tau", args.tau, ("ensemble",))):
        if value is not None and args.estimator not in takes:
            raise ValueError(f"{flag} applies only to {' and '.join(takes)}, "
                             f"not to {args.estimator}")
    if args.case and args.config:
        raise ValueError("--case and --config both give the environment; give one")
    lam = 0.0 if args.lam is None else args.lam
    tau = 1.0 if args.tau is None else args.tau
    from .harness import evaluate_seed, rows_from_report, write_results

    base = load_config(args.config).to_dict() if args.config else {"case": args.case or "a"}
    config = _config(args, {**base, "methods": [args.method]})
    out = args.out or config.out
    if args.format and not out:
        raise ValueError("risk prints its report as JSON without --out or a config out; "
                         "--format does not apply")
    kind = {
        "pretrained": EstimatorKind.pretrained,
        "ridgeless_ft": EstimatorKind.ridgeless,
        "ridge_ft": lambda: EstimatorKind.ridge(lam),
        "ensemble": lambda: EstimatorKind.ensemble(lam, tau),
    }[args.estimator]()
    # replicate 0 of a one-method sweep of the config at this one point
    (report,) = evaluate_seed(config, 0, [kind])
    if out:
        rows = rows_from_report(report, config.case or "", 0)
        write_results(rows, out, config.format)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
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


if __name__ == "__main__":
    sys.exit(main())
