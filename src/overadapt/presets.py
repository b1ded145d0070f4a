"""Built-in simulation cases: the one table of what a case sets.

Four case labels cover two sample sizes; the tails of the two covariances
are tied to n (pretrain tail n^-1.5, fine-tune tail n^-1), so the labels'
gamma values name whichever tail the original figure captioned.  Cases a/b
share the n = 40 environment and c/d the n = 60 one; the label is kept on
every output row so runs stay distinguishable.  A case sets only n, p, the
fine-tune support and the two tails (an ``ExperimentConfig`` without a case
takes case a's); every other key keeps its ``ExperimentConfig`` default.

A preset run is a sweep over ``preset_points``: the pretrained and
interpolating estimators, the ridge family, and the ensemble weight sweep at
each level of the config's ``lambda_grid`` (the trade-off level) and at the
deliberately small ft-only level.

A case's p is 2000, to keep bench runs fast; full-size runs (``--full``) set
p = ``FULL_P`` = 10^4 over it, and nothing else changes.
"""

from __future__ import annotations

import numpy as np

from .estimators import EstimatorKind

FULL_P = 10_000
DESK_P = 2_000

# case -> (n, captioned gamma)
CASES = {
    "a": (40, 0.025),
    "b": (40, 0.004),
    "c": (60, 0.017),
    "d": (60, 0.0022),
}

TRADEOFF_LAMBDA = 1e-4   # near-optimal ridge level used for the trade-off curves
FT_ONLY_LAMBDA = 1e-7    # deliberately under-tuned ridge level for the ft-only runs

# Ridge levels swept for the fine-tune-family comparison on trade-off
# plots: two decades either side of the trade-off level, the "hard to tune
# precisely" regime these runs are about.
RIDGE_FAMILY = tuple(float(v) for v in np.logspace(-6, -2, 9))

# Fine-tune support size as a multiple of n.  The support must strictly
# exceed the sample count or the interpolating estimator sits on the
# square-Gram variance spike and every fine-tuned estimator loses to the
# pretrained one, the opposite of what these cases demonstrate; a factor of
# 2 keeps p_tilde ~ n and p_tilde * gamma = 2.
FT_SUPPORT_FACTOR = 2


def _sizes(n: int, p: int) -> dict:
    """The size keys of a case with n samples in dimension p; support and tails follow n."""
    return {
        "n": n,
        "p": p,
        "p_tilde": FT_SUPPORT_FACTOR * n,
        "gamma_pre": float(n) ** -1.5,
        "gamma_ft": 1.0 / n,
    }


def preset_defaults(case: str) -> dict:
    """The config keys one case sets (see config.ExperimentConfig for the rest)."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; known: {sorted(CASES)}")
    return _sizes(CASES[case][0], DESK_P)


def preset_points(config) -> list[EstimatorKind]:
    """A preset's estimator points, in row order.

    The ridge family is evaluated at every level; the ensemble weight sweeps
    run at the config's trade-off levels and then at the ft-only level.
    """
    levels = dict.fromkeys((*config.lambda_grid, FT_ONLY_LAMBDA))
    kinds = [EstimatorKind.pretrained(), EstimatorKind.ridgeless()]
    kinds += [EstimatorKind.ridge(lam) for lam in sorted({*levels, *RIDGE_FAMILY})]
    for lam in levels:
        kinds += [EstimatorKind.ensemble(lam, tau) for tau in config.tau_grid]
    return kinds


def theorem_check_env(p: int = DESK_P, n: int = 40):
    """The ``ExperimentConfig`` (the model) that the ordering suites run on.

    The sizes follow n as a case's do: a fine-tune support of 2n keeps the
    fine-tune Gram away from squareness and strictly satisfies p_tilde > n.
    The variance scales follow the model's order assumptions (zeta2 ~ sigma2 ~
    sigma2_tilde, zeta1 and the shared parameter small) but are chosen so the
    task-shift and fine-tune-noise terms dominate the risk at this bench
    dimension: the closed-form optima only match the full-risk optima once the
    lower-order terms are negligible, and at p ~ 2000 the simulation-default
    constants leave them a percent-level perturbation.
    """
    from .config import ConfigError, ExperimentConfig

    if n == 0:  # its tails n^-1.5 and 1/n divide by zero; the config rejects every other n
        raise ConfigError(f"n: must be a positive integer, got {n!r}")
    return ExperimentConfig(**_sizes(n, p), zeta1=1e-5, zeta2=4e-2, sigma2=1.25e-2,
                            sigma2_tilde=4e-2, theta_c_norm=0.25)
