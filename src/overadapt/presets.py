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

A case's p is ``DESK_P`` = 2000, to keep bench runs fast; full-size runs
(``--full``, or ``{"p": FULL_P}`` in ``run_preset``'s overrides) set p =
``FULL_P`` = 10^4 over it, and nothing else changes.
"""

from __future__ import annotations

import numpy as np

from .estimators import EstimatorKind

FULL_P = 10_000
DESK_P = 2_000

# case -> n, with the tail its figure captioned (``_sizes`` sets both tails)
CASES = {
    "a": 40,  # 0.025 = 1/n, the fine-tune tail
    "b": 40,  # 0.004 ~ n^-1.5, the pretrain tail
    "c": 60,  # 0.017 ~ 1/n
    "d": 60,  # 0.0022 ~ n^-1.5
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
    return _sizes(CASES[case], DESK_P)


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

