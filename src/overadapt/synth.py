"""Finite-sample draws for the two-task regression setup.

Generates, from the model (a validated ``config.ExperimentConfig``, read as
``env``), the designs X (pretrain) and X_tilde (fine-tune), each drawn at its
spectrum's (count, value) blocks up to the end of the last nonzero one, and
the shared parameter theta_c that a ``fix_theta_c`` run holds fixed; the
evaluators average over the rest of the model, exactly or by Monte Carlo.
All randomness flows through streams derived from (master_seed, purpose,
replicate) so that parallel replicates are order-independent and every draw
is bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig

# Stable purpose codes for stream derivation.  A stream is seeded with
# SeedSequence([master_seed, PURPOSE[tag], replicate]); changing any of the
# three yields an independent stream, and streams never depend on the order
# in which replicates are generated.
PURPOSE = {
    "design_pre": 101,
    "design_ft": 102,
    "params": 103,
    "noise_pre": 104,
    "noise_ft": 105,
    "mc": 106,
    "eigen": 107,
}

COORD_DISTS = ("gaussian", "rademacher")


def derive_rng(master_seed: int, purpose: str, replicate: int = 0) -> np.random.Generator:
    """Independent generator for (master_seed, purpose, replicate)."""
    if purpose not in PURPOSE:
        raise ValueError(f"unknown purpose {purpose!r}; known: {sorted(PURPOSE)}")
    seq = np.random.SeedSequence([int(master_seed), PURPOSE[purpose], int(replicate)])
    return np.random.default_rng(seq)


def _coord_draws(rng: np.random.Generator, shape, coord_dist: str) -> np.ndarray:
    """i.i.d. zero-mean unit-variance coordinates."""
    if coord_dist == "gaussian":
        return rng.standard_normal(shape)
    if coord_dist == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    raise ValueError(f"coord_dist must be one of {COORD_DISTS}")


def _wishart_bartlett(rng: np.random.Generator, a: int, dof: int, size=()) -> np.ndarray:
    """Draws of Wishart_a(dof, I) (dof >= a) as L L^T, Bartlett's factor L.

    L is lower triangular with N(0, 1) entries below the diagonal and
    L[i, i] = sqrt(chi2(dof - i)) for 0-based i.  ``size`` prepends batch
    axes; all below-diagonal normals are drawn first, then all chi-squares.
    """
    size = tuple(size)
    below, diag = _bartlett_slots(a)
    L = np.zeros((*size, a, a))
    L[(..., *below)] = rng.standard_normal((*size, a * (a - 1) // 2))
    L[(..., *diag)] = np.sqrt(rng.chisquare(dof - diag[0], (*size, a)))
    return L @ np.swapaxes(L, -1, -2)


@cache
def _bartlett_slots(a: int) -> tuple:
    """The index arrays of an a x a factor's below-diagonal and diagonal entries."""
    return np.tril_indices(a, -1), np.diag_indices(a)


def sample_design(
    blocks: Sequence[tuple[int, float]],
    n: int,
    rng: np.random.Generator,
    coord_dist: str = "gaussian",
) -> np.ndarray:
    """Draw a design whose rows have covariance diag(eigenvalues), given as
    (count, value) blocks, up to the end of the last nonzero block.

    Row i is sqrt(eigs) * eta_i elementwise: each block's columns are scaled
    in place by the square root of its value.  The zero columns past the
    last nonzero block are neither drawn nor returned.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ends = np.cumsum([count for count, _ in blocks])
    width = max((int(e) for e, (_, v) in zip(ends, blocks) if v), default=0)
    X = _coord_draws(rng, (n, width), coord_dist)
    for end, (count, value) in zip(ends, blocks):
        X[:, end - count:end] *= np.sqrt(value)
    return X


def sample_designs(env: ExperimentConfig, replicate: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The (pretrain, fine-tune) designs of one replicate of env's master seed, one stream each."""
    X = sample_design(env.spectrum_pre, env.pretrain_samples,
                      derive_rng(env.master_seed, "design_pre", replicate), env.coord_dist)
    X_tilde = sample_design(env.spectrum_ft, env.n,
                            derive_rng(env.master_seed, "design_ft", replicate), env.coord_dist)
    return X, X_tilde


def sample_theta_c(env: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw theta_c uniform on the sphere of radius env.theta_c_norm.

    ``fix_theta_c`` runs hold one such draw fixed across every replicate.
    """
    theta_c = rng.standard_normal(env.p)
    norm = np.linalg.norm(theta_c)
    if norm == 0.0:  # probability-zero draw; resample deterministically
        theta_c = np.ones(env.p)
        norm = np.sqrt(env.p)
    return theta_c * (env.theta_c_norm / norm)
