from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from overadapt.config import ConfigError, ExperimentConfig
from overadapt.synth import (
    derive_rng,
    sample_design,
    sample_designs,
    sample_theta_c,
)


def small_env(**overrides):
    base = dict(
        n=8, p=40, p_tilde=16, k_star=1, gamma_pre=0.1, gamma_ft=0.2,
        zeta1=1e-3, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
        theta_c_norm=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- streams

def test_derive_rng_reproducible_and_disjoint():
    a = derive_rng(7, "params", 3).standard_normal(5)
    b = derive_rng(7, "params", 3).standard_normal(5)
    assert np.array_equal(a, b)
    c = derive_rng(7, "params", 4).standard_normal(5)
    d = derive_rng(7, "design_ft", 3).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        derive_rng(7, "nope", 0)


# ---------------------------------------------------------------- designs

def test_design_zero_block_columns():
    # a design stops at the end of its last nonzero block: neither the zeros
    # past the support nor a zero tail is drawn
    want = derive_rng(0, "design_ft", 0).standard_normal((4, 1))
    for blocks in (((1, 1.0), (4, 0.0)), ((1, 1.0), (2, 0.0), (2, 0.0))):
        X = sample_design(blocks, 4, derive_rng(0, "design_ft", 0))
        assert np.array_equal(X, want)
    # the zero-tail config draws its fine-tune design at width k_star
    env = small_env(k_star=2, gamma_ft=0.0)
    assert env.spectrum_ft == ((2, 1.0), (14, 0.0), (24, 0.0))
    assert sample_designs(env)[1].shape == (env.n, 2)
    # a zero block before a nonzero one is drawn, then scaled to zero
    X = sample_design(((1, 1.0), (2, 0.0), (1, 0.5)), 4, derive_rng(0, "design_ft", 0))
    assert X.shape == (4, 4) and np.all(X[:, 1:3] == 0.0) and np.all(X[:, 3] != 0.0)


@pytest.mark.parametrize("p_tilde", [7, 12])
def test_design_is_the_scaled_draw_padded_with_zeros(p_tilde):
    blocks = small_env(k_star=2, gamma_ft=0.3, p=12, p_tilde=p_tilde).spectrum_ft
    # the returned block is the draw, scaled per block; the p - p_tilde zero
    # columns that pad it to the full design are implied, not materialised
    X = sample_design(blocks, 5, derive_rng(4, "design_ft", 0))
    Z = derive_rng(4, "design_ft", 0).standard_normal((5, p_tilde))
    want = Z * np.sqrt(np.r_[1.0, 1.0, np.full(p_tilde - 2, 0.3)])
    assert X.shape == (5, p_tilde)
    assert np.array_equal(X, want)


def test_design_identity_coordinate_variance():
    p = 4
    X = sample_design(((p, 1.0),), 100_000, derive_rng(1, "design_pre", 0))
    var = X.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.03)


def test_design_row_norm_matches_trace():
    X = sample_design(((1, 1.0), (999, 0.004)), 10_000, derive_rng(2, "design_pre", 0))
    mean_sq = np.mean(np.sum(X * X, axis=1))
    trace = 1 + 999 * 0.004
    assert abs(mean_sq - trace) < 0.03 * trace


def test_design_rademacher_rows():
    p = 6
    X = sample_design(((p, 1.0),), 50, derive_rng(3, "design_pre", 0), coord_dist="rademacher")
    assert set(np.unique(X)) <= {-1.0, 1.0}
    assert np.all(np.sum(X * X, axis=1) == p)


# ------------------------------------------------------------- parameters

def test_parameters_theta_c_norm():
    env = small_env(theta_c_norm=2.5)
    tc = sample_theta_c(env, derive_rng(1, "params", 0))
    assert tc.shape == (env.p,)
    assert np.linalg.norm(tc) == pytest.approx(2.5, rel=1e-12)


# ------------------------------------------------------------- design pairs

def test_distinct_pretrain_sample_count():
    env = small_env(n_pre=20)
    X, X_tilde = sample_designs(env)
    assert X.shape == (20, env.p)
    assert X_tilde.shape == (env.n, env.p_tilde)


@pytest.mark.parametrize("coord_dist", ["gaussian", "rademacher"])
def test_design_pair_streams(coord_dist):
    env = small_env(n_pre=12, coord_dist=coord_dist)
    X, Xt = sample_designs(replace(env, master_seed=4), replicate=2)
    assert np.array_equal(X, sample_design(env.spectrum_pre, 12,
                                           derive_rng(4, "design_pre", 2), coord_dist))
    assert np.array_equal(Xt, sample_design(env.spectrum_ft, env.n,
                                            derive_rng(4, "design_ft", 2), coord_dist))


def test_environment_validation():
    # the model is the config, validated once on construction and frozen after
    with pytest.raises(FrozenInstanceError):
        small_env().n = 3
    with pytest.raises(ConfigError, match="zeta2: must be a finite non-negative"):
        small_env(zeta2=-1.0)
    with pytest.raises(ConfigError, match="coord_dist: must be one of"):
        small_env(coord_dist="cauchy")
    # every variance and the theta_c norm is finite and non-negative
    for name in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{name}: must be a finite non-negative"):
                small_env(**{name: value})
