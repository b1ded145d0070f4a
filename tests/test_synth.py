import numpy as np
import pytest

from overadapt.spectra import SpectrumSpec
from overadapt.synth import (
    TaskEnvironment,
    derive_rng,
    sample_design,
    sample_designs,
    sample_theta_c,
)


def small_env(**overrides):
    base = dict(
        n=8,
        spectrum_pre=SpectrumSpec(1, 0.1, 40, 40),
        spectrum_ft=SpectrumSpec(1, 0.2, 40, 16),
        zeta1=1e-3, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
        theta_c_norm=1.0,
    )
    base.update(overrides)
    return TaskEnvironment(**base)


# ---------------------------------------------------------------- streams

def test_derive_rng_reproducible_and_disjoint():
    a = derive_rng(7, "params", 3).standard_normal(5)
    b = derive_rng(7, "params", 3).standard_normal(5)
    assert np.array_equal(a, b)
    c = derive_rng(7, "params", 4).standard_normal(5)
    d = derive_rng(7, "noise_ft", 3).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        derive_rng(7, "nope", 0)


# ---------------------------------------------------------------- designs

def test_design_zero_block_columns():
    spec = SpectrumSpec(1, 0.0, 5, 1)  # lone unit eigenvalue, all-zero tail
    assert spec.blocks == ((1, 1.0), (4, 0.0))  # the empty tail block is left out
    X = sample_design(spec, 4, derive_rng(0, "design_ft", 0))
    assert X.shape == (4, 1)  # the zero columns are not drawn
    assert np.all(X[:, 0] != 0.0)
    zero_tail = SpectrumSpec(1, 0.0, 5, 3)  # drawn, then scaled to zero
    X = sample_design(zero_tail, 4, derive_rng(0, "design_ft", 0))
    assert X.shape == (4, 3) and np.all(X[:, 1:] == 0.0)


@pytest.mark.parametrize("p_tilde", [7, 12])
def test_design_is_the_scaled_draw_padded_with_zeros(p_tilde):
    spec = SpectrumSpec(2, 0.3, 12, p_tilde)
    # the returned block is the draw, scaled per block; the p - p_tilde zero
    # columns that pad it to the full design are implied, not materialised
    X = sample_design(spec, 5, derive_rng(4, "design_ft", 0))
    Z = derive_rng(4, "design_ft", 0).standard_normal((5, p_tilde))
    want = Z * np.sqrt(np.r_[1.0, 1.0, np.full(p_tilde - 2, 0.3)])
    assert X.shape == (5, p_tilde)
    assert np.array_equal(X, want)


def test_design_identity_coordinate_variance():
    p = 4
    spec = SpectrumSpec(k_star=p, gamma=0.0, p=p, p_tilde=p)
    X = sample_design(spec, 100_000, derive_rng(1, "design_pre", 0))
    var = X.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.03)


def test_design_row_norm_matches_trace():
    spec = SpectrumSpec(1, 0.004, 1000, 1000)
    X = sample_design(spec, 10_000, derive_rng(2, "design_pre", 0))
    mean_sq = np.mean(np.sum(X * X, axis=1))
    trace = 1 + 999 * 0.004
    assert abs(mean_sq - trace) < 0.03 * trace


def test_design_rademacher_rows():
    p = 6
    spec = SpectrumSpec(k_star=p, gamma=0.0, p=p, p_tilde=p)
    X = sample_design(spec, 50, derive_rng(3, "design_pre", 0), coord_dist="rademacher")
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
    X, X_tilde = sample_designs(env, master_seed=0)
    assert X.shape == (20, env.p)
    assert X_tilde.shape == (env.n, env.spectrum_ft.p_tilde)


@pytest.mark.parametrize("coord_dist", ["gaussian", "rademacher"])
def test_design_pair_streams(coord_dist):
    env = small_env(n_pre=12, coord_dist=coord_dist)
    X, Xt = sample_designs(env, master_seed=4, replicate=2)
    assert np.array_equal(X, sample_design(env.spectrum_pre, 12,
                                           derive_rng(4, "design_pre", 2), coord_dist))
    assert np.array_equal(Xt, sample_design(env.spectrum_ft, env.n,
                                            derive_rng(4, "design_ft", 2), coord_dist))


def test_environment_validation():
    with pytest.raises(ValueError):
        small_env(zeta2=-1.0)
    with pytest.raises(ValueError):
        small_env(spectrum_ft=SpectrumSpec(1, 0.2, 41, 16))  # mismatched p
    with pytest.raises(ValueError):
        small_env(coord_dist="cauchy")
    # the config's rule: every variance and the theta_c norm is finite and non-negative
    for name in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be a finite non-negative"):
                small_env(**{name: value})
