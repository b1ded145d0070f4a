import numpy as np
import pytest

from overadapt.spectra import SpectrumSpec
from overadapt.synth import (
    Condition2Thresholds,
    TaskEnvironment,
    check_condition2,
    derive_rng,
    gen_labels,
    sample_design,
    sample_designs,
    sample_instance,
    sample_parameters,
)


def small_env(**overrides):
    base = dict(
        n=8,
        spectrum_pre=SpectrumSpec(1, 0.1, 40, 40),
        spectrum_ft=SpectrumSpec(1, 0.2, 40, 16),
        zeta1=1e-3, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
        theta_c_norm=1.0, xi=0.5,
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
    X = sample_design(spec, 4, derive_rng(0, "design_ft", 0))
    assert np.all(X[:, 1:] == 0.0)
    assert np.any(X[:, 0] != 0.0)


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
    assert abs(mean_sq - spec.trace) < 0.03 * spec.trace


def test_design_rademacher_rows():
    p = 6
    spec = SpectrumSpec(k_star=p, gamma=0.0, p=p, p_tilde=p)
    X = sample_design(spec, 50, derive_rng(3, "design_pre", 0), coord_dist="rademacher")
    assert set(np.unique(X)) <= {-1.0, 1.0}
    assert np.all(np.sum(X * X, axis=1) == p)


# ------------------------------------------------------------- parameters

def test_parameters_zero_variances_exact():
    env = small_env(zeta1=0.0, zeta2=0.0)
    _, a1, a2 = sample_parameters(env, derive_rng(0, "params", 0))
    assert np.all(a1 == 0.0) and np.all(a2 == 0.0)


def test_parameters_theta_c_norm():
    env = small_env(theta_c_norm=2.5)
    tc, _, _ = sample_parameters(env, derive_rng(1, "params", 0))
    assert np.linalg.norm(tc) == pytest.approx(2.5, rel=1e-12)


def test_parameters_alpha2_scale():
    env = small_env(spectrum_pre=SpectrumSpec(1, 0.1, 200, 200),
                    spectrum_ft=SpectrumSpec(1, 0.1, 200, 200), zeta2=1e-2)
    rng = derive_rng(2, "params", 0)
    vals = [np.sum(sample_parameters(env, rng)[2] ** 2) / 200 for _ in range(1000)]
    assert abs(np.mean(vals) - env.zeta2) < 0.03 * env.zeta2


def test_parameters_alpha_independence():
    env = small_env()
    draws = 1000
    rng = derive_rng(4, "params", 0)
    firsts = np.array([[a1[0], a2[0]] for _, a1, a2 in
                       (sample_parameters(env, rng) for _ in range(draws))])
    corr = np.corrcoef(firsts[:, 0], firsts[:, 1])[0, 1]
    assert abs(corr) <= 4 / np.sqrt(draws)


# ------------------------------------------------------------------ labels

def test_labels_noiseless_exact():
    rng = derive_rng(0, "noise_pre", 0)
    X = np.arange(12.0).reshape(3, 4)
    theta = np.array([1.0, -1.0, 0.5, 0.0])
    assert np.array_equal(gen_labels(X, theta, 0.0, rng), X @ theta)


def test_labels_identity_design_picks_column():
    rng = derive_rng(0, "noise_pre", 0)
    X = np.eye(5)
    theta = np.zeros(5)
    theta[0] = 1.0
    assert np.array_equal(gen_labels(X, theta, 0.0, rng), X[:, 0])


def test_labels_noise_variance():
    X = np.zeros((10_000, 3))
    y = gen_labels(X, np.zeros(3), 0.01, derive_rng(5, "noise_ft", 0))
    assert abs(np.var(y) - 0.01) < 0.05 * 0.01


def test_labels_negative_variance_rejected():
    with pytest.raises(ValueError):
        gen_labels(np.eye(2), np.ones(2), -1e-9, derive_rng(0, "noise_pre", 0))


# --------------------------------------------------------------- instances

def test_instance_bit_reproducible():
    env = small_env()
    a = sample_instance(env, master_seed=11, replicate=2)
    b = sample_instance(env, master_seed=11, replicate=2)
    for name in ("theta_c", "alpha1", "alpha2", "X", "Y", "X_tilde", "Y_tilde"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = sample_instance(env, master_seed=11, replicate=3)
    assert not np.array_equal(a.X, c.X)


def test_instance_invariants():
    env = small_env()
    inst = sample_instance(env, master_seed=0)
    pt = env.spectrum_ft.p_tilde
    assert np.all(inst.X_tilde[:, pt:] == 0.0)
    assert np.linalg.norm(inst.theta_c) == pytest.approx(
        env.theta_c_norm, rel=1e-12)
    assert np.array_equal(inst.theta, inst.theta_c + inst.alpha1)
    assert np.array_equal(inst.theta_tilde, inst.theta_c + inst.alpha2)


def test_instance_fixed_theta_c():
    env = small_env()
    tc = np.zeros(env.p)
    tc[0] = env.theta_c_norm
    inst = sample_instance(env, master_seed=0, theta_c=tc)
    assert np.array_equal(inst.theta_c, tc)
    bad = tc * 2
    with pytest.raises(ValueError):
        sample_instance(env, master_seed=0, theta_c=bad)


def test_instance_save_load_round_trip(tmp_path):
    env = small_env()
    inst = sample_instance(env, master_seed=9, replicate=1)
    path = tmp_path / "inst.npz"
    inst.save(path)
    back = type(inst).load(path)
    assert np.array_equal(back.X, inst.X)
    assert np.array_equal(back.Y_tilde, inst.Y_tilde)
    assert back.seed == 9 and back.replicate == 1


def test_distinct_pretrain_sample_count():
    env = small_env(n_pre=20)
    inst = sample_instance(env, master_seed=0)
    assert inst.X.shape[0] == 20
    assert inst.X_tilde.shape[0] == env.n


@pytest.mark.parametrize("coord_dist", ["gaussian", "rademacher"])
def test_design_pair_streams(coord_dist):
    env = small_env(n_pre=12, coord_dist=coord_dist)
    X, Xt = sample_designs(env, master_seed=4, replicate=2)
    assert np.array_equal(X, sample_design(env.spectrum_pre, 12,
                                           derive_rng(4, "design_pre", 2), coord_dist))
    assert np.array_equal(Xt, sample_design(env.spectrum_ft, env.n,
                                            derive_rng(4, "design_ft", 2), coord_dist))
    inst = sample_instance(env, master_seed=4, replicate=2)
    assert np.array_equal(inst.X, X) and np.array_equal(inst.X_tilde, Xt)


def test_environment_validation():
    with pytest.raises(ValueError):
        small_env(zeta2=-1.0)
    with pytest.raises(ValueError):
        small_env(spectrum_ft=SpectrumSpec(1, 0.2, 41, 16))  # mismatched p
    with pytest.raises(ValueError):
        small_env(coord_dist="cauchy")
    with pytest.raises(ValueError):
        small_env(xi=1.5)


# -------------------------------------------------------------- diagnostics

def test_condition2_boundary_support():
    # support size equal to the sample count trips the strict p_tilde > n item
    env = TaskEnvironment(
        n=40,
        spectrum_pre=SpectrumSpec(1, 40.0**-1.5, 10_000, 10_000),
        spectrum_ft=SpectrumSpec(1, 1 / 40, 10_000, 40),
        zeta1=1e-4, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2, xi=0.5,
    )
    report = check_condition2(env)
    item = {it.name: it for it in report.items}["pt_gt_n"]
    assert item.status == "warn"
    assert "boundary" in item.note


def test_condition2_equal_noise_scales_pass():
    env = small_env(zeta2=1e-2, sigma2_tilde=1e-2)
    report = check_condition2(env)
    item = {it.name: it for it in report.items}["zeta2_vs_sigma2_tilde"]
    assert item.status == "pass"
    assert item.value == pytest.approx(1.0)


def test_condition2_p_equals_n_fails_growth():
    env = TaskEnvironment(
        n=16,
        spectrum_pre=SpectrumSpec(1, 0.1, 16, 16),
        spectrum_ft=SpectrumSpec(1, 0.1, 16, 16),
        zeta1=1e-4, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2, xi=0.5,
    )
    report = check_condition2(env)
    item = {it.name: it for it in report.items}["p_over_n"]
    assert item.status == "warn"


def test_condition2_informational_ratio():
    env = small_env()
    report = check_condition2(env)
    item = {it.name: it for it in report.items}["pt_gamma_vs_noise"]
    assert item.status == "info"
    pt, g = env.spectrum_ft.p_tilde, env.spectrum_ft.gamma
    assert item.value == pytest.approx(pt * g * env.zeta2 / env.sigma2_tilde)


def test_condition2_requires_xi_and_never_raises_on_items():
    env = small_env(xi=None)
    with pytest.raises(ValueError):
        check_condition2(env)
    report = check_condition2(small_env(), Condition2Thresholds(omega_ratio=1e9))
    assert report.items  # violated items are reported, not raised
    assert not report.all_pass
    assert isinstance(report.to_dict()["items"], list)
