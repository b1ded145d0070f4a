import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from overadapt.config import ExperimentConfig, config_from_dict
from overadapt.estimators import EstimatorKind, SingularDesignError
from overadapt.harness import evaluate_seed, run_sweep, write_results
from overadapt.presets import preset_defaults, preset_points
from overadapt.mc import _MC_BATCH, _mc_risk_draws, mc_expected_risks, row_space
from overadapt.risk import TERM_KEYS, AnalyticRisk, DesignPair, lemma_approx_risk
from overadapt.synth import (
    derive_rng,
    sample_design,
    sample_designs,
    sample_theta_c,
)
from oracles import (
    CountingRng,
    dense_risk_terms,
    mc_dense_risk_draws,
    mc_pointwise_risk_draws,
    padded,
    pair_of,
    random_block_instance,
)

ALL_KINDS = [
    EstimatorKind.pretrained(),
    EstimatorKind.ridgeless(),
    EstimatorKind.ridge(0.05),
    EstimatorKind.ensemble(0.05, 0.4),
]


def desk_env(p=400, n=20, **overrides):
    base = dict(
        n=n, p=p, p_tilde=2 * n, k_star=1, gamma_pre=float(n) ** -1.5, gamma_ft=1.0 / n,
        zeta1=1e-4, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
        theta_c_norm=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def draw_designs(env, seed=0):
    X = sample_design(env.spectrum_pre, env.pretrain_samples,
                      derive_rng(seed, "design_pre", 0), env.coord_dist)
    Xt = sample_design(env.spectrum_ft, env.n,
                       derive_rng(seed, "design_ft", 0), env.coord_dist)
    return X, Xt


def draw_pair(env, seed=0, theta_c=None):
    return pair_of(*draw_designs(env, seed), env, theta_c=theta_c)


# the variances the dense oracle is given; the spectra are the pair's blocks
ORACLE_ENV = ExperimentConfig(zeta1=0.3, zeta2=0.7, sigma2=0.2, sigma2_tilde=0.4,
                              theta_c_norm=1.3)


# ------------------------------------------------- analytic vs dense oracle

def test_analytic_terms_match_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        X, Xt, blocks_pre, blocks_ft = random_block_instance(
            rng, n=5, p=11, p_tilde=7, k_star=2)
        ev = AnalyticRisk(DesignPair(X, Xt, blocks_pre, blocks_ft), ORACLE_ENV)
        for lam, tau in [(0.0, 1.0), (0.01, 1.0), (0.05, 0.35), (0.2, 0.8),
                         (0.0, 0.0), (1.0, 0.5)]:
            kind = EstimatorKind.ensemble(lam, tau) if 0 < tau < 1 else (
                EstimatorKind.pretrained() if tau == 0 else (
                    EstimatorKind.ridgeless() if lam == 0 else EstimatorKind.ridge(lam)))
            for task in ("pre", "ft"):
                _, got = ev.task_risk(kind, task)
                want = dense_risk_terms(
                    X, Xt, blocks_pre, blocks_ft, 0.3, 0.7, 0.2, 0.4,
                    *kind.effective, task, theta_c_norm=1.3)
                for key in TERM_KEYS:
                    assert got[key] == pytest.approx(
                        want[key], rel=1e-9, abs=1e-12), (trial, lam, tau, task, key)


def test_analytic_fixed_theta_c_matches_dense_oracle():
    rng = np.random.default_rng(8)
    X, Xt, blocks_pre, blocks_ft = random_block_instance(rng, n=4, p=9, p_tilde=6)
    tc = rng.standard_normal(9)
    tc *= 1.3 / np.linalg.norm(tc)
    ev = AnalyticRisk(DesignPair(X, Xt, blocks_pre, blocks_ft, theta_c=tc), ORACLE_ENV)
    for lam, tau in [(0.0, 1.0), (0.03, 0.6), (0.5, 1.0), (0.0, 0.0)]:
        kind = EstimatorKind.ensemble(lam, tau) if 0 < tau < 1 else (
            EstimatorKind.pretrained() if tau == 0 else (
                EstimatorKind.ridgeless() if lam == 0 else EstimatorKind.ridge(lam)))
        for task in ("pre", "ft"):
            got = ev.task_risk(kind, task)[1]["bias_thetac"]
            want = dense_risk_terms(X, Xt, blocks_pre, blocks_ft, 0.3, 0.7, 0.2, 0.4,
                                    *kind.effective, task, theta_c=tc)["bias_thetac"]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


# -------------------------------------------------------- structural checks

def test_analytic_additivity_and_nonnegative_terms():
    env = desk_env()
    ev = AnalyticRisk(draw_pair(env, seed=1), env)
    for kind in ALL_KINDS:
        for task in ("pre", "ft"):
            value, terms = ev.task_risk(kind, task)
            assert value == pytest.approx(sum(terms.values()), rel=1e-10)
            assert all(v >= 0.0 for v in terms.values())


def test_zero_variance_row_space_theta_c_gives_zero():
    env = desk_env(zeta1=0.0, zeta2=0.0, sigma2=0.0, sigma2_tilde=0.0)
    X, Xt = draw_designs(env, seed=2)
    tc = X.T @ np.ones(env.n)
    tc *= env.theta_c_norm / np.linalg.norm(tc)
    pair = pair_of(X, Xt, env, theta_c=tc)
    value, _ = AnalyticRisk(pair, env).task_risk(EstimatorKind.pretrained(), "pre")
    assert value <= 1e-12


def test_pretrained_ft_task_shift_term_frozen_value():
    # environment with the literal 40-eigenvalue fine-tune support:
    # zeta2 * trace = 0.01 * (1 + 39 * 0.025) = 0.019750
    env = ExperimentConfig(
        n=40, p=200, p_tilde=40, k_star=1, gamma_pre=40.0**-1.5, gamma_ft=0.025,
        zeta1=1e-4, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
    )
    _, terms = AnalyticRisk(draw_pair(env, seed=3), env).task_risk(EstimatorKind.pretrained(),
                                                                    "ft")
    assert terms["term_zeta2"] == pytest.approx(0.019750, rel=1e-12)


def test_tau_quadraticity_of_ensemble_ft_risk():
    env = desk_env()
    ev = AnalyticRisk(draw_pair(env, seed=4), env)
    lam = 1e-3
    vals = {t: ev.task_risk(EstimatorKind.ensemble(lam, t), "ft")[0]
            for t in (0.0, 0.25, 0.5, 1.0)}
    # quadratic through {0, 1/2, 1} must reproduce the value at 1/4
    c = vals[0.0]
    a = 2 * vals[0.0] - 4 * vals[0.5] + 2 * vals[1.0]
    b = vals[1.0] - c - a
    assert a * 0.25**2 + b * 0.25 + c == pytest.approx(vals[0.25], rel=1e-9)


def test_ridge_risk_continuous_to_ridgeless():
    env = desk_env()
    ev = AnalyticRisk(draw_pair(env, seed=5), env)
    for task in ("ft", "pre"):
        tiny, _ = ev.task_risk(EstimatorKind.ridge(1e-12), task)
        zero, _ = ev.task_risk(EstimatorKind.ridgeless(), task)
        assert tiny == pytest.approx(zero, rel=1e-6)


def test_shared_support_trace_identity():
    # with a common tail value the two covariances agree on the fine-tune
    # support, so the resolvent traces coincide
    n, p = 20, 300
    gamma = 0.05
    env = desk_env(p=p, n=n, gamma_pre=gamma, gamma_ft=gamma)
    res = draw_pair(env, seed=6).resolvent
    for lam in (0.0, 1e-3, 0.1):
        t_pre, t_ft = res.traces(lam, "pre"), res.traces(lam, "ft")
        assert t_pre["t1"] == pytest.approx(t_ft["t1"], rel=1e-10)
        assert t_pre["t2"] == pytest.approx(t_ft["t2"], rel=1e-10)


def _dense_traces(gram, S, nlam):
    """tr{R^-k S} (k = 1..3) and tr{R^-k At S} (k = 2, 3) by dense solves."""
    R = gram + nlam * np.eye(len(gram))
    r1 = np.linalg.solve(R, S)
    r2 = np.linalg.solve(R, r1)
    ria = np.linalg.solve(R, gram)
    return {"t1": np.trace(r1), "t2": np.trace(r2), "t3": np.trace(ria @ r1),
            "t4": np.trace(np.linalg.solve(R, r2)), "t5": np.trace(ria @ r2)}


@pytest.mark.parametrize("duplicated", [False, True])
def test_ft_resolvent_traces_match_dense_solves(duplicated):
    rng = np.random.default_rng(12)
    n, p = 6, 30
    Xt = rng.standard_normal((n, p))
    if duplicated:
        Xt[1] = Xt[0]  # singular Gram: jitter rescues it
    eigs = np.linspace(1.0, 0.1, p)
    blocks = [(1, v) for v in eigs]
    res = DesignPair(rng.standard_normal((n, p)), Xt, blocks, blocks, jitter=duplicated).resolvent
    assert (res.solver.jitter_applied > 0) == duplicated
    S = (Xt * eigs) @ Xt.T
    for lam in (0.0, 1e-7, 1e-3):
        got, want = res.traces(lam), _dense_traces(res.solver.gram, S, n * lam)
        for key in got:
            if duplicated and lam == 0.0 and key == "t4":
                # tr{R^-3 S} has condition number cond(R)^3 ~ 1e37 here: rounding
                # of the null direction would decide it, so it is undefined
                assert np.isnan(got[key])
                continue
            assert got[key] == pytest.approx(want[key], rel=1e-6 if duplicated else 1e-10), \
                (lam, key)


@pytest.mark.parametrize("with_theta_c", [False, True])
def test_term_dlam_matches_central_differences(with_theta_c):
    # every Term of the exact evaluator, full H included, on both tasks
    env = desk_env()
    theta_c = fixed_theta_c(env) if with_theta_c else None
    ev = AnalyticRisk(draw_pair(env, seed=8, theta_c=theta_c), env)
    res, lam = ev.resolvent, 0.01
    h = 1e-5 * lam
    for task in ("pre", "ft"):
        for key, term in ev.terms[task].items():
            got = term.dlam(res.d(lam), env.n)
            up, down = term.at(res.d(lam + h)), term.at(res.d(lam - h))
            assert got[0] == 0.0
            for coef in (1, 2):
                fd = (up[coef] - down[coef]) / (2 * h)
                assert got[coef] == pytest.approx(fd, rel=1e-6), (task, key, coef)


# ------------------------------------------------------------- Monte Carlo

def test_mc_matches_analytic_within_3se():
    env = desk_env()
    pair = draw_pair(env, seed=7)
    ev = AnalyticRisk(pair, env)
    for i, kind in enumerate(ALL_KINDS):
        mc = mc_expected_risks(pair, replace(env, mc_draws=4000), [kind],
                               derive_rng(100 + i, "mc", 0))[0]
        for task in ("pre", "ft"):
            mean, se = mc[task]
            gap = abs(mean - ev.task_risk(kind, task)[0])
            assert gap <= 3 * se, (kind.name, task)


def test_mc_noise_only_environment():
    env = desk_env(zeta1=0.0, zeta2=0.0, sigma2=0.0, theta_c_norm=0.0)
    pair = draw_pair(env, seed=8)
    mc = mc_expected_risks(pair, replace(env, mc_draws=4000), [EstimatorKind.ridgeless()],
                           derive_rng(9, "mc", 0))[0]
    exact, terms = AnalyticRisk(pair, env).task_risk(EstimatorKind.ridgeless(), "ft")
    assert exact == pytest.approx(terms["term_sigma_tilde"])
    mean, se = mc["ft"]
    assert abs(mean - exact) <= 3 * se


def test_mc_se_scales_with_draws():
    env = desk_env()
    pair = draw_pair(env, seed=9)
    kind = EstimatorKind.ridge(1e-3)
    se_small = mc_expected_risks(pair, replace(env, mc_draws=100), [kind],
                                 derive_rng(1, "mc", 0))[0]["ft"][1]
    se_big = mc_expected_risks(pair, replace(env, mc_draws=10_000), [kind],
                               derive_rng(2, "mc", 0))[0]["ft"][1]
    ratio = se_small / se_big
    assert 10.0 / 1.3 <= ratio <= 10.0 * 1.3


def test_mc_exact_zero_when_deterministic():
    env = desk_env(zeta1=0.0, zeta2=0.0, sigma2=0.0, sigma2_tilde=0.0,
                   theta_c_norm=0.0)
    mc = mc_expected_risks(draw_pair(env, seed=10), replace(env, mc_draws=50),
                           [EstimatorKind.ridge(1e-3)], derive_rng(3, "mc", 0))[0]
    assert mc["pre"][0] == 0.0 and mc["ft"][0] == 0.0
    assert mc["pre"][1] == 0.0


def test_mc_reproducible_and_validates_draws():
    env = desk_env()
    pair = draw_pair(env, seed=11)
    kind = EstimatorKind.ensemble(1e-3, 0.5)
    a = mc_expected_risks(pair, replace(env, mc_draws=500), [kind], derive_rng(4, "mc", 0))[0]
    b = mc_expected_risks(pair, replace(env, mc_draws=500), [kind], derive_rng(4, "mc", 0))[0]
    assert a["ft"][0] == b["ft"][0] and a["pre"][0] == b["pre"][0]
    with pytest.raises(ValueError):
        mc_expected_risks(pair, replace(env, mc_draws=0), [kind], derive_rng(4, "mc", 0))


def small_dof_env(**overrides):
    # n_pre + n = 7 stacked rows: the unit block (8 columns) keeps 1 off-span
    # dimension, the shared tail (9 columns) 2, the pretrain-only block
    # (4 columns, spanned by X's 4 rows) none
    base = dict(n=3, n_pre=4, p=21, p_tilde=17, k_star=8, gamma_pre=0.3, gamma_ft=0.5,
                zeta1=0.05, zeta2=0.1, sigma2=0.05, sigma2_tilde=0.1, theta_c_norm=1.0)
    base.update(overrides)
    return ExperimentConfig(**base)


def one_block_env(**overrides):
    # one flat spectrum, 30 coordinates and 5 design rows: the off-span part of
    # every draw (25 dimensions) carries most of the risk and of its spread
    base = dict(n=2, n_pre=3, p=30, p_tilde=30, k_star=1, gamma_pre=1.0, gamma_ft=1.0,
                zeta1=1 / 30, zeta2=1 / 30, sigma2=0.01, sigma2_tilde=0.01, theta_c_norm=1.0)
    base.update(overrides)
    return ExperimentConfig(**base)


def fixed_theta_c(env, seed=0):
    return sample_theta_c(env, derive_rng(seed, "params", 0))


def block_ranks(X, Xt, env, theta_c=None):
    """Rank of each constant-spectrum block's stacked design columns."""
    cuts = sorted({0, *(int(end) for blocks in (env.spectrum_pre, env.spectrum_ft)
                        for end in np.cumsum([count for count, _ in blocks]))})
    rows = [X, Xt] if theta_c is None else [X, Xt, theta_c[None, :]]
    C = np.vstack([padded(r, env.p) for r in rows])
    return [np.linalg.matrix_rank(C[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("seed", [19, 23])  # the design seeds the tests below use
def test_small_dof_env_has_off_span_dof_0_1_2(seed):
    env = small_dof_env()
    X, Xt = draw_designs(env, seed=seed)
    sizes = np.diff([0, 8, 17, 21])
    assert list(sizes - block_ranks(X, Xt, env)) == [1, 2, 0]


@pytest.mark.parametrize("name", ["bartlett", "fixed_theta_c", "small_dof", "one_block",
                                  "one_block_fixed_theta_c"])
def test_mc_reduced_law_matches_dense_draws(name):
    # two-sample KS test of the per-draw risks of the row-space draw against
    # dense p-dimensional draws; 10 comparisons per instance at p > 1e-3
    env = {"small_dof": small_dof_env, "one_block": one_block_env,
           "one_block_fixed_theta_c": one_block_env}.get(name, lambda: desk_env(p=60, n=8))()
    X, Xt = draw_designs(env, seed=19)
    theta_c = fixed_theta_c(env) if name.endswith("fixed_theta_c") else None
    draws = 4000
    reduced = _mc_risk_draws(pair_of(X, Xt, env, theta_c=theta_c), replace(env, mc_draws=draws),
                             ALL_KINDS, derive_rng(7, "mc", 0))
    dense = mc_dense_risk_draws(X, Xt, env, ALL_KINDS, draws, derive_rng(8, "mc", 0),
                                theta_c=theta_c)
    for kind, got, want in zip(ALL_KINDS, reduced, dense):
        for task in ("pre", "ft"):
            assert ks_2samp(got[task], want[task]).pvalue > 1e-3, (kind, task)
    # the joint law across points and tasks, through paired differences
    for stat in (lambda r: r[1]["ft"] - r[0]["ft"], lambda r: r[3]["pre"] - r[3]["ft"]):
        assert ks_2samp(stat(reduced), stat(dense)).pvalue > 1e-3


def _high_draw_case(name):
    kinds = ALL_KINDS
    theta_c = None
    if name == "small_dof_and_unequal_n":
        env = small_dof_env()
    elif name == "zero_zeta1_zeta2_sigma2":
        env = desk_env(p=60, n=6, zeta1=0.0, zeta2=0.0, sigma2=0.0)
    elif name == "fixed_theta_c":
        env = one_block_env()
        theta_c = fixed_theta_c(env)
    elif name == "rademacher":
        env = desk_env(p=60, n=6, coord_dist="rademacher")
    elif name == "p_tilde_below_n":
        env = desk_env(p=60, n=6, p_tilde=4)
        # the fine-tune Gram is singular: only penalised fine-tuning is defined
        kinds = [EstimatorKind.pretrained(), EstimatorKind.ridge(0.05),
                 EstimatorKind.ensemble(0.05, 0.4), EstimatorKind.ensemble(0.5, 0.7)]
    else:
        env = desk_env(p=60, n=6, n_pre=12)
    return env, kinds, theta_c


HIGH_DRAW_CASES = ["small_dof_and_unequal_n", "zero_zeta1_zeta2_sigma2", "fixed_theta_c",
                   "rademacher", "p_tilde_below_n", "n_pre_above_n"]


@pytest.mark.parametrize("name", HIGH_DRAW_CASES)
def test_mc_matches_analytic_at_high_draw_counts(name):
    # 48 points over the cases: each within 4 SE (a 3e-3 chance of any false
    # alarm), at a standard error of at most 1% of the risk
    env, kinds, theta_c = _high_draw_case(name)
    pair = draw_pair(env, seed=23, theta_c=theta_c)
    ev = AnalyticRisk(pair, env)
    risks = mc_expected_risks(pair, replace(env, mc_draws=40_000), kinds,
                              derive_rng(23, "mc", 0))
    for kind, mc in zip(kinds, risks):
        for task in ("pre", "ft"):
            exact, _ = ev.task_risk(kind, task)
            mean, se = mc[task]
            assert abs(mean - exact) <= 4 * se, (kind, task, mean, se, exact)
            assert se <= 0.01 * exact, (kind, task)


@pytest.mark.parametrize("with_theta_c", [False, True])
def test_mc_variates_per_draw_do_not_grow_with_p(with_theta_c):
    per_draw = []
    for full in (False, True):
        env = ExperimentConfig(case="a", p=10_000 if full else 2000)
        X, Xt = sample_designs(env)  # replicate 0 of master seed 0
        theta_c = fixed_theta_c(env) if with_theta_c else None
        rng = CountingRng(derive_rng(0, "mc", 0))
        mc_expected_risks(pair_of(X, Xt, env, theta_c=theta_c), replace(env, mc_draws=1024),
                          ALL_KINDS, rng)
        ranks = block_ranks(X, Xt, env, theta_c)
        assert rng.count % 1024 == 0
        per_draw.append(rng.count // 1024)
        assert per_draw[-1] <= 3 * sum(ranks) + X.shape[0] + Xt.shape[0] + 6 * len(ranks)
    assert per_draw[0] == per_draw[1]  # p = 2000 and p = 10^4


def _same_mc(shared, single, kind):
    for task in ("pre", "ft"):
        assert shared[task][0] == single[task][0], (kind, task)
        assert shared[task][1] == single[task][1], (kind, task)


def test_mc_shared_draws_equal_single_kind_calls():
    env = desk_env()
    pair = draw_pair(env, seed=17)
    kinds = [EstimatorKind.ridgeless(), EstimatorKind.ridge(0.05),
             EstimatorKind.ridge(0.2), EstimatorKind.ensemble(0.05, 0.4)]
    # 1100 draws: two full batches and a partial one
    env = replace(env, mc_draws=1100)
    shared = mc_expected_risks(pair, env, kinds, derive_rng(5, "mc", 0))
    assert len(shared) == len(kinds)
    for kind, got in zip(kinds, shared):
        _same_mc(got, mc_expected_risks(pair, env, [kind], derive_rng(5, "mc", 0))[0], kind)


def test_mc_shared_draws_without_fine_tuning_keep_pretrained_stream():
    # every draw takes the fine-tune noise, so the tau = 0 points of a shared
    # call read the numbers of a pretrained-only call
    env = desk_env()
    pair = draw_pair(env, seed=18)
    kinds = [EstimatorKind.pretrained(), EstimatorKind.ensemble(0.05, 0.0),
             EstimatorKind.ridge(0.05)]
    env = replace(env, mc_draws=700)
    shared = mc_expected_risks(pair, env, kinds, derive_rng(6, "mc", 0))
    single = mc_expected_risks(pair, env, [kinds[0]], derive_rng(6, "mc", 0))[0]
    for kind, got in zip(kinds, shared[:2]):
        _same_mc(got, single, kind)


POINTWISE_KINDS = [*ALL_KINDS, EstimatorKind.ensemble(0.05, 0.0),
                   EstimatorKind.ensemble(0.05, 0.75), EstimatorKind.ridge(0.2),
                   EstimatorKind.ensemble(0.2, 0.3)]


@pytest.mark.parametrize("name", ["random_theta_c", "fixed_theta_c", "zero_zeta_sigma2",
                                  "fixed_theta_c_zero_zeta_sigma2", "small_dof"])
def test_mc_coefficients_match_the_pointwise_reference(name):
    # c0 + tau (c1 + tau c2) equals each point's estimate hat0 + tau step,
    # formed and weighed in full on the same stream; 1100 draws end on a
    # partial batch, and tau = 0 points read c0 alone, bit for bit
    zero = dict(zeta1=0.0, zeta2=0.0, sigma2=0.0) if "zero" in name else {}
    env = small_dof_env() if name == "small_dof" else desk_env(**zero)
    theta_c = fixed_theta_c(env) if name.startswith("fixed") else None
    pair = draw_pair(env, seed=19, theta_c=theta_c)
    got = _mc_risk_draws(pair, replace(env, mc_draws=1100), POINTWISE_KINDS,
                         derive_rng(9, "mc", 0))
    want = mc_pointwise_risk_draws(pair, env, POINTWISE_KINDS, 1100, derive_rng(9, "mc", 0))
    for kind, g, w in zip(POINTWISE_KINDS, got, want):
        for task in ("pre", "ft"):
            assert g[task].shape == (1100,)
            if kind.effective[1] == 0.0:
                assert np.array_equal(g[task], w[task]), (kind, task)
            else:
                np.testing.assert_allclose(g[task], w[task], rtol=1e-12, atol=0,
                                           err_msg=f"{kind} {task}")


def _mc_peak(pair, env, kinds, draws=2000):
    """tracemalloc's peak during one ``_mc_risk_draws`` call, above what was held
    before it, and the call's result.

    A first, untraced call builds the pair's solvers and warms the code path,
    so the traced one allocates only what every call allocates.
    """
    env = replace(env, mc_draws=draws)
    _mc_risk_draws(pair, env, kinds, derive_rng(0, "mc", 0))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        risks = _mc_risk_draws(pair, env, kinds, derive_rng(0, "mc", 0))
        return tracemalloc.get_traced_memory()[1] - held, risks
    finally:
        tracemalloc.stop()


def _returned_bytes(risks) -> int:
    """The per-draw risk arrays a call returns, with their containers."""
    return sys.getsizeof(risks) + sum(
        sys.getsizeof(point) + sum(sys.getsizeof(r) for r in point.values())
        for point in risks)


def preset_a_points():
    return preset_points(config_from_dict({"case": "a", **preset_defaults("a")}))


def test_mc_memory_grows_with_points_only_by_the_returned_draws():
    # the batch arrays are allocated once per call whatever the number of
    # points: 54 points over 22 lambdas hold only their per-draw risks more
    # than 4 do, and beside the returned risks a call holds its six rank x
    # batch arrays, three n x batch arrays (the labels, their noise and the
    # Gram solves' results, which the solves write into) and, under 1.5 more
    # n x batch arrays, the row-space coordinates and the off-span Grams
    # (4.45 n x batch arrays beside the rank x batch ones, measured on numpy 2.4)
    env = ExperimentConfig(case="a")
    pair = DesignPair.draw(env, 0)
    kinds = preset_a_points()
    assert len(kinds) == 54
    few, few_risks = _mc_peak(pair, env, kinds[:4])
    many, many_risks = _mc_peak(pair, env, kinds)
    assert many - few <= _returned_bytes(many_risks) - _returned_bytes(few_risks)
    rank = sum(F.shape[1] for F in row_space(pair))
    batch = 8 * _MC_BATCH  # bytes per row of a batch array
    assert few - _returned_bytes(few_risks) <= batch * (6 * rank + 4.5 * max(pair.n_pre, pair.n))


def test_mc_memory_does_not_grow_with_p():
    peaks = []
    for full in (False, True):  # p = 2000 and p = 10^4
        env = ExperimentConfig(case="a", p=10_000 if full else 2000)
        pair = DesignPair.draw(env, 0)
        peaks.append(_mc_peak(pair, env, preset_a_points())[0])
    assert peaks[0] == peaks[1]


def test_pair_and_exact_evaluator_memory_does_not_grow_with_p():
    # the spectra reach the pair as blocks: beside the drawn designs, a seed's
    # pair and exact evaluator hold no length-p array (no eigenvalue vector, no
    # zero-padded fine-tune design, no scan of the design columns)
    def build(p):
        env = config_from_dict({"case": "a", "p": p})
        X = sample_design(env.spectrum_pre, env.n, derive_rng(0, "design_pre", 0))
        Xt = sample_design(env.spectrum_ft, env.n, derive_rng(0, "design_ft", 0))
        assert X.shape == (env.n, p) and Xt.shape == (env.n, env.p_tilde)
        AnalyticRisk(pair_of(X, Xt, env), env)
        return X.nbytes + Xt.nbytes

    build(2000)  # loads what the first build loads once
    peaks = []
    for p in (2000, 10**5):
        tracemalloc.start()
        try:
            designs = build(p)
            peaks.append(tracemalloc.get_traced_memory()[1] - designs)
        finally:
            tracemalloc.stop()
    # a length-p array would grow by 8 (10^5 - 2000) bytes, 784 kB; the peaks
    # differ only by the interpreter's own small allocations
    assert peaks[1] - peaks[0] < 8 * 1000, peaks


def mc_sweep_config(**overrides):
    raw = {
        "case": None, "n": 10, "p": 120, "p_tilde": 20, "k_star": 1,
        "gamma_pre": 0.05, "gamma_ft": 0.1,
        "zeta1": 1e-4, "zeta2": 1e-2, "sigma2": 1e-2, "sigma2_tilde": 1e-2,
        "master_seed": 3, "replicates": 2,
        "lambda_grid": [1e-3, 1e-2], "tau_grid": [0.0, 0.5, 1.0],
        "mc_draws": 600, "methods": ["analytic", "monte_carlo"],
    }
    raw.update(overrides)
    return config_from_dict(raw)


def test_sweep_mc_rows_equal_per_kind_calls():
    cfg = mc_sweep_config()
    rows = [r for r in run_sweep(cfg, workers=1).rows if r.method == "monte_carlo"]
    checked = 0
    for seed in range(cfg.replicates):
        X = sample_design(cfg.spectrum_pre, cfg.pretrain_samples,
                          derive_rng(cfg.master_seed, "design_pre", seed), cfg.coord_dist)
        Xt = sample_design(cfg.spectrum_ft, cfg.n,
                           derive_rng(cfg.master_seed, "design_ft", seed), cfg.coord_dist)
        pair = pair_of(X, Xt, cfg)
        for r in rows:
            if r.seed != seed:
                continue
            kind = EstimatorKind(r.estimator, lam=r.lam or 0.0,
                                 tau=1.0 if r.tau is None else r.tau)
            rng = derive_rng(cfg.master_seed, "mc", seed)
            want = mc_expected_risks(pair, cfg, [kind], rng)[0]
            assert (r.value, r.se) == want[r.task]
            checked += 1
    # pretrained, ridgeless, two ridge levels and six ensembles, both tasks
    assert checked == cfg.replicates * (1 + 1 + 2 + 2 * 3) * 2


def test_sweep_mc_bytes_equal_at_one_and_two_workers(tmp_path):
    cfg = mc_sweep_config(replicates=3, mc_draws=300)
    paths = []
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.csv"
        write_results(run_sweep(cfg, workers=workers).rows, path, "csv")
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# ---------------------------------------------------------- lemma shortcut

def test_lemma_pretrained_is_pure_task_shift():
    env = desk_env()
    lemma = lemma_approx_risk(draw_pair(env, seed=12), env)
    kind = EstimatorKind.pretrained()
    assert lemma.task_risk(kind, "ft")[0] == env.zeta2 * (1 + 39 * 0.05)  # zeta2 tr D_ft
    assert lemma.task_risk(kind, "pre")[0] == 0.0


def test_lemma_ensemble_tau1_equals_ridge():
    env = desk_env()
    pair = draw_pair(env, seed=13)
    lam = 1e-3
    lemma = lemma_approx_risk(pair, env)
    for task in ("ft", "pre"):
        ens, _ = lemma.task_risk(EstimatorKind.ensemble(lam, 1.0), task)
        ridge, _ = lemma.task_risk(EstimatorKind.ridge(lam), task)
        assert ens == pytest.approx(ridge, rel=1e-14)


def test_lemma_rows_are_the_analytic_two_terms():
    # a fine-tune support smaller than n makes the Gram singular, so jitter applies
    cfg = config_from_dict({"n": 8, "p": 60, "p_tilde": 5, "gamma_pre": 8.0**-1.5,
                            "gamma_ft": 0.1, "master_seed": 3, "fix_theta_c": True,
                            "jitter": True, "methods": ["analytic", "lemma_approx"]})
    assert cfg == desk_env(p=60, n=8, p_tilde=5, gamma_ft=0.1, master_seed=3, fix_theta_c=True,
                           jitter=True, methods=["analytic", "lemma_approx"])
    kinds = ALL_KINDS + [EstimatorKind.ensemble(0.0, 0.7), EstimatorKind.ridge(1e-9)]
    rows = evaluate_seed(cfg, 0, kinds)
    by_method = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r)
    assert len(by_method["lemma_approx"]) == len(by_method["analytic"]) == 2 * len(kinds)
    for exact, approx in zip(by_method["analytic"], by_method["lemma_approx"]):
        assert (exact.estimator, exact.lam, exact.tau, exact.task) == \
            (approx.estimator, approx.lam, approx.tau, approx.task)
        for key in ("term_zeta2", "term_sigma_tilde"):
            assert getattr(approx, key) == pytest.approx(getattr(exact, key), rel=1e-12, abs=0)
        assert approx.value == pytest.approx(
            exact.term_zeta2 + exact.term_sigma_tilde, rel=1e-12, abs=0)


@pytest.mark.parametrize("raw", [
    pytest.param({"n": 8, "p": 60, "p_tilde": 5, "gamma_pre": 8.0**-1.5, "gamma_ft": 0.1},
                 id="rank-deficient-ft"),
    pytest.param({"n": 8, "p": 12, "p_tilde": 10, "n_pre": 20, "gamma_pre": 0.3,
                  "gamma_ft": 0.1}, id="rank-deficient-pre-and-ft"),
])
def test_jittered_rank_deficient_rows_agree_with_mc(raw):
    # a null direction u of a jittered Gram carries rounding noise, not 0, in
    # u^T S u; weighted 1/jitter it would swamp every closed-form row
    kinds = [EstimatorKind.pretrained(), EstimatorKind.ridgeless(), EstimatorKind.ridge(1e-3),
             EstimatorKind.ensemble(0.0, 0.5), EstimatorKind.ensemble(1e-3, 0.3)]
    for master_seed in range(4):
        cfg = config_from_dict({**raw, "jitter": True, "master_seed": master_seed,
                                "mc_draws": 20_000,
                                "methods": ["analytic", "monte_carlo", "lemma_approx"]})
        rows = evaluate_seed(cfg, 0, kinds)
        by_method = {m: [r for r in rows if r.method == m] for m in cfg.methods}
        assert [len(b) for b in by_method.values()] == [2 * len(kinds)] * 3
        for exact, mc, lemma in zip(*by_method.values()):
            assert (exact.estimator, exact.lam, exact.tau, exact.task) == \
                (mc.estimator, mc.lam, mc.tau, mc.task)
            for closed in (exact, lemma):
                assert 0.0 <= closed.value < np.inf, (closed.method, closed.task)
            gap = abs(mc.value - exact.value)
            assert gap <= 3 * mc.se, (master_seed, exact.estimator, exact.task)


def test_lemma_within_band_of_analytic_on_bench_instance():
    env = desk_env(p=2000, n=40)
    pair = draw_pair(env, seed=14)
    lam = 1e-3
    approx, _ = lemma_approx_risk(pair, env).task_risk(EstimatorKind.ridge(lam), "ft")
    exact, _ = AnalyticRisk(pair, env).task_risk(EstimatorKind.ridge(lam), "ft")
    ratio = approx / exact
    assert 0.8 <= ratio <= 1.25


# ------------------------------------------------------------ error handling

def test_singular_ft_gram_raises_at_lambda_zero():
    env = desk_env(p_tilde=1, gamma_ft=0.0)
    ev = AnalyticRisk(draw_pair(env, seed=15), env)
    with pytest.raises(SingularDesignError):
        ev.task_risk(EstimatorKind.ridgeless(), "pre")
    # the pretrained estimator never touches the fine-tune resolvent
    value, _ = ev.task_risk(EstimatorKind.pretrained(), "ft")
    assert np.isfinite(value)
