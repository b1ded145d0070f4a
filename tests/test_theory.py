import json
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from overadapt.config import ConfigError, ExperimentConfig
from overadapt.estimators import EstimatorKind
from overadapt import mc as mc_module
from overadapt import synth, theory
from overadapt.risk import AnalyticRisk, DesignPair, FtResolvent
from overadapt.synth import _wishart_bartlett, derive_rng
from overadapt.theory import (
    _tail_gram_extremes,
    eigen_band_check,
    lambda_prime,
    tau_prime,
    theorem_check_env,
    verify_theorem_orderings,
)
from oracles import CountingRng, at_tau, seed_outcome_oracle, two_term


def bench_env(p=600, n=24):
    return theorem_check_env(p=p, n=n)


def draw_pair(env, seed=0):
    return DesignPair.draw(replace(env, master_seed=seed), 0)


def draw_ev(env, seed=0):
    return AnalyticRisk(draw_pair(env, seed), env)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def dlam(ev, lam, objective="ft"):
    """d/d(lam) of the two-term ridge risk (tau = 1)."""
    return at_tau(two_term(ev, lam, objective, dlam=True), 1.0)


def dtau(ev, lam, tau, objective="ft"):
    """d/d(tau) of the two-term ensemble risk."""
    _, a1, a2 = two_term(ev, lam, objective)
    return a1 + 2.0 * tau * a2


# -------------------------------------------------------------- lambda_prime

def test_lambda_prime_values():
    def env_with(s2t, z2, n):
        return ExperimentConfig(
            n=n, p=100, p_tilde=100, k_star=1, gamma_pre=0.01, gamma_ft=0.01,
            zeta1=1e-4, zeta2=z2, sigma2=1e-2, sigma2_tilde=s2t,
        )
    assert lambda_prime(env_with(0.0, 1e-2, 40)) == 0.0
    assert lambda_prime(env_with(1e-2, 1e-2, 40)) == pytest.approx(0.025, rel=1e-12)
    half = lambda_prime(env_with(1e-2, 1e-2, 80))
    assert half == pytest.approx(lambda_prime(env_with(1e-2, 1e-2, 40)) / 2, rel=1e-15)
    with pytest.raises(ValueError):
        lambda_prime(env_with(1e-2, 0.0, 40))


@pytest.mark.parametrize("n", [0, -2])
def test_theorem_check_env_refuses_n_below_one(n):
    # its tails n^-1.5 and 1/n are formed from n: n = 0 gets the config's error
    # too, not a ZeroDivisionError
    with pytest.raises(ConfigError, match=f"n: must be a positive integer, got {n}$"):
        theorem_check_env(n=n)


# ----------------------------------------------------------------- tau_prime

def test_tau_prime_is_one_at_lambda_prime():
    env = bench_env()
    lam_star = lambda_prime(env)
    for seed in range(5):
        assert abs(tau_prime(draw_ev(env, seed), lam_star) - 1.0) <= 1e-10


def test_tau_prime_interior_and_grid_argmin():
    env = bench_env(p=2000, n=40)
    ev = draw_ev(env, 1)
    ts = tau_prime(ev, 0.0)
    assert 0.0 < ts < 1.0
    taus = np.round(np.arange(0.0, 1.0001, 1e-3), 9)
    quads = ev.term_quadratics(0.0, "ft")
    vals = np.array([sum(at_tau(q, t) for q in quads.values()) for t in taus])
    assert abs(taus[int(np.argmin(vals))] - ts) <= 2e-3


def test_tau_prime_decreases_with_noise():
    env = bench_env()
    pair = draw_pair(env, 2)
    values = []
    for s2t in (1e-3, 1e-2, 1e-1, 1.0):
        noisy = replace(env, sigma2_tilde=s2t)
        values.append(tau_prime(AnalyticRisk(pair, noisy), 0.0))
    assert all(a > b for a, b in zip(values, values[1:]))


# ------------------------------------------------------------- derivatives

def test_ft_derivative_sign_and_zero():
    env = bench_env()
    ev = draw_ev(env, 3)
    lam_star = lambda_prime(env)
    t = ev.resolvent.traces(lam_star)
    scale = 2 * env.n * (env.zeta2 * env.n * lam_star + env.sigma2_tilde) * t["t4"]
    assert abs(dlam(ev, lam_star)) <= 1e-12 * scale
    assert dlam(ev, lam_star / 2) < 0.0
    assert dlam(ev, 2 * lam_star) > 0.0


def test_sum_derivative_signs():
    env = bench_env()
    ev = draw_ev(env, 4)
    lam_star = lambda_prime(env)
    assert dlam(ev, lam_star, "sum") < 0.0
    assert dlam(ev, 2 * lam_star, "sum") <= 0.0


def test_derivatives_match_finite_differences():
    env = bench_env()
    ev = draw_ev(env, 5)
    lam0, tau0 = 0.01, 0.45
    h = 1e-5 * lam0
    for objective in ("ft", "sum"):
        fd_lam = central_diff(lambda l: at_tau(two_term(ev, l, objective), 1.0), lam0, h)
        assert dlam(ev, lam0, objective) == pytest.approx(fd_lam, rel=1e-4)
        q = two_term(ev, lam0, objective)
        fd_tau = central_diff(lambda u: at_tau(q, u), tau0, 1e-6)
        assert dtau(ev, lam0, tau0, objective) == pytest.approx(fd_tau, rel=1e-4)


def test_dtau_stationary_points():
    env = bench_env()
    ev = draw_ev(env, 6)
    lam = 0.005
    ts = tau_prime(ev, lam)
    scale = 2 * env.zeta2 * ev.resolvent.traces(lam)["t1"]
    assert abs(dtau(ev, lam, ts)) <= 1e-10 * scale
    assert abs(dtau(ev, lam, ts / 2, "sum")) <= 1e-10 * scale
    # below the optimal ridge level the weight-1 slope is strictly positive
    assert dtau(ev, lam, 1.0) > 0.0


# ------------------------------------------------------------- ordering suite

def test_verify_orderings_bench_run():
    env = bench_env()
    report = verify_theorem_orderings(replace(env, replicates=8, master_seed=0))
    assert report.rates["item1"] >= 0.9
    assert report.rates["item2"] >= 0.9
    assert report.rates["item3"] >= 0.9
    again = verify_theorem_orderings(replace(env, replicates=8, master_seed=0))
    assert asdict(report) == asdict(again)


def test_verify_orderings_eigendecompose_each_design_once(monkeypatch):
    # tau_prime reads the exact evaluator's fine-tune resolvent: one eigh per design
    env = bench_env()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    verify_theorem_orderings(replace(env, replicates=3, master_seed=0))
    assert len(calls) == 2 * 3


def test_verify_orderings_reads_the_weights_once_per_lambda_and_task(monkeypatch):
    # tau_prime reads the seed's evaluator: d at lam = 0 and at the default
    # grid's three levels, once per task
    calls = []
    d = FtResolvent.d
    monkeypatch.setattr(FtResolvent, "d", lambda self, lam: calls.append(lam) or d(self, lam))
    verify_theorem_orderings(replace(theorem_check_env(), replicates=1, master_seed=0))
    assert len(calls) == 2 * (1 + 3)


def test_verify_frees_each_seed_before_the_next_draw(monkeypatch):
    # a seed's pair and exact evaluator are garbage before the next seed draws
    # its designs, so no two seeds' reductions are alive at once
    refs, alive = [], []
    draw = synth.sample_design

    def sample(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return draw(*args, **kwargs)

    def evaluate(pair, env):
        ev = AnalyticRisk(pair, env)
        refs.extend((weakref.ref(pair), weakref.ref(ev)))
        return ev

    monkeypatch.setattr(synth, "sample_design", sample)
    monkeypatch.setattr(theory, "AnalyticRisk", evaluate)
    verify_theorem_orderings(replace(bench_env(), replicates=3, master_seed=0))
    assert len(refs) == 2 * 3 and alive == [0] * (2 * 3)


def test_verify_orderings_reads_its_run_from_the_config():
    # the seed count, the master seed and both grids are the config's
    env = replace(bench_env(), replicates=3, master_seed=4, lambda_grid=[2e-2, 1e-3],
                  tau_grid=[0.25, 1.0])
    report = verify_theorem_orderings(env)
    assert (report.env["seeds"], report.env["master_seed"]) == (3, 4)
    assert [seed.seed for seed in report.seeds] == [0, 1, 2]
    assert report.lambda_grid == env.lambda_grid == (1e-3, 2e-2)
    assert report.tau_grid == env.tau_grid == (0.25, 1.0)
    assert all(seed.tau_star.keys() == {"0.001", "0.02"} for seed in report.seeds)
    # seed k is replicate k of the config's master seed: a one-replicate run at
    # master seed 4 reports the first seed's outcome, one at master seed 5 does not
    first = lambda env: json.dumps(asdict(verify_theorem_orderings(env).seeds[0]))  # noqa: E731
    assert first(env) == first(replace(env, replicates=1))
    assert first(env) != first(replace(env, replicates=1, master_seed=5))


def test_theorem_check_env_grid_brackets_lambda_prime():
    assert (theorem_check_env().p, theorem_check_env().n) == (2000, 40)
    for env in (theorem_check_env(), bench_env()):
        lam = lambda_prime(env)
        assert env.lambda_grid == (lam / 2, lam, 2 * lam)


def test_verify_orderings_tau_one_is_tie():
    env = bench_env()
    lam_star = lambda_prime(env)
    report = verify_theorem_orderings(
        replace(env, replicates=2, master_seed=1, lambda_grid=[lam_star / 2], tau_grid=[1.0]))
    for seed in report.seeds:
        assert seed.ties["item3"] >= 1  # ensemble at weight 1 equals its ridge leg


def test_orderings_table_matches_the_hand_written_chains():
    # the table against the chains written out by hand, dumped as JSON so that
    # NaN margins compare equal
    def outcome(env, rep):
        got = json.dumps(asdict(theory._seed_outcome(env, rep)), sort_keys=True)
        assert got == json.dumps(asdict(seed_outcome_oracle(env, rep)), sort_keys=True)
        return json.loads(got)

    env = theorem_check_env(p=400, n=16)
    for rep in range(4):
        outcome(env, rep)
    # with ten times the fine-tune noise, interpolation loses to the pretrained
    # model, so item1's last link decides its verdict
    assert outcome(replace(env, sigma2_tilde=10 * env.sigma2_tilde), 0)["holds"]["item1"] is False
    # each lam range's ends: item3 takes 0, items 1 and 2 take exactly
    # 2 lambda', and no item takes 3 lambda'; at lambda'/100 ridge is so close
    # to ridgeless that a chain missing a link would show in its margin
    lam = lambda_prime(env)
    outcome(replace(env, lambda_grid=(0.0, lam / 100, lam / 2, lam, 2 * lam, 3 * lam)), 0)
    for level, items in ((0.0, {"item3"}), (2 * lam, {"item1", "item2"}), (3 * lam, set())):
        seed = outcome(replace(env, lambda_grid=(level,)), 0)
        assert {i for i, held in seed["holds"].items() if held is not None or seed["ties"][i]} \
            == items


def test_monte_carlo_confirms_the_orderings():
    # the ORDERINGS chains at each seed's tau'(lam), all kinds on one call's
    # shared draws: wherever an adjacent pair's exact gap exceeds 5 of MC's
    # paired standard errors, MC's mean gap has its sign.  The setup (n = 10,
    # 64,000 draws, master seeds 0-3) was fixed before the test was first run
    decisive = dict.fromkeys(theory.ORDERINGS, 0)
    for seed in range(4):
        env = replace(theorem_check_env(p=2000, n=10), mc_draws=64_000, master_seed=seed)
        pair = DesignPair.draw(env, 0)
        ev = AnalyticRisk(pair, env)
        chains = []  # (item, tasks, kinds best first)
        for lam in env.lambda_grid:
            ts = tau_prime(ev, lam)
            for item, (tasks, in_range, tau_from, chain) in theory.ORDERINGS.items():
                if not in_range(lam, lambda_prime(env)):
                    continue
                taus = [None] if tau_from is None else sorted(
                    {t for t in env.tau_grid if tau_from * ts <= t} | {min(tau_from * ts, 1.0)})
                for tau in taus:
                    given = {"lam": lam, "tau": tau}
                    chains.append((item, tasks, [EstimatorKind(name, **{
                        k: given[k] for k in EstimatorKind.PARAMS[name]}) for name in chain]))
        kinds = list(dict.fromkeys(kind for *_, chain in chains for kind in chain))
        draws = dict(zip(kinds, mc_module._mc_risk_draws(pair, env, kinds,
                                                         derive_rng(seed, "mc", 0))))
        for item, tasks, chain in chains:
            for better, worse in zip(chain, chain[1:]):
                gap = sum(ev.task_risk(worse, t)[0] - ev.task_risk(better, t)[0] for t in tasks)
                diff = sum(draws[worse][t] - draws[better][t] for t in tasks)
                if abs(gap) > 5 * np.std(diff, ddof=1) / np.sqrt(diff.size):
                    decisive[item] += 1
                    assert np.sign(diff.mean()) == np.sign(gap), (seed, item, better, worse)
    assert min(decisive.values()) >= 1, decisive


def test_ordering_report_serialization():
    env = bench_env()
    report = verify_theorem_orderings(replace(env, replicates=2, master_seed=2))
    payload = json.loads(json.dumps(asdict(report), sort_keys=True))
    assert payload["rates"].keys() == {"item1", "item2", "item3"}
    # each spectrum as its (count, value) blocks: k_star ones, the tail, the zeros
    assert payload["env"]["spectrum_pre"] == [[1, 1.0], [env.p - 1, env.gamma_pre]]
    assert payload["env"]["spectrum_ft"] == [[1, 1.0], [env.p_tilde - 1, env.gamma_ft],
                                             [env.p - env.p_tilde, 0.0]]
    assert len(payload["seeds"]) == 2
    for seed in payload["seeds"]:
        assert seed["holds"].keys() == seed["ties"].keys() == {"item1", "item2", "item3"}


def test_ridge_at_optimum_beats_interpolation_per_instance():
    env = bench_env()
    lam_star = lambda_prime(env)
    strict = 0
    for seed in range(10):
        ev = AnalyticRisk(draw_pair(env, seed), env)
        ridge, _ = ev.task_risk(EstimatorKind.ridge(lam_star), "ft")
        ridgeless, _ = ev.task_risk(EstimatorKind.ridgeless(), "ft")
        assert ridge <= ridgeless
        strict += ridge < ridgeless
    assert strict >= 9  # strict in at least 90% of seeds


# ------------------------------------------------------- eigen concentration

def test_eigen_band_check_concentrates():
    n = 10
    p = 200 * n
    report = eigen_band_check(0.01, p - 1, n=n, trials=100, rng=derive_rng(0, "eigen", 0))
    assert report.regime_ok
    assert report.scale == 0.01 * (p - 1)  # gamma times the tail's size, its effective rank
    assert report.rate >= 0.95


def test_eigen_band_zero_tail_flagged():
    for gamma, r_k in ((0.0, 49), (0.3, 0)):  # a zero tail, and no tail block
        report = eigen_band_check(gamma, r_k, n=5, trials=10, rng=derive_rng(1, "eigen", 0))
        assert not report.regime_ok
        assert report.scale == 0.0
        assert "zero" in report.note


def test_eigen_band_single_sample_scalar_case():
    report = eigen_band_check(0.05, 399, n=1, trials=50, rng=derive_rng(2, "eigen", 0))
    assert report.regime_ok  # effective rank p-1 is far above b*n = 1
    assert report.scale == 0.05 * 399
    assert report.rate >= 0.9


def test_eigen_band_regime_violation_reported_not_fatal():
    report = eigen_band_check(0.01, 19, n=100, trials=5, rng=derive_rng(3, "eigen", 0))
    assert not report.regime_ok
    assert report.scale == 0.01 * 19
    assert "regime violated: r_k = 19 < n = 100" in report.note
    assert report.trials == 5


# ------------------------------------------- tail Gram: exact Wishart draw

def dense_tail_extremes(rng, n, tail):
    """Reference: form the n x m Gaussian coordinate block and its Gram directly."""
    Z = rng.standard_normal((n, tail.size))
    evs = np.linalg.eigvalsh((Z * tail) @ Z.T)
    return evs[0], evs[-1]


def test_wishart_extremes_match_dense_draws():
    n, m, gamma, trials = 10, 1999, 0.01, 2000
    tail = np.full(m, gamma)
    rng_w, rng_d = derive_rng(0, "eigen", 1), derive_rng(0, "eigen", 2)
    wishart = np.array([_tail_gram_extremes(rng_w, n, gamma, m)
                        for _ in range(trials)])
    dense = np.array([dense_tail_extremes(rng_d, n, tail)
                      for _ in range(trials)])
    assert ks_2samp(wishart[:, 0], dense[:, 0]).pvalue > 0.01
    assert ks_2samp(wishart[:, 1], dense[:, 1]).pvalue > 0.01


@pytest.mark.parametrize("n, m", [(10, 1999), (30, 7)])
def test_wishart_trace_mean(n, m):
    # tr G = gamma * chi2(n m): mean gamma n m, variance 2 n m gamma^2
    gamma, trials = 0.01, 2000
    rng = derive_rng(1, "eigen", 0)
    a, dof = sorted((n, m))
    traces = np.array([gamma * np.trace(_wishart_bartlett(rng, a, dof))
                       for _ in range(trials)])
    se = np.sqrt(2 * n * m) * gamma / np.sqrt(trials)
    assert abs(traces.mean() - gamma * n * m) <= 4 * se


def test_wishart_rank_deficient_tail_has_zero_eigenvalue():
    n, m = 30, 20  # more samples than tail directions
    rng = derive_rng(4, "eigen", 0)
    for _ in range(5):
        smallest, largest = _tail_gram_extremes(rng, n, 0.01, m)
        assert smallest == 0.0 < largest
    report = eigen_band_check(0.01, m, n=n, trials=50, band=(1e-12, 1e12),
                              rng=derive_rng(4, "eigen", 1))
    assert report.inside == 0


def test_wishart_single_sample_is_scaled_chi_square():
    m, gamma = 399, 0.05
    for seed in range(5):
        smallest, largest = _tail_gram_extremes(derive_rng(seed, "eigen", 0), 1, gamma, m)
        expected = gamma * derive_rng(seed, "eigen", 0).chisquare(m)
        assert smallest == largest == pytest.approx(expected, rel=1e-14)


def test_gaussian_band_check_draws_triangle_not_block():
    n, m, trials = 40, 8000, 5
    rng = CountingRng(derive_rng(6, "eigen", 0))
    eigen_band_check(0.01, m, n=n, trials=trials, rng=rng)
    assert rng.count == trials * n * (n + 1) // 2  # not trials * n * m
