"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Bench dimension is p = 2000 throughout; the preset runs accept
--full via the CLI for the 10^4-dimensional version but the criteria here
are pinned at bench scale.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from overadapt._blas import single_threaded
from overadapt.estimators import EstimatorKind, GramSolver
from overadapt.config import ExperimentConfig, config_from_dict
from overadapt.harness import run_preset, run_sweep, write_results
from overadapt.presets import FT_ONLY_LAMBDA, RIDGE_FAMILY, TRADEOFF_LAMBDA
from overadapt.mc import mc_expected_risks
from overadapt.risk import AnalyticRisk, DesignPair
from overadapt.synth import derive_rng, sample_design, sample_designs, sample_theta_c
from overadapt.theory import (
    eigen_band_check,
    lambda_prime,
    tau_prime,
    theorem_check_env,
    verify_theorem_orderings,
)
from oracles import at_tau, estimator_oracle, padded, pair_of, two_term

MASTER_SEED = 0


@pytest.fixture(scope="module", autouse=True)
def _one_blas_thread():
    """Run this module's in-process linear algebra on one BLAS thread, as the
    CLI and the forked sweep workers do; the caller's counts come back afterwards."""
    with single_threaded():
        yield


def report(index, ok, detail):
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index}: {detail}"


def desk_instance_env(p=500, n=20):
    return ExperimentConfig(
        n=n, p=p, p_tilde=2 * n, k_star=1, gamma_pre=float(n) ** -1.5, gamma_ft=1.0 / n,
        zeta1=1e-4, zeta2=1e-2, sigma2=1e-2, sigma2_tilde=1e-2,
        theta_c_norm=1.0,
    )


def test_c01_tiny_scale_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(n + 1, 13))
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        Xt = rng.standard_normal((n, p))
        Yt = rng.standard_normal(n)
        lam = float(rng.uniform(0.01, 1.0))
        tau = float(rng.uniform(0.0, 1.0))
        # the estimator maps of the Monte-Carlo evaluator: theta1, then one
        # fine-tune step per penalty, the ensemble a point along the step
        st = GramSolver(Xt @ Xt.T)
        theta1 = X.T @ GramSolver(X @ X.T).solve(Y)
        resid = Yt - Xt @ theta1
        step = Xt.T @ st.solve(resid, nlam=n * lam)
        estimates = {
            "pretrained": theta1,
            "ridgeless_ft": theta1 + Xt.T @ st.solve(resid),
            "ridge_ft": theta1 + step,
            "ensemble": theta1 + tau * step,
        }
        for name, got in estimates.items():
            want = estimator_oracle(name, X, Y, Xt, Yt, lam=lam, tau=tau)
            worst = max(worst, np.linalg.norm(got - want)
                        / max(np.linalg.norm(want), 1e-300))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-8 and elapsed < 5.0,
           f"worst relative gap {worst:.2e} vs dense oracle over 50 instances, "
           f"{elapsed:.2f}s")


def test_c02_interpolation_and_ridge_limits():
    env = desk_instance_env()
    worst_interp = worst_small = worst_large = 0.0
    n = env.n
    for seed in range(20):
        # one instance per replicate: designs, theta_c and both offsets from
        # the params stream, each task's label noise from its own stream
        X, Xt = sample_designs(replace(env, master_seed=MASTER_SEED), seed)
        Xt = padded(Xt, env.p)  # the fine-tune design with its zero columns
        params = derive_rng(MASTER_SEED, "params", seed)
        theta_c = sample_theta_c(env, params)
        alpha1 = params.standard_normal(env.p) * np.sqrt(env.zeta1)
        alpha2 = params.standard_normal(env.p) * np.sqrt(env.zeta2)
        noise_pre = derive_rng(MASTER_SEED, "noise_pre", seed).standard_normal(X.shape[0])
        noise_ft = derive_rng(MASTER_SEED, "noise_ft", seed).standard_normal(n)
        Y = X @ (theta_c + alpha1) + noise_pre * np.sqrt(env.sigma2)
        Yt = Xt @ (theta_c + alpha2) + noise_ft * np.sqrt(env.sigma2_tilde)
        st = GramSolver(Xt @ Xt.T)
        theta1 = X.T @ GramSolver(X @ X.T).solve(Y)
        resid = Yt - Xt @ theta1
        theta2 = theta1 + Xt.T @ st.solve(resid)
        worst_interp = max(worst_interp, np.max(np.abs(Xt @ theta2 - Yt)) / np.max(np.abs(Yt)))
        tiny = theta1 + Xt.T @ st.solve(resid, nlam=n * 1e-12)
        worst_small = max(worst_small,
                          np.linalg.norm(tiny - theta2) / np.linalg.norm(theta2))
        huge = theta1 + Xt.T @ st.solve(resid, nlam=n * 1e12)
        worst_large = max(worst_large,
                          np.linalg.norm(huge - theta1) / np.linalg.norm(theta1))
    ok = worst_interp <= 1e-8 and worst_small <= 1e-6 and worst_large <= 1e-6
    report(2, ok,
           f"20/20 instances: interpolation {worst_interp:.2e}, "
           f"lam->0 gap {worst_small:.2e}, lam->inf gap {worst_large:.2e}")


def test_c03_analytic_vs_monte_carlo():
    start = time.perf_counter()
    env = ExperimentConfig(case="a")  # p=2000, n=40, simulation constants
    kinds = [
        EstimatorKind.pretrained(),
        EstimatorKind.ridgeless(),
        EstimatorKind.ridge(1e-4),
        EstimatorKind.ensemble(1e-4, 0.5),
    ]
    hits = total = 0
    for seed in range(20):
        X = sample_design(env.spectrum_pre, env.n,
                          derive_rng(MASTER_SEED, "design_pre", seed))
        Xt = sample_design(env.spectrum_ft, env.n,
                           derive_rng(MASTER_SEED, "design_ft", seed))
        pair = pair_of(X, Xt, env)
        exact = AnalyticRisk(pair, env)
        for k, kind in enumerate(kinds):
            mc = mc_expected_risks(pair, replace(env, mc_draws=2000), [kind],
                                   derive_rng(MASTER_SEED, "mc", 100 * seed + k))[0]
            for task in ("pre", "ft"):
                total += 1
                mean, se = mc[task]
                gap = abs(mean - exact.task_risk(kind, task)[0])
                hits += gap <= 3 * se
    elapsed = time.perf_counter() - start
    ok = hits / total >= 0.95 and elapsed < 120.0
    report(3, ok, f"{hits}/{total} points within 3 SE at 2000 draws, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def ordering_env():
    return theorem_check_env(p=2000, n=40)


def test_c04_regularization_ordering(ordering_env):
    lam_star = lambda_prime(ordering_env)
    rep = verify_theorem_orderings(replace(
        ordering_env, replicates=20, master_seed=MASTER_SEED,
        lambda_grid=[lam_star / 2, lam_star, 2 * lam_star], tau_grid=[0.0]))
    held = sum(1 for s in rep.seeds if s.holds["item1"])
    report(4, held >= 18,
           f"ridge < interpolating < pretrained on ft task held in {held}/20 seeds "
           f"at lam in {{lam*/2, lam*, 2 lam*}}")


def test_c05_ensemble_beats_ridge_and_stationarity(ordering_env):
    env = ordering_env
    lam_star = lambda_prime(env)
    rep = verify_theorem_orderings(replace(
        env, replicates=20, master_seed=MASTER_SEED,
        lambda_grid=[0.0, lam_star / 2], tau_grid=[0.0]))
    held = sum(1 for s in rep.seeds if s.holds["item3"])
    taus = np.round(np.arange(0.0, 1.0001, 1e-3), 9)
    worst = 0.0
    for seed in range(20):
        X = sample_design(env.spectrum_pre, env.n,
                          derive_rng(MASTER_SEED, "design_pre", seed))
        Xt = sample_design(env.spectrum_ft, env.n,
                           derive_rng(MASTER_SEED, "design_ft", seed))
        pair = pair_of(X, Xt, env)
        ev = AnalyticRisk(pair, env)
        for lam in (0.0, lam_star / 2):
            ts = tau_prime(ev, lam)
            quads = ev.term_quadratics(lam, "ft")
            vals = np.array([sum(at_tau(q, t) for q in quads.values()) for t in taus])
            worst = max(worst, abs(taus[int(np.argmin(vals))] - ts))
    ok = held >= 18 and worst <= 2e-3
    report(5, ok,
           f"ensemble(tau*) < ridge held in {held}/20 seeds; "
           f"worst |grid argmin - tau*| = {worst:.2e}")


def test_c06_sum_risk_ordering(ordering_env):
    lam_star = lambda_prime(ordering_env)
    rep = verify_theorem_orderings(replace(
        ordering_env, replicates=20, master_seed=MASTER_SEED,
        lambda_grid=[lam_star], tau_grid=[0.0]))
    held = sum(1 for s in rep.seeds if s.holds["item2"])
    report(6, held >= 18,
           f"two-task sum chain at lam*, tau*/2 held in {held}/20 seeds")


@pytest.fixture(scope="module")
def preset_results():
    return {case: run_preset(case, overrides={"replicates": 20})
            for case in ("a", "b", "c", "d")}


def test_c07_simulation_reproduction(preset_results):
    pareto_notes, order_notes = [], []
    pareto_ok = order_ok = True
    for case, res in preset_results.items():
        rows = res.rows

        def mean_points(est, key, lam=None):
            ft, pre = {}, {}
            for r in rows:
                if r.estimator != est or r.method != "analytic":
                    continue
                if lam is not None and r.lam != lam:
                    continue
                (ft if r.task == "ft" else pre).setdefault(key(r), []).append(r.value)
            return {k: (float(np.mean(ft[k])), float(np.mean(pre[k]))) for k in ft}

        if case in ("a", "b"):
            ens = mean_points("ensemble", lambda r: r.tau, lam=TRADEOFF_LAMBDA)
            family = mean_points("ridge_ft", lambda r: r.lam)
            family = {l: v for l, v in family.items() if l in RIDGE_FAMILY}
            undominated = sum(
                1 for f0, p0 in ens.values()
                if not any(f1 < f0 and p1 < p0 for f1, p1 in family.values()))
            frac = undominated / len(ens)
            pareto_ok &= frac >= 0.80
            pareto_notes.append(f"{case}:{undominated}/{len(ens)}")

        ens_ft = mean_points("ensemble", lambda r: r.tau, lam=FT_ONLY_LAMBDA)
        best_ens = min(v[0] for v in ens_ft.values())
        ridge = mean_points("ridge_ft", lambda r: r.lam)[FT_ONLY_LAMBDA][0]
        ridgeless = mean_points("ridgeless_ft", lambda r: 0)[0][0]
        pretrained = mean_points("pretrained", lambda r: 0)[0][0]
        strict = best_ens < ridge < ridgeless < pretrained
        order_ok &= strict
        order_notes.append(f"{case}:{'ok' if strict else 'violated'}")
    ok = pareto_ok and order_ok
    report(7, ok,
           f"trade-off non-dominated {', '.join(pareto_notes)} (need >=80%); "
           f"ft ordering {', '.join(order_notes)}")


def test_c08_stationarity_identities(ordering_env):
    env = ordering_env
    lam_star = lambda_prime(env)
    worst_tp = worst_f = worst_g = worst_j = worst_fd = 0.0
    for seed in range(5):
        ev = AnalyticRisk(DesignPair.draw(replace(env, master_seed=MASTER_SEED), seed), env)
        res = ev.resolvent
        # the reduced two-term risks' derivatives: in lam at tau = 1, and in tau
        dlam = lambda l, objective: at_tau(two_term(ev, l, objective, dlam=True), 1.0)

        def dtau(l, u, objective):
            _, a1, a2 = two_term(ev, l, objective)
            return a1 + 2.0 * u * a2

        worst_tp = max(worst_tp, abs(tau_prime(ev, lam_star) - 1.0))
        t = res.traces(lam_star)
        f_scale = 2 * env.n * (env.zeta2 * env.n * lam_star + env.sigma2_tilde) * t["t4"]
        worst_f = max(worst_f, abs(dlam(lam_star, "ft")) / f_scale)
        lam = lam_star / 3
        ts = tau_prime(ev, lam)
        g_scale = 2 * env.zeta2 * res.traces(lam)["t1"]
        worst_g = max(worst_g, abs(dtau(lam, ts, "ft")) / g_scale)
        worst_j = max(worst_j, abs(dtau(lam, ts / 2, "sum")) / g_scale)
        # central differences of the reduced risks
        h_lam = 1e-5 * lam
        for objective in ("ft", "sum"):
            func = lambda l: at_tau(two_term(ev, l, objective), 1.0)
            fd = (func(lam + h_lam) - func(lam - h_lam)) / (2 * h_lam)
            deriv = dlam(lam, objective)
            worst_fd = max(worst_fd, abs(deriv - fd) / abs(deriv))
            q = two_term(ev, lam, objective)
            func = lambda u: at_tau(q, u)
            fd = (func(0.4 + 1e-6) - func(0.4 - 1e-6)) / 2e-6
            deriv = dtau(lam, 0.4, objective)
            worst_fd = max(worst_fd, abs(deriv - fd) / abs(deriv))
    ok = (worst_tp <= 1e-10 and worst_f <= 1e-12 and worst_g <= 1e-10
          and worst_j <= 1e-10 and worst_fd <= 1e-4)
    report(8, ok,
           f"tau*(lam*)-1 {worst_tp:.1e}; f'(lam*) {worst_f:.1e} of scale; "
           f"g'(tau*) {worst_g:.1e}; J'(tau*/2) {worst_j:.1e}; "
           f"finite differences {worst_fd:.1e}")


def test_c09_tail_eigenvalue_concentration():
    n = 10
    p = 200 * n
    rep = eigen_band_check(0.01, p - 1, n=n, trials=200, band=(1 / 3, 3.0),
                           rng=derive_rng(MASTER_SEED, "eigen", 0))
    # a constant tail's effective rank is its size, p - 1 here
    assert rep.scale == 0.01 * (p - 1) and p - 1 >= 100 * n
    ok = rep.regime_ok and rep.rate >= 0.95
    report(9, ok,
           f"{rep.inside}/{rep.trials} trials inside [1/3, 3] x "
           f"(pivot x effective rank)")


def test_c10_worker_count_determinism(tmp_path):
    cfg = config_from_dict({
        "n": 10, "p": 150, "p_tilde": 20, "k_star": 1,
        "gamma_pre": 0.05, "gamma_ft": 0.1,
        "master_seed": MASTER_SEED, "replicates": 6,
        "lambda_grid": [1e-3], "tau_grid": [0.0, 0.5, 1.0],
        "methods": ["analytic", "monte_carlo"], "mc_draws": 300,
    })
    paths = []
    for i, workers in enumerate((1, 3, 2)):
        path = tmp_path / f"run{i}.csv"
        write_results(run_sweep(cfg, workers=workers).rows, path, "csv")
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    report(10, ok, "CSV bytes identical across worker counts 1, 3, 2")
