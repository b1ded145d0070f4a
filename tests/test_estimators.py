from dataclasses import replace

import numpy as np
import pytest

from overadapt.config import ExperimentConfig
from overadapt.estimators import EstimatorKind, GramSolver, SingularDesignError
from overadapt.mc import mc_expected_risks
from overadapt.risk import AnalyticRisk, DesignPair
from overadapt.synth import derive_rng
from oracles import constrained_lstsq_oracle, estimator_oracle, minnorm_oracle


def minnorm(X, Y, solver=None):
    """X^T (X X^T)^-1 Y, the pretrained weights as the risk evaluators form them."""
    return X.T @ (solver or GramSolver(X @ X.T)).solve(Y)


def finetune(theta1, Xt, Yt, lam=0.0, solver=None):
    """theta1 + Xt^T (Xt Xt^T + n*lam*I)^-1 (Yt - Xt theta1), the fine-tune step."""
    solver = solver or GramSolver(Xt @ Xt.T)
    return theta1 + Xt.T @ solver.solve(Yt - Xt @ theta1, nlam=Xt.shape[0] * lam)


def small_env():
    return ExperimentConfig(
        n=6, n_pre=5, p=24, p_tilde=14, k_star=2, gamma_pre=0.3, gamma_ft=0.5,
        zeta1=0.05, zeta2=0.1, sigma2=0.05, sigma2_tilde=0.1,
    )


# ----------------------------------------------------------- pretrain fit

def test_minnorm_single_row():
    X = np.array([[1.0, 0.0]])
    assert np.allclose(minnorm(X, np.array([2.0])), [2.0, 0.0], atol=1e-14)


def test_minnorm_identity_design():
    Y = np.array([3.0, -1.0, 0.5])
    assert np.allclose(minnorm(np.eye(3), Y), Y, atol=1e-14)


def test_minnorm_interpolates_and_matches_pinv():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 6))
    Y = rng.standard_normal(3)
    theta = minnorm(X, Y)
    assert np.max(np.abs(X @ theta - Y)) <= 1e-10 * np.max(np.abs(Y))
    want = minnorm_oracle(X, Y)
    assert np.allclose(theta, want, atol=1e-8)
    # orthogonal to the null space of X
    _, _, vt = np.linalg.svd(X)
    null = vt[3:]
    assert np.max(np.abs(null @ theta)) < 1e-10


# ------------------------------------------------------ ridgeless fine-tune

def test_ridgeless_single_direction_correction():
    theta1 = np.array([2.0, 0.0])
    Xt = np.array([[0.0, 1.0]])
    assert np.allclose(finetune(theta1, Xt, np.array([3.0])), [2.0, 3.0], atol=1e-14)


def test_ridgeless_zero_residual_is_identity():
    rng = np.random.default_rng(1)
    theta1 = rng.standard_normal(6)
    Xt = rng.standard_normal((3, 6))
    assert np.allclose(finetune(theta1, Xt, Xt @ theta1), theta1, atol=1e-12)


def test_ridgeless_matches_kkt_oracle():
    rng = np.random.default_rng(2)
    theta1 = rng.standard_normal(6)
    Xt = rng.standard_normal((3, 6))
    Yt = rng.standard_normal(3)
    want = constrained_lstsq_oracle(theta1, Xt, Yt)
    assert np.allclose(finetune(theta1, Xt, Yt), want, atol=1e-8)


def test_ridgeless_interpolation_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta1 = rng.standard_normal(30)
        Xt = rng.standard_normal((6, 30))
        Yt = rng.standard_normal(6)
        theta2 = finetune(theta1, Xt, Yt)
        assert np.max(np.abs(Xt @ theta2 - Yt)) <= 1e-8 * max(1e-300, np.max(np.abs(Yt)))


# ---------------------------------------------------------- ridge fine-tune

def test_ridge_scalar_hand_example():
    theta1 = np.array([2.0, 0.0])
    Xt = np.array([[0.0, 1.0]])
    out = finetune(theta1, Xt, np.array([3.0]), lam=1.0)
    assert np.allclose(out, [2.0, 1.5], atol=1e-14)


def test_ridge_limits():
    rng = np.random.default_rng(4)
    theta1 = rng.standard_normal(12)
    Xt = rng.standard_normal((4, 12))
    Yt = rng.standard_normal(4)
    solver = GramSolver(Xt @ Xt.T)
    ridgeless = finetune(theta1, Xt, Yt, solver=solver)
    tiny = finetune(theta1, Xt, Yt, lam=0.0, solver=solver)
    assert np.allclose(tiny, ridgeless, atol=1e-10)
    huge = finetune(theta1, Xt, Yt, lam=1e12, solver=solver)
    assert np.linalg.norm(huge - theta1) <= 1e-6 * np.linalg.norm(theta1)


def test_ridge_rejects_negative_lambda():
    # however small: the kinds are what every evaluator reads lam from
    with pytest.raises(ValueError):
        EstimatorKind.ridge(-1e-12)
    with pytest.raises(ValueError):
        EstimatorKind.ensemble(-1e-12, 0.5)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_kinds_reject_a_non_finite_lambda(lam):
    for make in (EstimatorKind.ridge, lambda v: EstimatorKind.ensemble(v, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            make(lam)


def test_ridge_shrinkage_monotone_in_lambda():
    rng = np.random.default_rng(5)
    theta1 = rng.standard_normal(20)
    Xt = rng.standard_normal((5, 20))
    Yt = rng.standard_normal(5)
    solver = GramSolver(Xt @ Xt.T)
    dists = [np.linalg.norm(finetune(theta1, Xt, Yt, lam, solver=solver) - theta1)
             for lam in np.logspace(-8, 4, 25)]
    assert np.all(np.diff(dists) <= 1e-12)


def test_ridge_matches_dense_primal_oracle():
    rng = np.random.default_rng(6)
    theta1 = rng.standard_normal(9)
    Xt = rng.standard_normal((4, 9))
    Yt = rng.standard_normal(4)
    for lam in (1e-3, 0.1, 2.0):
        want = estimator_oracle("ridge_ft", np.eye(9), theta1, Xt, Yt, lam=lam)
        assert np.allclose(finetune(theta1, Xt, Yt, lam), want, atol=1e-8)


# ----------------------------------------------------------------- ensemble

def test_ensemble_endpoints_exact():
    # tau = 0 is the pretrained estimator and tau = 1 the ridge, exactly, in
    # both evaluators (Monte Carlo on shared draws)
    env = small_env()
    pair = DesignPair.draw(replace(env, master_seed=3), 0)
    lam = 0.05
    kinds = [EstimatorKind.ensemble(lam, 0.0), EstimatorKind.pretrained(),
             EstimatorKind.ensemble(lam, 1.0), EstimatorKind.ridge(lam)]
    mc = mc_expected_risks(pair, replace(env, mc_draws=300), kinds, derive_rng(3, "mc", 0))
    analytic = AnalyticRisk(pair, env)
    for task in ("pre", "ft"):
        for values in ([r[task][0] for r in mc], [analytic.task_risk(k, task)[0] for k in kinds]):
            assert values[0] == values[1]
            assert values[2] == values[3]


def test_ensemble_tau_validation():
    for tau in (1.2, -0.2):
        with pytest.raises(ValueError):
            EstimatorKind.ensemble(0.1, tau)
    assert EstimatorKind.ensemble(0.1, 1.0).effective == (0.1, 1.0)


def test_ensemble_collinearity_across_tau():
    # the ensemble moves along the line from theta1 to the ridge weights, so
    # on shared draws its plug-in risk (and their mean) is an exact quadratic
    # in tau; two draws, the fewest that carry a standard error
    env = small_env()
    pair = DesignPair.draw(replace(env, master_seed=7), 0)
    taus = (0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0)
    risks = mc_expected_risks(pair, replace(env, mc_draws=2),
                              [EstimatorKind.ensemble(0.05, t) for t in taus],
                              derive_rng(7, "mc", 0))
    for task in ("pre", "ft"):
        r = {t: risk[task][0] for t, risk in zip(taus, risks)}
        c = r[0.0]
        a = 2 * r[0.0] - 4 * r[0.5] + 2 * r[1.0]
        b = r[1.0] - c - a
        for t in taus:
            assert a * t * t + b * t + c == pytest.approx(r[t], rel=1e-10)


# -------------------------------------------------- conditioning and jitter

def test_singular_design_names_rows():
    X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularDesignError) as err:
        minnorm(X, np.ones(3))
    assert "rows" in str(err.value)


def test_jitter_rescues_singular_gram():
    X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    solver = GramSolver(X @ X.T, jitter=True)
    theta = minnorm(X, np.array([1.0, 1.0, 2.0]), solver=solver)
    assert solver.jitter_applied > 0
    assert np.all(np.isfinite(theta))


def test_jitter_independent_of_call_order():
    rng = np.random.default_rng(10)
    Xt = rng.standard_normal((5, 12))
    Xt[1] = Xt[0]  # duplicated row: singular Gram
    rhs = rng.standard_normal(5)
    nlam = 1e-9
    direct = GramSolver(Xt @ Xt.T, jitter=True)
    after_zero = GramSolver(Xt @ Xt.T, jitter=True)
    after_zero.factor(0.0)
    got = direct.solve(rhs, nlam=nlam)
    assert direct.jitter_applied == after_zero.jitter_applied > 0
    np.testing.assert_array_equal(direct.gram, after_zero.gram)
    np.testing.assert_array_equal(got, after_zero.solve(rhs, nlam=nlam))


def test_solver_eigendecomposes_once(monkeypatch):
    # every penalty, a repeated one included, reads the construction-time eigh
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rng = np.random.default_rng(8)
    Xt = rng.standard_normal((4, 10))
    solver = GramSolver(Xt @ Xt.T)
    theta1 = rng.standard_normal(10)
    Yt = rng.standard_normal(4)
    for lam in (0.5, 0.5, 0.25, 0.0):
        got = finetune(theta1, Xt, Yt, lam, solver=solver)
        want = estimator_oracle("ridge_ft", np.eye(10), theta1, Xt, Yt, lam=lam)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    assert calls == [(4, 4)]


# ------------------------------------------------------------- estimator kinds

def test_estimator_kind_validation_and_effective():
    assert EstimatorKind.pretrained().effective == (0.0, 0.0)
    assert EstimatorKind.ridgeless().effective == (0.0, 1.0)
    assert EstimatorKind.ridge(0.3).effective == (0.3, 1.0)
    assert EstimatorKind.ensemble(0.3, 0.7).effective == (0.3, 0.7)
    with pytest.raises(ValueError):
        EstimatorKind("mystery")
    with pytest.raises(ValueError):
        EstimatorKind.ensemble(0.1, 1.5)
    with pytest.raises(ValueError):
        EstimatorKind.ridge(-0.1)


def test_compute_estimator_all_kinds_match_oracle():
    # each kind's (lam, tau) read as the Monte-Carlo evaluator reads it:
    # theta1, plus tau times the fine-tune step at penalty lam
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 10))
    Y = rng.standard_normal(4)
    Xt = rng.standard_normal((4, 10))
    Yt = rng.standard_normal(4)
    theta1 = minnorm(X, Y)
    for kind in (EstimatorKind.pretrained(), EstimatorKind.ridgeless(),
                 EstimatorKind.ridge(0.05), EstimatorKind.ensemble(0.05, 0.4)):
        lam, tau = kind.effective
        got = theta1 + tau * (finetune(theta1, Xt, Yt, lam) - theta1)
        want = estimator_oracle(kind.name, X, Y, Xt, Yt, lam=kind.lam, tau=kind.tau)
        assert np.allclose(got, want, atol=1e-9)
