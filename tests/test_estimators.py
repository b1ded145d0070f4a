import numpy as np
import pytest

from overadapt.estimators import (
    EstimatorKind,
    GramSolver,
    SingularDesignError,
    WeightVector,
    compute_estimator,
    ensemble,
    finetune_ridge,
    finetune_ridgeless,
    pretrain_minnorm,
)
from oracles import constrained_lstsq_oracle, estimator_oracle, minnorm_oracle


def wv(values, provenance="pretrained"):
    return WeightVector(weights=np.asarray(values, dtype=float), provenance=provenance)


# ----------------------------------------------------------- pretrain fit

def test_minnorm_single_row():
    X = np.array([[1.0, 0.0]])
    theta = pretrain_minnorm(X, np.array([2.0]))
    assert np.allclose(theta.weights, [2.0, 0.0], atol=1e-14)


def test_minnorm_identity_design():
    Y = np.array([3.0, -1.0, 0.5])
    theta = pretrain_minnorm(np.eye(3), Y)
    assert np.allclose(theta.weights, Y, atol=1e-14)


def test_minnorm_interpolates_and_matches_pinv():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 6))
    Y = rng.standard_normal(3)
    theta = pretrain_minnorm(X, Y)
    assert np.max(np.abs(X @ theta.weights - Y)) <= 1e-10 * np.max(np.abs(Y))
    want = minnorm_oracle(X, Y)
    assert np.allclose(theta.weights, want, atol=1e-8)
    # orthogonal to the null space of X
    _, _, vt = np.linalg.svd(X)
    null = vt[3:]
    assert np.max(np.abs(null @ theta.weights)) < 1e-10


# ------------------------------------------------------ ridgeless fine-tune

def test_ridgeless_single_direction_correction():
    theta1 = wv([2.0, 0.0])
    Xt = np.array([[0.0, 1.0]])
    theta2 = finetune_ridgeless(theta1, Xt, np.array([3.0]))
    assert np.allclose(theta2.weights, [2.0, 3.0], atol=1e-14)


def test_ridgeless_zero_residual_is_identity():
    rng = np.random.default_rng(1)
    theta1 = wv(rng.standard_normal(6))
    Xt = rng.standard_normal((3, 6))
    theta2 = finetune_ridgeless(theta1, Xt, Xt @ theta1.weights)
    assert np.allclose(theta2.weights, theta1.weights, atol=1e-12)


def test_ridgeless_matches_kkt_oracle():
    rng = np.random.default_rng(2)
    theta1 = wv(rng.standard_normal(6))
    Xt = rng.standard_normal((3, 6))
    Yt = rng.standard_normal(3)
    theta2 = finetune_ridgeless(theta1, Xt, Yt)
    want = constrained_lstsq_oracle(theta1.weights, Xt, Yt)
    assert np.allclose(theta2.weights, want, atol=1e-8)


def test_ridgeless_interpolation_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta1 = wv(rng.standard_normal(30))
        Xt = rng.standard_normal((6, 30))
        Yt = rng.standard_normal(6)
        theta2 = finetune_ridgeless(theta1, Xt, Yt)
        assert np.max(np.abs(Xt @ theta2.weights - Yt)) <= 1e-8 * max(
            1e-300, np.max(np.abs(Yt)))


# ---------------------------------------------------------- ridge fine-tune

def test_ridge_scalar_hand_example():
    theta1 = wv([2.0, 0.0])
    Xt = np.array([[0.0, 1.0]])
    out = finetune_ridge(theta1, Xt, np.array([3.0]), lam=1.0)
    assert np.allclose(out.weights, [2.0, 1.5], atol=1e-14)


def test_ridge_limits():
    rng = np.random.default_rng(4)
    theta1 = wv(rng.standard_normal(12))
    Xt = rng.standard_normal((4, 12))
    Yt = rng.standard_normal(4)
    ridgeless = finetune_ridgeless(theta1, Xt, Yt)
    tiny = finetune_ridge(theta1, Xt, Yt, lam=0.0)
    assert np.allclose(tiny.weights, ridgeless.weights, atol=1e-10)
    huge = finetune_ridge(theta1, Xt, Yt, lam=1e12)
    assert np.linalg.norm(huge.weights - theta1.weights) <= 1e-6 * np.linalg.norm(
        theta1.weights)


def test_ridge_rejects_negative_lambda():
    with pytest.raises(ValueError):
        finetune_ridge(wv([1.0]), np.eye(1), np.ones(1), lam=-1e-12)


def test_ridge_shrinkage_monotone_in_lambda():
    rng = np.random.default_rng(5)
    theta1 = wv(rng.standard_normal(20))
    Xt = rng.standard_normal((5, 20))
    Yt = rng.standard_normal(5)
    solver = GramSolver(Xt)
    dists = []
    for lam in np.logspace(-8, 4, 25):
        out = finetune_ridge(theta1, Xt, Yt, lam, solver=solver)
        dists.append(np.linalg.norm(out.weights - theta1.weights))
    assert np.all(np.diff(dists) <= 1e-12)


def test_ridge_matches_dense_primal_oracle():
    rng = np.random.default_rng(6)
    theta1 = wv(rng.standard_normal(9))
    Xt = rng.standard_normal((4, 9))
    Yt = rng.standard_normal(4)
    for lam in (1e-3, 0.1, 2.0):
        got = finetune_ridge(theta1, Xt, Yt, lam).weights
        want = estimator_oracle("ridge_ft", np.eye(9), theta1.weights, Xt, Yt, lam=lam)
        assert np.allclose(got, want, atol=1e-8)


# ----------------------------------------------------------------- ensemble

def test_ensemble_endpoints_exact():
    a, b = wv([2.0, 0.0]), wv([2.0, 3.0], "ridgeless_ft")
    assert np.array_equal(ensemble(a, b, 0.0).weights, a.weights)
    assert np.array_equal(ensemble(a, b, 1.0).weights, b.weights)
    assert np.allclose(ensemble(a, b, 0.5).weights, [2.0, 1.5], atol=1e-15)


def test_ensemble_tau_validation():
    a, b = wv([1.0]), wv([2.0])
    with pytest.raises(ValueError):
        ensemble(a, b, 1.2)
    out = ensemble(a, b, 1.2, allow_extrapolation=True)
    assert out.weights[0] == pytest.approx(2.2)
    with pytest.raises(ValueError):
        ensemble(a, wv([1.0, 2.0]), 0.5)


def test_ensemble_collinearity_across_tau():
    rng = np.random.default_rng(7)
    a, b = wv(rng.standard_normal(15)), wv(rng.standard_normal(15), "ridge_ft")
    direction = b.weights - a.weights
    for tau in (0.1, 0.25, 0.6, 0.9):
        out = ensemble(a, b, tau)
        assert np.allclose(out.weights - a.weights, tau * direction, atol=1e-14)


# -------------------------------------------------- conditioning and jitter

def test_singular_design_names_rows():
    X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularDesignError) as err:
        pretrain_minnorm(X, np.ones(3))
    assert "rows" in str(err.value)


def test_jitter_rescues_singular_gram():
    X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    theta = pretrain_minnorm(X, np.array([1.0, 1.0, 2.0]), jitter=True)
    assert theta.jitter > 0
    assert np.all(np.isfinite(theta.weights))


def test_jitter_independent_of_call_order():
    rng = np.random.default_rng(10)
    Xt = rng.standard_normal((5, 12))
    Xt[1] = Xt[0]  # duplicated row: singular Gram
    rhs = rng.standard_normal(5)
    nlam = 1e-9
    direct = GramSolver(Xt, jitter=True)
    after_zero = GramSolver(Xt, jitter=True)
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
    solver = GramSolver(Xt)
    theta1 = wv(rng.standard_normal(10))
    Yt = rng.standard_normal(4)
    for lam in (0.5, 0.5, 0.25, 0.0):
        got = finetune_ridge(theta1, Xt, Yt, lam, solver=solver).weights
        want = estimator_oracle("ridge_ft", np.eye(10), theta1.weights, Xt, Yt, lam=lam)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    assert calls == [(4, 4)]


def test_solver_for_another_design_rejected():
    rng = np.random.default_rng(9)
    X, X_other = rng.standard_normal((2, 4, 10))
    theta1 = wv(rng.standard_normal(10))
    Yt = rng.standard_normal(4)
    with pytest.raises(ValueError, match="different design"):
        finetune_ridge(theta1, X_other, Yt, 0.5, solver=GramSolver(X))
    with pytest.raises(ValueError, match="different design"):
        pretrain_minnorm(X_other, Yt, solver=GramSolver(X))


# ------------------------------------------------------------- weight vector

def test_weight_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        WeightVector(weights=np.array([1.0, np.inf]), provenance="pretrained")


def test_weight_vector_csv_dump(tmp_path):
    path = tmp_path / "w.csv"
    wv([0.5, -1.25]).to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "0,0.5"
    assert lines[2] == "1,-1.25"


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
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 10))
    Y = rng.standard_normal(4)
    Xt = rng.standard_normal((4, 10))
    Yt = rng.standard_normal(4)
    for kind, name in [
        (EstimatorKind.pretrained(), "pretrained"),
        (EstimatorKind.ridgeless(), "ridgeless_ft"),
        (EstimatorKind.ridge(0.05), "ridge_ft"),
        (EstimatorKind.ensemble(0.05, 0.4), "ensemble"),
    ]:
        got = compute_estimator(kind, X, Y, Xt, Yt).weights
        want = estimator_oracle(name, X, Y, Xt, Yt, lam=kind.lam, tau=kind.tau)
        assert np.allclose(got, want, atol=1e-9)
