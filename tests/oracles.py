"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense p x p algebra, SVD
pseudo-inverses and explicit KKT systems.  The package under test must
agree with these at small sizes; none of this code is shared with it.
"""

from __future__ import annotations

import numpy as np


def minnorm_oracle(X, Y):
    """Least-norm interpolant via dense SVD pseudo-inverse."""
    return np.linalg.pinv(X) @ Y


def constrained_lstsq_oracle(theta0, Xt, Yt):
    """argmin ||theta - theta0|| s.t. Xt theta = Yt, by the dense KKT system."""
    n, p = Xt.shape
    kkt = np.block([[np.eye(p), Xt.T], [Xt, np.zeros((n, n))]])
    rhs = np.concatenate([theta0, Yt])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:p]


def ridge_pull_oracle(theta0, Xt, Yt, lam):
    """Dense primal solve of the l2-pull fine-tune objective."""
    n, p = Xt.shape
    lhs = Xt.T @ Xt + n * lam * np.eye(p)
    rhs = Xt.T @ Yt + n * lam * theta0
    return np.linalg.solve(lhs, rhs)


def estimator_oracle(name, X, Y, Xt, Yt, lam=0.0, tau=1.0):
    theta1 = minnorm_oracle(X, Y)
    if name == "pretrained":
        return theta1
    if name == "ridgeless_ft":
        return constrained_lstsq_oracle(theta1, Xt, Yt)
    ft = ridge_pull_oracle(theta1, Xt, Yt, lam) if lam > 0 else \
        constrained_lstsq_oracle(theta1, Xt, Yt)
    if name == "ridge_ft":
        return ft
    return (1 - tau) * theta1 + tau * ft


def mc_risk_oracle(X, Xt, env, kind, draws, rng, batch=512):
    """Monte-Carlo risk of one estimator, one draw at a time through
    ``estimator_oracle``.

    Consumes ``rng`` batch by batch in the order the package promises for a
    one-estimator call: theta_c, both offsets, the pretrain noise, then the
    fine-tune noise only when tau != 0.  Returns {task: (mean, standard error)}.
    """
    eigs = dict(zip(("pre", "ft"), env.eigenvalues()))
    lam, tau = kind.effective
    n_pre, p = X.shape
    n = Xt.shape[0]

    def normals(shape, var):
        return rng.standard_normal(shape) * np.sqrt(var) if var > 0 else np.zeros(shape)

    risks = {"pre": [], "ft": []}
    done = 0
    while done < draws:
        m = min(batch, draws - done)
        done += m
        tc = rng.standard_normal((p, m))
        tc *= env.theta_c_norm / np.linalg.norm(tc, axis=0)
        target = {"pre": tc + normals((p, m), env.zeta1), "ft": tc + normals((p, m), env.zeta2)}
        noise = normals((n_pre, m), env.sigma2)
        noise_t = normals((n, m), env.sigma2_tilde) if tau != 0.0 else np.zeros((n, m))
        for j in range(m):
            Y = X @ target["pre"][:, j] + noise[:, j]
            Yt = Xt @ target["ft"][:, j] + noise_t[:, j]
            hat = estimator_oracle(kind.name, X, Y, Xt, Yt, lam=lam, tau=tau)
            for task, r in risks.items():
                d = hat - target[task][:, j]
                r.append(float(np.sum(eigs[task] * d * d)))
    return {task: (np.mean(r), np.std(r, ddof=1) / np.sqrt(len(r)))
            for task, r in risks.items()}


def dense_risk_terms(X, Xt, eigs_pre, eigs_ft, zeta1, zeta2, sigma2, sigma2_tilde,
                     lam, tau, task, theta_c=None, theta_c_norm=1.0):
    """Exact conditional risk terms through dense p x p operators.

    Builds the error coefficient operator of every randomness source
    explicitly and evaluates the covariance-weighted quadratic forms.
    """
    n, p = X.shape
    A = X @ X.T
    R = Xt @ Xt.T + n * lam * np.eye(n)
    P = X.T @ np.linalg.solve(A, X)
    K = tau * (Xt.T @ np.linalg.solve(R, Xt))
    I = np.eye(p)
    D = np.diag(eigs_pre if task == "pre" else eigs_ft)
    C_tc = -(I - K) @ (I - P)
    C_a1 = ((I - K) @ P - I) if task == "pre" else (I - K) @ P
    C_a2 = K if task == "pre" else (K - I)
    C_e = (I - K) @ X.T @ np.linalg.inv(A)
    C_et = tau * (Xt.T @ np.linalg.inv(R))
    if theta_c is None:
        bias = theta_c_norm**2 / p * np.trace(C_tc.T @ D @ C_tc)
    else:
        bias = float(theta_c @ (C_tc.T @ D @ C_tc) @ theta_c)
    return {
        "bias_thetac": bias,
        "term_zeta1": zeta1 * np.trace(C_a1.T @ D @ C_a1),
        "term_zeta2": zeta2 * np.trace(C_a2.T @ D @ C_a2),
        "term_sigma": sigma2 * np.trace(C_e.T @ D @ C_e),
        "term_sigma_tilde": sigma2_tilde * np.trace(C_et.T @ D @ C_et),
    }


def random_block_instance(rng, n=5, p=11, p_tilde=None, k_star=2):
    """Random designs plus irregular spectra for oracle comparisons."""
    p_tilde = p_tilde or max(k_star + 2, p - 3)
    eigs_pre = np.sort(rng.uniform(0.05, 1.0, p))[::-1]
    eigs_ft = np.zeros(p)
    eigs_ft[:p_tilde] = np.sort(rng.uniform(0.05, 1.0, p_tilde))[::-1]
    X = rng.standard_normal((n, p)) * np.sqrt(eigs_pre)
    Xt = rng.standard_normal((n, p)) * np.sqrt(eigs_ft)
    return X, Xt, eigs_pre, eigs_ft
