"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense p x p algebra, SVD
pseudo-inverses, explicit KKT systems and p-dimensional parameter draws.
The package under test must agree with these at small sizes, exactly or in
law.  None of this code is shared with it except in
``mc_pointwise_risk_draws``, which reuses the package's row-space draw and
weighs every point's estimate in full.  ``CountingRng`` counts the
numbers a generator hands out, ``two_term`` reads the package's own
``Term``s for the theory's stationarity identities (``at_tau`` evaluates
them), and ``pair_of`` reduces given designs at a config's spectra, for
tests that build or edit designs.
"""

from __future__ import annotations

import numpy as np

from overadapt.mc import _MC_BATCH, _off_span_gram, row_space
from overadapt.risk import DesignPair
from overadapt.theory import TWO_TERMS


def pair_of(X, Xt, env, theta_c=None):
    """The ``DesignPair`` of the designs (X, Xt) at env's two spectra."""
    return DesignPair(X, Xt, env.spectrum_pre, env.spectrum_ft, theta_c=theta_c)


def eigenvalues(blocks):
    """The length-p eigenvalue vector of (count, value) blocks, for the dense references."""
    return np.repeat([float(v) for _, v in blocks], [int(c) for c, _ in blocks])


def padded(X, p):
    """A design with its zero columns past its width written out, for the dense references."""
    return np.pad(X, ((0, 0), (0, p - X.shape[1])))


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


def mc_dense_risk_draws(X, Xt, env, kinds, draws, rng, theta_c=None):
    """Per-draw plug-in risks from dense p-dimensional parameter draws.

    Draws theta_c (uniform on its sphere, or the fixed vector), both offsets
    and both noise vectors in full, forms every kind's weights through
    ``estimator_oracle`` on those shared draws and weighs the errors with the
    spectra.  Returns one {task: per-draw risks} per kind.
    """
    eigs = {"pre": eigenvalues(env.spectrum_pre), "ft": eigenvalues(env.spectrum_ft)}
    X, Xt = padded(X, env.p), padded(Xt, env.p)
    n_pre, p = X.shape
    n = Xt.shape[0]

    def normals(shape, var):
        return rng.standard_normal(shape) * np.sqrt(var) if var > 0 else np.zeros(shape)

    if theta_c is None:
        tc = rng.standard_normal((p, draws))
        tc *= env.theta_c_norm / np.linalg.norm(tc, axis=0)
    else:
        tc = np.repeat(np.asarray(theta_c, dtype=float)[:, None], draws, axis=1)
    target = {"pre": tc + normals((p, draws), env.zeta1),
              "ft": tc + normals((p, draws), env.zeta2)}
    Y = X @ target["pre"] + normals((n_pre, draws), env.sigma2)
    Yt = Xt @ target["ft"] + normals((n, draws), env.sigma2_tilde)
    out = []
    for kind in kinds:
        lam, tau = kind.effective
        hat = estimator_oracle(kind.name, X, Y, Xt, Yt, lam=lam, tau=tau)
        out.append({task: np.sum(eigs[task][:, None] * (hat - target[task]) ** 2, axis=0)
                    for task in ("pre", "ft")})
    return out


def mc_pointwise_risk_draws(pair, env, kinds, draws, rng):
    """Per-draw plug-in risks on the package's row-space draw, each point weighed directly.

    The same stream and batches as ``mc._mc_risk_draws``, but every point's
    estimate ``hat0 + tau * step`` is formed and its error weighed in full,
    with fresh arrays, instead of read from per-lam coefficients.  Returns one
    {task: per-draw risks} per kind.
    """
    coords = row_space(pair)
    ranks = [F.shape[1] for F in coords]
    weights = {t: np.repeat(v, ranks) for t, v in pair.values.items()}
    off = [(m - r, {t: float(v[i]) for t, v in pair.values.items()})
           for i, (m, r) in enumerate(zip(pair.sizes, ranks)) if m > r]
    F = np.hstack(coords)
    n_pre, n, rank = pair.n_pre, pair.n, F.shape[1]
    Xq, Xtq = F[pair.x], F[pair.xt]
    sp, st = pair.solver_pre, pair.solver_ft
    risks = [{"pre": [], "ft": []} for _ in kinds]
    zeta = {"pre": env.zeta1, "ft": env.zeta2}
    offset = {"pre": 1, "ft": 2}
    sd = np.sqrt([1.0, env.zeta1, env.zeta2])

    def normals(rows, var):
        return rng.standard_normal((rows, m)) * np.sqrt(var) if var > 0 else 0.0

    done = 0
    while done < draws:
        m = min(_MC_BATCH, draws - done)
        done += m
        alpha = {t: normals(rank, zeta[t]) for t in ("pre", "ft")}
        perp = {t: np.zeros(m) for t in ("pre", "ft")}
        if not pair.fixed_theta_c:
            g = rng.standard_normal((rank, m))
            grams = [(_off_span_gram(rng, dof, m) * sd[:, None] * sd, e) for dof, e in off]
            norm2 = np.sum(g * g, axis=0)
            for W, _ in grams:
                norm2 += W[:, 0, 0]
            s = env.theta_c_norm / np.sqrt(norm2)
            tc = g * s
            for W, e in grams:
                for t, k in offset.items():
                    perp[t] += e[t] * (s * s * W[:, 0, 0] + 2 * s * W[:, 0, k] + W[:, k, k])
        else:
            tc = np.broadcast_to(F[-1][:, None], (rank, m))
            for dof, e in off:
                chi2 = rng.chisquare(dof, (m, 2))
                for t, k in offset.items():
                    perp[t] += e[t] * zeta[t] * chi2[:, k - 1]
        target = {t: tc + alpha[t] for t in ("pre", "ft")}
        Y = Xq @ target["pre"] + normals(n_pre, env.sigma2)
        Yt = Xtq @ target["ft"] + normals(n, env.sigma2_tilde)
        hat0 = Xq.T @ sp.solve(Y)
        resid = Yt - Xtq @ hat0
        for i, kind in enumerate(kinds):
            lam, tau = kind.effective
            hat = hat0 if tau == 0.0 else hat0 + tau * (Xtq.T @ st.solve(resid, nlam=n * lam))
            for t, r in risks[i].items():
                d = hat - target[t]
                r.append(weights[t] @ (d * d) + perp[t])
    return [{t: np.concatenate(chunks) for t, chunks in r.items()} for r in risks]


class CountingRng:
    """Delegates to a Generator and counts every number it draws."""

    def __init__(self, rng):
        self._rng = rng
        self.count = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.count += np.size(out)
            return out
        return counted


def dense_risk_terms(X, Xt, blocks_pre, blocks_ft, zeta1, zeta2, sigma2, sigma2_tilde,
                     lam, tau, task, theta_c=None, theta_c_norm=1.0):
    """Exact conditional risk terms through dense p x p operators.

    Builds the error coefficient operator of every randomness source
    explicitly and evaluates the covariance-weighted quadratic forms.  The
    spectra are (count, value) blocks; a design may stop at its width.
    """
    eigs = eigenvalues(blocks_pre if task == "pre" else blocks_ft)
    p = eigs.size
    X, Xt = padded(X, p), padded(Xt, p)
    n = Xt.shape[0]  # the ridge penalty scales with the fine-tune sample count
    A = X @ X.T
    R = Xt @ Xt.T + n * lam * np.eye(n)
    P = X.T @ np.linalg.solve(A, X)
    K = tau * (Xt.T @ np.linalg.solve(R, Xt))
    I = np.eye(p)
    D = np.diag(eigs)
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
    """Random designs plus irregular spectra, as blocks, for oracle comparisons.

    Every nonzero eigenvalue is its own one-coordinate block; the fine-tune
    spectrum ends in one zero block, which its n x p_tilde design omits.
    """
    p_tilde = p_tilde or max(k_star + 2, p - 3)
    eigs_pre = np.sort(rng.uniform(0.05, 1.0, p))[::-1]
    eigs_ft = np.zeros(p)
    eigs_ft[:p_tilde] = np.sort(rng.uniform(0.05, 1.0, p_tilde))[::-1]
    X = rng.standard_normal((n, p)) * np.sqrt(eigs_pre)
    Xt = rng.standard_normal((n, p)) * np.sqrt(eigs_ft)
    blocks_ft = [(1, v) for v in eigs_ft[:p_tilde]] + [(p - p_tilde, 0.0)] * (p > p_tilde)
    return X, Xt[:, :p_tilde], [(1, v) for v in eigs_pre], blocks_ft


def two_term(ev, lam, objective="ft", dlam=False):
    """The two-term risk at lam as (a0, a1, a2) in tau, or its d/d(lam) (``Term.dlam``).

    The fine-tune task's term_zeta2 plus term_sigma_tilde; "sum" is the
    theorems' reduced two-task form, the same tau^2 coefficient once more.
    """
    res = ev.resolvent
    parts = ([ev.terms["ft"][k].dlam(res.d(lam), res.n) for k in TWO_TERMS] if dlam
             else [ev.term_quadratics(lam, "ft")[k] for k in TWO_TERMS])
    a0, a1, a2 = (sum(coefs) for coefs in zip(*parts))
    return a0, a1, 2 * a2 if objective == "sum" else a2


def at_tau(quadratic, tau):
    """a0 + a1 tau + a2 tau^2 of a (a0, a1, a2) quadratic."""
    a0, a1, a2 = quadratic
    return a0 + tau * (a1 + tau * a2)
