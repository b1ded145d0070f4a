"""Monte-Carlo estimates of the exact risks, the independent numerical check.

Only the monte_carlo method loads this module.  ``mc_expected_risks`` holds a
``risk.DesignPair``'s designs fixed and draws the rest of the model.

Every estimator is theta_1 + tau * Xt^T R^{-1} (Yt - Xt theta_1), so it lies
in the row span of X and Xt.  Split the coordinates into blocks on which
both spectra are constant (the pair's runs).  On block B (m_B coordinates)
the rows of C_B = [X_B; Xt_B] span a space of rank r_B <= n_pre + n with an
orthonormal basis Q_B, and the designs enter the draw only through C_B Q_B.
Any F_B with F_B F_B^T = C_B C_B^T is C_B Q_B for some such basis, so one
SVD of the block's Gram, which the pair already holds, gives the
coordinates; no QR over the design columns is taken.  The parameters are
isotropic within a block, so their coordinates in any such basis are i.i.d.
normal, and their parts off the span enter the risk only through one 3 x 3
Gram per block, that of (theta_c's Gaussian, alpha1, alpha2), which is
Wishart_3(m_B - r_B, diag(1, zeta1, zeta2)); theta_c's sphere norm is the
in-span norm plus the Grams' [0, 0] entries.  A draw thus takes
3 sum_B r_B + n_pre + n normals plus at most six numbers per block, at any
p, with the exact law of the dense p-dimensional draw.  A fixed theta_c is
one more spanning row; each block then draws only the offsets' off-span
squared norms, zeta * chi2(m_B - r_B).  Every draw takes both noise
vectors, so all estimator points share one stream: a call for several
points gives each the numbers a call for that point alone gives.  Per batch
theta_1 is solved once and the ridge step once per lam, and a point's risk
is a quadratic in tau read from three per-draw coefficients: c0 per task
from the pretrained error e0 = hat0 - target, and c1, c2 per lam from e0
and the ridge step.  A call allocates its batch arrays once, so its memory
is fixed by the rank, the batch size and the returned per-draw risks, and
its cost grows with the number of lambdas, not of points.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .estimators import EstimatorKind
from .risk import TASKS, DesignPair
from .synth import _wishart_bartlett

_MC_BATCH = 512


def row_space(pair: DesignPair) -> list[np.ndarray]:
    """The pair's coordinates: per run, F_r with F_r F_r^T = C_r C_r^T.

    One SVD of the run's Gram, restricted to the rows that are live on the
    run, gives F_r = U sqrt(s) on the rank that keeps the singular values
    above s[0] * max(rows, m_r) * eps.
    """
    coords = []
    for gram, m in zip(pair.grams, pair.sizes):
        live = np.flatnonzero(np.diagonal(gram))
        F = np.zeros((gram.shape[0], 0))
        if live.size:
            U, s, _ = np.linalg.svd(gram[np.ix_(live, live)])
            rank = int(np.sum(s > s[0] * max(gram.shape[0], m) * np.finfo(float).eps))
            F = np.zeros((gram.shape[0], rank))
            F[live] = U[:, :rank] * np.sqrt(s[:rank])
        coords.append(F)
    return coords


def _off_span_gram(rng: np.random.Generator, dof: int, m: int) -> np.ndarray:
    """m draws of Wishart_3(dof, I): Bartlett's factor, or G^T G when dof < 3."""
    if dof >= 3:
        return _wishart_bartlett(rng, 3, dof, (m,))
    G = rng.standard_normal((m, dof, 3))
    return np.swapaxes(G, 1, 2) @ G


def mc_expected_risks(pair: DesignPair, env: ExperimentConfig, kinds: list[EstimatorKind],
                      rng: np.random.Generator) -> list[dict[str, tuple[float, float]]]:
    """Monte-Carlo mean of the plug-in risk over env's ``mc_draws`` fresh
    parameter/noise draws and its standard error, ``{task: (mean, se)}`` per
    kind, every kind on the same draws.

    The pair's designs (and fixed theta_c, if it has one) stay fixed; its
    solvers and one row-space reduction serve every draw, so a draw costs
    O(n) numbers and n x n work at any p (see the module docstring).  Draws
    are vectorised in batches of ``_MC_BATCH``, which fixes the stream.
    """
    return [{t: (float(np.mean(r)), float(np.std(r, ddof=1) / np.sqrt(r.size)))
             for t, r in risks.items()}
            for risks in _mc_risk_draws(pair, env, kinds, rng)]


def _mc_risk_draws(pair: DesignPair, env: ExperimentConfig, kinds: list[EstimatorKind],
                   rng: np.random.Generator) -> list[dict[str, np.ndarray]]:
    """The plug-in risk of every kind on each of env's ``mc_draws`` shared draws, per task.

    The batch arrays are allocated once per call, and each batch draws and
    solves into them in place; a partial last batch uses the leading (rows, m)
    part of each, which is contiguous, so the stream is that of fresh arrays.  A
    point's error is e0 + tau step, with e0 = hat0 - target the pretrained
    error and step its lam's ridge step, so its weighed squared error is
    c0 + tau (c1 + tau c2): c0 = w.e0^2 once per task, c1 = 2 w.(e0 step) and
    c2 = w.step^2 once per lam, and O(1) per point and draw.
    """
    coords = row_space(pair)
    ranks = [F.shape[1] for F in coords]
    # each coordinate's spectrum value per task, and every run's off-span dimension
    weights = {t: np.repeat(v, ranks) for t, v in pair.values.items()}
    off = [(m - r, {t: float(v[i]) for t, v in pair.values.items()})
           for i, (m, r) in enumerate(zip(pair.sizes, ranks)) if m > r]
    F = np.hstack(coords)
    del coords  # copied into F
    n_pre, n, rank, draws = pair.n_pre, pair.n, F.shape[1], env.mc_draws
    Xq, Xtq = F[pair.x], F[pair.xt]
    sp, st = pair.solver_pre, pair.solver_ft
    # kind indices with tau = 0 (the pretrained weights), the rest grouped by lam
    pretrained, by_lam = [], {}
    for i, kind in enumerate(kinds):
        lam, tau = kind.effective
        if tau == 0.0:
            pretrained.append(i)
        else:
            by_lam.setdefault(lam, []).append((i, tau))
    risks = [{t: np.empty(draws) for t in TASKS} for _ in kinds]
    zeta = {"pre": env.zeta1, "ft": env.zeta2}
    offset = {"pre": 1, "ft": 2}  # index of the task's offset in each off-span Gram
    sd = np.sqrt([1.0, env.zeta1, env.zeta2])
    # both offsets (each becomes its task's target, then its e0), theta_c's
    # Gaussian, hat0, the ridge step and one scratch array; the labels (first
    # Y, then Yt), their noise (then the fine-tune fit of hat0, then each Gram
    # solve's coefficients) and the Gram solves' results
    size = min(_MC_BATCH, draws)
    bufs = {k: np.empty(rank * size) for k in (*TASKS, "g", "hat0", "step", "scratch")}
    labels, noise, solved = (np.empty(max(n_pre, n) * size) for _ in range(3))

    def batch(flat, rows=rank):
        return flat[: rows * m].reshape(rows, m)

    def normals(out, var):
        if var > 0:
            rng.standard_normal(out=out)
            out *= np.sqrt(var)
            return out
        return 0.0

    done = 0
    while done < draws:
        m = min(_MC_BATCH, draws - done)
        drawn = slice(done, done + m)
        done += m
        # in-span coordinates of both offsets (and below, of theta_c's Gaussian);
        # the off-span parts enter only as their squared risk per task
        alpha = {t: normals(batch(bufs[t]), zeta[t]) for t in TASKS}
        perp = {t: np.zeros(m) for t in TASKS}
        scratch = batch(bufs["scratch"])
        if not pair.fixed_theta_c:
            tc = batch(bufs["g"])
            rng.standard_normal(out=tc)
            grams = [(_off_span_gram(rng, dof, m), e) for dof, e in off]
            norm2 = np.sum(np.multiply(tc, tc, out=scratch), axis=0)
            for W, _ in grams:
                W *= sd[:, None]  # scaled in place
                W *= sd
                norm2 += W[:, 0, 0]
            s = env.theta_c_norm / np.sqrt(norm2)
            tc *= s
            for W, e in grams:
                for t, k in offset.items():
                    perp[t] += e[t] * (s * s * W[:, 0, 0] + 2 * s * W[:, 0, k] + W[:, k, k])
        else:
            tc = F[-1][:, None]
            for dof, e in off:
                chi2 = rng.chisquare(dof, (m, 2))
                for t, k in offset.items():
                    perp[t] += e[t] * zeta[t] * chi2[:, k - 1]
        target = {t: np.add(tc, alpha[t], out=batch(bufs[t])) for t in TASKS}
        Y = np.matmul(Xq, target["pre"], out=batch(labels, n_pre))
        Y += normals(batch(noise, n_pre), env.sigma2)
        fit = sp.solve(Y, 0.0, batch(noise, n_pre), batch(solved, n_pre))
        hat0 = np.matmul(Xq.T, fit, out=batch(bufs["hat0"]))
        Yt = np.matmul(Xtq, target["ft"], out=batch(labels, n))
        Yt += normals(batch(noise, n), env.sigma2_tilde)
        Yt -= np.matmul(Xtq, hat0, out=batch(noise, n))  # the fine-tune residual
        # e0 = hat0 - target, in place of the target, and c0 = w.e0^2
        e0 = {t: np.subtract(hat0, target[t], out=target[t]) for t in TASKS}
        c0 = {t: weights[t] @ np.multiply(e, e, out=scratch) for t, e in e0.items()}
        for i in pretrained:
            for t, r in risks[i].items():
                r[drawn] = c0[t] + perp[t]
        for lam, points in by_lam.items():
            fit = st.solve(Yt, n * lam, batch(noise, n), batch(solved, n))
            step = np.matmul(Xtq.T, fit, out=batch(bufs["step"]))
            sq = np.multiply(step, step, out=scratch)
            c2 = {t: weights[t] @ sq for t in TASKS}
            c1 = {t: 2 * (weights[t] @ np.multiply(e, step, out=scratch)) for t, e in e0.items()}
            for i, tau in points:
                for t, r in risks[i].items():
                    r[drawn] = c0[t] + tau * (c1[t] + tau * c2[t]) + perp[t]
    return risks
