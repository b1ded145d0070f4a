"""Excess risks of the four estimators, three ways.

``plugin_excess_risk``       spectrum-weighted squared error of one realised
                             weight vector.
``AnalyticRisk``             exact expectation over (theta_c, alpha1, alpha2,
                             noise) with the two designs held fixed, via
                             closed-form trace formulas
                             (``AnalyticRisk.from_env(...).report(kind)``).
``mc_expected_risks``        Monte-Carlo estimates of the same expectation on
                             draws shared by all estimators, the independent
                             numerical check.
``lemma_approx_risk``        the two-term (task-shift + fine-tune noise)
                             shortcut: two of the exact evaluator's five
                             term quadratics, term_zeta2 and
                             term_sigma_tilde, read from the same
                             eigendecomposition of the fine-tune Gram.

Trace reduction
---------------
Write A = X X^T, At = Xt Xt^T, R = At + n*lam*I, G = X Xt^T, and for a
diagonal covariance D let S_X(D) = X D X^T, S_Xt(D) = Xt D Xt^T and
C(D) = X D Xt^T (all n x n).  With P = X^T A^{-1} X, K = tau * Xt^T R^{-1} Xt
and W = X (I - K), each conditional expectation below is a quadratic in tau
whose coefficients are traces of n x n products only:

    tr{D (I-K)^2}        = tr D - 2 tau tr{R^-1 S_Xt(D)}
                                 + tau^2 tr{R^-1 At R^-1 S_Xt(D)}
    tr{A^-1 W D W^T}     = tr{A^-1 S_X(D)} - 2 tau tr{A^-1 C(D) V}
                                 + tau^2 tr{A^-1 V^T S_Xt(D) V},  V = R^-1 G^T
    tr{A^-2 W D W^T}     = same with A^-2
    tr{D (I-K) P (I-K)}  = tr{A^-1 W D W^T}
    tr{D [I-(I-K)P][I-(I-K)P]^T} = tr D - 2 tr{D (I-K) P} + tr{A^-1 W D W^T}
    tr{K D K}            = tau^2 tr{R^-1 At R^-1 S_Xt(D)}

These identities are unit-tested against dense p x p evaluation at tiny
sizes.  Every lam reads one eigendecomposition At = U diag(s) U^T: with
d = 1/(s + n*lam), R^-1 = U diag(d) U^T, so each trace above is a d-weighted
contraction of n x n blocks fixed per design pair (U^T S_Xt(D) U, G U and
U^T G^T A^-k G U), O(n^2) per lam.  The quadratic-in-tau structure is exact,
so each tau then costs O(1) arithmetic.  ``FtResolvent``, the fine-tune half,
is shared with the two-term shortcut and the theory's optima and derivatives.

Monte Carlo
-----------
Every estimator is theta_1 + tau * Xt^T R^{-1} (Yt - Xt theta_1), so it lies
in the row span of X and Xt.  Split the coordinates into blocks on which
both spectra are constant; on block B (m_B coordinates) the span of the rows
of X_B and Xt_B has an orthonormal basis Q_B of rank r_B <= n_pre + n.  The
parameters are isotropic, so their coordinates in Q_B are i.i.d. normal, and
their parts off the span enter the risk only through one 3 x 3 Gram per
block, that of (theta_c's Gaussian, alpha1, alpha2), which is
Wishart_3(m_B - r_B, diag(1, zeta1, zeta2)); theta_c's sphere norm is the
in-span norm plus the Grams' [0, 0] entries.  A draw thus takes
3 sum_B r_B + n_pre + n normals plus at most six numbers per block, at any
p, with the exact law of the dense p-dimensional draw.  A fixed theta_c is
one more spanning row; each block then draws only the offsets' off-span
squared norms, zeta * chi2(m_B - r_B).  Every draw takes both noise
vectors, so all estimator points share one stream: a call for several
points gives each the numbers a call for that point alone gives.  Per batch
theta_1 is solved once and the ridge step once per lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import PRETRAINED, EstimatorKind, GramSolver, _solver
from .synth import TaskEnvironment, _wishart_bartlett

TERM_KEYS = ("bias_thetac", "term_zeta1", "term_zeta2", "term_sigma", "term_sigma_tilde")

# Negative term values smaller than this fraction of the total magnitude are
# rounding artifacts of trace cancellation and are clamped to zero.
_CLAMP_REL = 1e-10

_MC_BATCH = 512


@dataclass(frozen=True)
class TaskRisk:
    """Risk on one task: total value, five-way term split, optional MC error."""

    value: float
    terms: dict[str, float] = field(default_factory=dict)
    se: float | None = None
    note: str | None = None


@dataclass(frozen=True)
class RiskReport:
    """Risks of one estimator on both tasks under one evaluation method."""

    method: str  # plugin | monte_carlo | analytic | lemma_approx
    kind: EstimatorKind
    pre: TaskRisk | None
    ft: TaskRisk | None
    draws: int | None = None

    @property
    def l_pre(self) -> float:
        return self.pre.value if self.pre is not None else float("nan")

    @property
    def l_ft(self) -> float:
        return self.ft.value if self.ft is not None else float("nan")

    def task(self, name: str) -> TaskRisk:
        out = self.pre if name == "pre" else self.ft
        if out is None:
            raise ValueError(f"task {name!r} was not evaluated in this report")
        return out

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "estimator": self.kind.name,
            "lambda": self.kind.lam,
            "tau": self.kind.tau,
            "draws": self.draws,
        }
        for name, tr in (("pre", self.pre), ("ft", self.ft)):
            if tr is None:
                continue
            d[f"l_{name}"] = tr.value
            d[f"terms_{name}"] = dict(tr.terms)
            if tr.se is not None:
                d[f"se_{name}"] = tr.se
        return d


def plugin_excess_risk(theta_hat, theta_true: np.ndarray, eigs: np.ndarray) -> float:
    """Sum_i eigs_i (theta_hat_i - theta_true_i)^2."""
    w = theta_hat.weights if hasattr(theta_hat, "weights") else np.asarray(theta_hat)
    theta_true = np.asarray(theta_true)
    if w.shape != theta_true.shape or w.shape[0] != np.asarray(eigs).shape[0]:
        raise ValueError("dimension mismatch between weights, target and spectrum")
    diff = w - theta_true
    return float(np.sum(np.asarray(eigs) * diff * diff))


def _finish_terms(raw: dict[str, float]) -> tuple[float, dict[str, float]]:
    scale = sum(abs(v) for v in raw.values())
    terms = {}
    for k in TERM_KEYS:
        v = raw.get(k, 0.0)
        if -_CLAMP_REL * scale < v < 0.0:
            v = 0.0
        terms[k] = float(v)
    return float(sum(terms.values())), terms


class _Quad:
    """Quadratic a0 + a1*tau + a2*tau^2."""

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0=0.0, a1=0.0, a2=0.0):
        self.a0, self.a1, self.a2 = float(a0), float(a1), float(a2)

    def __call__(self, tau: float) -> float:
        return self.a0 + tau * (self.a1 + tau * self.a2)

    def __add__(self, other: "_Quad") -> "_Quad":
        return _Quad(self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2)


class FtResolvent:
    """The fine-tune half of the exact evaluator: one eigendecomposition of At.

    Holds At = U diag(s) U^T, Xt^T U and, per task covariance D ("ft": ``eigs``,
    "pre": ``eigs_pre``), M = U^T S U with S = Xt D Xt^T.  The traces t1-t3 =
    tr{R^-k S} and t4, t5 = tr{R^-k At S} are d-weighted sums of diag(M), O(n)
    per lam.  ``AnalyticRisk`` reads d, M and t1-t3 from it; the two-term
    shortcut, two of its five term quadratics, and the theory read the same
    traces.  t4 at lam = 0 on a jittered singular Gram has condition number
    cond(R)^3 ~ 1e37, so it is nan there rather than decided by rounding.
    """

    def __init__(self, Xt: np.ndarray, eigs: np.ndarray, jitter: bool = False,
                 eigs_pre: np.ndarray | None = None):
        self.n = Xt.shape[0]
        self.solver = GramSolver(Xt, jitter=jitter)
        self.XtU = Xt.T @ self.solver.U
        covs = {"ft": eigs} if eigs_pre is None else {"pre": eigs_pre, "ft": eigs}
        covs = {t: np.asarray(e, dtype=float) for t, e in covs.items()}
        self.tr_cov = {t: float(np.sum(e)) for t, e in covs.items()}
        self.M = {t: self.XtU.T @ (e[:, None] * self.XtU) for t, e in covs.items()}
        self._m = {t: np.diagonal(M) for t, M in self.M.items()}

    @classmethod
    def from_env(cls, Xt: np.ndarray, env: TaskEnvironment,
                 jitter: bool = False) -> "FtResolvent":
        eigs_pre, eigs_ft = env.eigenvalues()
        return cls(Xt, eigs_ft, jitter=jitter, eigs_pre=eigs_pre)

    def d(self, lam: float) -> np.ndarray:
        """1/(s + n*lam), the eigenvalues of R^-1."""
        _, shifted = self.solver.factor(self.n * float(lam))
        return 1.0 / shifted

    def traces(self, lam: float, task: str = "ft") -> dict[str, float]:
        d = self.d(lam)
        t = self.sums(d, task)
        d3 = d * d * d
        undefined = lam == 0.0 and self.solver.jitter_applied > 0
        t["t4"] = float("nan") if undefined else float(d3 @ self._m[task])
        t["t5"] = float((d3 * self.solver.s) @ self._m[task])
        return t

    def sums(self, d: np.ndarray, task: str) -> dict[str, float]:
        """t1-t3 at the resolvent eigenvalues d (s holds any jitter)."""
        d2, m = d * d, self._m[task]
        return {"t1": float(d @ m), "t2": float(d2 @ m), "t3": float((d2 * self.solver.s) @ m)}


def two_term_quadratics(t: dict[str, float], zeta2: float, sigma2_tilde: float,
                        tr_cov: float | None = None) -> dict[str, _Quad]:
    """term_zeta2 and term_sigma_tilde at one lam's traces ``t``, quadratics in tau.

    With ``tr_cov`` the fine-tune task's, zeta2 (tr_cov - 2 tau t1 + tau^2 t3)
    and sigma2_tilde tau^2 t2; without it the pretrain task's, tau^2 times
    zeta2 t3 and sigma2_tilde t2.  Exact evaluator and shortcut both read it.
    """
    if tr_cov is None:
        zeta = _Quad(0.0, 0.0, zeta2 * t["t3"])
    else:
        zeta = _Quad(zeta2 * tr_cov, -2 * zeta2 * t["t1"], zeta2 * t["t3"])
    return {"term_zeta2": zeta, "term_sigma_tilde": _Quad(0.0, 0.0, sigma2_tilde * t["t2"])}


class AnalyticRisk:
    """Exact conditional risk evaluator for one pair of designs.

    Accepts explicit eigenvalue vectors so irregular spectra can be fed in
    directly; ``from_env`` builds them from the block specs.  With
    ``theta_c=None`` the shared-parameter quadratic form is averaged over
    the uniform sphere of radius ``theta_c_norm`` (value
    norm^2/p * trace); passing a vector evaluates it at that fixed point.
    """

    def __init__(
        self,
        X: np.ndarray,
        Xt: np.ndarray,
        eigs_pre: np.ndarray,
        eigs_ft: np.ndarray,
        zeta1: float,
        zeta2: float,
        sigma2: float,
        sigma2_tilde: float,
        theta_c_norm: float = 1.0,
        theta_c: np.ndarray | None = None,
        jitter: bool = False,
    ):
        self.X, self.Xt = X, Xt
        self.eigs_pre = np.asarray(eigs_pre, dtype=float)
        self.eigs_ft = np.asarray(eigs_ft, dtype=float)
        self.zeta1, self.zeta2 = zeta1, zeta2
        self.sigma2, self.sigma2_tilde = sigma2, sigma2_tilde
        self.theta_c_norm = theta_c_norm
        self.theta_c = None if theta_c is None else np.asarray(theta_c, dtype=float)

        self.solver_pre = GramSolver(X, jitter=jitter)
        self.resolvent = FtResolvent(Xt, self.eigs_ft, jitter=jitter, eigs_pre=self.eigs_pre)
        self.tr_cov = self.resolvent.tr_cov

        # lam-independent traces against the pretrain Gram
        self._w0, self._u0 = {}, {}
        for t, e in self._tasks():
            a1 = self.solver_pre.solve((X * e) @ X.T)
            self._w0[t] = float(np.trace(a1))
            self._u0[t] = float(np.trace(self.solver_pre.solve(a1)))

        # fixed n x n blocks in the fine-tune eigenbasis (XtU = Xt^T U, p x n;
        # the resolvent holds M = U^T S_Xt(D) U):
        # c_k = diag(U^T G^T A^-k C(D) U), Q_k = U^T G^T A^-k G U
        XtU = self.resolvent.XtU
        GU = X @ XtU
        A1GU = self.solver_pre.solve(GU)
        AGU = (A1GU, self.solver_pre.solve(A1GU))  # A^-k G U, k = 1, 2
        self._Q = [GU.T @ a for a in AGU]
        self._c = {}
        for t, e in self._tasks():
            CU = X @ (e[:, None] * XtU)
            self._c[t] = [np.einsum("ij,ij->j", a, CU) for a in AGU]

        if self.theta_c is not None:
            # h = (I - P) theta_c, evaluated with matrix-vector work only;
            # g = U^T Xt h and g_D = U^T Xt D h are its fine-tune projections
            h = self.theta_c - X.T @ self.solver_pre.solve(X @ self.theta_c)
            self._h_c0 = {t: float(h @ (e * h)) for t, e in self._tasks()}
            self._g = XtU.T @ h
            self._g_cov = {t: XtU.T @ (e * h) for t, e in self._tasks()}

    def _tasks(self):
        return (("pre", self.eigs_pre), ("ft", self.eigs_ft))

    @classmethod
    def from_env(
        cls,
        X: np.ndarray,
        Xt: np.ndarray,
        env: TaskEnvironment,
        theta_c: np.ndarray | None = None,
        jitter: bool = False,
    ) -> "AnalyticRisk":
        eigs_pre, eigs_ft = env.eigenvalues()
        return cls(
            X, Xt, eigs_pre, eigs_ft,
            zeta1=env.zeta1, zeta2=env.zeta2,
            sigma2=env.sigma2, sigma2_tilde=env.sigma2_tilde,
            theta_c_norm=env.theta_c_norm, theta_c=theta_c, jitter=jitter,
        )

    def _blocks(self, lam: float, t: str) -> dict:
        """The lam-dependent traces of task t: d-weighted contractions, O(n^2)."""
        res = self.resolvent
        d, M = res.d(lam), res.M[t]
        dMd = d[:, None] * M * d  # U^T R^-1 S R^-1 U
        (c1, c2), (Q1, Q2) = self._c[t], self._Q
        blk = res.sums(d, t)
        blk.update(
            w1=float(d @ c1),
            u1=float(d @ c2),
            w2=float(np.sum(dMd * Q1.T)),
            u2=float(np.sum(dMd * Q2.T)),
        )
        if self.theta_c is not None:
            dg = d * self._g  # U^T R^-1 Xt h
            blk["hb1"] = -2.0 * float(self._g_cov[t] @ dg)
            blk["hb2"] = float(dg @ M @ dg)
        return blk

    def term_quadratics(self, lam: float, task: str) -> dict[str, _Quad]:
        """Each risk term as an exact quadratic in tau, at fixed lam."""
        t = task
        b = self._blocks(lam, t)
        w0, u0 = self._w0[t], self._u0[t]
        trc = self.tr_cov[t]
        quads = {}
        if self.theta_c is None:
            scale = self.theta_c_norm**2 / self.eigs_pre.size
            quads["bias_thetac"] = _Quad(
                scale * (trc - w0),
                scale * (-2 * b["t1"] + 2 * b["w1"]),
                scale * (b["t3"] - b["w2"]),
            )
        else:
            quads["bias_thetac"] = _Quad(self._h_c0[t], b["hb1"], b["hb2"])
        if task == "pre":
            quads["term_zeta1"] = _Quad(
                self.zeta1 * (self.tr_cov["pre"] - w0), 0.0, self.zeta1 * b["w2"]
            )
        else:
            quads["term_zeta1"] = _Quad(
                self.zeta1 * w0, -2 * self.zeta1 * b["w1"], self.zeta1 * b["w2"]
            )
        quads["term_sigma"] = _Quad(
            self.sigma2 * u0, -2 * self.sigma2 * b["u1"], self.sigma2 * b["u2"]
        )
        quads.update(two_term_quadratics(b, self.zeta2, self.sigma2_tilde,
                                         trc if task == "ft" else None))
        return {k: quads[k] for k in TERM_KEYS}

    def _task_risk_tau0(self, task: str) -> TaskRisk:
        # pretrained estimator: no fine-tune resolvent is ever touched
        t = task
        w0, u0 = self._w0[t], self._u0[t]
        trc = self.tr_cov[t]
        if self.theta_c is None:
            bias = self.theta_c_norm**2 / self.eigs_pre.size * (trc - w0)
        else:
            bias = self._h_c0[t]
        raw = {
            "bias_thetac": bias,
            "term_zeta1": self.zeta1 * (self.tr_cov["pre"] - w0) if task == "pre"
            else self.zeta1 * w0,
            "term_zeta2": 0.0 if task == "pre" else self.zeta2 * trc,
            "term_sigma": self.sigma2 * u0,
            "term_sigma_tilde": 0.0,
        }
        value, terms = _finish_terms(raw)
        return TaskRisk(value=value, terms=terms)

    def task_risk(self, kind: EstimatorKind, task: str) -> TaskRisk:
        lam, tau = kind.effective
        if tau == 0.0:
            return self._task_risk_tau0(task)
        quads = self.term_quadratics(lam, task)
        value, terms = _finish_terms({k: q(tau) for k, q in quads.items()})
        return TaskRisk(value=value, terms=terms)

    def report(self, kind: EstimatorKind, task: str = "both") -> RiskReport:
        pre = self.task_risk(kind, "pre") if task in ("pre", "both") else None
        ft = self.task_risk(kind, "ft") if task in ("ft", "both") else None
        return RiskReport(method="analytic", kind=kind, pre=pre, ft=ft)


class _RowSpace:
    """The designs in an orthonormal basis of their row span, block by block.

    A block is a run of coordinates on which both spectra are constant.  For
    block B, C_B stacks the rows of X_B, Xt_B and (if given) a fixed
    theta_c_B; a QR of C_B^T and an SVD of its triangle give C_B Q_B for an
    orthonormal basis Q_B of the rows' span, whose rank r_B drops singular
    values below ``max(C_B.shape) * eps`` of the largest.  Stacked over the
    blocks, ``Xq`` and ``Xtq`` satisfy Xq Xq^T = X X^T, Xtq Xtq^T = Xt Xt^T and
    Xtq Xq^T = Xt X^T, so the designs' own solvers serve the reduced
    coordinates.  ``weights`` holds each reduced coordinate's spectrum value
    per task; ``off`` the off-span dimension m_B - r_B and spectrum values of
    every block with one.
    """

    def __init__(self, X: np.ndarray, Xt: np.ndarray, eigs: dict[str, np.ndarray],
                 theta_c: np.ndarray | None = None):
        C = np.vstack([X, Xt] if theta_c is None else [X, Xt, theta_c[None, :]])
        e_pre, e_ft = eigs["pre"], eigs["ft"]
        cuts = [int(c) + 1 for c in np.flatnonzero((np.diff(e_pre) != 0) | (np.diff(e_ft) != 0))]
        coords, ranks, self.off = [], [], []
        for lo, hi in zip([0, *cuts], [*cuts, e_pre.size]):
            V, sv, _ = np.linalg.svd(np.linalg.qr(C[:, lo:hi].T, mode="r").T,
                                     full_matrices=False)
            r = int(np.sum(sv > sv[0] * max(C.shape[0], hi - lo) * np.finfo(float).eps))
            coords.append(V[:, :r] * sv[:r])
            ranks.append(r)
            if hi - lo > r:
                self.off.append((hi - lo - r, {t: float(e[lo]) for t, e in eigs.items()}))
        CQ = np.hstack(coords)
        n_pre = X.shape[0]
        self.Xq, self.Xtq = CQ[:n_pre], CQ[n_pre:n_pre + Xt.shape[0]]
        self.theta_c = None if theta_c is None else CQ[-1]
        starts = [0, *cuts]
        self.weights = {t: np.repeat(e[starts], ranks) for t, e in eigs.items()}


def _off_span_gram(rng: np.random.Generator, dof: int, m: int) -> np.ndarray:
    """m draws of Wishart_3(dof, I): Bartlett's factor, or G^T G when dof < 3."""
    if dof >= 3:
        return _wishart_bartlett(rng, 3, dof, (m,))
    G = rng.standard_normal((m, dof, 3))
    return np.swapaxes(G, 1, 2) @ G


def mc_expected_risks(
    X: np.ndarray,
    Xt: np.ndarray,
    env: TaskEnvironment,
    kinds: list[EstimatorKind],
    draws: int,
    rng: np.random.Generator,
    task: str = "both",
    theta_c: np.ndarray | None = None,
    jitter: bool = False,
    solver_pre: GramSolver | None = None,
    solver_ft: GramSolver | None = None,
) -> list[RiskReport]:
    """Monte-Carlo mean of the plug-in risk over fresh parameter/noise draws,
    one report per kind, every kind on the same draws.

    Designs stay fixed; each Gram is eigendecomposed once and each block's
    basis taken once, so a draw costs O(n) numbers and n x n work at any p
    (see the module docstring).  Draws are vectorised in batches of
    ``_MC_BATCH``, which fixes the stream.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    tasks = [t for t in ("pre", "ft") if task in (t, "both")]
    sp = _solver(X, solver_pre, jitter)
    st = _solver(Xt, solver_ft, jitter)
    eigs = dict(zip(("pre", "ft"), env.eigenvalues()))
    space = _RowSpace(X, Xt, eigs, None if theta_c is None else np.asarray(theta_c, dtype=float))
    risks = _mc_risk_draws(space, sp, st, env, kinds, draws, rng, tasks)

    def summarise(r) -> TaskRisk:
        se = float(np.std(r, ddof=1) / np.sqrt(r.size)) if r.size > 1 else 0.0
        return TaskRisk(value=float(np.mean(r)), se=se)

    return [RiskReport(method="monte_carlo", kind=kind, draws=draws,
                       pre=summarise(r["pre"]) if "pre" in r else None,
                       ft=summarise(r["ft"]) if "ft" in r else None)
            for kind, r in zip(kinds, risks)]


def _mc_risk_draws(space: _RowSpace, sp: GramSolver, st: GramSolver, env: TaskEnvironment,
                   kinds: list[EstimatorKind], draws: int, rng: np.random.Generator,
                   tasks: list[str]) -> list[dict[str, np.ndarray]]:
    """The plug-in risk of every kind on each of ``draws`` shared draws, per task."""
    Xq, Xtq = space.Xq, space.Xtq
    n_pre, n = Xq.shape[0], Xtq.shape[0]
    rank = Xq.shape[1]
    # kind indices with tau = 0 (the pretrained weights), the rest grouped by lam
    pretrained, by_lam = [], {}
    for i, kind in enumerate(kinds):
        lam, tau = kind.effective
        if tau == 0.0:
            pretrained.append(i)
        else:
            by_lam.setdefault(lam, []).append((i, tau))
    risks = [{t: [] for t in tasks} for _ in kinds]
    zeta = {"pre": env.zeta1, "ft": env.zeta2}
    offset = {"pre": 1, "ft": 2}  # index of the task's offset in each off-span Gram
    sd = np.sqrt([1.0, env.zeta1, env.zeta2])

    def normals(rows, var):
        return rng.standard_normal((rows, m)) * np.sqrt(var) if var > 0 else 0.0

    def add(i, hat):
        for t in tasks:
            d = hat - target[t]
            risks[i][t].append(space.weights[t] @ (d * d) + perp[t])

    done = 0
    while done < draws:
        m = min(_MC_BATCH, draws - done)
        done += m
        # in-span coordinates of both offsets (and below, of theta_c's Gaussian);
        # the off-span parts enter only as their squared risk per task
        alpha = {t: normals(rank, zeta[t]) for t in ("pre", "ft")}
        perp = {t: np.zeros(m) for t in ("pre", "ft")}
        if space.theta_c is None:
            g = rng.standard_normal((rank, m))
            grams = [(_off_span_gram(rng, dof, m) * sd[:, None] * sd, e) for dof, e in space.off]
            norm2 = np.sum(g * g, axis=0)
            for W, _ in grams:
                norm2 += W[:, 0, 0]
            s = env.theta_c_norm / np.sqrt(norm2)
            tc = g * s
            for W, e in grams:
                for t, k in offset.items():
                    perp[t] += e[t] * (s * s * W[:, 0, 0] + 2 * s * W[:, 0, k] + W[:, k, k])
        else:
            tc = np.broadcast_to(space.theta_c[:, None], (rank, m))
            for dof, e in space.off:
                chi2 = rng.chisquare(dof, (m, 2))
                for t, k in offset.items():
                    perp[t] += e[t] * zeta[t] * chi2[:, k - 1]
        target = {t: tc + alpha[t] for t in ("pre", "ft")}
        Y = Xq @ target["pre"] + normals(n_pre, env.sigma2)
        Yt = Xtq @ target["ft"] + normals(n, env.sigma2_tilde)
        hat0 = Xq.T @ sp.solve(Y)
        for i in pretrained:
            add(i, hat0)
        resid = Yt - Xtq @ hat0
        for lam, points in by_lam.items():
            step = Xtq.T @ st.solve(resid, nlam=n * lam)
            for i, tau in points:
                add(i, hat0 + tau * step)
    return [{t: np.concatenate(chunks) for t, chunks in r.items()} for r in risks]


def lemma_approx_risk(
    Xt: np.ndarray,
    env: TaskEnvironment,
    kind: EstimatorKind,
    task: str = "both",
    jitter: bool = False,
    evaluator: FtResolvent | None = None,
) -> RiskReport:
    """Dominant-term shortcut: the exact evaluator's term_zeta2 and
    term_sigma_tilde only, read from ``evaluator`` (an ``FtResolvent``, for
    instance ``AnalyticRisk.resolvent``) when given.  The pretrained
    estimator's pretrain risk is lower-order and reported as 0 with a note.
    """
    lam, tau = kind.effective
    tasks = [t for t in ("pre", "ft") if task in (t, "both")]
    if kind.name == PRETRAINED:  # tau = 0: only the fine-tune task-shift constant
        tr_ft = float(np.sum(env.eigenvalues()[1]))
        quads = {"pre": {}, "ft": {"term_zeta2": _Quad(env.zeta2 * tr_ft)}}
    else:
        res = evaluator or FtResolvent.from_env(Xt, env, jitter=jitter)
        quads = {t: two_term_quadratics(res.traces(lam, t), env.zeta2, env.sigma2_tilde,
                                        res.tr_cov[t] if t == "ft" else None)
                 for t in tasks}
    risks = {t: TaskRisk(*_finish_terms({k: q(tau) for k, q in quads[t].items()}),
                         note=None if quads[t] else "negligible next to every fine-tuned estimator")
             for t in tasks}
    return RiskReport(method="lemma_approx", kind=kind,
                      pre=risks.get("pre"), ft=risks.get("ft"))
