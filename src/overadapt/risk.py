"""Excess risks of the four estimators, three ways.

``DesignPair``               one seed's designs reduced once, to one Gram of
                             their stacked rows per spectrum run; every
                             method below reads the pair.
``TermRisk``                 reads per-task ``Term``s at each lam's resolvent
                             weights, one memo per (lam, task); its
                             ``report(kind)`` covers both tasks.
``AnalyticRisk``             the ``TermRisk`` of the exact expectation over
                             (theta_c, alpha1, alpha2, noise) with the two
                             designs held fixed: five closed-form Terms
                             (``AnalyticRisk.from_env(pair, env).report(kind)``).
``mc_expected_risks``        Monte-Carlo estimates of the same expectation on
                             draws shared by all estimators, the independent
                             numerical check.
``lemma_approx_risk``        the two-term (task-shift + fine-tune noise)
                             shortcut, a ``TermRisk`` over two of the exact
                             evaluator's five Terms, term_zeta2 and
                             term_sigma_tilde
                             (``lemma_approx_risk(pair, env).report(kind)``).

Trace reduction
---------------
Write A = X X^T, At = Xt Xt^T = U diag(s) U^T, G = X Xt^T, and for a
diagonal covariance D let S_X(D) = X D X^T, S_Xt(D) = Xt D Xt^T and
C(D) = X D Xt^T (all n x n).  Every fine-tuned estimator is
theta_1 + tau Xt^T U diag(d) U^T (Yt - Xt theta_1), with resolvent weights
d = 1/(s + n*lam) on the fine-tune eigenbasis, so each risk term on each
task is exactly a ``Term`` (c, b, H) fixed per design pair:

    c + tau b.d + tau^2 d^T H d.

With M = U^T S_Xt(D) U, m = diag(M), c_k = diag(U^T G^T A^-k C(D) U),
Q_k = U^T G^T A^-k G U, w0 = tr{A^-1 S_X(D)}, u0 = tr{A^-2 S_X(D)},
r2 = theta_c_norm^2/p and o the elementwise product:

    bias_thetac       r2 (tr D - w0),   2 r2 (c_1 - m),   r2 (diag(s m) - M o Q_1^T)
    term_zeta1        pre zeta1 (tr D - w0), 0;  ft zeta1 w0, -2 zeta1 c_1;  zeta1 M o Q_1^T
    term_sigma        sigma2 u0,        -2 sigma2 c_2,    sigma2 M o Q_2^T
    term_zeta2        ft zeta2 tr D, -2 zeta2 m;  pre 0, 0;  zeta2 diag(s m)
    term_sigma_tilde  0,                0,                sigma2_tilde diag(m)

A fixed theta_c replaces the bias term's sphere average by its value: with
h = (I - X^T A^-1 X) theta_c and g = U^T Xt h, it is
(h^T D h, -2 (U^T Xt D h) o g, (g g^T) o M).  The terms are pinned to dense
p x p evaluation in the tests.  The spectra come as (count, value) blocks,
so the covariances are constant on the few runs their merged edges make
(three for every config): S_X(D), S_Xt(D), C(D) and G are spectrum-weighted
sums of one Gram per run of the stacked rows [X; Xt] (``DesignPair``), one
pass over the drawn design columns, with no length-p or p x n array.  A and
At, and so both solvers, are diagonal blocks of the summed Gram.  A diagonal
H is kept as its diagonal, so the two-term
shortcut (term_zeta2 and term_sigma_tilde, built by ``FtResolvent``) costs
O(n) per point; the exact evaluator costs O(n^2) per lam, keeps each lam's
quadratics, and then O(1) per tau.

Monte Carlo
-----------
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

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ExperimentConfig
from .estimators import EstimatorKind, GramSolver
from .synth import _wishart_bartlett

TERM_KEYS = ("bias_thetac", "term_zeta1", "term_zeta2", "term_sigma", "term_sigma_tilde")

# Negative term values smaller than this fraction of the total magnitude are
# rounding artifacts of trace cancellation and are clamped to zero.
_CLAMP_REL = 1e-10

_MC_BATCH = 512

TASKS = ("pre", "ft")


@dataclass(frozen=True)
class TaskRisk:
    """Risk on one task: total value, five-way term split, optional MC error."""

    value: float
    terms: dict[str, float] = field(default_factory=dict)
    se: float | None = None


@dataclass(frozen=True)
class RiskReport:
    """Risks of one estimator on both tasks under one evaluation method."""

    method: str  # monte_carlo | analytic | lemma_approx
    kind: EstimatorKind
    pre: TaskRisk
    ft: TaskRisk
    draws: int | None = None

    @property
    def l_pre(self) -> float:
        return self.pre.value

    @property
    def l_ft(self) -> float:
        return self.ft.value

    def task(self, name: str) -> TaskRisk:
        if name not in TASKS:
            raise ValueError(f"unknown task {name!r}; known: pre, ft")
        return getattr(self, name)

    def to_dict(self) -> dict:
        lam, tau = self.kind.shown
        d = {"method": self.method, "estimator": self.kind.name, "lambda": lam, "tau": tau,
             "draws": self.draws}
        for name, tr in (("pre", self.pre), ("ft", self.ft)):
            d[f"l_{name}"] = tr.value
            d[f"terms_{name}"] = dict(tr.terms)
            if tr.se is not None:
                d[f"se_{name}"] = tr.se
        return d


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


@dataclass(frozen=True, eq=False)
class Term:
    """One risk term on one task: c + tau b.d + tau^2 d^T H d at resolvent weights d.

    A diagonal H is held as its diagonal vector.
    """

    c: float
    b: np.ndarray
    H: np.ndarray

    def _apply(self, d: np.ndarray) -> np.ndarray:
        return self.H * d if self.H.ndim == 1 else self.H @ d

    def at(self, d: np.ndarray) -> _Quad:
        """The term at one lam's weights d, as a quadratic in tau."""
        return _Quad(self.c, self.b @ d, d @ self._apply(d))

    def dlam(self, d: np.ndarray, n: int) -> _Quad:
        """d/d(lam) of ``at(d)``: tau b.d' + 2 tau^2 (H d).d', d' = -n d^2, H symmetric."""
        dd = -n * d * d
        return _Quad(0.0, self.b @ dd, 2.0 * (self._apply(d) @ dd))


def _runs(blocks: dict[str, Sequence]) -> tuple[list[tuple[int, int]], dict[str, np.ndarray]]:
    """The [lo, hi) coordinate runs on which every task's (count, value) blocks
    are constant, and each task's value per run."""
    blocks = {t: [(int(c), float(v)) for c, v in b if c] for t, b in blocks.items()}
    ends = {t: np.cumsum([c for c, _ in b]) for t, b in blocks.items()}
    p = {int(e[-1]) for e in ends.values()}
    if len(p) != 1:
        raise ValueError(f"the tasks' blocks cover different dimensions {sorted(p)}")
    starts = [0, *sorted({int(e) for t, b in blocks.items()
                          for e, (_, v), (_, w) in zip(ends[t], b, b[1:]) if v != w})]
    values = {t: np.array([v for _, v in b])[np.searchsorted(ends[t], starts, side="right")]
              for t, b in blocks.items()}
    return list(zip(starts, [*starts[1:], *p])), values


class DesignPair:
    """One seed's two designs, reduced once: one Gram per spectrum run.

    A run is a stretch of coordinates on which both tasks' spectra, given as
    (count, value) blocks that cover p, are constant (``_runs``).  One pass
    over the design columns forms, per run r, the Gram C_r C_r^T of the
    stacked rows C = [X; Xt] (a fixed ``theta_c`` is one more row), skipping a
    design on a run where its spectrum is zero, so a design may stop at the
    end of its last nonzero block, as a drawn one does.  The pair keeps
    those Grams, each run's spectrum value per task (``values``) and size,
    ``tr_cov``, ``p`` and ``jitter``; nothing below reads X or Xt again:

    * ``S[t]`` = C D_t C^T and ``G`` = C C^T, spectrum-weighted sums;
    * ``solver_pre`` and ``solver_ft``, from G's diagonal blocks,
      eigendecomposed on first use;
    * ``resolvent``, the fine-tune ``FtResolvent`` every method shares;
    * ``row_space()``, Monte Carlo's coordinates (see the module docstring).
    """

    def __init__(self, X: np.ndarray, Xt: np.ndarray, blocks_pre: Sequence, blocks_ft: Sequence,
                 theta_c: np.ndarray | None = None, jitter: bool = False):
        blocks = {"pre": blocks_pre, "ft": blocks_ft}
        tc = [] if theta_c is None else [(np.asarray(theta_c, dtype=float)[None, :], None)]
        rows = [(X, "pre"), (Xt, "ft"), *tc]  # each row block with its task
        self.n_pre, self.n = X.shape[0], Xt.shape[0]
        self.x, self.xt = slice(0, self.n_pre), slice(self.n_pre, self.n_pre + self.n)
        self.fixed_theta_c = theta_c is not None
        self.jitter = jitter
        self.tr_cov = {t: float(sum(c * v for c, v in b)) for t, b in blocks.items()}
        runs, self.values = _runs(blocks)
        self.sizes = [hi - lo for lo, hi in runs]
        self.p = runs[-1][1]
        edges = np.cumsum([0, *(r.shape[0] for r, _ in rows)])
        spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        self.grams = []
        for i, (lo, hi) in enumerate(runs):
            gram = np.zeros((edges[-1], edges[-1]))
            live = [(b, r[:, lo:hi]) for b, (r, t) in zip(spans, rows)
                    if t is None or self.values[t][i] != 0.0]
            for k, (bi, ri) in enumerate(live):
                for bj, rj in live[k:]:
                    gram[bi, bj] = ri @ rj.T
                    gram[bj, bi] = gram[bi, bj].T
            self.grams.append(gram)
        self.G = sum(self.grams)
        self.S = {t: sum(v * g for v, g in zip(vals, self.grams))
                  for t, vals in self.values.items()}

    @classmethod
    def from_env(cls, X: np.ndarray, Xt: np.ndarray, env: ExperimentConfig,
                 theta_c: np.ndarray | None = None, jitter: bool = False) -> "DesignPair":
        return cls(X, Xt, env.spectrum_pre.blocks, env.spectrum_ft.blocks,
                   theta_c=theta_c, jitter=jitter)

    @cached_property
    def solver_pre(self) -> GramSolver:
        return GramSolver(self.G[self.x, self.x], jitter=self.jitter)

    @cached_property
    def solver_ft(self) -> GramSolver:
        return GramSolver(self.G[self.xt, self.xt], jitter=self.jitter)

    @cached_property
    def resolvent(self) -> "FtResolvent":
        return FtResolvent(self)

    def row_space(self) -> list[np.ndarray]:
        """Monte Carlo's coordinates: per run, F_r with F_r F_r^T = C_r C_r^T.

        One SVD of the run's Gram, restricted to the rows that are live on the
        run, gives F_r = U sqrt(s) on the rank that keeps the singular values
        above s[0] * max(rows, m_r) * eps.
        """
        coords = []
        for gram, m in zip(self.grams, self.sizes):
            live = np.flatnonzero(np.diagonal(gram))
            F = np.zeros((gram.shape[0], 0))
            if live.size:
                U, s, _ = np.linalg.svd(gram[np.ix_(live, live)])
                rank = int(np.sum(s > s[0] * max(gram.shape[0], m) * np.finfo(float).eps))
                F = np.zeros((gram.shape[0], rank))
                F[live] = U[:, :rank] * np.sqrt(s[:rank])
            coords.append(F)
        return coords


class FtResolvent:
    """The fine-tune half of the exact evaluator: one eigendecomposition of At.

    Holds the pair's At = U diag(s) U^T and, per task covariance D, M = U^T S U
    with S = Xt D Xt^T.  ``d(lam)`` gives the resolvent weights every ``Term``
    is read at.  ``two_terms`` builds the two ``Term``s that depend on M only
    through m = diag(M), term_zeta2 and term_sigma_tilde, which ``AnalyticRisk``
    and the two-term shortcut share, and which the theory reads from either.
    ``traces`` gives t1-t3 = tr{R^-k S} and t4, t5 = tr{R^-k At S}, d-weighted
    sums of m; t4 at lam = 0 on a jittered singular Gram has condition number
    cond(R)^3 ~ 1e37, so it is nan there rather than decided by rounding.  No
    program path calls ``traces``: it is kept because ``bench/tracing.py``
    wraps it by name, and the tests pin it to dense solves.
    """

    def __init__(self, pair: DesignPair):
        self.n = pair.n
        self.solver = pair.solver_ft
        self.tr_cov = pair.tr_cov
        U, xt = self.solver.U, pair.xt
        self.M = {t: U.T @ S[xt, xt] @ U for t, S in pair.S.items()}
        self._m = {t: np.diagonal(M) for t, M in self.M.items()}

    def d(self, lam: float) -> np.ndarray:
        """1/(s + n*lam), the eigenvalues of R^-1; 0 on a jittered Gram's null directions."""
        _, shifted = self.solver.factor(self.n * float(lam))
        return 1.0 / shifted

    def traces(self, lam: float, task: str = "ft") -> dict[str, float]:
        d, m, s = self.d(lam), self._m[task], self.solver.s
        d2 = d * d
        d3 = d2 * d
        undefined = lam == 0.0 and self.solver.jitter_applied > 0
        return {"t1": float(d @ m), "t2": float(d2 @ m), "t3": float((d2 * s) @ m),
                "t4": float("nan") if undefined else float(d3 @ m), "t5": float((d3 * s) @ m)}

    def two_terms(self, zeta2: float, sigma2_tilde: float, task: str) -> dict[str, Term]:
        """term_zeta2 and term_sigma_tilde on ``task`` (s holds any jitter)."""
        m = self._m[task]
        zero = np.zeros_like(m)
        c, b = (zeta2 * self.tr_cov["ft"], -2 * zeta2 * m) if task == "ft" else (0.0, zero)
        return {"term_zeta2": Term(c, b, zeta2 * self.solver.s * m),
                "term_sigma_tilde": Term(0.0, zero, sigma2_tilde * m)}


class TermRisk:
    """Reads per-task ``Term``s (``terms[task][key]``) at each lam's resolvent weights.

    Keeps each (lam, task)'s term quadratics for every tau; at tau = 0 a term
    is its c and no weights are read.  Every report covers both tasks.  The
    exact evaluator (``AnalyticRisk``) reads the five ``TERM_KEYS``, the
    two-term shortcut (``lemma_approx_risk``) two of them.
    """

    def __init__(self, method: str, resolvent: FtResolvent,
                 terms: dict[str, dict[str, Term]]):
        self.method = method
        self.resolvent = resolvent
        self.terms = terms
        self._quads = {}  # (lam, task) -> term quadratics

    def term_quadratics(self, lam: float, task: str) -> dict[str, _Quad]:
        """Each risk term as an exact quadratic in tau, at fixed lam; built once per (lam, task)."""
        if (lam, task) not in self._quads:
            d = self.resolvent.d(lam)
            self._quads[lam, task] = {k: term.at(d) for k, term in self.terms[task].items()}
        return self._quads[lam, task]

    def task_risk(self, kind: EstimatorKind, task: str) -> TaskRisk:
        lam, tau = kind.effective
        if tau == 0.0:
            raw = {k: term.c for k, term in self.terms[task].items()}
        else:
            raw = {k: q(tau) for k, q in self.term_quadratics(lam, task).items()}
        value, terms = _finish_terms(raw)
        return TaskRisk(value=value, terms=terms)

    def report(self, kind: EstimatorKind) -> RiskReport:
        return RiskReport(method=self.method, kind=kind,
                          **{t: self.task_risk(kind, t) for t in TASKS})


class AnalyticRisk(TermRisk):
    """Exact conditional risk evaluator for one ``DesignPair``.

    Builds the five ``Term``s of each task once (see the module docstring).
    A pair without a fixed theta_c averages the shared-parameter quadratic
    form over the uniform sphere of radius ``theta_c_norm`` (value
    norm^2/p * trace); a pair with one evaluates it at that fixed point.
    """

    def __init__(
        self,
        pair: DesignPair,
        zeta1: float,
        zeta2: float,
        sigma2: float,
        sigma2_tilde: float,
        theta_c_norm: float = 1.0,
    ):
        res = pair.resolvent
        # S[t] = C D_t C^T and G = C C^T for the stacked rows C = [X; Xt(; theta_c)]
        S, G, x, xt, sp = pair.S, pair.G, pair.x, pair.xt, pair.solver_pre
        U, s = res.solver.U, res.solver.s
        GU = G[x, xt] @ U
        A1GU = sp.solve(GU)
        AGU = (A1GU, sp.solve(A1GU))  # A^-k G U, k = 1, 2
        Q1, Q2 = (GU.T @ a for a in AGU)
        if pair.fixed_theta_c:
            # h = (I - P) theta_c = C^T v with v = (-A^-1 X theta_c, 0, 1), so
            # h^T D h, g = U^T Xt h and U^T Xt D h are Gram contractions
            v = np.r_[-sp.solve(G[x, -1]), np.zeros(pair.n), 1.0]
            g = U.T @ (G[xt] @ v)
        r2 = theta_c_norm**2 / pair.p
        all_terms = {}
        for t, St in S.items():
            a1 = sp.solve(St[x, x])
            w0, u0 = float(np.trace(a1)), float(np.trace(sp.solve(a1)))
            c1, c2 = (np.einsum("ij,ij->j", a, St[x, xt] @ U) for a in AGU)
            M, trc = res.M[t], pair.tr_cov[t]
            m = np.diagonal(M)
            MQ1 = M * Q1.T
            if pair.fixed_theta_c:
                bias = Term(float(v @ St @ v), -2 * (U.T @ (St[xt] @ v)) * g, np.outer(g, g) * M)
            else:
                bias = Term(r2 * (trc - w0), 2 * r2 * (c1 - m), r2 * (np.diag(s * m) - MQ1))
            zeta1_term = (Term(zeta1 * (trc - w0), np.zeros_like(m), zeta1 * MQ1) if t == "pre"
                          else Term(zeta1 * w0, -2 * zeta1 * c1, zeta1 * MQ1))
            terms = {"bias_thetac": bias, "term_zeta1": zeta1_term,
                     "term_sigma": Term(sigma2 * u0, -2 * sigma2 * c2, sigma2 * (M * Q2.T)),
                     **res.two_terms(zeta2, sigma2_tilde, t)}
            all_terms[t] = {k: terms[k] for k in TERM_KEYS}
        super().__init__("analytic", res, all_terms)

    @classmethod
    def from_env(cls, pair: DesignPair, env: ExperimentConfig) -> "AnalyticRisk":
        return cls(pair, zeta1=env.zeta1, zeta2=env.zeta2, sigma2=env.sigma2,
                   sigma2_tilde=env.sigma2_tilde, theta_c_norm=env.theta_c_norm)


def _off_span_gram(rng: np.random.Generator, dof: int, m: int) -> np.ndarray:
    """m draws of Wishart_3(dof, I): Bartlett's factor, or G^T G when dof < 3."""
    if dof >= 3:
        return _wishart_bartlett(rng, 3, dof, (m,))
    G = rng.standard_normal((m, dof, 3))
    return np.swapaxes(G, 1, 2) @ G


def mc_expected_risks(
    pair: DesignPair,
    env: ExperimentConfig,
    kinds: list[EstimatorKind],
    draws: int,
    rng: np.random.Generator,
) -> list[RiskReport]:
    """Monte-Carlo mean of the plug-in risk over fresh parameter/noise draws,
    one report per kind, every kind on the same draws.

    The pair's designs (and fixed theta_c, if it has one) stay fixed; its
    solvers and one row-space reduction serve every draw, so a draw costs
    O(n) numbers and n x n work at any p (see the module docstring).  Draws
    are vectorised in batches of ``_MC_BATCH``, which fixes the stream.
    Fewer than two draws are refused: one draw has no standard error.
    """
    if draws < 2:
        raise ValueError(f"draws must be >= 2 for a standard error, got {draws}")
    risks = _mc_risk_draws(pair, env, kinds, draws, rng)

    def summarise(r) -> TaskRisk:
        return TaskRisk(value=float(np.mean(r)), se=float(np.std(r, ddof=1) / np.sqrt(r.size)))

    return [RiskReport(method="monte_carlo", kind=kind, draws=draws,
                       pre=summarise(r["pre"]), ft=summarise(r["ft"]))
            for kind, r in zip(kinds, risks)]


def _mc_risk_draws(pair: DesignPair, env: ExperimentConfig, kinds: list[EstimatorKind],
                   draws: int, rng: np.random.Generator) -> list[dict[str, np.ndarray]]:
    """The plug-in risk of every kind on each of ``draws`` shared draws, per task.

    The batch arrays are allocated once per call, and each batch draws into
    them in place; a partial last batch uses the leading (rows, m) part of
    each, which is contiguous, so the stream is that of fresh arrays.  A
    point's error is e0 + tau step, with e0 = hat0 - target the pretrained
    error and step its lam's ridge step, so its weighed squared error is
    c0 + tau (c1 + tau c2): c0 = w.e0^2 once per task, c1 = 2 w.(e0 step) and
    c2 = w.step^2 once per lam, and O(1) per point and draw.
    """
    coords = pair.row_space()
    ranks = [F.shape[1] for F in coords]
    # each coordinate's spectrum value per task, and every run's off-span dimension
    weights = {t: np.repeat(v, ranks) for t, v in pair.values.items()}
    off = [(m - r, {t: float(v[i]) for t, v in pair.values.items()})
           for i, (m, r) in enumerate(zip(pair.sizes, ranks)) if m > r]
    F = np.hstack(coords)
    n_pre, n, rank = pair.n_pre, pair.n, F.shape[1]
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
    # Y, then Yt) and their noise (then the fine-tune fit of hat0)
    size = min(_MC_BATCH, draws)
    bufs = {k: np.empty(rank * size) for k in (*TASKS, "g", "hat0", "step", "scratch")}
    labels, noise = np.empty(max(n_pre, n) * size), np.empty(max(n_pre, n) * size)

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
            grams = [(_off_span_gram(rng, dof, m) * sd[:, None] * sd, e) for dof, e in off]
            norm2 = np.sum(np.multiply(tc, tc, out=scratch), axis=0)
            for W, _ in grams:
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
        hat0 = np.matmul(Xq.T, sp.solve(Y), out=batch(bufs["hat0"]))
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
            step = np.matmul(Xtq.T, st.solve(Yt, nlam=n * lam), out=batch(bufs["step"]))
            sq = np.multiply(step, step, out=scratch)
            c2 = {t: weights[t] @ sq for t in TASKS}
            c1 = {t: 2 * (weights[t] @ np.multiply(e, step, out=scratch)) for t, e in e0.items()}
            for i, tau in points:
                for t, r in risks[i].items():
                    r[drawn] = c0[t] + tau * (c1[t] + tau * c2[t]) + perp[t]
    return risks


def lemma_approx_risk(pair: DesignPair, env: ExperimentConfig) -> TermRisk:
    """Dominant-term shortcut: the exact evaluator's term_zeta2 and
    term_sigma_tilde only, the pair's shared ``FtResolvent.two_terms`` on both
    tasks, read like the exact evaluator's Terms.
    """
    res = pair.resolvent
    return TermRisk("lemma_approx", res,
                    {t: res.two_terms(env.zeta2, env.sigma2_tilde, t) for t in TASKS})
