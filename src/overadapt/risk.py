"""Excess risks of the four estimators, three ways.

``DesignPair``               one seed's designs reduced once, to one Gram of
                             their stacked rows per spectrum run
                             (``DesignPair.draw(env, replicate)``); every
                             method below reads the pair and the config.
``TermRisk``                 reads per-task ``Term``s at each lam's resolvent
                             weights, one memo per (lam, task); its
                             ``task_risk(kind, task)`` is one point's risk
                             on one task and its five-term split.
``AnalyticRisk``             the ``TermRisk`` of the exact expectation over
                             (theta_c, alpha1, alpha2, noise) with the two
                             designs held fixed: five closed-form Terms
                             (``AnalyticRisk(pair, env).task_risk(kind, task)``).
``mc.mc_expected_risks``     Monte-Carlo estimates of the same expectation on
                             draws shared by all estimators, the independent
                             numerical check, in its own module.
``lemma_approx_risk``        the two-term (task-shift + fine-tune noise)
                             shortcut, a ``TermRisk`` over two of the exact
                             evaluator's five Terms, term_zeta2 and
                             term_sigma_tilde
                             (``lemma_approx_risk(pair, env).task_risk(kind, task)``).

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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ExperimentConfig
from .estimators import EstimatorKind, GramSolver
from .synth import derive_rng, sample_designs, sample_theta_c

TERM_KEYS = ("bias_thetac", "term_zeta1", "term_zeta2", "term_sigma", "term_sigma_tilde")

# Negative term values smaller than this fraction of the total magnitude are
# rounding artifacts of trace cancellation and are clamped to zero.
_CLAMP_REL = 1e-10

TASKS = ("pre", "ft")


def _finish_terms(raw: dict[str, float]) -> tuple[float, dict[str, float]]:
    scale = sum(abs(v) for v in raw.values())
    terms = {}
    for k in TERM_KEYS:
        v = raw.get(k, 0.0)
        if -_CLAMP_REL * scale < v < 0.0:
            v = 0.0
        terms[k] = float(v)
    return float(sum(terms.values())), terms


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

    def at(self, d: np.ndarray) -> tuple[float, float, float]:
        """The term at one lam's weights d: (a0, a1, a2) of a0 + a1 tau + a2 tau^2."""
        return float(self.c), float(self.b @ d), float(d @ self._apply(d))

    def dlam(self, d: np.ndarray, n: int) -> tuple[float, float, float]:
        """d/d(lam) of ``at(d)``: tau b.d' + 2 tau^2 (H d).d', d' = -n d^2, H symmetric."""
        dd = -n * d * d
        return 0.0, float(self.b @ dd), float(2.0 * (self._apply(d) @ dd))


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
    * ``resolvent``, the fine-tune ``FtResolvent`` every method shares.
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
    def draw(cls, env: ExperimentConfig, replicate: int) -> "DesignPair":
        """One replicate's designs, drawn and reduced: the one design-draw path.

        Reads env's master_seed and jitter; a ``fix_theta_c`` env holds one
        theta_c, drawn from stream ("params", 0), across every replicate.
        """
        theta_c = (sample_theta_c(env, derive_rng(env.master_seed, "params", 0))
                   if env.fix_theta_c else None)
        return cls(*sample_designs(env, replicate), env.spectrum_pre, env.spectrum_ft,
                   theta_c=theta_c, jitter=env.jitter)

    @cached_property
    def solver_pre(self) -> GramSolver:
        return GramSolver(self.G[self.x, self.x], jitter=self.jitter)

    @cached_property
    def solver_ft(self) -> GramSolver:
        return GramSolver(self.G[self.xt, self.xt], jitter=self.jitter)

    @cached_property
    def resolvent(self) -> "FtResolvent":
        return FtResolvent(self)


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

    def two_terms(self, env: ExperimentConfig, task: str) -> dict[str, Term]:
        """term_zeta2 and term_sigma_tilde on ``task`` (s holds any jitter)."""
        m, zeta2 = self._m[task], env.zeta2
        zero = np.zeros_like(m)
        c, b = (zeta2 * self.tr_cov["ft"], -2 * zeta2 * m) if task == "ft" else (0.0, zero)
        return {"term_zeta2": Term(c, b, zeta2 * self.solver.s * m),
                "term_sigma_tilde": Term(0.0, zero, env.sigma2_tilde * m)}


class TermRisk:
    """Reads per-task ``Term``s (``terms[task][key]``) at each lam's resolvent weights.

    Keeps each (lam, task)'s term quadratics for every tau; at tau = 0 a term
    is its c and no weights are read.  ``task_risk(kind, task)`` is one
    point's risk on one task and its term split.  The exact evaluator
    (``AnalyticRisk``) reads the five ``TERM_KEYS``, the two-term shortcut
    (``lemma_approx_risk``) two of them.
    """

    def __init__(self, resolvent: FtResolvent, terms: dict[str, dict[str, Term]]):
        self.resolvent = resolvent
        self.terms = terms
        self._quads = {}  # (lam, task) -> term quadratics

    def term_quadratics(self, lam: float, task: str) -> dict[str, tuple[float, float, float]]:
        """Each risk term's (a0, a1, a2) in tau, at fixed lam; built once per (lam, task)."""
        if (lam, task) not in self._quads:
            d = self.resolvent.d(lam)
            self._quads[lam, task] = {k: term.at(d) for k, term in self.terms[task].items()}
        return self._quads[lam, task]

    def task_risk(self, kind: EstimatorKind, task: str) -> tuple[float, dict[str, float]]:
        """The risk of ``kind`` on ``task`` and its split over ``TERM_KEYS``."""
        lam, tau = kind.effective
        if tau == 0.0:
            raw = {k: term.c for k, term in self.terms[task].items()}
        else:
            raw = {k: a0 + tau * (a1 + tau * a2)
                   for k, (a0, a1, a2) in self.term_quadratics(lam, task).items()}
        return _finish_terms(raw)


class AnalyticRisk(TermRisk):
    """Exact conditional risk evaluator for one ``DesignPair``.

    Builds the five ``Term``s of each task once (see the module docstring),
    from the pair's Grams and env's variances and ``theta_c_norm``; the
    spectra are the pair's.  A pair without a fixed theta_c averages the
    shared-parameter quadratic form over the uniform sphere of radius
    ``theta_c_norm`` (value norm^2/p * trace); a pair with one evaluates it
    at that fixed point.
    """

    def __init__(self, pair: DesignPair, env: ExperimentConfig):
        zeta1, sigma2 = env.zeta1, env.sigma2
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
        r2 = env.theta_c_norm**2 / pair.p
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
                     **res.two_terms(env, t)}
            all_terms[t] = {k: terms[k] for k in TERM_KEYS}
        super().__init__(res, all_terms)


def lemma_approx_risk(pair: DesignPair, env: ExperimentConfig) -> TermRisk:
    """Dominant-term shortcut: the exact evaluator's term_zeta2 and
    term_sigma_tilde only, the pair's shared ``FtResolvent.two_terms`` on both
    tasks, read like the exact evaluator's Terms.
    """
    res = pair.resolvent
    return TermRisk(res, {t: res.two_terms(env, t) for t in TASKS})
