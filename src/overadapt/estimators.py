"""Closed-form weight vectors computed through n x n Gram algebra.

Four estimators: the min-norm pretrain solution, fine-tuning that
interpolates the new labels while staying closest to the pretrained
weights, its ridge-penalised version (penalty ``n*lam`` added to the Gram
diagonal), and the convex combination of pretrained and fine-tuned weights.
The p x p projector is never formed; every solve goes through one
eigendecomposition of the n x n Gram per design, read at every penalty level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COND_THRESHOLD = 1e12

PRETRAINED = "pretrained"
RIDGELESS = "ridgeless_ft"
RIDGE = "ridge_ft"
ENSEMBLE = "ensemble"


class SingularDesignError(ArithmeticError):
    """Gram matrix too ill-conditioned to invert at the requested penalty."""


@dataclass(frozen=True)
class WeightVector:
    """A p-dimensional estimator with provenance.

    ``lam`` is meaningful for ridge and ensemble provenances, ``tau`` only
    for ensembles.  ``jitter`` records any diagonal boost that was applied
    to rescue a near-singular Gram.
    """

    weights: np.ndarray
    provenance: str
    lam: float | None = None
    tau: float | None = None
    jitter: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weight vector contains non-finite entries")

    def to_csv(self, path) -> None:
        """Dump as (index,value) rows for audit."""
        with open(path, "w") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(self.weights):
                fh.write(f"{i},{float(v)!r}\n")


class GramSolver:
    """One eigendecomposition of a design's Gram, read at every penalty.

    G = X X^T = U diag(s) U^T is decomposed once, at construction, so
    (G + nlam*I)^-1 = U diag(1/(s + nlam)) U^T at any nlam, and a sweep over
    lam (or tau, which needs no new penalty at all) costs no new
    factorisation.  The Gram's condition number is checked against
    ``COND_THRESHOLD`` on the same eigenvalues.  An ill-conditioned Gram
    raises ``SingularDesignError`` at nlam = 0; with ``jitter=True`` a
    diagonal boost of 1e-12 * tr(G)/n is added to ``gram`` and ``s`` at
    construction instead, so every penalty sees it whatever the call order.
    """

    def __init__(self, X: np.ndarray, jitter: bool = False):
        self.X = X
        self.n = X.shape[0]
        self.gram = X @ X.T
        self.jitter_applied = 0.0
        self.s, self.U = np.linalg.eigh(self.gram)
        lo, hi = self.s[0], self.s[-1]
        self.cond = hi / lo if lo > 0 else np.inf
        self._singular = hi <= 0 or lo <= 0 or self.cond > COND_THRESHOLD
        if self._singular and jitter:
            self.jitter_applied = 1e-12 * np.trace(self.gram) / self.n
            self.gram = self.gram + self.jitter_applied * np.eye(self.n)
            self.s = self.s + self.jitter_applied
            self._singular = False

    def _offending_rows(self) -> list[int]:
        # rows with the largest weight in the near-null eigenvector
        null_dir = np.abs(self.U[:, 0])
        cutoff = 0.5 * null_dir.max()
        return [int(i) for i in np.nonzero(null_dir >= cutoff)[0]]

    def factor(self, nlam: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(U, s + nlam): the eigenpairs of X X^T + nlam I."""
        if nlam == 0.0 and self._singular:
            raise SingularDesignError(
                f"Gram condition number {self.cond:.3e} exceeds "
                f"{COND_THRESHOLD:.1e}; offending rows: {self._offending_rows()}"
            )
        return self.U, self.s + nlam

    def solve(self, rhs: np.ndarray, nlam: float = 0.0) -> np.ndarray:
        """(X X^T + nlam I)^{-1} rhs."""
        U, shifted = self.factor(nlam)
        coef = U.T @ rhs
        return U @ (coef / (shifted[:, None] if coef.ndim == 2 else shifted))

    def apply_pinv_t(self, rhs: np.ndarray, nlam: float = 0.0) -> np.ndarray:
        """X^T (X X^T + nlam I)^{-1} rhs, the workhorse of every estimator."""
        return self.X.T @ self.solve(rhs, nlam)


def _solver(X: np.ndarray, solver: GramSolver | None, jitter: bool) -> GramSolver:
    if solver is not None:
        # identity, not shape: a same-shape solver for another design gives wrong weights
        if solver.X is not X:
            raise ValueError("solver was built for a different design")
        return solver
    return GramSolver(X, jitter=jitter)


def pretrain_minnorm(
    X: np.ndarray,
    Y: np.ndarray,
    solver: GramSolver | None = None,
    jitter: bool = False,
) -> WeightVector:
    """Smallest-norm weights interpolating the pretrain labels."""
    s = _solver(X, solver, jitter)
    w = s.apply_pinv_t(Y)
    return WeightVector(weights=w, provenance=PRETRAINED, jitter=s.jitter_applied)


def finetune_ridgeless(
    theta1: WeightVector,
    Xt: np.ndarray,
    Yt: np.ndarray,
    solver: GramSolver | None = None,
    jitter: bool = False,
) -> WeightVector:
    """Interpolant of the fine-tune labels closest to the pretrained weights."""
    s = _solver(Xt, solver, jitter)
    residual = Yt - Xt @ theta1.weights
    w = theta1.weights + s.apply_pinv_t(residual)
    return WeightVector(weights=w, provenance=RIDGELESS, lam=0.0,
                        jitter=s.jitter_applied)


def finetune_ridge(
    theta1: WeightVector,
    Xt: np.ndarray,
    Yt: np.ndarray,
    lam: float,
    solver: GramSolver | None = None,
    jitter: bool = False,
) -> WeightVector:
    """Fine-tune with an l2 pull toward the pretrained weights.

    Solves theta1 + Xt^T (Xt Xt^T + n*lam*I)^{-1} (Yt - Xt theta1); lam -> 0
    recovers the interpolating solution, lam -> inf returns theta1.
    """
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    s = _solver(Xt, solver, jitter)
    n = Xt.shape[0]
    residual = Yt - Xt @ theta1.weights
    w = theta1.weights + s.apply_pinv_t(residual, nlam=n * lam)
    return WeightVector(weights=w, provenance=RIDGE, lam=lam, jitter=s.jitter_applied)


def ensemble(
    theta1: WeightVector,
    theta_ft: WeightVector,
    tau: float,
    allow_extrapolation: bool = False,
) -> WeightVector:
    """(1 - tau) * theta1 + tau * theta_ft."""
    if theta1.weights.shape != theta_ft.weights.shape:
        raise ValueError("weight vectors have mismatched dimensions")
    if not allow_extrapolation and not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau={tau} outside [0, 1] (set allow_extrapolation to override)")
    w = (1.0 - tau) * theta1.weights + tau * theta_ft.weights
    return WeightVector(weights=w, provenance=ENSEMBLE,
                        lam=theta_ft.lam, tau=tau)


@dataclass(frozen=True)
class EstimatorKind:
    """Which estimator to evaluate, with its parameters.

    Every kind maps onto the pair (lam, tau): the pretrained estimator is
    tau = 0, the interpolating fine-tune is (0, 1), ridge is (lam, 1) and
    the ensemble is (lam, tau) with the ridge (or, at lam = 0, the
    interpolating) solution as its fine-tuned leg.
    """

    name: str
    lam: float = 0.0
    tau: float = 1.0

    KINDS = (PRETRAINED, RIDGELESS, RIDGE, ENSEMBLE)

    def __post_init__(self):
        if self.name not in self.KINDS:
            raise ValueError(f"unknown estimator kind {self.name!r}")
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.name == ENSEMBLE and not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"tau={self.tau} outside [0, 1]")

    @property
    def effective(self) -> tuple[float, float]:
        """Canonical (lam, tau) pair."""
        if self.name == PRETRAINED:
            return 0.0, 0.0
        if self.name == RIDGELESS:
            return 0.0, 1.0
        if self.name == RIDGE:
            return self.lam, 1.0
        return self.lam, self.tau

    @classmethod
    def pretrained(cls):
        return cls(PRETRAINED)

    @classmethod
    def ridgeless(cls):
        return cls(RIDGELESS)

    @classmethod
    def ridge(cls, lam: float):
        return cls(RIDGE, lam=lam)

    @classmethod
    def ensemble(cls, lam: float, tau: float):
        return cls(ENSEMBLE, lam=lam, tau=tau)


def compute_estimator(
    kind: EstimatorKind,
    X: np.ndarray,
    Y: np.ndarray,
    Xt: np.ndarray,
    Yt: np.ndarray,
    solver_pre: GramSolver | None = None,
    solver_ft: GramSolver | None = None,
    jitter: bool = False,
) -> WeightVector:
    """Evaluate any estimator kind on one instance."""
    theta1 = pretrain_minnorm(X, Y, solver=solver_pre, jitter=jitter)
    if kind.name == PRETRAINED:
        return theta1
    if kind.name == RIDGELESS:
        return finetune_ridgeless(theta1, Xt, Yt, solver=solver_ft, jitter=jitter)
    ft = finetune_ridge(theta1, Xt, Yt, kind.lam, solver=solver_ft, jitter=jitter)
    if kind.name == RIDGE:
        return ft
    return ensemble(theta1, ft, kind.tau)
