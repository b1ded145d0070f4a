"""Estimator kinds and the n x n Gram solver behind every estimator.

Four estimators: the min-norm pretrain interpolant
theta1 = X^T (X X^T)^-1 Y, fine-tuning that interpolates the new labels
while staying closest to theta1, its ridge-penalised version
theta1 + Xt^T (Xt Xt^T + n*lam*I)^-1 (Yt - Xt theta1), and the weight
ensemble (1 - tau) theta1 + tau theta_ft.  ``EstimatorKind`` names one by
its (lam, tau); the ``risk`` module evaluates them.  The p x p projector is
never formed; every solve goes through one eigendecomposition of the n x n
Gram per design (``GramSolver``), read at every penalty level.  The solvers
take the Grams, not the designs: ``risk.DesignPair`` forms both from one
pass over the design columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND_THRESHOLD = 1e12

PRETRAINED = "pretrained"
RIDGELESS = "ridgeless_ft"
RIDGE = "ridge_ft"
ENSEMBLE = "ensemble"


class SingularDesignError(ArithmeticError):
    """Gram matrix too ill-conditioned to invert at the requested penalty."""


class GramSolver:
    """One eigendecomposition of a design's n x n Gram, read at every penalty.

    The Gram G = X X^T = U diag(s) U^T is decomposed once, at construction, so
    (G + nlam*I)^-1 = U diag(1/(s + nlam)) U^T at any nlam, and a sweep over
    lam (or tau, which needs no new penalty at all) costs no new
    factorisation.  The Gram's condition number is checked against
    ``COND_THRESHOLD`` on the same eigenvalues.  An ill-conditioned Gram
    raises ``SingularDesignError`` at nlam = 0; with ``jitter=True`` a
    diagonal boost of 1e-12 * tr(G)/n is added to ``gram`` and ``s`` at
    construction instead, so every penalty sees it whatever the call order.
    The ``null`` leading eigendirections of a jittered Gram, those with
    s <= s_max * n * eps, get zero weight at every penalty: there X^T u = 0,
    and u^T rhs is rounding noise that 1/jitter would amplify.  ``factor``
    decides this for every reader, by giving them an infinite eigenvalue.
    """

    def __init__(self, gram: np.ndarray, jitter: bool = False):
        self.n = gram.shape[0]
        self.gram = gram
        self.jitter_applied = 0.0
        self.null = 0
        self.s, self.U = np.linalg.eigh(self.gram)
        lo, hi = self.s[0], self.s[-1]
        self.cond = hi / lo if lo > 0 else np.inf
        self._singular = hi <= 0 or lo <= 0 or self.cond > COND_THRESHOLD
        if self._singular and jitter:
            self.null = int(np.sum(self.s <= hi * self.n * np.finfo(float).eps))
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
        """(U, s + nlam), the eigenpairs of X X^T + nlam I; inf on a jittered Gram's nulls."""
        if nlam == 0.0 and self._singular:
            raise SingularDesignError(
                f"Gram condition number {self.cond:.3e} exceeds "
                f"{COND_THRESHOLD:.1e}; offending rows: {self._offending_rows()}"
            )
        shifted = self.s + nlam
        shifted[: self.null] = np.inf
        return self.U, shifted

    def solve(self, rhs: np.ndarray, nlam: float = 0.0, coef: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
        """(X X^T + nlam I)^{-1} rhs, zero on a jittered Gram's null directions;
        into ``out``, by way of ``coef`` (both shaped like rhs), when given."""
        U, shifted = self.factor(nlam)
        coef = np.matmul(U.T, rhs, out=coef)
        coef /= shifted[:, None] if coef.ndim == 2 else shifted
        return np.matmul(U, coef, out=out)


@dataclass(frozen=True)
class EstimatorKind:
    """Which estimator to evaluate, with its parameters.

    Every kind maps onto the pair (lam, tau): the pretrained estimator is
    tau = 0, the interpolating fine-tune is (0, 1), ridge is (lam, 1) and
    the ensemble is (lam, tau) with the ridge (or, at lam = 0, the
    interpolating) solution as its fine-tuned leg.  ``PARAMS`` is the one
    table of the kinds, in row order, and the parameters each one takes.
    """

    name: str
    lam: float = 0.0
    tau: float = 1.0

    PARAMS = {PRETRAINED: (), RIDGELESS: (), RIDGE: ("lam",), ENSEMBLE: ("lam", "tau")}

    def __post_init__(self):
        if self.name not in self.PARAMS:
            raise ValueError(f"unknown estimator kind {self.name!r}")
        if not 0.0 <= self.lam < np.inf:  # False for NaN too
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if "tau" in self.PARAMS[self.name] and not (0.0 <= self.tau <= 1.0):
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

    @property
    def shown(self) -> tuple[float | None, float | None]:
        """(lam, tau) as rows show them: None for one the kind does not take."""
        return tuple(getattr(self, k) if k in self.PARAMS[self.name] else None
                     for k in ("lam", "tau"))

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
