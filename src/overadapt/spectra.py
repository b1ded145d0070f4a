"""Three-block eigenvalue profiles of task covariances.

A spectrum is ``k_star`` unit eigenvalues, then ``p_tilde - k_star`` copies
of a tail value ``gamma``, then ``p - p_tilde`` exact zeros.  Spectra are
kept in this compact form (or as an explicit 1-D eigenvalue vector); no
consumer ever materialises a dense p x p diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedRankError(ValueError):
    """Effective rank requested at an index whose pivot eigenvalue is zero."""


@dataclass(frozen=True)
class SpectrumSpec:
    """Compact description of a non-increasing three-block spectrum.

    k_star:  number of leading unit eigenvalues (>= 1)
    gamma:   tail eigenvalue, 0 <= gamma <= 1
    p:       ambient dimension
    p_tilde: number of nonzero eigenvalues (== p for a pretrain spectrum)
    """

    k_star: int
    gamma: float
    p: int
    p_tilde: int

    def __post_init__(self):
        if not (1 <= self.k_star <= self.p_tilde <= self.p):
            raise ValueError(
                f"need 1 <= k_star <= p_tilde <= p, got "
                f"k_star={self.k_star}, p_tilde={self.p_tilde}, p={self.p}"
            )
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(
                f"tail eigenvalue must lie in [0, 1] to keep the spectrum "
                f"non-increasing, got gamma={self.gamma}"
            )

    @property
    def trace(self) -> float:
        """Sum of all eigenvalues, computed from the block counts."""
        return self.k_star + (self.p_tilde - self.k_star) * self.gamma

    def to_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "gamma": self.gamma,
            "p": self.p,
            "p_tilde": self.p_tilde,
        }


def build_eigenvalues(spec: SpectrumSpec) -> np.ndarray:
    """Materialise the spectrum as a length-p non-increasing vector."""
    eigs = np.zeros(spec.p)
    eigs[: spec.k_star] = 1.0
    eigs[spec.k_star : spec.p_tilde] = spec.gamma
    return eigs


def effective_rank(eigs: np.ndarray, k: int) -> float:
    """Tail mass of the spectrum relative to its (k+1)-th eigenvalue.

    With eigenvalues lam_1 >= lam_2 >= ... (stored 0-based in ``eigs``),
    returns sum_{j > k} lam_j / lam_{k+1}.  The sum starts at lam_{k+1}
    itself, so r_0 = trace / lam_1.
    """
    eigs = np.asarray(eigs, dtype=float)
    if not 0 <= k < eigs.size:
        raise ValueError(f"k={k} out of range for {eigs.size} eigenvalues")
    pivot = eigs[k]
    if pivot <= 0.0:
        raise UndefinedRankError(
            f"effective rank undefined at k={k}: eigenvalue {k + 1} is zero"
        )
    return float(np.sum(eigs[k:]) / pivot)
