"""Three-block eigenvalue profiles of task covariances.

A spectrum is ``k_star`` unit eigenvalues, then ``p_tilde - k_star`` copies
of a tail value ``gamma``, then ``p - p_tilde`` exact zeros.  Spectra are
read only in this compact form, as (count, value) blocks; no consumer ever
materialises a length-p eigenvalue vector or a dense p x p diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    def blocks(self) -> tuple[tuple[int, float], ...]:
        """(count, value) per block, in coordinate order, empty blocks left out."""
        blocks = ((self.k_star, 1.0), (self.p_tilde - self.k_star, float(self.gamma)),
                  (self.p - self.p_tilde, 0.0))
        return tuple(b for b in blocks if b[0])
