"""Population model and finite-sample draws for the two-task regression setup.

Generates the designs X (pretrain) and X_tilde (fine-tune), and the shared
parameter theta_c that a ``fix_theta_c`` run holds fixed; the risk
evaluators average over the rest of the model (exactly, or by Monte Carlo).
All randomness flows through streams derived from (master_seed, purpose,
replicate) so that parallel replicates are order-independent and every draw
is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import SpectrumSpec, build_eigenvalues

# Stable purpose codes for stream derivation.  A stream is seeded with
# SeedSequence([master_seed, PURPOSE[tag], replicate]); changing any of the
# three yields an independent stream, and streams never depend on the order
# in which replicates are generated.
PURPOSE = {
    "design_pre": 101,
    "design_ft": 102,
    "params": 103,
    "noise_pre": 104,
    "noise_ft": 105,
    "mc": 106,
    "eigen": 107,
}

COORD_DISTS = ("gaussian", "rademacher")


def derive_rng(master_seed: int, purpose: str, replicate: int = 0) -> np.random.Generator:
    """Independent generator for (master_seed, purpose, replicate)."""
    if purpose not in PURPOSE:
        raise ValueError(f"unknown purpose {purpose!r}; known: {sorted(PURPOSE)}")
    seq = np.random.SeedSequence([int(master_seed), PURPOSE[purpose], int(replicate)])
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class TaskEnvironment:
    """Full population model for one pretrain/fine-tune pair.

    Variances: zeta1/zeta2 are the per-coordinate variances of the task
    offsets, sigma2/sigma2_tilde the label-noise variances.  coord_dist is
    the law of the whitened design coordinates.  xi is only used by the
    finite-n diagnostic checks.  n_pre, when set, gives the pretrain task a
    different sample count from the fine-tune task.
    """

    n: int
    spectrum_pre: SpectrumSpec
    spectrum_ft: SpectrumSpec
    zeta1: float
    zeta2: float
    sigma2: float
    sigma2_tilde: float
    theta_c_norm: float = 1.0
    coord_dist: str = "gaussian"
    xi: float | None = None
    n_pre: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.spectrum_pre.p != self.spectrum_ft.p:
            raise ValueError(
                f"spectra must share the ambient dimension: "
                f"{self.spectrum_pre.p} != {self.spectrum_ft.p}"
            )
        for name in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm"):
            if not 0 <= getattr(self, name) < np.inf:  # False for NaN too
                raise ValueError(f"{name} must be a finite non-negative number, "
                                 f"got {getattr(self, name)!r}")
        if self.coord_dist not in COORD_DISTS:
            raise ValueError(f"coord_dist must be one of {COORD_DISTS}")
        if self.xi is not None and not (0.0 < self.xi < 1.0):
            raise ValueError(f"xi must lie in (0, 1), got {self.xi}")
        if self.n_pre is not None and self.n_pre < 1:
            raise ValueError(f"n_pre must be >= 1, got {self.n_pre}")

    @property
    def p(self) -> int:
        return self.spectrum_pre.p

    @property
    def pretrain_samples(self) -> int:
        return self.n if self.n_pre is None else self.n_pre

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        return build_eigenvalues(self.spectrum_pre), build_eigenvalues(self.spectrum_ft)


def _coord_draws(rng: np.random.Generator, shape, coord_dist: str) -> np.ndarray:
    """i.i.d. zero-mean unit-variance coordinates."""
    if coord_dist == "gaussian":
        return rng.standard_normal(shape)
    if coord_dist == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    raise ValueError(f"coord_dist must be one of {COORD_DISTS}")


def _wishart_bartlett(rng: np.random.Generator, a: int, dof: int, size=()) -> np.ndarray:
    """Draws of Wishart_a(dof, I) (dof >= a) as L L^T, Bartlett's factor L.

    L is lower triangular with N(0, 1) entries below the diagonal and
    L[i, i] = sqrt(chi2(dof - i)) for 0-based i.  ``size`` prepends batch
    axes; all below-diagonal normals are drawn first, then all chi-squares.
    """
    size = tuple(size)
    L = np.zeros((*size, a, a))
    L[(..., *np.tril_indices(a, -1))] = rng.standard_normal((*size, a * (a - 1) // 2))
    L[(..., *np.diag_indices(a))] = np.sqrt(rng.chisquare(dof - np.arange(a), (*size, a)))
    return L @ np.swapaxes(L, -1, -2)


def sample_design(
    spec: SpectrumSpec,
    n: int,
    rng: np.random.Generator,
    coord_dist: str = "gaussian",
) -> np.ndarray:
    """Draw an n x p design whose rows have covariance diag(eigenvalues).

    Row i is sqrt(eigs) * eta_i elementwise; columns where the spectrum is
    zero are exactly zero (coordinates there are never drawn).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    X = _coord_draws(rng, (n, spec.p_tilde), coord_dist)
    X *= np.sqrt(build_eigenvalues(spec)[: spec.p_tilde])
    return X if spec.p_tilde == spec.p else np.pad(X, ((0, 0), (0, spec.p - spec.p_tilde)))


def sample_designs(
    env: TaskEnvironment, master_seed: int, replicate: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The (pretrain, fine-tune) design pair of one replicate, one stream each."""
    X = sample_design(env.spectrum_pre, env.pretrain_samples,
                      derive_rng(master_seed, "design_pre", replicate), env.coord_dist)
    X_tilde = sample_design(env.spectrum_ft, env.n,
                            derive_rng(master_seed, "design_ft", replicate), env.coord_dist)
    return X, X_tilde


def sample_theta_c(env: TaskEnvironment, rng: np.random.Generator) -> np.ndarray:
    """Draw theta_c uniform on the sphere of radius env.theta_c_norm.

    ``fix_theta_c`` runs hold one such draw fixed across every replicate.
    """
    theta_c = rng.standard_normal(env.p)
    norm = np.linalg.norm(theta_c)
    if norm == 0.0:  # probability-zero draw; resample deterministically
        theta_c = np.ones(env.p)
        norm = np.sqrt(env.p)
    return theta_c * (env.theta_c_norm / norm)


@dataclass(frozen=True)
class Condition2Item:
    name: str
    value: float
    requirement: str
    status: str  # "pass" | "warn" | "info"
    note: str = ""


@dataclass(frozen=True)
class Condition2Thresholds:
    """Finite-n surrogates for the asymptotic order requirements.

    These cutoffs are artifact choices, not part of the model; the report
    carries them so a reader can judge each flag.
    """

    k_star_max: int = 3
    omega_ratio: float = 4.0   # "grows faster than": ratio must exceed this
    asymp_band: float = 4.0    # "same order": ratio within [1/band, band]
    small_o_max: float = 0.25  # "vanishes": value must be below this
    omega_slack: float = 10.0  # divisor applied to lower bounds of omega checks


@dataclass(frozen=True)
class Condition2Report:
    items: tuple[Condition2Item, ...]
    thresholds: Condition2Thresholds

    @property
    def all_pass(self) -> bool:
        return all(it.status != "warn" for it in self.items)

    def to_dict(self) -> dict:
        return {
            "items": [vars(it) for it in self.items],
            "thresholds": vars(self.thresholds),
            "all_pass": self.all_pass,
        }


def check_condition2(
    env: TaskEnvironment,
    thresholds: Condition2Thresholds | None = None,
) -> Condition2Report:
    """Diagnose the finite-n surrogates of the model's order assumptions.

    Purely informational: returns a per-item pass/warn report and never
    raises on a violated item.
    """
    if env.xi is None:
        raise ValueError("check_condition2 needs env.xi (the diagnostic exponent)")
    th = thresholds or Condition2Thresholds()
    xi = env.xi
    n, p = env.n, env.p
    pt = env.spectrum_ft.p_tilde
    gamma_ft = env.spectrum_ft.gamma
    items: list[Condition2Item] = []

    def add(name, value, requirement, ok, note=""):
        items.append(Condition2Item(name, float(value), requirement, "pass" if ok else "warn", note))

    add("k_star_bounded", env.spectrum_pre.k_star,
        f"k_star <= {th.k_star_max}", env.spectrum_pre.k_star <= th.k_star_max)
    add("p_over_n", p / n, f"p/n >= {th.omega_ratio}", p / n >= th.omega_ratio)
    add("p_below_n_power", p / n ** (1 + xi), "p / n^(1+xi) <= 1", p <= n ** (1 + xi),
        note="small-n surrogate of an asymptotic upper bound")
    if pt > n:
        add("pt_gt_n", pt / n, "p_tilde > n", True)
    else:
        items.append(Condition2Item(
            "pt_gt_n", pt / n, "p_tilde > n", "warn",
            "boundary: p_tilde == n" if pt == n else "violated: p_tilde < n",
        ))
    add("pt_asymp_n", pt / n, f"p_tilde/n <= {th.asymp_band}", pt / n <= th.asymp_band)
    add("pt_gamma_order1", pt * gamma_ft,
        f"p_tilde*gamma in [{1 / th.asymp_band}, {th.asymp_band}]",
        1 / th.asymp_band <= pt * gamma_ft <= th.asymp_band)
    ratio = pt * gamma_ft * env.zeta2 / env.sigma2_tilde if env.sigma2_tilde > 0 else float("inf")
    items.append(Condition2Item(
        "pt_gamma_vs_noise", ratio, "p_tilde*gamma*zeta2/sigma2_tilde (raw ratio)",
        "info", "comparison constant unspecified; raw ratio reported"))
    add("zeta1_small", env.zeta1, f"zeta1 <= n^-xi = {n ** -xi:.4g}", env.zeta1 <= n ** -xi)
    for other, oname in ((env.sigma2, "sigma2"), (env.sigma2_tilde, "sigma2_tilde")):
        r = env.zeta2 / other if other > 0 else float("inf")
        add(f"zeta2_vs_{oname}", r,
            f"ratio in [{1 / th.asymp_band}, {th.asymp_band}]",
            1 / th.asymp_band <= r <= th.asymp_band)
    add("zeta2_small", env.zeta2, f"zeta2 <= {th.small_o_max}", env.zeta2 <= th.small_o_max)
    floor = max(n ** (-(1 - xi) / 2), n ** -xi) / th.omega_slack
    add("zeta2_not_too_small", env.zeta2, f"zeta2 >= {floor:.4g}", env.zeta2 >= floor,
        note="lower-order surrogate; commonly violated at bench scale")
    return Condition2Report(items=tuple(items), thresholds=th)
