"""Optimal regularisation/ensembling levels and ordering verification.

The theory reads a seed's ``TermRisk``: its fine-tune term_zeta2 and
term_sigma_tilde are the two-term risk, a quadratic in the ensemble weight.
Its optima are the ridge level ``lambda_prime = sigma2_tilde / (n * zeta2)``
for the fine-tune task (twice that for the summed two-task risk) and the
ensemble weight ``tau_prime(lam)`` (half that for the sum).
``verify_theorem_orderings`` replays the three predicted strict orderings on
freshly drawn designs using the exact conditional risks, with its seed count,
master seed and grids read from the config (``theorem_check_env`` is the one
the ``verify`` command starts from), and
``eigen_band_check`` probes the tail-Gram eigenvalue concentration that
underpins them: with Gaussian coordinates that Gram is exactly gamma times a
Wishart matrix, drawn by the Bartlett decomposition.
``dataclasses.asdict`` serialises the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .estimators import EstimatorKind
from .presets import DESK_P, _sizes
from .risk import AnalyticRisk, DesignPair, TermRisk
from .synth import _wishart_bartlett

# A chain inequality counts as strict only if the gap beats this fraction of
# the values' scale; anything smaller is recorded as a tie.
STRICT_REL = 1e-12

TWO_TERMS = ("term_zeta2", "term_sigma_tilde")


def lambda_prime(env: ExperimentConfig) -> float:
    """Risk-optimal ridge level for the fine-tune task."""
    if env.zeta2 <= 0:
        raise ValueError("lambda_prime needs zeta2 > 0")
    return env.sigma2_tilde / (env.n * env.zeta2)


def theorem_check_env(p: int = DESK_P, n: int = 40) -> ExperimentConfig:
    """The ``ExperimentConfig`` (the model) that the ordering suites run on,
    with ``lambda_grid`` = (lambda_prime / 2, lambda_prime, 2 lambda_prime).

    The sizes follow n as a case's do: a fine-tune support of 2n keeps the
    fine-tune Gram away from squareness and strictly satisfies p_tilde > n.
    The variance scales follow the model's order assumptions (zeta2 ~ sigma2 ~
    sigma2_tilde, zeta1 and the shared parameter small) but are chosen so the
    task-shift and fine-tune-noise terms dominate the risk at this bench
    dimension: the closed-form optima only match the full-risk optima once the
    lower-order terms are negligible, and at p ~ 2000 the simulation-default
    constants leave them a percent-level perturbation.
    """
    if n == 0:  # its tails n^-1.5 and 1/n divide by zero; the config rejects every other n
        raise ConfigError(f"n: must be a positive integer, got {n!r}")
    env = ExperimentConfig(**_sizes(n, p), zeta1=1e-5, zeta2=4e-2, sigma2=1.25e-2,
                           sigma2_tilde=4e-2, theta_c_norm=0.25)
    lam = lambda_prime(env)
    return replace(env, lambda_grid=(lam / 2, lam, 2 * lam))


def tau_prime(ev: TermRisk, lam: float) -> float:
    """Risk-optimal ensemble weight at ridge level lam.

    The minimiser of the two-term fine-tune risk, the sum of the evaluator's
    fine-tune term_zeta2 and term_sigma_tilde quadratics in tau: the ratio of
    the task-shift trace to the curvature traces.  It lies in [0, 1] whenever
    lam <= lambda_prime(env) and equals 1 exactly at that boundary.
    """
    quads = ev.term_quadratics(lam, "ft")
    (_, b1, c1), (_, b2, c2) = (quads[k] for k in TWO_TERMS)
    return -(b1 + b2) / (2.0 * (c1 + c2))


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    holds: dict[str, bool | None]        # item -> chain held (None: no eligible points)
    ties: dict[str, int]                 # item -> count of tie comparisons excluded
    margins: dict[str, float]            # item -> smallest strict margin observed
    lambda_star: float
    tau_star: dict[str, float]           # per lam (as str) -> tau_prime value


@dataclass(frozen=True)
class OrderingReport:
    """Per-seed verdicts for the three predicted risk orderings.

    item1: ridge beats interpolation beats pretrained on the fine-tune task,
           for every grid lam in (0, 2*lambda_star].
    item2: summed risk improves from interpolation to ridge to the ensemble
           at tau >= tau_star/2.
    item3: the ensemble at tau >= tau_star beats its own ridge leg on the
           fine-tune task, for grid lam in [0, lambda_star).
    """

    env: dict                            # sizes, both spectra's blocks, variances
    lambda_grid: tuple[float, ...]
    tau_grid: tuple[float, ...]
    seeds: tuple[SeedOutcome, ...]
    rates: dict[str, float]


def _chain(chains: list[list[float]]) -> tuple[bool | None, int, float]:
    """Check values[0] < values[1] < ... strictly (best first) in every chain.

    Returns (holds, tie count, smallest relative margin) over all the chains'
    comparisons; comparisons whose gap is below STRICT_REL of the local scale
    count as ties and are excluded rather than failed.
    """
    holds: bool | None = None
    ties = 0
    margin = np.inf
    for values in chains:
        for left, right in zip(values, values[1:]):
            scale = max(abs(left), abs(right), 1e-300)
            gap = right - left
            if abs(gap) <= STRICT_REL * scale:
                ties += 1
                continue
            ok = gap > 0
            holds = ok if holds is None else (holds and ok)
            margin = min(margin, gap / scale)
    return holds, ties, (margin if np.isfinite(margin) else np.nan)


def _seed_outcome(env: ExperimentConfig, rep: int) -> SeedOutcome:
    """The orderings on one seed: its own frame, freed before the next seed draws."""
    lam_star = lambda_prime(env)
    ev = AnalyticRisk(DesignPair.draw(env, rep), env)
    # the evaluator builds each (lam, task)'s term quadratics once, tau_prime's too
    l_ft = lambda kind: ev.task_risk(kind, "ft")[0]
    l_sum = lambda kind: ev.task_risk(kind, "pre")[0] + ev.task_risk(kind, "ft")[0]
    ft_pre = l_ft(EstimatorKind.pretrained())
    ft_ridgeless = l_ft(EstimatorKind.ridgeless())
    sum_ridgeless = l_sum(EstimatorKind.ridgeless())

    chains: dict[str, list[list[float]]] = {"item1": [], "item2": [], "item3": []}
    tau_stars: dict[str, float] = {}
    for lam in env.lambda_grid:
        ts = tau_prime(ev, lam)
        tau_stars[repr(float(lam))] = ts
        # grid points at tau = 1 are evaluated anyway: there the ensemble
        # coincides with its ridge leg, which shows up as a recorded tie
        if 0.0 < lam <= 2 * lam_star:
            chains["item1"].append([l_ft(EstimatorKind.ridge(lam)), ft_ridgeless, ft_pre])
            sum_ridge = l_sum(EstimatorKind.ridge(lam))
            taus2 = sorted({t for t in env.tau_grid if ts / 2 <= t} | {min(ts / 2, 1.0)})
            chains["item2"] += [[l_sum(EstimatorKind.ensemble(lam, tau)), sum_ridge,
                                 sum_ridgeless] for tau in taus2]
        if 0.0 <= lam < lam_star:
            ft_ridge = l_ft(EstimatorKind.ridge(lam))
            taus3 = sorted({t for t in env.tau_grid if ts <= t} | {min(ts, 1.0)})
            chains["item3"] += [[l_ft(EstimatorKind.ensemble(lam, tau)), ft_ridge]
                                for tau in taus3]
    verdicts = {item: _chain(c) for item, c in chains.items()}
    holds, ties, margins = ({item: v[k] for item, v in verdicts.items()} for k in range(3))
    return SeedOutcome(seed=rep, holds=holds, ties=ties, margins=margins,
                       lambda_star=lam_star, tau_star=tau_stars)


def verify_theorem_orderings(env: ExperimentConfig) -> OrderingReport:
    """Replay the three risk orderings on env's ``replicates`` freshly drawn
    design pairs, at every point of env's lambda and tau grids.

    All comparisons use the exact conditional expectations (analytic
    evaluator), never single plug-in draws.  Eligible grid points are
    filtered to each item's stated parameter range, and the boundary values
    tau_star(lam) (item3) and tau_star(lam)/2 (item2) are always included.
    """
    outcomes = [_seed_outcome(env, rep) for rep in range(env.replicates)]
    rates = {}
    for item in ("item1", "item2", "item3"):
        evaluated = [o.holds[item] for o in outcomes if o.holds[item] is not None]
        rates[item] = (sum(evaluated) / len(evaluated)) if evaluated else float("nan")
    summary = {
        "n": env.n, "p": env.p,
        "spectrum_pre": env.spectrum_pre, "spectrum_ft": env.spectrum_ft,
        "zeta1": env.zeta1, "zeta2": env.zeta2,
        "sigma2": env.sigma2, "sigma2_tilde": env.sigma2_tilde,
        "theta_c_norm": env.theta_c_norm, "lambda_star": lambda_prime(env),
        "seeds": env.replicates, "master_seed": env.master_seed,
    }
    return OrderingReport(env=summary, lambda_grid=env.lambda_grid, tau_grid=env.tau_grid,
                          seeds=tuple(outcomes), rates=rates)


def _tail_gram_extremes(rng: np.random.Generator, n: int, gamma: float,
                        m: int) -> tuple[float, float]:
    """Extreme eigenvalues of one draw of ``gamma Z Z^T``, Z an n x m Gaussian block."""
    rank, dof = sorted((n, m))
    evs = gamma * np.linalg.eigvalsh(_wishart_bartlett(rng, rank, dof))
    return (0.0 if m < n else evs[0]), evs[-1]


@dataclass(frozen=True)
class EigenBandReport:
    trials: int
    inside: int
    rate: float
    scale: float          # pivot eigenvalue times its effective rank
    band: tuple[float, float]
    regime_ok: bool
    note: str = ""


def eigen_band_check(
    gamma: float,
    r_k: int,
    n: int,
    trials: int,
    rng: np.random.Generator,
    band: tuple[float, float] = (1 / 3, 3.0),
) -> EigenBandReport:
    """Empirical concentration of the tail Gram's extreme eigenvalues.

    Draws the n x n Gram ``gamma Z Z^T`` of a spectrum's tail block, r_k
    eigenvalues of value gamma (the pivot eigenvalue; r_k is the effective
    rank), with Gaussian coordinates Z, and counts how often both extreme
    eigenvalues land inside band * (gamma * r_k).
    Outside the heavy-tail regime (effective rank below n) the check is
    reported but flagged, never fatal.

    The Gram's nonzero eigenvalues are those of gamma * Wishart_a(d, I)
    with a = min(n, r_k) and d = max(n, r_k) degrees of freedom.  Each trial
    draws that a x a matrix by the Bartlett decomposition, a(a+1)/2 numbers
    instead of the n*r_k entries of Z; when r_k < n the Gram has n - r_k
    exact zero eigenvalues, so its smallest eigenvalue is 0.
    """
    if gamma <= 0.0 or r_k == 0:
        return EigenBandReport(
            trials=trials, inside=0, rate=0.0, scale=0.0, band=band,
            regime_ok=False, note="tail is zero: tail Gram vanishes identically",
        )
    scale = gamma * r_k
    regime_ok = r_k >= n
    inside = 0
    for _ in range(trials):
        smallest, largest = _tail_gram_extremes(rng, n, gamma, r_k)
        if band[0] * scale <= smallest and largest <= band[1] * scale:
            inside += 1
    note = "" if regime_ok else f"regime violated: r_k = {r_k:.4g} < n = {n}"
    return EigenBandReport(
        trials=trials, inside=inside, rate=inside / trials if trials else 0.0,
        scale=scale, band=band, regime_ok=regime_ok, note=note,
    )
