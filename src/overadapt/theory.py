"""Optimal regularisation/ensembling levels and ordering verification.

The theory reads a seed's ``TermRisk``: its fine-tune term_zeta2 and
term_sigma_tilde are the two-term risk, a quadratic in the ensemble weight.
Its optima are the ridge level ``lambda_prime = sigma2_tilde / (n * zeta2)``
for the fine-tune task (twice that for the summed two-task risk) and the
ensemble weight ``tau_prime(lam)`` (half that for the sum).
``verify_theorem_orderings`` replays the three predicted strict orderings on
freshly drawn designs using the exact conditional risks, and
``eigen_band_check`` probes the tail-Gram eigenvalue concentration that
underpins them: with Gaussian coordinates that Gram is exactly gamma times a
Wishart matrix, drawn by the Bartlett decomposition.
``dataclasses.asdict`` serialises the reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, _default_tau_grid
from .estimators import EstimatorKind
from .risk import AnalyticRisk, DesignPair, TermRisk, _Quad
from .spectra import SpectrumSpec
from .synth import _wishart_bartlett, derive_rng, sample_designs

# A chain inequality counts as strict only if the gap beats this fraction of
# the values' scale; anything smaller is recorded as a tie.
STRICT_REL = 1e-12

TWO_TERMS = ("term_zeta2", "term_sigma_tilde")


def lambda_prime(env: ExperimentConfig) -> float:
    """Risk-optimal ridge level for the fine-tune task."""
    if env.zeta2 <= 0:
        raise ValueError("lambda_prime needs zeta2 > 0")
    return env.sigma2_tilde / (env.n * env.zeta2)


def tau_prime(ev: TermRisk, lam: float) -> float:
    """Risk-optimal ensemble weight at ridge level lam.

    The minimiser of the two-term fine-tune risk, the sum of the evaluator's
    fine-tune term_zeta2 and term_sigma_tilde quadratics in tau: the ratio of
    the task-shift trace to the curvature traces.  It lies in [0, 1] whenever
    lam <= lambda_prime(env) and equals 1 exactly at that boundary.
    """
    quads = ev.term_quadratics(lam, "ft")
    q = sum((quads[k] for k in TWO_TERMS), _Quad())
    return -q.a1 / (2.0 * q.a2)


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

    env: dict                            # sizes, both SpectrumSpecs, variances
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


def verify_theorem_orderings(
    env: ExperimentConfig,
    seeds: int,
    lambda_grid=None,
    tau_grid=None,
    master_seed: int = 0,
) -> OrderingReport:
    """Replay the three risk orderings across freshly drawn design pairs.

    All comparisons use the exact conditional expectations (analytic
    evaluator), never single plug-in draws.  Eligible grid points are
    filtered to each item's stated parameter range, and the boundary values
    tau_star(lam) (item3) and tau_star(lam)/2 (item2) are always included.
    """
    lam_star = lambda_prime(env)
    if lambda_grid is None:
        lambda_grid = [lam_star / 2, lam_star, 2 * lam_star]
    if tau_grid is None:
        tau_grid = _default_tau_grid()
    lambda_grid = sorted(set(float(v) for v in lambda_grid))
    tau_grid = sorted(set(float(v) for v in tau_grid))

    outcomes = []
    for rep in range(seeds):
        pair = DesignPair.from_env(*sample_designs(env, master_seed, rep), env)
        ev = AnalyticRisk.from_env(pair, env)
        # the evaluator builds each (lam, task)'s term quadratics once, tau_prime's too
        l_ft = lambda kind: ev.task_risk(kind, "ft").value
        l_sum = lambda kind: ev.task_risk(kind, "pre").value + ev.task_risk(kind, "ft").value
        ft_pre = l_ft(EstimatorKind.pretrained())
        ft_ridgeless = l_ft(EstimatorKind.ridgeless())
        sum_ridgeless = l_sum(EstimatorKind.ridgeless())

        chains: dict[str, list[list[float]]] = {"item1": [], "item2": [], "item3": []}
        tau_stars: dict[str, float] = {}
        for lam in lambda_grid:
            ts = tau_prime(ev, lam)
            tau_stars[repr(float(lam))] = ts
            # grid points at tau = 1 are evaluated anyway: there the ensemble
            # coincides with its ridge leg, which shows up as a recorded tie
            if 0.0 < lam <= 2 * lam_star:
                chains["item1"].append([l_ft(EstimatorKind.ridge(lam)), ft_ridgeless, ft_pre])
                sum_ridge = l_sum(EstimatorKind.ridge(lam))
                taus2 = sorted({t for t in tau_grid if ts / 2 <= t} | {min(ts / 2, 1.0)})
                chains["item2"] += [[l_sum(EstimatorKind.ensemble(lam, tau)), sum_ridge,
                                     sum_ridgeless] for tau in taus2]
            if 0.0 <= lam < lam_star:
                ft_ridge = l_ft(EstimatorKind.ridge(lam))
                taus3 = sorted({t for t in tau_grid if ts <= t} | {min(ts, 1.0)})
                chains["item3"] += [[l_ft(EstimatorKind.ensemble(lam, tau)), ft_ridge]
                                    for tau in taus3]
        verdicts = {item: _chain(c) for item, c in chains.items()}
        holds, ties, margins = ({item: v[k] for item, v in verdicts.items()} for k in range(3))

        outcomes.append(SeedOutcome(
            seed=rep, holds=holds, ties=ties, margins=margins,
            lambda_star=lam_star, tau_star=tau_stars,
        ))

    rates = {}
    for item in ("item1", "item2", "item3"):
        evaluated = [o.holds[item] for o in outcomes if o.holds[item] is not None]
        rates[item] = (sum(evaluated) / len(evaluated)) if evaluated else float("nan")
    summary = {
        "n": env.n, "p": env.p,
        "spectrum_pre": env.spectrum_pre, "spectrum_ft": env.spectrum_ft,
        "zeta1": env.zeta1, "zeta2": env.zeta2,
        "sigma2": env.sigma2, "sigma2_tilde": env.sigma2_tilde,
        "theta_c_norm": env.theta_c_norm, "lambda_star": lam_star,
        "seeds": seeds, "master_seed": master_seed,
    }
    return OrderingReport(
        env=summary,
        lambda_grid=tuple(lambda_grid),
        tau_grid=tuple(tau_grid),
        seeds=tuple(outcomes),
        rates=rates,
    )


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
    spec: SpectrumSpec,
    n: int,
    trials: int,
    band: tuple[float, float] = (1 / 3, 3.0),
    rng: np.random.Generator | None = None,
) -> EigenBandReport:
    """Empirical concentration of the tail Gram's extreme eigenvalues.

    Draws the n x n Gram ``Z diag(tail) Z^T`` of the spectrum's tail block
    (the m = p_tilde - k_star eigenvalues past the k_star leading ones),
    with Gaussian coordinates Z, and counts how often both extreme
    eigenvalues land inside band * (pivot eigenvalue * effective rank).
    Outside the heavy-tail regime (effective rank below n) the check is
    reported but flagged, never fatal.

    The tail is one constant block gamma, so the Gram is gamma * Z Z^T,
    whose nonzero eigenvalues are those of gamma * Wishart_a(d, I) with
    a = min(n, m) and d = max(n, m) degrees of freedom.  Each trial draws
    that a x a matrix by the Bartlett decomposition, a(a+1)/2 numbers
    instead of the n*m entries of Z; when m < n the Gram has n - m exact
    zero eigenvalues, so its smallest eigenvalue is 0.
    """
    if rng is None:
        rng = derive_rng(0, "eigen", 0)
    # the tail block's value is the pivot, and its size the effective rank r_k
    gamma, r_k = spec.gamma, spec.p_tilde - spec.k_star
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
