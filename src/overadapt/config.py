"""Flat-file experiment configuration, which is also the population model.

A config is a single flat JSON object (no nesting, no includes) so that
save(load(f)) is lossless byte-for-byte modulo key order.  A file may carry
just {"case": "a"}.  An ``ExperimentConfig``, from a file or built directly,
takes each size key it is not given (n, p, p_tilde and the two tails,
``presets.preset_defaults``) from its case, or from case a if it has none,
and refuses an unknown case; every other key keeps the default below, and
explicit keys override both.

The config also states the two spectra, ``spectrum_pre`` and ``spectrum_ft``,
as the (count, value) blocks that every other module reads them as.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .estimators import EstimatorKind
from .presets import CASES, TRADEOFF_LAMBDA, preset_defaults
from .synth import COORD_DISTS

METHODS = ("analytic", "monte_carlo", "lemma_approx")
FORMATS = ("csv", "json")

_FROM_CASE = object()  # the default of a size key: its case's value, filled in on construction


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _default_tau_grid() -> list[float]:
    return [round(0.05 * i, 10) for i in range(21)]


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, and the population model that its seeds draw from.

    Validated once, on construction, and frozen after it, its four lists held
    as tuples (saved as JSON lists), so it is hashable: ``synth``, ``risk``
    and ``theory`` read it as ``env``.  zeta1/zeta2 are the per-coordinate
    variances of the task offsets, sigma2/sigma2_tilde the label-noise
    variances; n_pre, when set, is the pretrain sample count (else n).
    ``validate`` is the one check of the spectrum keys (1 <= k_star <=
    p_tilde <= p, tails in [0, 1] so each spectrum is non-increasing).
    """

    case: str | None = None
    n: int = _FROM_CASE
    p: int = _FROM_CASE
    p_tilde: int = _FROM_CASE
    k_star: int = 1
    gamma_pre: float = _FROM_CASE
    gamma_ft: float = _FROM_CASE
    zeta1: float = 1e-4
    zeta2: float = 1e-2
    sigma2: float = 1e-2
    sigma2_tilde: float = 1e-2
    theta_c_norm: float = 1.0
    coord_dist: str = "gaussian"
    n_pre: int | None = None
    master_seed: int = 0
    replicates: int = 20
    lambda_grid: tuple[float, ...] = (TRADEOFF_LAMBDA,)
    tau_grid: tuple[float, ...] = field(default_factory=_default_tau_grid)
    mc_draws: int = 2000
    methods: tuple[str, ...] = ("analytic",)
    estimators: tuple[str, ...] = tuple(EstimatorKind.PARAMS)
    out: str | None = None
    format: str = "csv"
    workers: int | None = None
    jitter: bool = False
    fix_theta_c: bool = False

    def __post_init__(self):
        if self.case is not None and self.case not in tuple(CASES):  # a list is unhashable
            raise ConfigError(f"case: unknown case {self.case!r}; known: {sorted(CASES)}")
        for key, value in preset_defaults("a" if self.case is None else self.case).items():
            if getattr(self, key) is _FROM_CASE:
                object.__setattr__(self, key, value)
        self.validate()

    def validate(self):
        def fail(name, msg):
            raise ConfigError(f"{name}: {msg}")

        for name in ("n", "p", "p_tilde", "k_star", "replicates"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                fail(name, f"must be a positive integer, got {v!r}")
        v = self.mc_draws
        if not isinstance(v, int) or isinstance(v, bool) or v < 2:
            fail("mc_draws", f"must be an integer >= 2 (a standard error needs two draws), "
                             f"got {v!r}")
        v = self.master_seed
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail("master_seed", f"must be a non-negative integer, got {v!r}")
        for name in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm",
                     "gamma_pre", "gamma_ft"):
            v = getattr(self, name)
            # a chained comparison is False for NaN, which ``v < 0`` lets through
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v < np.inf:
                fail(name, f"must be a finite non-negative number, got {v!r}")
        for name in ("gamma_pre", "gamma_ft"):
            if getattr(self, name) > 1:
                fail(name, "tail eigenvalue above 1 breaks the non-increasing order")
        if not (1 <= self.k_star <= self.p_tilde <= self.p):
            fail("p_tilde", f"need 1 <= k_star <= p_tilde <= p, got "
                            f"k_star={self.k_star}, p_tilde={self.p_tilde}, p={self.p}")
        if self.coord_dist not in COORD_DISTS:
            fail("coord_dist", f"must be one of {COORD_DISTS}, got {self.coord_dist!r}")
        # bool is an int subclass, so JSON true would pass as 1
        for name in ("n_pre", "workers"):
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 1):
                fail(name, f"must be a positive integer or null, got {v!r}")
        for name in ("jitter", "fix_theta_c"):
            if not isinstance(getattr(self, name), bool):
                fail(name, f"must be true or false, got {getattr(self, name)!r}")
        if self.format not in FORMATS:
            fail("format", f"must be one of {FORMATS}, got {self.format!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            fail("out", f"must be a path or null, got {self.out!r}")
        for name, known in (("methods", METHODS), ("estimators", tuple(EstimatorKind.PARAMS))):
            names = getattr(self, name)  # a bare string would be read letter by letter
            if not isinstance(names, (list, tuple)) or not names:
                fail(name, f"must be a non-empty list of names, got {names!r}")
            for v in names:
                if v not in known:
                    fail(name, f"unknown {name[:-1]} {v!r}; known: {known}")
            # a repeated name would repeat its rows
            object.__setattr__(self, name, tuple(dict.fromkeys(names)))
        for name in ("lambda_grid", "tau_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                fail(name, "must be a non-empty list of numbers")
            for v in grid:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v < np.inf:
                    fail(name, f"entries must be finite non-negative numbers, got {v!r}")
            object.__setattr__(self, name, tuple(sorted({float(v) for v in grid})))
        for v in self.tau_grid:
            if v > 1.0:
                fail("tau_grid", f"tau values must lie in [0, 1], got {v}")

    @property
    def spectrum_pre(self) -> tuple[tuple[int, float], ...]:
        """The pretrain covariance's spectrum, supported on all p coordinates."""
        return self._blocks(self.gamma_pre, self.p)

    @property
    def spectrum_ft(self) -> tuple[tuple[int, float], ...]:
        """The fine-tune covariance's spectrum, supported on the first p_tilde."""
        return self._blocks(self.gamma_ft, self.p_tilde)

    def _blocks(self, gamma: float, support: int) -> tuple[tuple[int, float], ...]:
        """k_star ones, the tail gamma up to ``support``, then zeros up to p, as
        (count, value) blocks in coordinate order, empty blocks left out."""
        blocks = ((self.k_star, 1.0), (support - self.k_star, float(gamma)),
                  (self.p - support, 0.0))
        return tuple(b for b in blocks if b[0])

    @property
    def pretrain_samples(self) -> int:
        return self.n if self.n_pre is None else self.n_pre

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _coerce_numbers(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, np.floating):
            v = float(v)
        elif isinstance(v, np.integer):
            v = int(v)
        out[k] = v
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    try:
        return ExperimentConfig(**_coerce_numbers(raw))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(raw)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
