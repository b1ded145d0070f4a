"""Flat-file experiment configuration.

A config is a single flat JSON object (no nesting, no includes) so that
save(load(f)) is lossless byte-for-byte modulo key order.  A file may carry
just {"case": "a"}: the case sets its size and tails
(``presets.preset_defaults``), every other key keeps the default below,
which is case a's, and explicit keys override both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .presets import TRADEOFF_LAMBDA, preset_defaults
from .spectra import SpectrumSpec
from .synth import TaskEnvironment

METHODS = ("analytic", "monte_carlo", "lemma_approx")
ESTIMATOR_NAMES = ("pretrained", "ridgeless_ft", "ridge_ft", "ensemble")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _default_tau_grid() -> list[float]:
    return [round(0.05 * i, 10) for i in range(21)]


@dataclass
class ExperimentConfig:
    case: str | None = None
    n: int = 40
    p: int = 2000
    p_tilde: int = 80  # 2n, as in case a: off the square-Gram spike at p_tilde = n
    k_star: int = 1
    gamma_pre: float = 40.0**-1.5
    gamma_ft: float = 0.025
    zeta1: float = 1e-4
    zeta2: float = 1e-2
    sigma2: float = 1e-2
    sigma2_tilde: float = 1e-2
    theta_c_norm: float = 1.0
    coord_dist: str = "gaussian"
    xi: float | None = 0.5
    n_pre: int | None = None
    master_seed: int = 0
    replicates: int = 20
    lambda_grid: list[float] = field(default_factory=lambda: [TRADEOFF_LAMBDA])
    tau_grid: list[float] = field(default_factory=_default_tau_grid)
    mc_draws: int = 2000
    methods: list[str] = field(default_factory=lambda: ["analytic"])
    estimators: list[str] = field(default_factory=lambda: list(ESTIMATOR_NAMES))
    out: str | None = None
    format: str = "csv"
    workers: int | None = None
    jitter: bool = False
    fix_theta_c: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        def fail(name, msg):
            raise ConfigError(f"{name}: {msg}")

        for name in ("n", "p", "p_tilde", "k_star", "replicates", "mc_draws"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                fail(name, f"must be a positive integer, got {v!r}")
        v = self.master_seed
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail("master_seed", f"must be a non-negative integer, got {v!r}")
        for name in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm",
                     "gamma_pre", "gamma_ft"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                fail(name, f"must be a non-negative number, got {v!r}")
        for name in ("gamma_pre", "gamma_ft"):
            if getattr(self, name) > 1:
                fail(name, "tail eigenvalue above 1 breaks the non-increasing order")
        if not (1 <= self.k_star <= self.p_tilde <= self.p):
            fail("p_tilde", f"need 1 <= k_star <= p_tilde <= p, got "
                            f"k_star={self.k_star}, p_tilde={self.p_tilde}, p={self.p}")
        if self.coord_dist not in ("gaussian", "rademacher"):
            fail("coord_dist", f"must be gaussian or rademacher, got {self.coord_dist!r}")
        if self.xi is not None and not (0.0 < self.xi < 1.0):
            fail("xi", f"must lie in (0, 1) or be null, got {self.xi!r}")
        if self.n_pre is not None and (not isinstance(self.n_pre, int) or self.n_pre < 1):
            fail("n_pre", f"must be a positive integer or null, got {self.n_pre!r}")
        if self.format not in FORMATS:
            fail("format", f"must be one of {FORMATS}, got {self.format!r}")
        for m in self.methods:
            if m not in METHODS:
                fail("methods", f"unknown method {m!r}; known: {METHODS}")
        for e in self.estimators:
            if e not in ESTIMATOR_NAMES:
                fail("estimators", f"unknown estimator {e!r}; known: {ESTIMATOR_NAMES}")
        if not self.methods:
            fail("methods", "at least one method is required")
        if not self.estimators:
            fail("estimators", "at least one estimator is required")
        if self.workers is not None and (not isinstance(self.workers, int) or self.workers < 1):
            fail("workers", f"must be a positive integer or null, got {self.workers!r}")
        for name in ("lambda_grid", "tau_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                fail(name, "must be a non-empty list of numbers")
            for v in grid:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    fail(name, f"entries must be non-negative numbers, got {v!r}")
            setattr(self, name, sorted({float(v) for v in grid}))
        for v in self.tau_grid:
            if v > 1.0:
                fail("tau_grid", f"tau values must lie in [0, 1], got {v}")

    def environment(self) -> TaskEnvironment:
        return TaskEnvironment(
            n=self.n,
            spectrum_pre=SpectrumSpec(self.k_star, self.gamma_pre, self.p, self.p),
            spectrum_ft=SpectrumSpec(self.k_star, self.gamma_ft, self.p, self.p_tilde),
            zeta1=self.zeta1, zeta2=self.zeta2,
            sigma2=self.sigma2, sigma2_tilde=self.sigma2_tilde,
            theta_c_norm=self.theta_c_norm, coord_dist=self.coord_dist,
            xi=self.xi, n_pre=self.n_pre,
        )

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
    merged: dict = {}
    if raw.get("case") is not None:
        merged.update(preset_defaults(raw["case"]))
    merged.update(_coerce_numbers(raw))
    try:
        return ExperimentConfig(**merged)
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
