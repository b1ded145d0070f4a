"""Numerical laboratory for over-parameterized pretrain/fine-tune regression.

Builds the two-task linear model (shared parameter plus task offsets,
diagonal three-block covariances) and measures the excess risks of four
closed-form estimators (pretrained min-norm, interpolating fine-tune, ridge
fine-tune, weight ensemble) through n x n Gram algebra: exactly, by Monte
Carlo and by dominant-term shortcuts, together with an experiment harness,
ordering verification and plotting.

The public names below load their submodule on first access.  So
``import overadapt`` loads no numpy, and the command-line entry point
(``overadapt.cli``) can start numpy's BLAS single-threaded before numpy
loads (see ``_blas``).
"""

import importlib

_SUBMODULE_NAMES = {
    "config": ("ConfigError", "ExperimentConfig", "config_from_dict", "load_config",
               "save_config"),
    "estimators": ("EstimatorKind", "GramSolver", "SingularDesignError"),
    "harness": ("ResultRow", "SweepResult", "run_preset", "run_sweep", "write_results"),
    "presets": ("preset_points", "theorem_check_env"),
    "risk": ("AnalyticRisk", "DesignPair", "FtResolvent", "RiskReport", "TaskRisk",
             "lemma_approx_risk", "mc_expected_risks"),
    "spectra": ("SpectrumSpec",),
    "svgplot": ("MissingSeriesError", "render_tradeoff_svg"),
    "synth": ("derive_rng", "sample_design", "sample_designs", "sample_theta_c"),
    "theory": ("EigenBandReport", "OrderingReport", "eigen_band_check", "lambda_prime",
               "tau_prime", "verify_theorem_orderings"),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
                 for name in names}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
