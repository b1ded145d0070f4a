"""Numerical laboratory for over-parameterized pretrain/fine-tune regression.

Builds the two-task linear model (shared parameter plus task offsets,
diagonal three-block covariances), the four closed-form estimators
(pretrained min-norm, interpolating fine-tune, ridge fine-tune, weight
ensemble), and the machinery to measure their excess risks exactly, by
Monte Carlo and by dominant-term shortcuts, together with an experiment
harness, ordering verification and plotting.
"""

from .config import ConfigError, ExperimentConfig, config_from_dict, load_config, save_config
from .estimators import (
    EstimatorKind,
    GramSolver,
    SingularDesignError,
    WeightVector,
    ensemble,
    finetune_ridge,
    finetune_ridgeless,
    pretrain_minnorm,
)
from .harness import (
    PresetResult,
    ResultRow,
    SweepResult,
    run_preset,
    run_sweep,
    write_results,
)
from .presets import preset_environment, theorem_check_env
from .risk import (
    AnalyticRisk,
    FtResolvent,
    RiskReport,
    TaskRisk,
    conditional_expected_risk,
    lemma_approx_risk,
    mc_expected_risk,
    mc_expected_risks,
    plugin_excess_risk,
)
from .spectra import (
    SpectrumSpec,
    UndefinedRankError,
    build_eigenvalues,
    critical_index,
    effective_rank,
)
from .svgplot import MissingSeriesError, render_tradeoff_svg
from .synth import (
    Condition2Report,
    SampledInstance,
    TaskEnvironment,
    check_condition2,
    derive_rng,
    gen_labels,
    sample_design,
    sample_designs,
    sample_instance,
    sample_parameters,
)
from .theory import (
    EigenBandReport,
    OrderingReport,
    eigen_band_check,
    ensemble_risk_dtau,
    ft_risk_dlambda,
    lambda_prime,
    sum_risk_dlambda,
    tau_prime,
    verify_theorem_orderings,
)

__version__ = "0.1.0"
