"""Causal-effect estimation from many weak genetic instruments.

The core estimator regresses pairwise phenotype cross-products on genetic
relatedness and reports the slope ratio; the package also ships the classic
summary-statistics estimators (IVW, Egger, medians), two-stage least
squares, a simulation engine with closed-form bias/variance oracles, and a
Monte-Carlo replication harness with a command line front end.
"""

from .engine import (
    PairMoments,
    moment_diagnostic,
    pair_moments,
    tsre_estimate,
)
from .errors import ConfigError, DataError, EstimationError, TsreError
from .estimators import Estimate, egger, ivw, simple_median, tsls, weighted_median
from .genotype import (
    GenotypeMatrix,
    Grm,
    StandardizedGenotypes,
    compute_grm,
    filter_related,
    load_genotypes,
    load_grm,
    save_genotypes,
    save_grm,
    simulate_genotypes,
    standardize,
)
from .harness import (
    RealDataResult,
    ReplicateResult,
    ReplicationSpec,
    estimate_real,
    load_phenotype,
    reproduce_table,
    run_scenario,
    save_phenotype,
)
from .simulate import (
    EffectSet,
    PhenotypePair,
    ScenarioConfig,
    generate_phenotypes,
    load_scenario,
    sample_effects,
    save_scenario,
)
from .sumstats import (
    SUMMARY_DTYPE,
    load_summaries,
    per_variant_regression,
    save_summaries,
    select_by_pvalue,
    select_top_k,
)
from .theory import (
    MomentParams,
    asymptotic_var_tsre,
    bias_egger,
    bias_ivw,
    bias_tsre,
    heritability,
    moments_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "EstimationError",
    "TsreError",
    "GenotypeMatrix",
    "StandardizedGenotypes",
    "Grm",
    "simulate_genotypes",
    "standardize",
    "compute_grm",
    "filter_related",
    "save_genotypes",
    "load_genotypes",
    "save_grm",
    "load_grm",
    "ScenarioConfig",
    "EffectSet",
    "PhenotypePair",
    "sample_effects",
    "generate_phenotypes",
    "heritability",
    "save_scenario",
    "load_scenario",
    "SUMMARY_DTYPE",
    "per_variant_regression",
    "select_top_k",
    "select_by_pvalue",
    "save_summaries",
    "load_summaries",
    "Estimate",
    "tsls",
    "ivw",
    "egger",
    "simple_median",
    "weighted_median",
    "PairMoments",
    "pair_moments",
    "tsre_estimate",
    "moment_diagnostic",
    "MomentParams",
    "moments_from_config",
    "bias_tsre",
    "bias_ivw",
    "bias_egger",
    "asymptotic_var_tsre",
    "ReplicationSpec",
    "ReplicateResult",
    "RealDataResult",
    "run_scenario",
    "reproduce_table",
    "estimate_real",
    "save_phenotype",
    "load_phenotype",
    "__version__",
]
