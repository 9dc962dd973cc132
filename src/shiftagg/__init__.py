"""Aggregate vector-valued prediction models for a shifted target domain.

The core operation combines a sequence of fixed models into a linear
aggregate whose weights are fitted from labeled source data (importance
weighted by a density ratio) and unlabeled target data. Baseline
aggregation and selection methods, density-ratio estimators, synthetic
dataset generators, evaluation metrics, and an experiment harness with a
CLI round out the package.
"""

from .aggregation import (
    AggregationResult,
    aggregate_predictions,
    empirical_gram,
    empirical_moment,
    iwa,
    majority_votes,
    oracle_weights,
    sor,
    tcr,
    tmr,
)
from .datasets import (
    DomainAdaptationInstance,
    load_csv_instance,
    make_sinc_shift,
    make_transformed_moons,
    sinc_ratio,
)
from .density_ratio import (
    ConstantRatio,
    GaussianRatio,
    LearnedRatio,
    fit_domain_classifier,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    DegenerateGramError,
    DimensionError,
    NumericalError,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    run_correlation,
    run_experiment,
    run_rate_check,
    run_sensitivity,
    write_outputs,
)
from .linalg import TruncatedInverse, spectral_pinv
from .metrics import accuracy, pearson_with_flag, risk
from .models import (
    CorruptedModel,
    FeatureModel,
    LinearModel,
    Model,
    PrecomputedModel,
    SoftmaxModel,
    corrupt,
    fit_ridge,
    fit_softmax_classifier,
    polynomial_features,
    stack_predictions,
)
from .selection import SelectionResult, dev_select, iwv_select

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "ConfigError",
    "ConstantRatio",
    "CorruptedModel",
    "CsvFormatError",
    "DegenerateGramError",
    "DimensionError",
    "DomainAdaptationInstance",
    "ExperimentConfig",
    "FeatureModel",
    "GaussianRatio",
    "LearnedRatio",
    "LinearModel",
    "Model",
    "NumericalError",
    "PrecomputedModel",
    "ResultTable",
    "SelectionResult",
    "SoftmaxModel",
    "TruncatedInverse",
    "accuracy",
    "aggregate_predictions",
    "corrupt",
    "dev_select",
    "empirical_gram",
    "empirical_moment",
    "fit_domain_classifier",
    "fit_ridge",
    "fit_softmax_classifier",
    "iwa",
    "iwv_select",
    "load_csv_instance",
    "majority_votes",
    "make_sinc_shift",
    "make_transformed_moons",
    "oracle_weights",
    "pearson_with_flag",
    "polynomial_features",
    "risk",
    "run_correlation",
    "run_experiment",
    "run_rate_check",
    "run_sensitivity",
    "sinc_ratio",
    "sor",
    "spectral_pinv",
    "stack_predictions",
    "tcr",
    "tmr",
    "write_outputs",
]
