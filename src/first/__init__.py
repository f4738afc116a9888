"""Model-free factor importance ranking and selection for noisy tabular data.

Estimates per-factor total Sobol' indices directly from data with a
noise-adjusted nearest-neighbor estimator, and combines greedy forward
selection on explainable variance with backward elimination to select and
rank factors without fitting any prediction model. A Gaussian-copula
synthetic harness with a double Monte Carlo oracle reproduces the standard
benchmark experiments.
"""

from .dataset import (
    CATEGORICAL,
    CONTINUOUS,
    DataError,
    Dataset,
    EncodedMatrix,
    encode,
    load_csv,
    save_csv,
)
from .estimators import (
    EstimatorConfig,
    ImportanceResult,
    conditional_variance_effect,
    explainable_variance,
    nanne,
    total_variance,
    worker_count,
)
from .neighbors import NeighborIndex, build_index, within_kth
from .report import (
    BenchmarkReport,
    Replication,
    SelectionMetrics,
    kendall_tau_b,
    run_benchmark,
    selection_metrics,
)
from .selection import SelectionStep, SelectionTrace, first, first_fast, nanne_be
from .synthetic import (
    BENCHMARKS,
    BenchmarkFunction,
    CopulaSpec,
    double_mc_total_sobol,
    evaluate,
    generate_binary,
    generate_regression,
    restricted_groundtruth,
    sample_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS",
    "BenchmarkFunction",
    "BenchmarkReport",
    "CATEGORICAL",
    "CONTINUOUS",
    "CopulaSpec",
    "DataError",
    "Dataset",
    "EncodedMatrix",
    "EstimatorConfig",
    "ImportanceResult",
    "NeighborIndex",
    "Replication",
    "SelectionMetrics",
    "SelectionStep",
    "SelectionTrace",
    "build_index",
    "conditional_variance_effect",
    "double_mc_total_sobol",
    "encode",
    "evaluate",
    "explainable_variance",
    "first",
    "first_fast",
    "generate_binary",
    "generate_regression",
    "kendall_tau_b",
    "load_csv",
    "nanne",
    "nanne_be",
    "restricted_groundtruth",
    "run_benchmark",
    "sample_inputs",
    "save_csv",
    "selection_metrics",
    "total_variance",
    "within_kth",
    "worker_count",
    "__version__",
]
