"""Query-set independent differentially private synthetic database release.

One private release of a synthetic database answers arbitrarily many
statistical queries afterwards: the mechanism perturbs each row independently
(randomized response over the 2**l row codes), and companion estimators
invert the perturbation per query. The package also ships the closed-form
minimax distortion bounds, a continuous-data front end, private graph-cut
release, a desk-scale experiment harness, and a brute-force oracle suite.
"""

from .core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    EnumerationTooLargeError,
    EstimatorUndefinedError,
    ConfigError,
    RandomSource,
    ValidationError,
    enumerate_databases,
    hamming_distance,
    is_neighbor,
)
from .mechanism import MechanismParams, exact_log_pmf, realized_epsilon, sample_synthetic, verify_dp
from .queries import (
    StatisticalQuery,
    centering_constant,
    generate_random_query,
    load_query,
    make_hamming_query,
    make_predicate_query,
)
from .estimators import (
    DistortionReport,
    achievable_values,
    estimate_unbiased,
    exact_distortion,
    exact_unbiased_mse,
    measure_distortion,
    project_proper,
)
from .bounds import (
    BoundInputs,
    continuous_bound,
    cut_bound,
    lower_bound_lemma4,
    lower_bound_squared_asymptotic,
    std_normal_cdf,
    upper_bound_absolute,
    upper_bound_squared,
)
from .continuous import (
    ContinuousDatabase,
    LipschitzQuery,
    choose_k,
    discretize,
    release_continuous,
)
from .graph import (
    CutQuery,
    adjacency_database,
    answer_cut,
    cut_value,
    edges_database,
    random_bisection_cut,
    release_graph,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    ingest_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
