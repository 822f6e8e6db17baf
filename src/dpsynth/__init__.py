"""Query-set independent differentially private synthetic database release.

One private release of a synthetic database answers arbitrarily many
statistical queries afterwards: the mechanism perturbs each row independently
(randomized response over the 2**l row codes), and companion estimators
invert the perturbation per query. The package also ships the closed-form
minimax distortion bounds, a continuous-data front end, private graph-cut
release, a desk-scale experiment harness, and a brute-force oracle suite.

``import dpsynth`` loads ``core`` (and numpy) only. Every other module loads
on first use of one of its names (``dpsynth.verify_dp`` imports
``mechanism``; ``dpsynth.harness`` imports ``harness``), so a process pays
only for the modules it uses. Each CLI subcommand likewise imports only its
own modules.
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

# The names of every other module, resolved by __getattr__ on first use.
_LAZY = {
    "mechanism": ("MechanismParams", "exact_log_pmf", "realized_epsilon", "sample_synthetic", "verify_dp"),
    "queries": (
        "StatisticalQuery",
        "generate_random_query",
        "load_query",
        "make_hamming_query",
        "make_predicate_query",
    ),
    "estimators": (
        "DistortionReport",
        "achievable_values",
        "estimate_unbiased",
        "exact_distortion",
        "exact_unbiased_mse",
        "measure_distortion",
        "project_proper",
    ),
    "bounds": (
        "BoundInputs",
        "continuous_bound",
        "cut_bound",
        "lower_bound_lemma4",
        "lower_bound_squared_asymptotic",
        "std_normal_cdf",
        "upper_bound_absolute",
        "upper_bound_squared",
    ),
    "continuous": ("ContinuousDatabase", "LipschitzQuery", "choose_k", "discretize", "release_continuous"),
    "graph": (
        "CutQuery",
        "adjacency_database",
        "answer_cut",
        "cut_value",
        "edges_database",
        "random_bisection_cut",
        "release_graph",
    ),
    "harness": ("ExperimentConfig", "ResultRow", "config_from_dict", "ingest_csv", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}
_MODULE_OF.update((module, module) for module in _LAZY)

__version__ = "0.1.0"

# dir() holds the core names and ``core`` itself, which the import above binds.
__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_MODULE_OF))


def __getattr__(name):
    import importlib

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
