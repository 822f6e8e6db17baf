"""The package namespace and what a fresh process imports.

``import dpsynth`` loads ``core`` only; every other module loads on first use
of one of its names, and each CLI subcommand imports only its own modules.
Import footprints are read from ``sys.modules`` in a fresh interpreter, since
this test process has imported every module already.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dpsynth

SRC = Path(__file__).resolve().parents[1] / "src"

# The exported names of each module, as the package exported them when every
# module loaded at import.
EXPORTS = {
    "core": (
        "ConfigError",
        "DataUniverse",
        "Database",
        "DimensionMismatchError",
        "EnumerationTooLargeError",
        "EstimatorUndefinedError",
        "RandomSource",
        "ValidationError",
        "enumerate_databases",
        "hamming_distance",
        "is_neighbor",
    ),
    "mechanism": ("MechanismParams", "exact_log_pmf", "realized_epsilon", "sample_synthetic", "verify_dp"),
    "queries": (
        "StatisticalQuery",
        "centering_constant",
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

ALL = [
    "BoundInputs", "ConfigError", "ContinuousDatabase", "CutQuery", "DataUniverse", "Database",
    "DimensionMismatchError", "DistortionReport", "EnumerationTooLargeError", "EstimatorUndefinedError",
    "ExperimentConfig", "LipschitzQuery", "MechanismParams", "RandomSource", "ResultRow",
    "StatisticalQuery", "ValidationError", "achievable_values", "adjacency_database", "answer_cut",
    "bounds", "centering_constant", "choose_k", "config_from_dict", "continuous", "continuous_bound",
    "core", "cut_bound", "cut_value", "discretize", "edges_database", "enumerate_databases",
    "estimate_unbiased", "estimators", "exact_distortion", "exact_log_pmf", "exact_unbiased_mse",
    "generate_random_query", "graph", "hamming_distance", "harness", "ingest_csv", "is_neighbor",
    "load_query", "lower_bound_lemma4", "lower_bound_squared_asymptotic", "make_hamming_query",
    "make_predicate_query", "measure_distortion", "mechanism", "project_proper", "queries",
    "random_bisection_cut", "realized_epsilon", "release_continuous", "release_graph",
    "run_experiment", "sample_synthetic", "std_normal_cdf", "upper_bound_absolute",
    "upper_bound_squared", "verify_dp",
]

# Modules that neither release nor estimate uses.
NOT_FOR_RELEASE = {"dpsynth.harness", "dpsynth.graph", "dpsynth.oracle", "dpsynth.continuous"}


def run_fresh(code, cwd=None):
    """Run code in a fresh interpreter that imports dpsynth from src; returns
    the JSON value of its last output line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The dpsynth modules loaded, as an expression for run_fresh's code.
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'dpsynth')"


class TestImportFootprint:
    def test_import_loads_core_only(self):
        assert run_fresh(f"import json, sys, dpsynth; print(json.dumps({LOADED}))") == ["dpsynth", "dpsynth.core"]

    def test_first_use_loads_its_module_only(self):
        loaded = run_fresh(f"import json, sys, dpsynth; dpsynth.verify_dp; print(json.dumps({LOADED}))")
        assert loaded == ["dpsynth", "dpsynth.core", "dpsynth.mechanism"]

    def test_submodule_name_loads_it(self):
        loaded = run_fresh(f"import json, sys, dpsynth; dpsynth.queries.load_query; print(json.dumps({LOADED}))")
        assert loaded == ["dpsynth", "dpsynth.core", "dpsynth.queries"]

    def test_release_and_estimate_load_no_other_subcommand_module(self, tmp_path):
        (tmp_path / "db.txt").write_text("0\n1\n1\n")
        (tmp_path / "q.json").write_text(json.dumps({"type": "predicate", "l": 1, "n": 3, "conjunct_bits": [0]}))
        loaded = run_fresh(f"""
            import json, sys
            from dpsynth import cli
            assert cli.main(["release", "--input", "db.txt", "--output", "out.txt", "--epsilon", "1",
                             "--l", "1", "--seed", "5"]) == 0
            release = {LOADED}
            assert cli.main(["estimate", "--input", "out.txt", "--query", "q.json", "--epsilon", "1"]) == 0
            print(json.dumps([release, {LOADED}]))
        """, cwd=tmp_path)
        assert (tmp_path / "out.txt").exists()
        for modules in loaded:
            assert "dpsynth.cli" in modules
            assert NOT_FOR_RELEASE.isdisjoint(modules), modules


class TestNamespace:
    def test_all_is_pinned(self):
        assert dpsynth.__all__ == ALL
        assert sorted({*EXPORTS, *(name for names in EXPORTS.values() for name in names)}) == ALL

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_their_modules_attributes(self, module):
        mod = importlib.import_module(f"dpsynth.{module}")
        assert getattr(dpsynth, module) is mod
        for name in EXPORTS[module]:
            obj = getattr(dpsynth, name)
            assert obj is getattr(mod, name)
            assert obj.__module__ == mod.__name__

    def test_star_import_binds_every_name(self):
        names = run_fresh("""
            import json
            from dpsynth import *
            print(json.dumps(sorted(name for name in dir() if not name.startswith("_") and name != "json")))
        """)
        assert names == ALL

    def test_dir_lists_every_name_before_use(self):
        names = run_fresh("import json, dpsynth; print(json.dumps(dir(dpsynth)))")
        assert set(ALL) <= set(names)
        assert "__version__" in names

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="'dpsynth' has no attribute 'no_such_name'"):
            dpsynth.no_such_name
