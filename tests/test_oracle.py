import math

import numpy as np
import pytest

from dpsynth.core import (
    Database,
    DataUniverse,
    EnumerationTooLargeError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
)
from dpsynth.estimators import exact_distortion
from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs
from dpsynth.oracle import (
    conditional_mean_estimates,
    exact_distribution,
    hamming_query_family,
    micro_minimax,
    micro_minimax_report,
    run_verification_suite,
    symmetric_row_kernel,
    _full_transition,
)
from dpsynth.queries import generate_random_query, make_hamming_query


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


class TestExactDistribution:
    def test_hand_probabilities(self):
        # n=1, l=1, eps=ln3: probs (3/4, 1/4) when x = 0
        dist = exact_distribution(db(1, [0]), MechanismParams(math.log(3.0), DataUniverse(1)))
        probs = np.exp(dist.log_probs)
        assert probs[0] == pytest.approx(0.75, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)

    def test_uniform_at_zero_epsilon(self):
        dist = exact_distribution(db(2, [1, 2]), MechanismParams(0.0, DataUniverse(2)))
        assert np.allclose(np.exp(dist.log_probs), 1.0 / 16.0, atol=1e-12)

    def test_point_mass_at_identity_epsilon(self):
        x = db(1, [1, 0, 1])
        dist = exact_distribution(x, MechanismParams(700.0, DataUniverse(1)))
        assert dist.prob(x) == pytest.approx(1.0, abs=1e-12)
        assert np.exp(dist.log_probs).sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization_invariant(self):
        for n, l, eps in [(2, 1, 0.3), (3, 2, 1.7), (12, 1, 2.0)]:
            x = db(l, [0] * n)
            dist = exact_distribution(x, MechanismParams(eps, DataUniverse(l)))
            assert float(np.exp(dist.log_probs).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            exact_distribution(db(1, [0] * 13), MechanismParams(1.0, DataUniverse(1)))

    @pytest.mark.parametrize(
        "n,l,eps", [(1, 1, 0.5), (2, 2, 1.0), (4, 1, 0.25), (2, 3, 2.0), (6, 2, 1.0)]
    )
    def test_agreement_with_production_pmf(self, n, l, eps):
        u = DataUniverse(l)
        gen = RandomSource(n + 10 * l).generator()
        x = Database(u, gen.integers(0, u.cardinality, size=n))
        params = MechanismParams(eps, u)
        oracle_lp = exact_distribution(x, params).log_probs
        production_lp = log_pmf_all_outputs(x, params)
        assert float(np.abs(oracle_lp - production_lp).max()) <= 1e-10


class TestConditionalMean:
    @pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
    def test_dominates_companion_estimator_per_input(self, eps):
        # Bayes estimate under the uniform prior beats the affine companion
        # at every input on these micro-instances
        u = DataUniverse(1)
        n = 2
        rows = all_databases_matrix(u, n)
        params = MechanismParams(eps, u)
        kernel = symmetric_row_kernel(u, params.keep_prob)
        transition = _full_transition(rows, kernel)
        for z in rows:
            q = make_hamming_query(Database(u, z))
            answers = q.evaluate_rows(rows)
            est = conditional_mean_estimates(transition, answers)
            err = est[None, :] - answers[:, None]
            cm_per_x = (transition * err * err).sum(axis=1)
            for xi, xr in enumerate(rows):
                companion = exact_distortion(q, Database(u, xr), params, "unbiased", "squared")
                assert cm_per_x[xi] <= companion + 1e-10

    def test_transition_rows_normalize(self):
        u = DataUniverse(2)
        rows = all_databases_matrix(u, 1)
        kernel = symmetric_row_kernel(u, 0.4)
        transition = _full_transition(rows, kernel)
        assert np.allclose(transition.sum(axis=1), 1.0, atol=1e-12)


class TestMicroMinimax:
    def test_singleton_grid_equals_mechanism_value(self):
        u = DataUniverse(1)
        params = MechanismParams(1.0, u)
        report = micro_minimax_report(u, 2, 1.0, keep_prob_grid=[params.keep_prob])
        assert report["grid_optimum"] == report["mechanism_e_value"]

    def test_identity_epsilon_is_zero(self):
        assert micro_minimax(DataUniverse(1), 2, 700.0) == pytest.approx(0.0, abs=1e-12)

    def test_grid_optimum_below_companion_distortion(self):
        u = DataUniverse(1)
        n, eps = 2, 1.0
        params = MechanismParams(eps, u)
        value = micro_minimax(u, n, eps)
        worst_companion = 0.0
        rows = all_databases_matrix(u, n)
        for q in hamming_query_family(u, n):
            for xr in rows:
                worst_companion = max(
                    worst_companion,
                    exact_distortion(q, Database(u, xr), params, "unbiased", "squared"),
                )
        assert 0.0 <= value <= worst_companion + 1e-12

    def test_proper_optimum_reported_on_tiny_instance(self):
        report = micro_minimax_report(DataUniverse(1), 2, 1.0)
        assert report["proper_optimum"] is not None
        assert report["proper_optimum"] >= 0.0
        assert "grid" in report["note"]

    def test_caps(self):
        with pytest.raises(EnumerationTooLargeError):
            micro_minimax(DataUniverse(2), 4, 1.0)
        with pytest.raises(EnumerationTooLargeError):
            micro_minimax(DataUniverse(1), 2, 1.0, keep_prob_grid=np.linspace(0.5, 0.7, 1500))

    def test_custom_grid_gains_the_mechanism_keep_probability(self):
        # a grid without 1/g is searched with 1/g appended, so the report
        # still holds the release mechanism's worst case
        u = DataUniverse(1)
        keep = MechanismParams(1.0, u).keep_prob
        report = micro_minimax_report(u, 2, 1.0, keep_prob_grid=[0.5])
        alone = micro_minimax_report(u, 2, 1.0, keep_prob_grid=[keep])
        assert report["mechanism_e_value"] == alone["mechanism_e_value"]
        assert report["best_keep_prob"] in (0.5, keep)

    def test_proper_search_over_its_cap_reports_none(self):
        # l = 2, n = 2: 3 distinct answers over 16 outputs, 3**16 assignments
        assert micro_minimax_report(DataUniverse(2), 2, 1.0)["proper_optimum"] is None

    @pytest.mark.parametrize(
        "call,match",
        [
            (lambda: symmetric_row_kernel(DataUniverse(1), 0.0), r"keep probability must lie in \(0, 1\]"),
            (lambda: symmetric_row_kernel(DataUniverse(1), 1.5), r"keep probability must lie in \(0, 1\]"),
            (lambda: micro_minimax(DataUniverse(1), 2, -1.0), "epsilon must be a nonnegative real"),
            (lambda: micro_minimax(DataUniverse(1), 2, math.nan), "epsilon must be a finite number, got nan$"),
            (lambda: micro_minimax(DataUniverse(1), 2, 1.0, queries=[]), "at least one query"),
        ],
        ids=["keep-zero", "keep-above-one", "epsilon-negative", "epsilon-nan", "no-queries"],
    )
    def test_invalid_arguments_rejected(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()

    def test_accepts_custom_queries(self):
        u = DataUniverse(1)
        qs = [generate_random_query(u, 2, 1, RandomSource(k)) for k in range(3)]
        value = micro_minimax(u, 2, 1.0, queries=qs)
        assert value >= 0.0


class TestVerificationSuite:
    def test_all_checks_pass(self):
        results = run_verification_suite()
        assert results
        for name, passed, detail in results:
            assert passed, f"{name}: {detail}"
        assert "sampler's realized privacy loss is at most epsilon" in [name for name, _, _ in results]
