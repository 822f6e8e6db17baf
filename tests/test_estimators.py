import math

import numpy as np
import pytest

from dpsynth.bounds import BoundInputs, upper_bound_absolute, upper_bound_squared
from dpsynth.core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    EnumerationTooLargeError,
    EstimatorUndefinedError,
    RandomSource,
    all_databases_matrix,
)
from dpsynth.estimators import (
    _mean_and_stderr,
    achievable_values,
    estimate_cut,
    estimate_unbiased,
    exact_distortion,
    exact_unbiased_mse,
    measure_distortion,
    project_proper,
)
from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs
from dpsynth.queries import (
    StatisticalQuery,
    generate_random_query,
    make_predicate_query,
)

CUT_HAND_VALUE = -0.581976706869326424385  # -e^-1/(1-e^-1), frozen at 30 digits


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


def random_micro_instance(seed, max_bits=10):
    """Random (query, database, params) with n*l <= max_bits."""
    gen = RandomSource(seed).generator()
    l = int(gen.integers(1, 4))
    n = int(gen.integers(1, max_bits // l + 1))
    u = DataUniverse(l)
    divisors = [h for h in range(1, n + 1) if n % h == 0]
    h = int(gen.choice(divisors))
    q = generate_random_query(u, n, h, RandomSource(seed, 1))
    x = Database(u, gen.integers(0, u.cardinality, size=n))
    eps = float(gen.choice([0.25, 0.5, 1.0, 2.0]))
    return q, x, MechanismParams(eps, u)


class TestUnbiasedEstimator:
    def test_identity_epsilon_returns_plain_answer(self):
        q = generate_random_query(DataUniverse(2), 4, 2, RandomSource(0))
        y = db(2, [0, 3, 1, 2])
        p = MechanismParams(700.0, DataUniverse(2))
        assert estimate_unbiased(q, y, p) == q.evaluate(y)

    def test_hand_value(self):
        # n=1, l=1, eps=ln3, phi=(0,1), y=(1): 2*1 - (1/2)*1 = 1.5
        q = StatisticalQuery(DataUniverse(1), np.array([[0.0, 1.0]]), np.array([0]))
        p = MechanismParams(math.log(3.0), DataUniverse(1))
        assert estimate_unbiased(q, db(1, [1]), p) == pytest.approx(1.5, abs=1e-12)

    def test_zero_epsilon_rejected(self):
        q = make_predicate_query(DataUniverse(1), 2, [0])
        with pytest.raises(EstimatorUndefinedError):
            estimate_unbiased(q, db(1, [0, 1]), MechanismParams(0.0, DataUniverse(1)))

    @pytest.mark.parametrize("seed", range(12))
    def test_unbiased_by_enumeration(self, seed):
        q, x, params = random_micro_instance(seed)
        rows = all_databases_matrix(x.universe, x.n)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        scale_est = np.array(
            [estimate_unbiased(q, Database(x.universe, r), params) for r in rows]
        )
        assert float(probs @ scale_est) == pytest.approx(q.evaluate(x), abs=1e-10)


class TestProjection:
    def test_clamp_is_identity_in_range(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        assert project_proper(q, 0.3, "interval_clamp") == 0.3

    def test_clamp_hits_interval_ends(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        assert project_proper(q, 1.7, "interval_clamp") == 1.0
        assert project_proper(q, -0.2, "interval_clamp") == 0.0

    def test_exact_range_nearest(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        vals = achievable_values(q)
        assert np.allclose(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert project_proper(q, 0.3, "exact_range") == 0.25

    def test_exact_range_tie_toward_smaller(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        assert project_proper(q, 0.375, "exact_range") == 0.25

    def test_exact_range_outside_interval(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        assert project_proper(q, -3.0, "exact_range") == 0.0
        assert project_proper(q, 9.0, "exact_range") == 1.0

    def test_achievable_dp_matches_enumeration(self):
        # the DP and brute enumeration sum in different orders, so identical
        # achievable values can differ in the last ulp; compare as sets with
        # a tolerance
        for seed in range(5):
            q = generate_random_query(DataUniverse(2), 3, 1, RandomSource(seed, 7))
            rows = all_databases_matrix(DataUniverse(2), 3)
            brute = np.unique(q.evaluate_rows(rows))
            dp = achievable_values(q)
            for v in brute:
                assert np.abs(dp - v).min() < 1e-9
            for v in dp:
                assert np.abs(brute - v).min() < 1e-9

    def test_achievable_merges_sums_equal_up_to_rounding(self):
        # 0.1 + 0.2 and 0.3 + 0.0 round differently; both are 1/3 of the range
        q = StatisticalQuery(DataUniverse(2), [[0.1, 0.2, 0.3, 0.0]], [0, 0, 0])
        vals = achievable_values(q)
        assert vals.size == 10
        assert np.allclose(vals, np.arange(10) / 9, rtol=0, atol=1e-12)

    def test_achievable_cap_counts_merged_states(self):
        # unmerged, the partial-sum states of this query exceed 500
        q = StatisticalQuery(DataUniverse(2), [[0.1, 0.2, 0.3, 0.0]], [0] * 20)
        vals = achievable_values(q, cap=500)
        assert vals.size == 61
        assert np.allclose(vals, np.arange(61) / 60, rtol=0, atol=1e-12)

    def test_heterogeneous_achievable_merges_sums_equal_up_to_rounding(self):
        # 0.1 + 0.2 and 0.3 + 0.0 (and 0.1 + 0.2 + 0.3 and 0.3 + 0.0 + 0.3)
        # round differently; the enumerated set has 6 values, not 8
        q = StatisticalQuery(DataUniverse(1), [[0.1, 0.3], [0.2, 0.0], [0.0, 0.3]], [0, 1, 2])
        vals = achievable_values(q)
        assert vals.size == 6
        expected = np.array([0.1, 0.3, 0.4, 0.5, 0.6, 0.8]) / q.c_sum
        assert np.allclose(vals, expected, rtol=0, atol=1e-12)

    def test_heterogeneous_exact_range_capped(self):
        q = generate_random_query(DataUniverse(2), 12, 12, RandomSource(3))
        with pytest.raises(EnumerationTooLargeError):
            achievable_values(q)

    @pytest.mark.parametrize("strategy", ["interval_clamp", "exact_range"])
    @pytest.mark.parametrize("seed", range(6))
    def test_pointwise_factor_two(self, strategy, seed):
        # whenever q(x) is in the projection set, projecting at most doubles
        # the pointwise error
        q, x, params = random_micro_instance(seed, max_bits=8)
        if strategy == "exact_range" and q.heterogeneity > 1:
            pytest.skip("exact range only enumerable for this instance shape")
        rows = all_databases_matrix(x.universe, x.n)
        qx = q.evaluate(x)
        for r in rows[:: max(1, rows.shape[0] // 64)]:
            raw = estimate_unbiased(q, Database(x.universe, r), params)
            projected = project_proper(q, raw, strategy)
            assert abs(projected - qx) <= 2.0 * abs(raw - qx) + 1e-12


class TestExactDistortion:
    def test_identity_epsilon_is_zero(self):
        q, x, _ = random_micro_instance(4)
        p = MechanismParams(700.0, x.universe)
        assert exact_distortion(q, x, p, "unbiased", "squared") == 0.0
        assert exact_distortion(q, x, p, "proper", "absolute") == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_squared_below_lemma_bound(self, seed):
        q, x, params = random_micro_instance(seed)
        bound = upper_bound_squared(
            BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c)
        )
        assert exact_distortion(q, x, params, "unbiased", "squared") <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_proper_within_factor_four(self, seed):
        q, x, params = random_micro_instance(seed)
        unbiased = exact_distortion(q, x, params, "unbiased", "squared")
        proper = exact_distortion(q, x, params, "proper", "squared")
        assert proper <= 4.0 * unbiased + 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_absolute_below_remark_bound(self, seed):
        q, x, params = random_micro_instance(seed)
        bound = upper_bound_absolute(
            BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c)
        )
        assert exact_distortion(q, x, params, "unbiased", "absolute") <= bound * (1 + 1e-12)

    def test_enumeration_cap(self):
        q = generate_random_query(DataUniverse(2), 8, 1, RandomSource(0))
        x = db(2, [0] * 8)
        with pytest.raises(EnumerationTooLargeError):
            exact_distortion(q, x, MechanismParams(1.0, DataUniverse(2)))


class TestCutEstimator:
    def test_identity_epsilon_returns_raw_count(self):
        y = db(1, [0, 1, 1, 0])  # 2 vertices
        assert estimate_cut(y, {0}, {1}, 700.0) == 1.0

    def test_hand_value_edge_absent(self):
        y = db(1, [0, 0, 0, 0])
        assert estimate_cut(y, {0}, {1}, 1.0) == pytest.approx(CUT_HAND_VALUE, abs=1e-12)

    def test_unbiased_by_enumeration_three_vertices(self):
        # all 2^9 outputs of a 3-vertex graph release, weighted by the pmf
        from dpsynth.graph import Graph

        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        x = g.to_database()
        u = DataUniverse(1)
        params = MechanismParams(1.0, u)
        rows = all_databases_matrix(u, 9)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        s_set, t_set = {0, 1}, {2}
        estimates = np.array(
            [estimate_cut(Database(u, r), s_set, t_set, 1.0) for r in rows]
        )
        true_cut = 1.0  # only (1, 2) crosses from S into T
        assert float(probs @ estimates) == pytest.approx(true_cut, abs=1e-10)

    def test_validation(self):
        y = db(1, [0, 0, 0, 0])
        with pytest.raises(Exception):
            estimate_cut(y, {0}, {0}, 1.0)  # overlap
        with pytest.raises(EstimatorUndefinedError):
            estimate_cut(y, {0}, {1}, 0.0)
        with pytest.raises(Exception):
            estimate_cut(db(1, [0, 0, 0]), {0}, {1}, 1.0)  # not square
        with pytest.raises(Exception):
            estimate_cut(db(2, [0, 0, 0, 0]), {0}, {1}, 1.0)  # l != 1

    def test_empty_side_gives_zero(self):
        y = db(1, [1, 1, 1, 1])
        assert estimate_cut(y, set(), {1}, 1.0) == 0.0


class TestMeasureDistortion:
    def test_identity_epsilon_exact_zero(self):
        q, x, _ = random_micro_instance(11)
        p = MechanismParams(700.0, x.universe)
        report = measure_distortion(q, x, p, trials=100, rng=RandomSource(1))
        assert report.empirical_mean == 0.0

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_within_six_stderr_of_exact(self, seed):
        q, x, params = random_micro_instance(seed)
        report = measure_distortion(
            q, x, params, trials=4000, rng=RandomSource(seed, 2), with_exact=True
        )
        assert report.exact_value is not None
        assert not report.flagged
        assert abs(report.empirical_mean - report.exact_value) <= 6 * report.empirical_stderr

    def test_reproducible_and_chunk_invariant(self):
        q, x, params = random_micro_instance(5)
        a = measure_distortion(q, x, params, trials=5000, rng=RandomSource(5, 5))
        b = measure_distortion(q, x, params, trials=5000, rng=RandomSource(5, 5))
        assert a.empirical_mean == b.empirical_mean
        assert a.empirical_stderr == b.empirical_stderr

    def test_bound_attached_matches_bounds_module(self):
        q, x, params = random_micro_instance(6)
        report = measure_distortion(
            q, x, params, estimator="proper", measure="absolute", trials=10, rng=RandomSource(0)
        )
        expected = upper_bound_absolute(
            BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c),
            proper=True,
        )
        assert report.analytic_bound == expected
        assert report.sample_count == 10
        assert report.distortion_measure == "absolute"

    def test_mean_below_bound_with_guard(self):
        q, x, params = random_micro_instance(7)
        report = measure_distortion(q, x, params, trials=4000, rng=RandomSource(2))
        guard = report.analytic_bound + 5 * report.empirical_stderr
        assert report.empirical_mean <= guard

    def test_universe_mismatch(self):
        q, x, _ = random_micro_instance(4)
        other = MechanismParams(1.0, DataUniverse(q.universe.l + 1))
        with pytest.raises(DimensionMismatchError):
            measure_distortion(q, x, other, trials=10, rng=RandomSource(0))

    @pytest.mark.parametrize("size", [1, 2, 3, 100, 4096])
    def test_stderr_bits_match_generator_form(self, size):
        values = RandomSource(size, 9).generator().exponential(1e-4, size=size)
        mean = math.fsum(values) / size
        stderr = float("inf")
        if size > 1:
            stderr = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (size - 1) / size)
        assert _mean_and_stderr(values) == (mean, stderr)


class TestExactUnbiasedMse:
    def test_matches_enumeration_on_micro_instances(self):
        # the 100 micro-instances of acceptance criterion 2
        for seed in range(100):
            q, x, params = random_micro_instance(seed)
            exact = exact_distortion(q, x, params, "unbiased", "squared")
            assert exact_unbiased_mse(q, x, params) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_identity_is_zero(self):
        q, x, _ = random_micro_instance(11)
        assert exact_unbiased_mse(q, x, MechanismParams(700.0, x.universe)) == 0.0

    def test_zero_epsilon_undefined(self):
        q, x, _ = random_micro_instance(12)
        with pytest.raises(EstimatorUndefinedError):
            exact_unbiased_mse(q, x, MechanismParams(0.0, x.universe))

    def test_predicate_query_closed_form(self):
        # l = 1, one table (0, 1): Var = 1/g - 1/g^2 per row at any input, so
        # the MSE is (g / (1 - e^-eps))^2 * (g - 1) / g^2 / n
        n, eps = 1000, 0.7
        u = DataUniverse(1)
        params = MechanismParams(eps, u)
        x = Database(u, RandomSource(3).generator().integers(0, 2, size=n))
        g = params.g
        expected = (g / -math.expm1(-eps)) ** 2 * (g - 1.0) / g**2 / n
        mse = exact_unbiased_mse(make_predicate_query(u, n, [0]), x, params)
        assert mse == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "l,n,h,trials,seed",
        [(1, 10**4, 1, 4096, 41), (3, 4096, 64, 4096, 42)],
    )
    def test_count_sampled_monte_carlo_within_six_stderr(self, l, n, h, trials, seed):
        u = DataUniverse(l)
        gen = RandomSource(seed).generator()
        if h == 1:
            q = make_predicate_query(u, n, [0])
        else:
            q = generate_random_query(u, n, h, RandomSource(seed, 1))
        x = Database(u, gen.integers(0, u.cardinality, size=n))
        params = MechanismParams(1.0, u)
        exact = exact_unbiased_mse(q, x, params)
        report = measure_distortion(q, x, params, trials=trials, rng=RandomSource(seed, 2))
        assert abs(report.empirical_mean - exact) <= 6 * report.empirical_stderr
        assert exact <= report.analytic_bound
