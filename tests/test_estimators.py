import hashlib
import math
import time
import tracemalloc

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
    _distinct,
    _distortion_bound,
    _mean_and_stderr,
    achievable_values,
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
    make_hamming_query,
    make_predicate_query,
)


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


def enumerated_achievable_values(q):
    """Every answer of q over every database, enumerated, with sums within
    achievable_values' tolerance merged: the reference for its DP."""
    tol = 1e-12 * q.n * float(np.abs(q.tables).max()) / q.c_sum
    return _distinct(q.evaluate_rows(all_databases_matrix(q.universe, q.n)), tol)


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

    @pytest.mark.parametrize("estimator", ["unbiased", "proper"])
    @pytest.mark.parametrize("measure", ["squared", "absolute"])
    def test_bound_constant_beyond_identity_epsilon(self, estimator, measure):
        # the bound reads eps unclamped: past 700 it no longer changes
        q = generate_random_query(DataUniverse(3), 8, 2, RandomSource(1))
        bounds = {_distortion_bound(q, 8, MechanismParams(eps, DataUniverse(3)), estimator, measure)
                  for eps in (700.0, 745.0, 1e4, 1e300)}
        assert len(bounds) == 1

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
        # the DP and the enumeration sum in different orders, so identical
        # achievable values can differ in the last bits; both merge sums
        # within the same tolerance, so the sets have the same size
        gen = RandomSource(7).generator()
        queries = [generate_random_query(DataUniverse(2), 3, 1, RandomSource(seed, 7)) for seed in range(5)]
        for seed in range(20):
            l = int(gen.integers(1, 4))
            n = int(gen.integers(2, 10 // l + 1))
            h = int(gen.choice([h for h in range(2, n + 1) if n % h == 0]))
            queries.append(generate_random_query(DataUniverse(l), n, h, RandomSource(seed, 8)))
        # sums that are equal up to rounding, over tables of unequal counts
        queries.append(
            StatisticalQuery(DataUniverse(2), [[0.1, 0.2, 0.3, 0.0], [0.3, 0.0, 0.1, 0.1]], [0, 1, 0, 1, 1])
        )
        for q in queries:
            brute = enumerated_achievable_values(q)
            dp = achievable_values(q)
            assert dp.size == brute.size
            assert np.abs(dp - brute).max() <= 1e-12

    # sha256 of achievable_values(q).tobytes() for one-table queries, taken
    # from the per-value DP that preceded the per-table one: the DP over
    # tables must reproduce its floats bit for bit
    ONE_TABLE_PINS = [
        (("random", 1, 5, 0), "88731f4df9b7d6e45d20637af19c2a6509141d4b3657b8cca70ecad5e7d80114"),
        (("random", 1, 17, 1), "bb2a2d22b26fdd8cc0b164f5bc355901f6eb23ccd062e945c57b7aebb0527537"),
        (("random", 2, 3, 2), "4b99a7d8c9e374a21e11661bcb2e61d6389b1951bd9e385592c3c6c505151638"),
        (("random", 2, 9, 3), "832487d429a41df409b1ffc10f4f6d5f509d37997e23b6c49dbb91a5b8e09694"),
        (("random", 2, 14, 4), "8b1517cc736eda64738f191b184d79aef81b712b39ffece1b304ade5b2310211"),
        (("random", 3, 4, 5), "a58f3ad9c03017ac275dd66038132c91e16aa896bbeb419efdb1c8c5424aafa4"),
        (("random", 3, 7, 6), "554737defb23c2c1a25316412b3f14c48432c4beee5e7664f9ecaacbb8cd743b"),
        (("random", 3, 10, 7), "62c434943500251b8a07909ab53ce1ca427ee130aa10ef814c1a30786b4e23db"),
        (("random", 4, 3, 8), "1d569040189d6de40d307bcebc3d38992e7613bc2fd59536ca18f1a4fdef3072"),
        (("random", 4, 5, 9), "fa85b41dfb0bad557e9bb3682c486552e30e6c96b7ce1864b3b49cbdca0b0081"),
        (("random", 1, 39, 10), "90a92be24e15ee0cc75916b1e1a3dc2ef9778a5a98516f8321e9dd228ec1f0d1"),
        (("random", 2, 25, 11), "660f96815c82ab3cea9a7638d349170d31d509c89ef09b1e90e7824f89666fa5"),
        (("predicate", 1, 1, [0]), "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
        (("predicate", 2, 33, [1]), "13b45639766cdaf100cebc35c140c300a54c365288594345337db0c9d6604c7b"),
        (("predicate", 3, 100, [0, 2]), "6ff5a490c4af336396f71333a00dc29634990e3634707582f53174ca62b498b2"),
        (("predicate", 3, 1000, [0]), "53485b9d5d16c7af8d1141d6fe0fc5cef936f58b6739027906a55c56d0090cd5"),
        (("predicate", 5, 257, [4]), "16727ec1add4f1ea887ff31a8c8fc231c1494c52b49b5d509beb529da7bc870b"),
        (("table", 2, 3, None), "de9c58ba57fa169478018f5cf8794170fd239106787cd1d723347c2d6e8d0e0c"),
        (("table", 2, 20, None), "7543cea8b0340a6716c24f97a46bc6ea95fd2b5492589e328ff9f509d28dd2f5"),
        (("table", 2, 37, None), "ef8f49fda8a27ea98117aba6e08d2ae8573f168a99d8f687497c5ab6426234fd"),
    ]

    @pytest.mark.parametrize("case,digest", ONE_TABLE_PINS)
    def test_one_table_achievable_bytes_pinned(self, case, digest):
        kind, l, n, arg = case
        u = DataUniverse(l)
        if kind == "random":
            q = generate_random_query(u, n, 1, RandomSource(arg, 17))
        elif kind == "predicate":
            q = make_predicate_query(u, n, arg)
        else:
            q = StatisticalQuery(u, [[0.1, 0.2, 0.3, 0.0]], [0] * n)
        assert hashlib.sha256(achievable_values(q).tobytes()).hexdigest() == digest

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
        # round differently; the achievable set has 6 values, not 8
        q = StatisticalQuery(DataUniverse(1), [[0.1, 0.3], [0.2, 0.0], [0.0, 0.3]], [0, 1, 2])
        vals = achievable_values(q)
        assert vals.size == 6
        expected = np.array([0.1, 0.3, 0.4, 0.5, 0.6, 0.8]) / q.c_sum
        assert np.allclose(vals, expected, rtol=0, atol=1e-12)

    def test_heterogeneous_exact_range_capped(self):
        q = generate_random_query(DataUniverse(2), 12, 12, RandomSource(3))
        with pytest.raises(EnumerationTooLargeError):
            achievable_values(q)

    def test_cap_bounds_memory_of_a_refused_query(self):
        # 8 distinct values over 400 rows: far more than 10**6 sums. The cap
        # is checked as each merged state is built, not after a value's step
        q = generate_random_query(DataUniverse(3), 400, 1, RandomSource(5))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError):
                achievable_values(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_table_longer_than_cap_fails_fast(self):
        q = make_predicate_query(DataUniverse(3), 10**6, [0])
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLargeError):
            achievable_values(q)
        assert time.perf_counter() - start < 0.5

    def test_multi_table_query_beyond_enumeration(self):
        # four tables of 250 rows each, n * l = 2000
        z = Database(DataUniverse(2), np.arange(1000) % 4)
        vals = achievable_values(make_hamming_query(z))
        assert np.array_equal(vals, np.arange(1001) / 1000)

    @pytest.mark.parametrize("strategy", ["interval_clamp", "exact_range"])
    @pytest.mark.parametrize("seed", range(6))
    def test_pointwise_factor_two(self, strategy, seed):
        # whenever q(x) is in the projection set, projecting at most doubles
        # the pointwise error
        q, x, params = random_micro_instance(seed, max_bits=8)
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


class TestMeasureDistortion:
    def test_identity_epsilon_exact_zero(self):
        q, x, _ = random_micro_instance(11)
        p = MechanismParams(700.0, x.universe)
        report = measure_distortion(q, x, p, trials=100, rng=RandomSource(1))
        assert report.empirical_mean == 0.0

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_within_six_stderr_of_exact(self, seed):
        q, x, params = random_micro_instance(seed)
        report = measure_distortion(q, x, params, trials=4000, rng=RandomSource(seed, 2))
        exact = exact_distortion(q, x, params)
        assert abs(report.empirical_mean - exact) <= 6 * report.empirical_stderr

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
