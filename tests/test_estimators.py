import hashlib
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dpsynth import estimators
from dpsynth.bounds import BoundInputs, upper_bound_absolute, upper_bound_squared
from dpsynth.core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    EnumerationTooLargeError,
    EstimatorUndefinedError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
    hamming_distance,
)
from dpsynth.estimators import (
    MEASURES,
    _debias,
    _distinct,
    _distortion_bound,
    _estimates,
    _mean_and_stderr,
    achievable_values,
    estimate_unbiased,
    exact_distortion,
    exact_unbiased_mse,
    measure_distortion,
    project_proper,
)
from dpsynth.mechanism import (
    IDENTITY_EPSILON,
    MechanismParams,
    exact_log_pmf,
    log_pmf_all_outputs,
    sample_rows,
    sample_synthetic,
    verify_dp,
)
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
        probs = np.exp(log_pmf_all_outputs(x, params))
        scale_est = np.array(
            [estimate_unbiased(q, Database(x.universe, r), params) for r in rows]
        )
        assert float(probs @ scale_est) == pytest.approx(q.evaluate(x), abs=1e-10)


class TestOverflowingEpsilon:
    """Below about 1e-308 (l <= 3) the debiasing factors overflow to inf, and
    inf * q - inf * C would be NaN: ``_debias`` refuses that epsilon. A
    release at it is still well defined."""

    @pytest.mark.parametrize("l,eps", [(1, 1e-320), (3, 1e-308), (30, 1e-300)])
    def test_debias_refuses(self, l, eps):
        with pytest.raises(EstimatorUndefinedError, match=f"epsilon = {eps} and l = {l}"):
            _debias(np.array([0.5]), 0.5, MechanismParams(eps, DataUniverse(l)))

    def test_the_threshold_grows_with_l(self):
        # scale ~ 2**l / eps: 1e-303 overflows at l = 20 but not at l = 3.
        # No query can be built at l = 30 (core.MAX_TABLE_CODES), hence l = 20
        eps = 1e-303
        with pytest.raises(EstimatorUndefinedError):
            estimate_unbiased(make_predicate_query(DataUniverse(20), 4, [0]), db(20, [0, 1, 2, 3]),
                              MechanismParams(eps, DataUniverse(20)))
        assert math.isfinite(estimate_unbiased(make_predicate_query(DataUniverse(3), 4, [0]), db(3, [0, 1, 2, 3]),
                                               MechanismParams(eps, DataUniverse(3))))

    @pytest.mark.parametrize("estimator", ["unbiased", "proper"])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_every_estimator_path_refuses(self, estimator, measure):
        q, x, _ = random_micro_instance(3)
        params = MechanismParams(1e-320, x.universe)
        with pytest.raises(EstimatorUndefinedError):
            exact_distortion(q, x, params, estimator, measure)
        with pytest.raises(EstimatorUndefinedError):
            measure_distortion(q, x, params, estimator, measure, trials=10, rng=RandomSource(0))
        with pytest.raises(EstimatorUndefinedError):
            estimate_unbiased(q, x, params)

    def test_exact_mse_shares_the_refusal(self):
        # exact_unbiased_mse reads (scale, shift) through the same check as
        # _debias; an MSE beyond the largest float is inf, not an OverflowError
        q, x = make_predicate_query(DataUniverse(1), 4, [0]), db(1, [0, 1, 1, 0])
        with pytest.raises(EstimatorUndefinedError, match="epsilon = 1e-320 and l = 1"):
            exact_unbiased_mse(q, x, MechanismParams(1e-320, x.universe))
        for eps in (1e-160, 1e-300):
            assert exact_unbiased_mse(q, x, MechanismParams(eps, x.universe)) == math.inf

    def test_release_is_still_allowed(self):
        x = db(3, [0, 1, 2, 3, 4, 5, 6, 7])
        y = sample_synthetic(x, MechanismParams(1e-320, x.universe), RandomSource(0))
        assert y.n == x.n

    def test_debias_is_the_affine_map_in_place(self):
        q = generate_random_query(DataUniverse(2), 6, 3, RandomSource(2), count=5)
        params = MechanismParams(0.7, DataUniverse(2))
        answers = RandomSource(3).generator().random((4, 5))
        expected = params.scale * answers - params.shift * q.centering
        out = _debias(answers, q.centering, params)
        assert out is answers
        assert out.tobytes() == expected.tobytes()
        assert _debias(0.25, q.centering[0], params) == params.scale * 0.25 - params.shift * q.centering[0]


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

    def test_clamp_batch_returns_per_query_array(self):
        universe = DataUniverse(2)
        qs = generate_random_query(universe, 8, 2, RandomSource(3), count=3)
        lo, hi = qs.value_range()
        raw = np.array([lo[0] - 1.0, (lo[1] + hi[1]) / 2, hi[2] + 1.0])
        projected = project_proper(qs, raw, "interval_clamp")
        assert isinstance(projected, np.ndarray) and projected.shape == (3,)
        assert projected.tolist() == [lo[0], raw[1], hi[2]]
        assert raw[0] == lo[0] - 1.0  # the caller's array is not clamped in place
        # a batch's raw estimates, as estimate_unbiased returns them
        y = Database(universe, RandomSource(4).generator().integers(0, 4, size=8))
        est = estimate_unbiased(qs, y, MechanismParams(1.0, universe))
        assert np.array_equal(project_proper(qs, est), np.clip(est, lo, hi))

    @pytest.mark.parametrize("count", [None, 6])
    def test_interval_clamp_is_the_proper_estimate(self, count):
        # project_proper's strategy names map onto the estimator names, bit for bit
        universe = DataUniverse(2)
        q = generate_random_query(universe, 8, 2, RandomSource(5), count=count)
        params = MechanismParams(0.4, universe)  # wide enough that some estimates leave [lo, hi]
        ys = RandomSource(6).generator().integers(0, 4, size=(20, 8))
        for rows in ys:
            answers = q.evaluate(Database(universe, rows))
            raw = _estimates(q, np.array(answers, dtype=np.float64), params, "unbiased")
            proper = _estimates(q, np.array(answers, dtype=np.float64), params, "proper")
            assert np.asarray(project_proper(q, raw, "interval_clamp")).tobytes() == np.asarray(proper).tobytes()
            if count is None:
                assert project_proper(q, raw, "exact_range") == _estimates(q, answers, params, "exact_range")
        lo, hi = q.value_range()
        raws = _estimates(q, q.evaluate_rows(ys), params, "unbiased")
        assert ((raws < lo) | (raws > hi)).any()

    def test_clamp_one_query_returns_float(self):
        q = make_predicate_query(DataUniverse(2), 4, [1])
        assert type(project_proper(q, np.float64(2.0))) is float
        assert type(project_proper(q, np.array(-2.0))) is float

    def test_clamp_keeps_nan(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        assert math.isnan(project_proper(q, math.nan, "interval_clamp"))

    def test_exact_range_refuses_a_batch(self):
        qs = generate_random_query(DataUniverse(1), 4, 1, RandomSource(3), count=3)
        with pytest.raises(ValidationError, match="batch"):
            project_proper(qs, np.zeros(3), "exact_range")

    @pytest.mark.parametrize("count, raw", [(None, np.zeros(2)), (3, 0.5), (3, np.zeros(2))])
    def test_raw_shape_must_match_the_query(self, count, raw):
        q = generate_random_query(DataUniverse(1), 4, 1, RandomSource(3), count=count)
        with pytest.raises(DimensionMismatchError, match="raw estimates must have shape"):
            project_proper(q, raw)

    def test_unknown_strategy_rejected(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        with pytest.raises(ValidationError, match="projection strategy must be one of \\('interval_clamp', 'exact_range'\\), got 'nearest'"):
            project_proper(q, 0.3, "nearest")

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

    def test_achievable_cap_counts_merged_states(self, monkeypatch):
        # unmerged, the partial-sum states of this query exceed 500
        monkeypatch.setattr(estimators, "ACHIEVABLE_CAP", 500)
        q = StatisticalQuery(DataUniverse(2), [[0.1, 0.2, 0.3, 0.0]], [0] * 20)
        vals = achievable_values(q)
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

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_range_within_factor_four_of_the_bound(self, seed):
        # acceptance criterion 4's micro-instances
        q, x, params = random_micro_instance(seed, max_bits=8)
        bound = upper_bound_squared(
            BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c)
        )
        assert exact_distortion(q, x, params, "exact_range", "squared") <= 4.0 * bound * (1 + 1e-12)

    def test_enumeration_cap(self):
        q = generate_random_query(DataUniverse(2), 8, 1, RandomSource(0))
        x = db(2, [0] * 8)
        with pytest.raises(EnumerationTooLargeError):
            exact_distortion(q, x, MechanismParams(1.0, DataUniverse(2)))

    @pytest.mark.parametrize("eps", [1.0, 800.0])
    def test_universe_mismatch(self, eps):
        q = generate_random_query(DataUniverse(3), 2, 1, RandomSource(0))
        x = db(3, [1, 6])
        with pytest.raises(DimensionMismatchError):
            exact_distortion(q, x, MechanismParams(eps, DataUniverse(5)))


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

    def test_exact_range_within_six_stderr_of_exact(self):
        q, x, params = random_micro_instance(0)
        report = measure_distortion(q, x, params, "exact_range", "absolute", trials=20000, rng=RandomSource(0, 2))
        exact = exact_distortion(q, x, params, "exact_range", "absolute")
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

    # measure_distortion draws counts where n > 8 * h * 2**l, rows elsewhere
    @pytest.mark.parametrize(
        "l,n,h,trials,seed",
        [
            pytest.param(1, 10**4, 1, 4096, 41, id="counts-l1"),
            pytest.param(3, 4096, 64, 4096, 42, id="rows-l3"),
            pytest.param(3, 2**15, 64, 4096, 43, id="counts-l3"),
            pytest.param(1, 1024, 64, 4096, 44, id="rows-l1"),
        ],
    )
    def test_monte_carlo_both_paths_within_six_stderr(self, l, n, h, trials, seed):
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


def path_instance(l, n, h, seed=0):
    """(query, database): a random h-table query and database of n rows."""
    u = DataUniverse(l)
    q = generate_random_query(u, n, h, RandomSource(seed, 1))
    return q, Database(u, RandomSource(seed).generator().integers(0, u.cardinality, size=n))


# (l, n, h) on the row side of measure_distortion's rule, n <= 8 * h * 2**l,
# and on its count side
ROW_SIDE = [(1, 16, 1), (3, 4096, 64)]
COUNT_SIDE = [(1, 17, 1), (3, 4160, 64)]


class TestMeasureDistortionPaths:
    """measure_distortion draws a release's rows (``sample_rows``'s draws,
    ``mechanism._draw_rows``) when n <= 8 * k * 2**l and its counts
    (``sample_histograms``) otherwise."""

    @pytest.mark.parametrize("instance,path", [(i, "rows") for i in ROW_SIDE] + [(i, "counts") for i in COUNT_SIDE])
    def test_the_rule_picks_the_path(self, monkeypatch, instance, path):
        calls = []
        for attr, name in (("_draw_rows", "rows"), ("sample_histograms", "counts")):
            def spy(*args, _name=name, _sampler=getattr(estimators, attr)):
                calls.append(_name)
                return _sampler(*args)
            monkeypatch.setattr(estimators, attr, spy)
        q, x = path_instance(*instance)
        measure_distortion(q, x, MechanismParams(1.0, x.universe), trials=300, rng=RandomSource(1))
        assert calls and set(calls) == {path}

    def test_row_path_counts_tiled_releases(self):
        # chunks of 2**19 // n trials, each one release of x tiled that many
        # times from one stream: 43690, 43690 and a shorter last chunk
        q, x = path_instance(2, 12, 3, seed=4)
        params = MechanismParams(0.8, x.universe)
        trials, step = 100_000, 2**19 // x.n
        got = list(estimators._release_histograms(
            q, x, q.database_histogram(x), params, RandomSource(5).generator(), trials))
        gen = RandomSource(5).generator()
        assert [len(h) for h in got] == [step, step, trials - 2 * step]
        for hist in got:
            rows = sample_rows(Database(x.universe, np.tile(x.rows, len(hist))), params, gen)
            assert np.array_equal(hist, q.histogram(rows.reshape(len(hist), x.n)))

    def test_trials_off_the_chunk_reproducible(self):
        # 300 trials: two chunks of 2**19 // 4096 = 128 and 44 of a third
        q, x = path_instance(3, 4096, 64)
        params = MechanismParams(1.0, x.universe)
        a, b = (measure_distortion(q, x, params, "proper", "absolute", trials=300, rng=RandomSource(6))
                for _ in range(2))
        assert (a.empirical_mean, a.empirical_stderr) == (b.empirical_mean, b.empirical_stderr)

    @pytest.mark.parametrize("n", [16, 17])
    def test_unrealizable_epsilon_refused_on_both_paths(self, n):
        # e^40 exceeds (2**53 - 1)(2**1 - 1): the sampler refuses it at l = 1
        q, x = path_instance(1, n, 1)
        params = MechanismParams(40.0, x.universe)
        with pytest.raises(ValidationError, match="53-bit keep threshold"):
            sample_rows(x, params, RandomSource(0).generator())
        with pytest.raises(ValidationError, match="53-bit keep threshold"):
            measure_distortion(q, x, params, trials=10, rng=RandomSource(0))

    @pytest.mark.parametrize("instance", ROW_SIDE + COUNT_SIDE)
    @pytest.mark.parametrize("eps", [IDENTITY_EPSILON, 1e4])
    def test_identity_epsilon_exact_zero_on_both_paths(self, instance, eps):
        # both samplers keep every row there; the report is exactly 0 even
        # where the matrix product rounds a batch's equal answers apart (the
        # 64-table instance)
        q, x = path_instance(*instance)
        params = MechanismParams(eps, x.universe)
        hist = q.database_histogram(x)
        for chunk in estimators._release_histograms(q, x, hist, params, RandomSource(7).generator(), 200):
            assert (chunk == hist).all()
        for estimator in ("unbiased", "proper"):
            for measure in MEASURES:
                report = measure_distortion(q, x, params, estimator, measure, trials=200, rng=RandomSource(7))
                assert (report.empirical_mean, report.empirical_stderr) == (0.0, 0.0)

    # sha256 of the repr of the reports below: the mc_distortion benchmark's
    # mc_random shape, 300 trials (a short last chunk), and two instances of
    # several 2**19-row chunks. Any change in the draws, their order or the
    # counting moves it
    ROW_PATH_SHA256 = "bbed5cb8dd7d605fc1624b123d0532c560caf9ae832b1e1c905d6d8428042de1"

    def test_row_path_pinned(self):
        cases = [((3, 4096, 64), 1.0, "proper", "absolute", 4096, 11),
                 ((3, 4096, 64), 0.5, "unbiased", "squared", 300, 12),
                 ((1, 16, 1), 1.0, "unbiased", "squared", 100_000, 13),
                 ((2, 12, 3), 0.8, "proper", "absolute", 100_000, 14)]
        reports = []
        for instance, eps, estimator, measure, trials, seed in cases:
            q, x = path_instance(*instance)
            reports.append(measure_distortion(q, x, MechanismParams(eps, x.universe), estimator, measure,
                                              trials=trials, rng=RandomSource(seed)))
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == self.ROW_PATH_SHA256

    @pytest.mark.parametrize("instance,trials,threaded", [
        ((3, 4096, 64), 300, True),  # three chunks of 2**19 rows
        ((1, 16, 1), 100_000, True),  # four chunks of 2**19 rows, at l = 1
        ((3, 4096, 64), 128, False),  # one chunk
        ((8, 64, 64), 1000, False),  # four chunks of 2**14 rows
    ])
    def test_the_step_runs_on_a_worker_thread_between_chunks(self, monkeypatch, instance, trials, threaded):
        on_main, real = [], estimators._bin_rows

        def spy(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            real(*args)

        monkeypatch.setattr(estimators, "_bin_rows", spy)
        q, x = path_instance(*instance)
        before = threading.active_count()
        measure_distortion(q, x, MechanismParams(1.0, x.universe), trials=trials, rng=RandomSource(9))
        assert threading.active_count() == before
        chunks = -(-trials // min(2**22 // q.heterogeneity // x.universe.cardinality, 2**19 // x.n))
        assert on_main == [not threaded] * chunks

    # a step that raises on the second chunk: the draw (main thread), the
    # release's step (worker thread) and the estimates (the caller's loop,
    # while the third chunk's step runs)
    @pytest.mark.parametrize("step", ["_draw_rows", "_bin_rows", "_estimates"])
    def test_no_thread_outlives_a_failing_call(self, monkeypatch, step):
        class Failure(Exception):
            pass

        real_bin_rows = estimators._bin_rows

        def slow_bin_rows(*args):
            # a worker left running is then still alive when the call is back
            time.sleep(0.05)
            real_bin_rows(*args)

        monkeypatch.setattr(estimators, "_bin_rows", slow_bin_rows)
        error, calls, real = Failure(), [], getattr(estimators, step)

        def second_call_raises(*args):
            calls.append(step)
            if len(calls) == 2:
                raise error
            return real(*args)

        monkeypatch.setattr(estimators, step, second_call_raises)
        q, x = path_instance(3, 4096, 64)
        before = threading.active_count()
        with pytest.raises(Failure) as info:
            measure_distortion(q, x, MechanismParams(1.0, x.universe), trials=300, rng=RandomSource(10))
        assert info.value is error
        assert threading.active_count() == before

    def test_peak_memory_at_benchmark_size(self):
        # n = 4096, l = 3, h = 64 and 4096 trials, drawn on the row path: all
        # 4096 histograms of one count draw would hold 16 MiB, and traced 34 MiB
        q, x = path_instance(3, 4096, 64)
        params = MechanismParams(1.0, x.universe)
        measure_distortion(q, x, params, "proper", "absolute", trials=1, rng=RandomSource(8))
        tracemalloc.start()
        try:
            measure_distortion(q, x, params, "proper", "absolute", trials=4096, rng=RandomSource(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"estimator": "biased"}, "estimator must be one of"),
            ({"measure": "cubic"}, "measure must be one of"),
        ],
    )
    @pytest.mark.parametrize("monte_carlo", [False, True], ids=["exact", "monte-carlo"])
    def test_unknown_names_rejected(self, kwargs, match, monte_carlo):
        q, x, params = random_micro_instance(1)
        with pytest.raises(ValidationError, match=match):
            if monte_carlo:
                measure_distortion(q, x, params, trials=10, rng=RandomSource(0), **kwargs)
            else:
                exact_distortion(q, x, params, **kwargs)

    # ids as pytest derived them when a missing source was a ValidationError
    # naming an "explicit RandomSource", so the case names stay stable
    @pytest.mark.parametrize(
        "kwargs,error,match",
        [
            pytest.param({"trials": 10}, TypeError, "keyword-only argument: 'rng'",
                         id="kwargs0-explicit RandomSource"),
            pytest.param({"trials": 0, "rng": RandomSource(0)}, ValidationError, "trials must be >= 1",
                         id="kwargs1-trials must be >= 1"),
        ],
    )
    def test_monte_carlo_needs_a_source_and_trials(self, kwargs, error, match):
        q, x, params = random_micro_instance(1)
        with pytest.raises(error, match=match):
            measure_distortion(q, x, params, **kwargs)


# each entry point that compares two universes, called with operands over
# l=2 and mechanism parameters, a database or a universe over l=1
UNIVERSE_MISMATCH_CALLS = {
    "estimate_unbiased": lambda q, x, p, u1: estimate_unbiased(q, x, p),
    "exact_distortion": lambda q, x, p, u1: exact_distortion(q, x, p),
    "exact_unbiased_mse": lambda q, x, p, u1: exact_unbiased_mse(q, x, p),
    "measure_distortion": lambda q, x, p, u1: measure_distortion(q, x, p, trials=10, rng=RandomSource(0)),
    "sample_synthetic": lambda q, x, p, u1: sample_synthetic(x, p, RandomSource(0)),
    "exact_log_pmf": lambda q, x, p, u1: exact_log_pmf(x, x, p),
    "log_pmf_all_outputs": lambda q, x, p, u1: log_pmf_all_outputs(x, p),
    "verify_dp": lambda q, x, p, u1: verify_dp(x.universe, x.n, p),
    "StatisticalQuery._check": lambda q, x, p, u1: q.evaluate(Database(u1, [0, 1])),
    "core._check_compatible": lambda q, x, p, u1: hamming_distance(x, Database(u1, [0, 1])),
}


@pytest.mark.parametrize("call", UNIVERSE_MISMATCH_CALLS.values(), ids=UNIVERSE_MISMATCH_CALLS.keys())
def test_universe_mismatch_names_both_l(call):
    u1, u2 = DataUniverse(1), DataUniverse(2)
    q = make_predicate_query(u2, 2, [0])
    with pytest.raises(DimensionMismatchError, match=r"different universes \(l=\d vs l=\d\)") as exc:
        call(q, db(2, [1, 3]), MechanismParams(1.0, u1), u1)
    assert {"l=1", "l=2"} <= set(re.findall(r"l=\d", str(exc.value)))
