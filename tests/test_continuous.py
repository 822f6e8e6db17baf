import gc
import hashlib
import weakref

import numpy as np
import pytest

from dpsynth.bounds import BoundInputs, continuous_bound
from dpsynth.core import EstimatorUndefinedError, RandomSource, ValidationError
from dpsynth.continuous import (
    ContinuousDatabase,
    LipschitzQuery,
    choose_k,
    discretize,
    grid_query,
    release_continuous,
)


class TestChooseK:
    def test_exact_power(self):
        assert choose_k(256) == 2  # 2^(2k) = 16 = sqrt(256)
        assert choose_k(4096) == 3

    def test_floor_guard(self):
        assert choose_k(1) == 1
        assert choose_k(2) == 1

    def test_large_n(self):
        assert choose_k(10**6) == 5  # round(19.93 / 4)

    def test_half_up_rounding(self):
        assert choose_k(1024) == 3  # log2/4 = 2.5 rounds up


class TestDiscretize:
    def test_endpoints(self):
        x = ContinuousDatabase([0.0, 1.0])
        d = discretize(x, 3)
        assert list(d.rows) == [0, 7]  # 1.0 clamps into the top cell

    def test_floor_arithmetic(self):
        d = discretize(ContinuousDatabase([0.3]), 2)
        assert list(d.rows) == [1]  # cell [0.25, 0.5)

    def test_error_bound_exhaustive_grid(self):
        for k in (1, 2, 4, 6):
            grid = np.linspace(0.0, 1.0, 2001)
            codes = discretize(ContinuousDatabase(grid), k).rows
            represented = codes / 2.0**k
            assert np.abs(grid - represented).max() <= 2.0**-k + 1e-15

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            discretize(ContinuousDatabase([0.5]), 0)

    def test_rows_read_only(self):
        assert not discretize(ContinuousDatabase([0.5]), 2).rows.flags.writeable

    def test_rows_validated(self):
        with pytest.raises(ValidationError):
            ContinuousDatabase([0.5, 1.2])
        with pytest.raises(ValidationError):
            ContinuousDatabase([-0.1])
        with pytest.raises(ValidationError):
            ContinuousDatabase([])


class TestLipschitzQuery:
    def test_identity_accepted(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        assert q.lipschitz == 1.0

    def test_violation_rejected(self):
        with pytest.raises(ValidationError):
            LipschitzQuery(lambda u: 2.0 * u, lipschitz=1.0, lower=0.0, upper=2.0)

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            LipschitzQuery(lambda u: 0.5, lipschitz=1.0, lower=0.0, upper=1.0)
        with pytest.raises(ValidationError):
            LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.5, upper=0.5)

    def test_range_violation_rejected(self):
        with pytest.raises(ValidationError):
            LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.2, upper=1.0)

    @pytest.mark.parametrize(
        "value", [None, 0.5j, np.array([0.5, 0.5]), np.array([0.5]), "x", "0.5", object()]
    )
    def test_non_real_value_rejected(self, value):
        # the first value is fine; the bad one is named with its u
        def fn(u):
            return u if u < 0.5 else value

        with pytest.raises(ValidationError, match=r"real number.*u = 0\.5\b"):
            LipschitzQuery(fn, lipschitz=1.0, lower=0.0, upper=1.0)

    def test_numpy_scalars_accepted(self):
        q = LipschitzQuery(lambda u: np.asarray(u), lipschitz=1.0, lower=0.0, upper=1.0)
        assert np.allclose(grid_query(q, 2, 2).tables[0], [0.0, 0.25, 0.5, 0.75])
        LipschitzQuery(lambda u: np.float64(u) > 0.5, lipschitz=10**9, lower=0.0, upper=1.0)


class TestGridQuery:
    def test_left_endpoint_table(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        gq = grid_query(q, 5, 2)
        assert np.allclose(gq.tables[0], [0.0, 0.25, 0.5, 0.75])
        assert gq.n == 5

    def test_induced_spread_close_to_continuous(self):
        # grid c_i is within L * 2^-k of the continuous spread
        q = LipschitzQuery(lambda u: 0.5 * u, lipschitz=0.5, lower=0.0, upper=0.5)
        for k in (1, 2, 4):
            gq = grid_query(q, 3, k)
            assert abs(gq.c - 0.5) <= 0.5 * 2.0**-k + 1e-12


class TestReleaseContinuous:
    def test_identity_epsilon_only_discretization_error(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        x = ContinuousDatabase(np.full(256, 0.5))
        answer = release_continuous(x, q, 700.0, RandomSource(0))
        assert abs(answer - 0.5) <= 0.25  # k = 2 at n = 256

    def test_zero_epsilon_propagates(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        x = ContinuousDatabase(np.linspace(0, 1, 16))
        with pytest.raises(EstimatorUndefinedError):
            release_continuous(x, q, 0.0, RandomSource(0))

    def test_mse_within_proposition_bound(self):
        # quick seeded check; the acceptance suite runs the full version
        n, trials = 256, 2000
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        gen = RandomSource(123).generator()
        x = ContinuousDatabase(gen.random(n))
        truth = float(np.mean(x.rows))
        base = RandomSource(7)
        errors = np.array(
            [release_continuous(x, q, 1.0, base.derive(t)) - truth for t in range(trials)]
        )
        mse = float(np.mean(errors**2))
        bound = continuous_bound(BoundInputs(n=n, l=1, epsilon=1.0, L=1.0))
        assert mse <= 1.25 * bound

    def test_reproducible(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        x = ContinuousDatabase(np.linspace(0, 1, 64))
        a = release_continuous(x, q, 1.0, RandomSource(3))
        b = release_continuous(x, q, 1.0, RandomSource(3))
        assert a == b



class TestGridCache:
    def test_grid_built_once_per_n(self):
        calls = []

        def fn(u):
            calls.append(u)
            return u

        q = LipschitzQuery(fn, lipschitz=1.0, lower=0.0, upper=1.0)
        calls.clear()
        x = ContinuousDatabase(np.linspace(0, 1, 256))
        answers = [release_continuous(x, q, 1.0, RandomSource(4, 0, (t,))) for t in range(100)]
        assert len(calls) == 4  # 2^k, k = 2 at n = 256
        release_continuous(ContinuousDatabase(np.linspace(0, 1, 4096)), q, 1.0, RandomSource(4))
        assert len(calls) == 4 + 8  # k = 3 at n = 4096
        assert grid_query(q, 256, 2) is grid_query(q, 256, 2)
        assert len(calls) == 12
        assert len(set(answers)) > 1  # the releases differ; only the query is shared

        ref = weakref.ref(q)
        del q
        gc.collect()
        assert ref() is None  # no module-level cache keeps the query alive


class TestContinuousPinned:
    """sha256 of release_continuous answers as computed before the grid query
    was cached on the LipschitzQuery: the cache moves no draw."""

    ANSWERS_SHA256 = "515d79290e810d129076bc174709d259aec452420de8d4ba8113a66e7f5f791c"

    def test_answers(self):
        queries = [
            LipschitzQuery(lambda u: u, 1.0, 0.0, 1.0),
            LipschitzQuery(lambda u: u * u, 2.0, 0.0, 1.0),
        ]
        answers = []
        for n in (256, 4096):
            x = ContinuousDatabase(RandomSource(5, 1, (n,)).generator().random(n))
            for q in queries:
                for eps in (1.0, 0.3):
                    base = RandomSource(29, 2, (n,))
                    answers += [release_continuous(x, q, eps, base.derive(t)) for t in range(50)]
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == self.ANSWERS_SHA256
