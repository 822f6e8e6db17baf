import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dpsynth.bounds import BoundInputs, continuous_bound
from dpsynth import continuous
from dpsynth.core import EstimatorUndefinedError, RandomSource, ValidationError
from dpsynth.continuous import (
    ContinuousDatabase,
    LipschitzQuery,
    choose_k,
    discretize,
    grid_query,
    release_continuous,
)
from dpsynth.estimators import _estimates
from dpsynth.mechanism import MechanismParams, sample_synthetic


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

    @pytest.mark.parametrize("n", [0, -4])
    def test_n_validated(self, n):
        with pytest.raises(ValidationError, match=f"n must be >= 1, got {n}"):
            choose_k(n)


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
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="rows must be finite"):
                ContinuousDatabase([0.5, bad])

    def test_immutable(self):
        x = ContinuousDatabase([0.5])
        with pytest.raises(AttributeError, match="immutable"):
            x.rows = np.array([0.25])
        with pytest.raises(ValueError):
            x.rows[0] = 0.25


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

    def test_float32_identity_accepted(self):
        # float32 rounding (about 6e-8) exceeds the float64 tolerance
        LipschitzQuery(lambda u: np.float32(u), lipschitz=1.0, lower=0.0, upper=1.0)

    def test_float32_violation_rejected(self):
        with pytest.raises(ValidationError, match="Lipschitz"):
            LipschitzQuery(lambda u: np.float32(2 * u), lipschitz=1.0, lower=0.0, upper=2.0)

    def test_small_float64_violation_rejected(self):
        # 1e-8 over L * step per grid step, above the float64 tolerance 2e-9
        with pytest.raises(ValidationError, match="Lipschitz"):
            LipschitzQuery(lambda u: (1.0 + 1e-4) * u, lipschitz=1.0, lower=0.0, upper=1.001)

    @pytest.mark.parametrize(
        "lipschitz,match",
        [
            (-1.0, r"Lipschitz constant must be >= 0, got -1\.0$"),
            (np.inf, "Lipschitz constant must be a finite number, got inf$"),
            (np.nan, "Lipschitz constant must be a finite number, got nan$"),
        ],
        ids=["-1.0", "inf", "nan"],
    )
    def test_lipschitz_constant_validated(self, lipschitz, match):
        with pytest.raises(ValidationError, match=match):
            LipschitzQuery(lambda u: u, lipschitz=lipschitz, lower=0.0, upper=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="row function must be finite"):
            LipschitzQuery(lambda u: u if u < 0.5 else bad, lipschitz=1.0, lower=0.0, upper=1.0)

    def test_immutable(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        with pytest.raises(AttributeError, match="immutable"):
            q.lipschitz = 2.0

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

    def test_built_from_the_row_count(self):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        tracemalloc.start()
        try:
            gq = grid_query(q, 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gq.n == 10**6 and gq.heterogeneity == 1
        # an n-length zero assignment would be 7.6 MiB
        assert peak < 64 * 2**10

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

    def test_normalized_by_the_query_spread(self):
        # the grid table 100 + {0, 1/4, 1/2, 3/4} spreads 3/4; normalized by
        # that spread instead of the query's 1, the answer would be 134.0
        q = LipschitzQuery(lambda u: 100.0 + u, lipschitz=1.0, lower=100.0, upper=101.0)
        x = ContinuousDatabase(np.full(256, 0.5))
        answer = release_continuous(x, q, 700.0, RandomSource(0))
        assert 100.0 <= answer <= 101.0
        assert abs(answer - 100.5) <= 1.0 * 2.0**-2  # k = 2 at n = 256

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


class TestGridCodes:
    """The database keeps its grid codes, and a release answers from one
    count of the drawn codes, with the bits of the composition it replaces."""

    @staticmethod
    def composed(x, q, epsilon, rng):
        k = choose_k(x.n)
        gq = grid_query(q, x.n, k)
        xd = discretize(x, k)
        params = MechanismParams(epsilon, xd.universe)
        y = sample_synthetic(xd, params, rng)
        return float(_estimates(gq, gq.evaluate(y), params, "proper")) * (gq.c / q.spread)

    @pytest.mark.parametrize("n", [1, 255, 256, 4096, 4097])
    def test_bits_of_the_composition(self, n):
        queries = [
            LipschitzQuery(lambda u: u, 1.0, 0.0, 1.0),
            LipschitzQuery(lambda u: u * u, 2.0, 0.0, 1.0),
            # not dyadic on the grid, so the order of the float sums shows
            LipschitzQuery(lambda u: math.sin(3.0 * u) / 3.0, 1.0, 0.0, 1.0 / 3.0),
        ]
        rows = RandomSource(11, 0, (n,)).generator().random(n)
        rows[: min(n, 2)] = [1.0, 0.0][: min(n, 2)]  # the clamped top cell and the bottom one
        x = ContinuousDatabase(rows)
        for q in queries:
            for eps in (0.3, 1.0, 700.0):
                streams = [RandomSource(13, 1, (n, t)) for t in range(100)]
                got = np.array([release_continuous(x, q, eps, r) for r in streams])
                want = np.array([self.composed(x, q, eps, r) for r in streams])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (q.fn, eps)

    def test_discretized_once_per_k(self, monkeypatch):
        calls = []

        def counting(x, k):
            calls.append(k)
            return discretize(x, k)

        monkeypatch.setattr(continuous, "discretize", counting)
        q = LipschitzQuery(lambda u: u, 1.0, 0.0, 1.0)
        x = ContinuousDatabase(np.linspace(0, 1, 256))
        assert x._grids == {}  # filled on first use, not when the database is made
        for t in range(20):
            release_continuous(x, q, 1.0, RandomSource(4, 0, (t,)))
        assert calls == [2]  # k = 2 at n = 256
        assert continuous._grid_codes(x, 2) is continuous._grid_codes(x, 2)
        continuous._grid_codes(x, 3)
        assert calls == [2, 3]
        release_continuous(ContinuousDatabase(np.linspace(0, 1, 256)), q, 1.0, RandomSource(4))
        assert calls == [2, 3, 2]  # a new database discretizes anew

    def test_codes_read_only_and_freed_with_the_database(self):
        q = LipschitzQuery(lambda u: u, 1.0, 0.0, 1.0)
        x = ContinuousDatabase(np.linspace(0, 1, 256))
        release_continuous(x, q, 1.0, RandomSource(4))
        codes = x._grids[2]
        assert codes == discretize(x, 2)
        assert not codes.rows.flags.writeable
        with pytest.raises(ValueError):
            codes.rows[0] = 1
        with pytest.raises(AttributeError):
            codes.rows = np.zeros(256, dtype=np.int64)
        with pytest.raises(AttributeError):
            x._grids = {}

        refs = [weakref.ref(x), weakref.ref(codes.rows)]
        del x, codes
        gc.collect()
        assert [ref() for ref in refs] == [None, None]  # no module-level cache keeps them alive

    @pytest.mark.parametrize("n,limit", [(16, "36.74"), (4096, "38.68")], ids=["k=1", "k=3"])
    def test_epsilon_above_the_keep_threshold_refused(self, n, limit):
        # the sampler's 53-bit keep threshold realizes at most
        # log((2**53 - 1)(2**k - 1)); the release reaches it through sample_rows
        q = LipschitzQuery(lambda u: u, 1.0, 0.0, 1.0)
        x = ContinuousDatabase(np.linspace(0, 1, n))
        with pytest.raises(ValidationError, match=rf"epsilon=40.0 at l={choose_k(n)} is above {limit}"):
            release_continuous(x, q, 40.0, RandomSource(0))
        if n == 16:
            assert 0.0 <= release_continuous(x, q, 36.0, RandomSource(0)) <= 1.0


class TestContinuousPinned:
    """sha256 of release_continuous answers. Pinned before the grid query was
    cached on the LipschitzQuery, to show the cache moves no draw; re-pinned,
    on the same seeds, when answers were first normalized by the query's own
    spread instead of the grid table's (each answer is rescaled by
    ``grid c / spread``, and no draw moves)."""

    ANSWERS_SHA256 = "9835dae7589a8c3b32262fb2c99fd5b4910b94959de24080d6666908e0350293"

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
