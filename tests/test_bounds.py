import math

import pytest

from dpsynth.bounds import (
    BoundInputs,
    bound_table_row,
    continuous_bound,
    cut_bound,
    lower_bound_lemma4,
    lower_bound_squared_asymptotic,
    std_normal_cdf,
    upper_bound_absolute,
    upper_bound_squared,
)
from dpsynth.core import ValidationError

# frozen from 30-digit evaluations of the closed forms
PHI_1 = 0.841344746068542948585
UPPER_SQ_N1000 = 4.68269437683116927578e-3
UPPER_ABS_N1E4 = 2.16395341373865284877e-2
LOWER_ASYMPT_N1E6 = 1.53014302219957046752e-11
CONTINUOUS_N1E4 = 2.35478754935386357824e-2
CUT_FACTOR_EPS1 = 2.16395341373865284877

GRID = [
    (n, l, eps)
    for n in (100, 10**3, 10**4, 10**6, 10**8)
    for l in (1, 2, 4, 8)
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0)
]


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_phi_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-12)

    def test_negative_reflection(self):
        assert std_normal_cdf(-1.0) == pytest.approx(1.0 - PHI_1, abs=1e-12)
        for t in (0.3, 1.7, 4.2):
            assert std_normal_cdf(-t) == pytest.approx(1.0 - std_normal_cdf(t), abs=1e-14)


class TestUpperSquared:
    def test_known_value(self):
        inputs = BoundInputs(n=1000, l=1, epsilon=1.0)
        assert upper_bound_squared(inputs) == pytest.approx(UPPER_SQ_N1000, abs=1e-7)
        assert upper_bound_squared(inputs, proper=True) == pytest.approx(
            4 * UPPER_SQ_N1000, abs=4e-7
        )

    def test_large_epsilon_limit(self):
        inputs = BoundInputs(n=500, l=3, epsilon=600.0, a=0.25, b=1.25, c=0.5)
        expected = (1.0 / 0.5) ** 2 / 500
        assert upper_bound_squared(inputs) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_epsilon_and_n(self):
        for l in (1, 4):
            prev = math.inf
            for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
                val = upper_bound_squared(BoundInputs(n=1000, l=l, epsilon=eps))
                assert val < prev
                prev = val
        for eps in (0.5, 2.0):
            prev = math.inf
            for n in (100, 1000, 10**4):
                val = upper_bound_squared(BoundInputs(n=n, l=2, epsilon=eps))
                assert val < prev
                prev = val


class TestUpperAbsolute:
    def test_known_value(self):
        inputs = BoundInputs(n=10**4, l=1, epsilon=1.0)
        assert upper_bound_absolute(inputs) == pytest.approx(UPPER_ABS_N1E4, abs=1e-6)
        assert upper_bound_absolute(inputs, proper=True) == pytest.approx(
            2 * UPPER_ABS_N1E4, abs=2e-6
        )

    @pytest.mark.parametrize("n,l,eps", GRID[::7])
    def test_square_identity(self, n, l, eps):
        inputs = BoundInputs(n=n, l=l, epsilon=eps, a=-0.5, b=2.0, c=0.75)
        absolute = upper_bound_absolute(inputs)
        squared = upper_bound_squared(inputs)
        assert absolute**2 == pytest.approx(squared, rel=1e-12)


class TestLowerBounds:
    def test_asymptotic_known_value(self):
        inputs = BoundInputs(n=10**6, l=1, epsilon=1.0)
        assert lower_bound_squared_asymptotic(inputs) == pytest.approx(
            LOWER_ASYMPT_N1E6, abs=1e-14
        )

    def test_asymptotic_monotone_in_n(self):
        vals = [
            lower_bound_squared_asymptotic(BoundInputs(n=n, l=2, epsilon=1.0))
            for n in (100, 1000, 10**4)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_lemma4_clamped_at_small_n(self):
        assert lower_bound_lemma4(BoundInputs(n=2, l=1, epsilon=5.0)) == 0.0

    def test_lemma4_converges_to_asymptotic(self):
        inputs = BoundInputs(n=10**8, l=1, epsilon=1.0)
        finite = lower_bound_lemma4(inputs)
        asym = lower_bound_squared_asymptotic(inputs)
        assert abs(finite - asym) / asym < 0.01

    @pytest.mark.parametrize("l", [1, 2, 4, 8])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 5.0])
    def test_lemma4_below_asymptotic_at_large_n(self, l, eps):
        inputs = BoundInputs(n=10**8, l=l, epsilon=eps)
        assert lower_bound_lemma4(inputs) <= lower_bound_squared_asymptotic(inputs) * 1.01

    @pytest.mark.parametrize("n,l,eps", GRID)
    def test_ordering_lower_below_upper(self, n, l, eps):
        # normalized-query corner: a=0, b=c=1
        inputs = BoundInputs(n=n, l=l, epsilon=eps)
        lower = lower_bound_lemma4(inputs)
        asym = lower_bound_squared_asymptotic(inputs)
        upper = upper_bound_squared(inputs, proper=True)
        assert 0.0 <= lower <= upper
        assert asym <= upper


class TestContinuous:
    def test_known_value(self):
        inputs = BoundInputs(n=10**4, l=1, epsilon=1.0, L=1.0)
        assert continuous_bound(inputs) == pytest.approx(CONTINUOUS_N1E4, abs=1e-9)

    def test_zero_lipschitz_limit(self):
        inputs = BoundInputs(n=400, l=1, epsilon=1.0, L=0.0)
        expected = 4 * math.exp(-2.0) / (1.0 - math.exp(-1.0)) ** 2 / 20.0
        assert continuous_bound(inputs) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_epsilon(self):
        vals = [
            continuous_bound(BoundInputs(n=10**4, l=1, epsilon=eps, L=1.0))
            for eps in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_missing_lipschitz_errors(self):
        with pytest.raises(ValidationError):
            continuous_bound(BoundInputs(n=100, l=1, epsilon=1.0))


class TestCutBound:
    def test_known_value(self):
        assert cut_bound(1, 1, 1.0) == pytest.approx(CUT_FACTOR_EPS1, abs=1e-5)

    def test_doubling_sizes_doubles(self):
        assert cut_bound(8, 18, 0.7) == pytest.approx(2 * cut_bound(4, 9, 0.7), rel=1e-12)

    def test_identity_epsilon(self):
        assert cut_bound(3, 12, 700.0) == math.sqrt(36.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            cut_bound(0, 1, 1.0)
        with pytest.raises(ValidationError):
            cut_bound(1, 1, 0.0)


class TestInvariantsOnGrid:
    @pytest.mark.parametrize("n,l,eps", GRID[::5])
    def test_all_bounds_positive_finite(self, n, l, eps):
        inputs = BoundInputs(n=n, l=l, epsilon=eps, L=2.0)
        for value in (
            upper_bound_squared(inputs),
            upper_bound_absolute(inputs),
            lower_bound_squared_asymptotic(inputs),
            continuous_bound(inputs),
        ):
            assert math.isfinite(value) and value > 0.0
        assert lower_bound_lemma4(inputs) >= 0.0

    def test_continuity_in_epsilon(self):
        # smooth on a multiplicative grid: the log-log slope is bounded, so
        # a 5% epsilon step moves the bound by a bounded log amount
        prev = None
        eps = 0.01
        while eps < 20.0:
            val = upper_bound_squared(BoundInputs(n=1000, l=2, epsilon=eps))
            if prev is not None:
                assert abs(math.log(val) - math.log(prev)) < 3 * math.log(1.05) + 1e-9
            prev = val
            eps *= 1.05

    def test_table_row_contains_all_columns(self):
        row = bound_table_row(BoundInputs(n=100, l=1, epsilon=1.0, L=1.0))
        assert row["upper_absolute"] ** 2 == pytest.approx(row["upper_squared"], rel=1e-12)
        assert row["continuous"] != ""

    def test_inputs_validated(self):
        with pytest.raises(ValidationError):
            BoundInputs(n=0, l=1, epsilon=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=10, l=1, epsilon=0.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=10, l=1, epsilon=1.0, b=0.0, a=0.5)
        with pytest.raises(ValidationError):
            BoundInputs(n=10, l=1, epsilon=1.0, c=0.0)

    @pytest.mark.parametrize("n", [1.5, True, 10.0, pytest.param(10**400, id="10**400")])
    def test_n_must_be_a_float_sized_integer(self, n):
        with pytest.raises(ValidationError, match="n must be"):
            BoundInputs(n=n, l=1, epsilon=1.0)

    @pytest.mark.parametrize("l", [0, 31, 1030, 2.0, True])
    def test_l_validated_as_a_universe(self, l):
        with pytest.raises(ValidationError, match="universe dimension"):
            BoundInputs(n=10, l=l, epsilon=1.0)

    @pytest.mark.parametrize("L", [-1.0, math.nan])
    def test_lipschitz_constant_validated(self, L):
        with pytest.raises(ValidationError, match="Lipschitz"):
            BoundInputs(n=10, l=1, epsilon=1.0, L=L)


class TestMechanismConstants:
    """The bounds read g, the scale and the shift from MechanismParams."""

    @pytest.mark.parametrize("n,l,eps", GRID[::7])
    def test_upper_bound_is_the_estimator_variance_scale(self, n, l, eps):
        inputs = BoundInputs(n=n, l=l, epsilon=eps, a=-0.5, b=2.0, c=0.75)
        p = inputs.params
        assert (p.epsilon, p.universe.l) == (eps, l)
        assert upper_bound_squared(inputs) == pytest.approx((2.5 / 0.75 * p.scale) ** 2 / n, rel=1e-15)

    @pytest.mark.parametrize("n,l,eps", GRID[::7])
    def test_asymptotic_lower_bound_matches_the_exp_plus_form(self, n, l, eps):
        expected = (1.0 - PHI_1) ** 2 / (2 ** (l + 4) * (1.0 + math.exp(eps) / (2**l - 1)) ** 3) / n
        value = lower_bound_squared_asymptotic(BoundInputs(n=n, l=l, epsilon=eps))
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 3, 30])
    @pytest.mark.parametrize("eps", [709.0, 710.0, 800.0, 1e300])
    def test_no_overflow_at_large_epsilon(self, l, eps):
        # e^eps overflows a float from eps = 709.79; every bound is written in e^-eps
        row = bound_table_row(BoundInputs(n=10, l=l, epsilon=eps, L=1.0))
        assert row["upper_squared"] == pytest.approx(0.1, rel=1e-12)
        assert row["continuous"] == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-12)
        assert 0.0 <= row["lower_asymptotic"] < 1e-300
        assert row["lower_lemma4"] == 0.0

    def test_cut_bound_is_the_edge_scale(self):
        # (1 + e) / (1 - e) without the cancellation of 1 - e at small eps
        eps = 1e-6
        assert cut_bound(1, 1, eps) == pytest.approx(2.0 / eps + eps / 6.0, rel=1e-15)

    def test_huge_lipschitz_constant_gives_inf_not_an_error(self):
        assert continuous_bound(BoundInputs(n=10, l=1, epsilon=1.0, L=1e200)) == math.inf
