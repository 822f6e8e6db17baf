"""Closed-form distortion bounds for the release mechanism and its estimators.

Every function here evaluates one analytic expression; nothing is fitted or
sampled. Conventions shared by all of them:

* g, e^-eps and the estimators' ``scale`` and ``shift`` are read from
  ``BoundInputs.params``, a ``MechanismParams``; written in e^-eps, no
  eps > 0 overflows. l is validated as a universe's, an integer in [1, 30];
  n is an integer >= 1, and a, b, c and L are finite reals.
* Squared-error bounds are per-query expected squared distortion; absolute
  bounds are expected absolute distortion.
* The two lower bounds are stated for normalized queries (a = 0, b = c = 1)
  over {0,1}^l; the query-class constants a, b, c enter the upper bounds only.
* The finite-n lower bound depends on the universal Berry-Esseen constant,
  which has no canonical value; 0.56 is the best published bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .core import DataUniverse, ValidationError, _check_int, _check_real
from .mechanism import MechanismParams

BERRY_ESSEEN_CONSTANT = 0.56


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound calculators, and their MechanismParams."""

    n: int
    l: int
    epsilon: float
    a: float = 0.0
    b: float = 1.0
    c: float = 1.0
    L: float | None = None
    params: MechanismParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _check_int(self.n, "n", 1)
        if n > sys.float_info.max:  # so that n / x and sqrt(n) cannot overflow
            raise ValidationError(f"n must be <= {sys.float_info.max:g}, got {n}")
        params = MechanismParams(self.epsilon, DataUniverse(self.l))
        if params.epsilon == 0.0:
            raise ValidationError("epsilon must be > 0, got 0.0")
        a, b, c = (_check_real(getattr(self, name), name) for name in "abc")
        if not b > a:
            raise ValidationError(f"need b > a, got a={a}, b={b}")
        if not c > 0.0:
            raise ValidationError(f"need c > 0, got {c}")
        lipschitz = None if self.L is None else _check_real(self.L, "Lipschitz constant")
        if lipschitz is not None and lipschitz < 0.0:
            raise ValidationError(f"Lipschitz constant must be >= 0, got {lipschitz}")
        vars(self).update(n=n, epsilon=params.epsilon, a=a, b=b, c=c, L=lipschitz, params=params)


def std_normal_cdf(t: float) -> float:
    """Standard Gaussian cdf via the complementary error function.

    math.erfc is evaluated by the platform libm to within a few ulp, so the
    absolute error here is far below the 1e-12 contract.
    """
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


_ONE_MINUS_PHI1 = 1.0 - std_normal_cdf(1.0)


def upper_bound_squared(inputs: BoundInputs, proper: bool = False) -> float:
    """(b-a)^2 g^2 / (c^2 (1-e^-eps)^2 n), the unbiased estimator's variance
    bound; quantizing onto achievable answers costs at most a factor 4."""
    ratio = (inputs.b - inputs.a) / inputs.c * inputs.params.scale
    value = ratio * ratio / inputs.n
    return 4.0 * value if proper else value


def upper_bound_absolute(inputs: BoundInputs, proper: bool = False) -> float:
    """(b-a) g / (c (1-e^-eps)) / sqrt(n); doubled for the proper estimator."""
    value = (inputs.b - inputs.a) / inputs.c * inputs.params.scale / math.sqrt(inputs.n)
    return 2.0 * value if proper else value


def _gamma(inputs: BoundInputs) -> float:
    """gamma = (2^l - 1) e^-eps / (2 g) = 1 / (2 (1 + e^eps / (2^l - 1)))."""
    p = inputs.params
    return (p.universe.cardinality - 1) * p.exp_neg_eps / (2.0 * p.g)


def lower_bound_squared_asymptotic(inputs: BoundInputs) -> float:
    """Leading term of the asymptotic minimax lower bound,

        (1 - Phi(1))^2 (2 gamma)^3 / 2^(l+4) / n.

    The o(1/n) residual is not modeled; use lower_bound_lemma4 for a bound
    that is rigorous at finite n.
    """
    return _ONE_MINUS_PHI1**2 * (2.0 * _gamma(inputs)) ** 3 / (1 << (inputs.l + 4)) / inputs.n


def lower_bound_lemma4(inputs: BoundInputs) -> float:
    """Finite-n minimax lower bound for normalized queries,

        (1 / (4 n^2)) * max(0, (1-Phi(1)) sigma gamma^(3/2) sqrt(n)
                               - C rho gamma / sigma^3)^2,

    with gamma = (2^l - 1) e^-eps / (2 g), C = BERRY_ESSEEN_CONSTANT and
    sigma^2 = rho = 2^(1-l). The 1/n^2 scale converts the Hamming-count
    statement into the squared distortion of the normalized distance query,
    so the result is directly comparable to upper_bound_squared. A negative
    inner term means the normal-approximation penalty swallows the bound; it
    is clamped to zero rather than squared into a fictitious positive value.
    """
    gamma = _gamma(inputs)
    sigma2 = 2.0 ** (1 - inputs.l)
    rho = sigma2
    sigma = math.sqrt(sigma2)
    inner = (
        _ONE_MINUS_PHI1 * sigma * gamma**1.5 * math.sqrt(inputs.n)
        - BERRY_ESSEEN_CONSTANT * rho * gamma / sigma**3
    )
    if inner <= 0.0:
        return 0.0
    return inner * inner / (4.0 * inputs.n * inputs.n)


def continuous_bound(inputs: BoundInputs) -> float:
    """Leading term of the continuous-universe upper bound,

        ((L / c)^2 + 4 ((b-a) shift / c)^2) / sqrt(n),  shift = e^-eps / (1-e^-eps),

    for L-Lipschitz row functions on [0,1] released through the k-bit
    discretization pipeline.
    """
    if inputs.L is None:
        raise ValidationError("the continuous bound needs a Lipschitz constant L")
    lipschitz = inputs.L / inputs.c
    moved = (inputs.b - inputs.a) / inputs.c * inputs.params.shift
    return (lipschitz * lipschitz + 4.0 * moved * moved) / math.sqrt(inputs.n)


def cut_bound(s_size: int, t_size: int, epsilon: float) -> float:
    """(1 + e^-eps) / (1 - e^-eps) * sqrt(|S| |T|), the edge universe's scale
    times sqrt(|S| |T|) — expected absolute error of the cut estimator;
    |S||T| <= |V|^2 gives the graph-level bound."""
    pairs = _check_int(s_size, "|S|", 1) * _check_int(t_size, "|T|", 1)
    return MechanismParams(epsilon, DataUniverse(1)).scale * math.sqrt(pairs)


BOUND_TABLE_COLUMNS = (
    "n",
    "l",
    "epsilon",
    "a",
    "b",
    "c",
    "L",
    "upper_squared",
    "upper_squared_proper",
    "upper_absolute",
    "upper_absolute_proper",
    "lower_asymptotic",
    "lower_lemma4",
    "continuous",
)


def bound_table_row(inputs: BoundInputs) -> dict:
    """All applicable bounds for one parameter point (CSV emission helper)."""
    return {
        "n": inputs.n,
        "l": inputs.l,
        "epsilon": inputs.epsilon,
        "a": inputs.a,
        "b": inputs.b,
        "c": inputs.c,
        "L": "" if inputs.L is None else inputs.L,
        "upper_squared": upper_bound_squared(inputs),
        "upper_squared_proper": upper_bound_squared(inputs, proper=True),
        "upper_absolute": upper_bound_absolute(inputs),
        "upper_absolute_proper": upper_bound_absolute(inputs, proper=True),
        "lower_asymptotic": lower_bound_squared_asymptotic(inputs),
        "lower_lemma4": lower_bound_lemma4(inputs),
        "continuous": "" if inputs.L is None else continuous_bound(inputs),
    }
