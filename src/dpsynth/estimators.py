"""Companion estimators for the release mechanism, and distortion measurement.

Evaluating a query directly on the synthetic database is biased: every row
survives only with probability 1/g. The unbiased companion estimator inverts
that row-level channel in aggregate,

    est_u(y) = g/(1 - e^-eps) * q(y) - e^-eps/(1 - e^-eps) * C,

where C is the query's centering constant (the mean table mass picked up by
uniform flips). It is exactly unbiased for every input database but may
return values no real database can produce; ``project_proper`` maps the raw
value onto achievable answers, at most doubling the pointwise error.

Distortion is measured three ways. ``exact_distortion`` enumerates every
output (n*l <= 12) and is the oracle-grade ground truth.
``exact_unbiased_mse`` is the exact squared distortion of the unbiased
estimator at any n: rows are perturbed independently, so it is the sum of
the per-row variances of the row functions under the row kernel, O(k * 2**l)
for k tables. ``measure_distortion`` is the Monte Carlo path for realistic
sizes; it draws the per-(table, code) counts of each release directly
(``mechanism.sample_histograms``, O(trials * k * 2**l)) instead of its rows
(O(trials * n)), since the estimators read nothing else. The enumeration and
the Monte Carlo path report the applicable closed-form bound alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .core import (
    Database,
    DimensionMismatchError,
    EnumerationTooLargeError,
    EstimatorUndefinedError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
)
from .mechanism import IDENTITY_EPSILON, MechanismParams, log_pmf_all_outputs, sample_histograms
from .queries import StatisticalQuery

EXACT_BIT_CAP = 12
ACHIEVABLE_CAP = 10**6
_ENUM_ACHIEVABLE_BIT_CAP = 16

ESTIMATORS = ("unbiased", "proper")
MEASURES = ("squared", "absolute")
PROJECTIONS = ("interval_clamp", "exact_range")


@dataclass(frozen=True)
class DistortionReport:
    """Empirical distortion of one (query, database, estimator) triple."""

    query_id: str
    distortion_measure: str
    empirical_mean: float
    empirical_stderr: float
    sample_count: int
    analytic_bound: float
    exact_value: float | None = None

    @property
    def flagged(self) -> bool:
        """True when the Monte Carlo mean is further than 6 standard errors
        from the enumerated exact value (suspicious, not fatal)."""
        if self.exact_value is None:
            return False
        return abs(self.empirical_mean - self.exact_value) > 6.0 * self.empirical_stderr


def _affine_coefficients(params: MechanismParams) -> tuple[float, float]:
    """(scale, shift) with est_u = scale * q(y) - shift * C.

    At the identity boundary (eps >= IDENTITY_EPSILON) e^-eps is treated as
    exact zero so the estimator returns q(y) unchanged.
    """
    if params.epsilon == 0.0:
        raise EstimatorUndefinedError(
            "the companion estimators are undefined at epsilon = 0 (zero denominator)"
        )
    if params.is_identity:
        return 1.0, 0.0
    one_minus = -math.expm1(-params.epsilon)
    return params.g / one_minus, math.exp(-params.epsilon) / one_minus


def _estimates(
    q: StatisticalQuery,
    answers,
    params: MechanismParams,
    estimator: str = "unbiased",
    projection: str = "interval_clamp",
):
    """Estimates from plain answers q(y): scale * q(y) - shift * C, projected
    onto achievable answers when the estimator is proper. ``answers`` may
    carry any leading shape; a batch's answers end in the query axis."""
    scale, shift = _affine_coefficients(params)
    est = scale * answers - shift * q.centering
    if estimator == "proper":
        est = _project_vector(q, est, projection)
    return est


def estimate_unbiased(q: StatisticalQuery, y: Database, params: MechanismParams):
    """Debiased answer from a synthetic database; exactly unbiased under the
    mechanism for every input database. A float for one query, an array (Q,)
    for a batch."""
    if params.universe != q.universe:
        raise DimensionMismatchError("mechanism parameters and query use different universes")
    return _estimates(q, q.evaluate(y), params)


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """Sorted values with each run of neighbors closer than tol kept once."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) > tol
    return values[keep]


def achievable_values(q: StatisticalQuery, cap: int = ACHIEVABLE_CAP) -> np.ndarray:
    """Sorted array of every value q can take on a real database.

    Linear queries are handled by dynamic programming over row counts per
    table value; general heterogeneous queries fall back to exhaustive
    enumeration when n*l is small and error out otherwise (their achievable
    set is generically exponential). Sums that are equal in exact arithmetic
    can round differently (0.1 + 0.2 vs 0.3), so on either path values
    within 1e-12 * n * max|table| (before normalization) count as one.
    """
    _check_single(q, "achievable_values")
    n = q.n
    tol = 1e-12 * n * float(np.abs(q.tables).max())
    if q.heterogeneity == 1:
        # states map rows used -> distinct partial sums; each distinct table
        # value may be assigned to any number of remaining rows, and the last
        # value must absorb the rest
        values = np.unique(q.tables[0])
        states = {0: np.zeros(1)}
        for idx, v in enumerate(values):
            last = idx == values.size - 1
            parts: dict[int, list] = {}
            for used, sums in states.items():
                for m in ([n - used] if last else range(n - used + 1)):
                    parts.setdefault(used + m, []).append(sums + float(v) * m)
            states = {used: _distinct(np.concatenate(ps), tol) for used, ps in parts.items()}
            if sum(sums.size for sums in states.values()) > cap:
                raise EnumerationTooLargeError(
                    f"achievable-value set exceeds the cap of {cap} distinct sums"
                )
        return states[n] / q.c_sum
    bits = n * q.universe.l
    if bits > _ENUM_ACHIEVABLE_BIT_CAP:
        raise EnumerationTooLargeError(
            "exact achievable set of a heterogeneous query needs enumeration; "
            f"n*l = {bits} exceeds {_ENUM_ACHIEVABLE_BIT_CAP}"
        )
    rows = all_databases_matrix(q.universe, n, bit_cap=_ENUM_ACHIEVABLE_BIT_CAP)
    return _distinct(q.evaluate_rows(rows), tol / q.c_sum)


def project_proper(q: StatisticalQuery, raw: float, strategy: str = "interval_clamp") -> float:
    """Map a raw estimate onto answers a real database could produce.

    interval_clamp restricts to the exact value interval of q (contains every
    achievable answer, so the factor-2 pointwise guarantee is preserved);
    exact_range returns the nearest achievable value, ties broken toward the
    smaller one.
    """
    return float(_project_vector(q, np.asarray(raw, dtype=np.float64), strategy))


def _project_vector(q: StatisticalQuery, raw: np.ndarray, strategy: str) -> np.ndarray:
    if strategy == "interval_clamp":
        lo, hi = q.value_range()
        return np.clip(raw, lo, hi)
    if strategy != "exact_range":
        raise ValidationError(f"unknown projection strategy {strategy!r}")
    vals = achievable_values(q)
    idx = np.clip(np.searchsorted(vals, raw), 1, vals.size - 1)
    left = vals[idx - 1]
    right = vals[idx]
    # tie toward the smaller value; beyond either end, the end value
    out = np.where(raw - left <= right - raw, left, right)
    return np.where(raw <= vals[0], vals[0], np.where(raw >= vals[-1], vals[-1], out))


def estimate_cut(y: Database, s_set, t_set, epsilon: float) -> float:
    """Debiased directed-cut count from a synthetic edge-indicator database.

    The database must encode a graph: l = 1 and n = |V|^2 with row (i, j) at
    index i*|V| + j. Negative answers (and answers above |S||T|) are legal
    outputs of the unbiased form; clamp to [0, |S||T|] separately if a proper
    value is needed.
    """
    if y.universe.l != 1:
        raise ValidationError("a graph database must have l = 1 (edge indicators)")
    v = math.isqrt(y.n)
    if v * v != y.n:
        raise ValidationError(f"edge-indicator database size {y.n} is not a perfect square")
    s = sorted(set(int(i) for i in s_set))
    t = sorted(set(int(j) for j in t_set))
    if s and t and set(s) & set(t):
        raise ValidationError("cut query needs disjoint vertex sets")
    if (s and (s[0] < 0 or s[-1] >= v)) or (t and (t[0] < 0 or t[-1] >= v)):
        raise ValidationError(f"vertex ids must lie in [0, {v})")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise EstimatorUndefinedError("the cut estimator needs epsilon > 0")
    if not s or not t:
        return 0.0
    raw = float(y.rows.reshape(v, v)[np.ix_(s, t)].sum())
    scale, shift = _affine_coefficients(MechanismParams(epsilon, y.universe))
    return scale * raw - shift * (len(s) * len(t))


def _distortion_bound(q: StatisticalQuery, n: int, params: MechanismParams, estimator: str, measure: str) -> float:
    """The closed-form bound on the chosen distortion for q's class constants."""
    inputs = bounds_mod.BoundInputs(
        n=n, l=q.universe.l, epsilon=min(params.epsilon, IDENTITY_EPSILON), a=q.a, b=q.b, c=q.c
    )
    proper = estimator == "proper"
    if measure == "squared":
        return bounds_mod.upper_bound_squared(inputs, proper=proper)
    return bounds_mod.upper_bound_absolute(inputs, proper=proper)


def _check_single(q: StatisticalQuery, what: str) -> None:
    if q.tables.ndim != 2:
        raise ValidationError(f"{what} takes one query, not a batch of {q.tables.shape[0]}")


def _check_enums(estimator: str, measure: str, projection: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if measure not in MEASURES:
        raise ValidationError(f"measure must be one of {MEASURES}, got {measure!r}")
    if projection not in PROJECTIONS:
        raise ValidationError(f"projection must be one of {PROJECTIONS}, got {projection!r}")


def exact_distortion(
    q: StatisticalQuery,
    x: Database,
    params: MechanismParams,
    estimator: str = "unbiased",
    measure: str = "squared",
    projection: str = "interval_clamp",
) -> float:
    """Expected distortion by full enumeration of the output distribution."""
    _check_enums(estimator, measure, projection)
    _check_single(q, "exact_distortion")
    q._check(x)
    bits = x.n * x.universe.l
    if bits > EXACT_BIT_CAP:
        raise EnumerationTooLargeError(
            f"exact distortion enumerates 2^{bits} outputs; the cap is 2^{EXACT_BIT_CAP}"
        )
    if params.is_identity:
        # the release is an exact identity: Y = x with probability 1
        rows, probs = x.rows[None, :], np.ones(1)
    else:
        rows = all_databases_matrix(x.universe, x.n, bit_cap=EXACT_BIT_CAP)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
    err = _estimates(q, q.evaluate_rows(rows), params, estimator, projection) - q.evaluate(x)
    rho = err * err if measure == "squared" else np.abs(err)
    return float(probs @ rho)


def exact_unbiased_mse(q: StatisticalQuery, x: Database, params: MechanismParams) -> float:
    """Exact squared distortion of the unbiased estimator at x, at any n.

    The estimator is unbiased and the rows are perturbed independently, so
    its mean squared error is its variance,

        (scale / c_sum)**2 * sum_{t, v} m_tv * Var_v[phi_t(Y)],

    with m_tv the rows of x on table t with code v and Y one output row of
    input v. In the mixture form of the row kernel (keep v, or with
    probability alpha redraw uniformly over all codes) the law of total
    variance gives Var_v = alpha * (s_t + (1 - alpha) * (phi_t(v) - mean_t)**2)
    with mean_t and s_t the mean and the population variance of table t over
    the codes: a sum of nonnegative terms, O(k * 2**l) for k tables. Zero at
    the identity boundary.
    """
    _check_single(q, "exact_unbiased_mse")
    if params.universe != q.universe:
        raise DimensionMismatchError("mechanism parameters and query use different universes")
    q._check(x)
    scale, _ = _affine_coefficients(params)
    if params.is_identity:
        return 0.0
    stay = -math.expm1(-params.epsilon) / params.g  # 1 - alpha without cancellation
    dev2 = (q.tables - q.tables.mean(axis=-1, keepdims=True)) ** 2
    var = params.redraw_prob * (dev2.mean(axis=-1, keepdims=True) + stay * dev2)
    return float((scale / q.c_sum) ** 2 * np.vdot(q.histogram(x.rows), var))


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Exactly summed (fsum) mean and standard error of the mean; the
    standard error is inf for one value. fsum reads a list: iterating the
    array would cost a Python step per value."""
    count = values.size
    mean = math.fsum(values.tolist()) / count
    if count == 1:
        return mean, float("inf")
    var = math.fsum(((values - mean) ** 2).tolist()) / (count - 1)
    return mean, math.sqrt(var / count)


def measure_distortion(
    q: StatisticalQuery,
    x: Database,
    params: MechanismParams,
    estimator: str = "unbiased",
    measure: str = "squared",
    trials: int = 1000,
    rng: RandomSource | None = None,
    projection: str = "interval_clamp",
    with_exact: bool = False,
) -> DistortionReport:
    """Monte Carlo distortion of the chosen estimator at one database.

    Draws the per-(table, code) histograms of ``trials`` independent
    releases (``sample_histograms``, exact in distribution; no synthetic
    rows are drawn), evaluates the estimator on each and averages the
    distortion. The trials are drawn in chunks of at most ``_HIST_BINS``
    counts, a size fixed by the query alone, and the mean is accumulated
    with exact (fsum) summation, so the result is reproducible to the last
    bit for a given RandomSource.
    """
    _check_enums(estimator, measure, projection)
    _check_single(q, "measure_distortion")
    if rng is None:
        raise ValidationError("measure_distortion needs an explicit RandomSource")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if params.universe != q.universe:
        raise DimensionMismatchError("mechanism parameters and query use different universes")
    q._check(x)
    hist = q.histogram(x.rows)
    qx = q.answers(hist)
    gen = rng.generator()
    values = np.empty(trials)
    step = q._histograms_per_step()
    for start in range(0, trials, step):
        count = min(step, trials - start)
        synthetic = sample_histograms(hist, params, gen, count)
        err = _estimates(q, q.answers(synthetic), params, estimator, projection) - qx
        values[start : start + count] = err * err if measure == "squared" else np.abs(err)
    mean, stderr = _mean_and_stderr(values)
    exact = None
    if with_exact:
        exact = exact_distortion(q, x, params, estimator, measure, projection)
    return DistortionReport(
        query_id=q.label or "query",
        distortion_measure=measure,
        empirical_mean=mean,
        empirical_stderr=stderr,
        sample_count=trials,
        analytic_bound=_distortion_bound(q, x.n, params, estimator, measure),
        exact_value=exact,
    )
