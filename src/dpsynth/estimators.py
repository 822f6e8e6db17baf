"""Companion estimators for the release mechanism, and distortion measurement.

Evaluating a query directly on the synthetic database is biased: every row
survives only with probability 1/g. The unbiased companion estimator inverts
that row-level channel in aggregate,

    est_u(y) = g/(1 - e^-eps) * q(y) - e^-eps/(1 - e^-eps) * C,

where C is the query's centering constant (the mean table mass picked up by
uniform flips); the two factors are ``MechanismParams.scale`` and ``shift``.
It is exactly unbiased for every input database but may return values no
real database can produce; ``project_proper`` maps the raw value onto
achievable answers, at most doubling the pointwise error. The cut estimator
in ``graph`` debiases released edge counts by the same map, with
C = |S||T|.

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
    EXACT_BIT_CAP,
    Database,
    DimensionMismatchError,
    EnumerationTooLargeError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
    enumeration_size,
)
from .mechanism import MechanismParams, log_pmf_all_outputs, sample_histograms
from .queries import StatisticalQuery

ACHIEVABLE_CAP = 10**6

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
    est = params.scale * answers - params.shift * q.centering
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

    One dynamic program over the query's tables, each seeded with the
    distinct sums of the tables before it. Per table value, state t holds
    the distinct sums with t of the table's rows assigned so far; the last
    value takes the rest. Sums that are equal in exact arithmetic can round
    differently (0.1 + 0.2 vs 0.3), so values within 1e-12 * n * max|table|
    (before normalization) count as one. The cap counts one value's merged
    states as they are built, each target left counting one sum, and raises
    as soon as they exceed it, so no step holds much more than ``cap`` sums.
    """
    _check_single(q, "achievable_values")
    tol = 1e-12 * q.n * float(np.abs(q.tables).max())
    sums = np.zeros(1)
    for table, count in zip(q.tables, q._counts.astype(np.int64).tolist()):
        values = np.unique(table).tolist()
        states = [sums]
        for idx, v in enumerate(values):
            targets = range(count + 1) if idx < len(values) - 1 else [count]
            built, total = [], 0
            for t in targets:
                parts = [s + v * (t - u) for u, s in enumerate(states[: t + 1])]
                built.append(_distinct(np.concatenate(parts), tol))
                total += built[-1].size
                if total + len(targets) - len(built) > cap:
                    raise EnumerationTooLargeError(
                        f"achievable-value set exceeds the cap of {cap} distinct sums"
                    )
            states = built
        sums = states[-1]
    return sums / q.c_sum


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


def _distortion_bound(q: StatisticalQuery, n: int, params: MechanismParams, estimator: str, measure: str) -> float:
    """The closed-form bound on the chosen distortion for q's class constants."""
    inputs = bounds_mod.BoundInputs(
        n=n, l=q.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c
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
    enumeration_size(x.universe, x.n, EXACT_BIT_CAP)  # the cap holds at the identity too
    if params.is_identity:
        # Y = x with probability 1; the log-space pmf would give e^-eps > 0 off x
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
    the identity boundary, where alpha is exactly 0.
    """
    _check_single(q, "exact_unbiased_mse")
    if params.universe != q.universe:
        raise DimensionMismatchError("mechanism parameters and query use different universes")
    q._check(x)
    scale = params.scale
    stay = 1.0 / scale  # 1 - alpha without cancellation
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
    return DistortionReport(
        query_id=q.label or "query",
        distortion_measure=measure,
        empirical_mean=mean,
        empirical_stderr=stderr,
        sample_count=trials,
        analytic_bound=_distortion_bound(q, x.n, params, estimator, measure),
    )
