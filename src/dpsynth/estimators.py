"""Companion estimators for the release mechanism, and distortion measurement.

Evaluating a query directly on the synthetic database is biased: every row
survives only with probability 1/g. The unbiased companion estimator inverts
that row-level channel in aggregate,

    est_u(y) = g/(1 - e^-eps) * q(y) - e^-eps/(1 - e^-eps) * C,

where C is the query's centering constant (the mean table mass picked up by
uniform flips); the two factors are ``MechanismParams.scale`` and ``shift``.
It is exactly unbiased for every input database but may return values no
real database can produce. One name from ``ESTIMATORS`` picks it or a proper
estimator, which moves it onto achievable answers at most doubling the
pointwise error: ``proper`` clamps it to q's value interval, ``exact_range``
(one query) takes the nearest achievable value. ``_debias`` computes the map
and ``_project`` applies the name for every estimate, the cut estimator's in
``graph`` (C = |S||T|) included. ``_debias_factors``, which ``_debias`` and
``exact_unbiased_mse`` call, refuses an epsilon at which the map overflows.

Distortion, a ufunc of the error picked from ``_MEASURES``, is measured
three ways. ``exact_distortion`` enumerates every
output (n*l <= 12) and is the oracle-grade ground truth.
``exact_unbiased_mse`` is the exact squared distortion of the unbiased
estimator at any n: rows are perturbed independently, so it is the sum of
the per-row variances of the row functions under the row kernel, O(k * 2**l)
for k tables. ``measure_distortion`` is the Monte Carlo path for realistic
sizes. The estimators read only the per-(table, code) counts of a release,
and it draws them in whichever of two exact ways costs less, by one rule on
n against the k * 2**l bins: up to 8 rows per bin it releases rows
(``mechanism.sample_rows``, the shipped kernel, O(trials * n)) and counts
each chunk of them in one pass; above, it draws the counts themselves
(``mechanism.sample_histograms``, the kernel with the nominal alpha,
O(trials * k * 2**l)). The enumeration and the Monte Carlo path report the
applicable closed-form bound alongside.
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
    _check_codes,
    _check_int,
    _check_universe,
    _count_codes,
    all_databases_matrix,
    enumeration_size,
)
from .mechanism import MechanismParams, _keep_threshold, log_pmf_all_outputs, sample_histograms, sample_rows
from .queries import StatisticalQuery, _per_query

ACHIEVABLE_CAP = 10**6

ESTIMATORS = ("unbiased", "proper", "exact_range")
_BATCH_ESTIMATORS = ESTIMATORS[:2]  # the names a batch or a cut takes: exact_range takes one query
# each distortion measure's ufunc of the error, and the bound on its mean
_MEASURES = {"squared": (np.square, bounds_mod.upper_bound_squared),
             "absolute": (np.abs, bounds_mod.upper_bound_absolute)}
MEASURES = tuple(_MEASURES)
# measure_distortion draws the rows of its releases when n <= this times the
# k * 2**l bins of the query, their counts otherwise: a binomial costs more
# than a row. Timed over l = 1..8 and k = 1..64, rows were faster at every
# point with 4 or 8 rows per bin, counts at half of them with 16 and at 9
# of 12 with 32
_ROWS_PER_BIN = 8
# rows of x one row-path chunk releases at most: x tiled 2**19 // n times
_ROW_CHUNK = 1 << 19


@dataclass(frozen=True)
class DistortionReport:
    """Empirical distortion of one (query, database, estimator) triple."""

    query_id: str
    distortion_measure: str
    empirical_mean: float
    empirical_stderr: float
    sample_count: int
    analytic_bound: float


def _debias_factors(params: MechanismParams) -> tuple[float, float]:
    """(scale, shift) of the debiasing map; an epsilon at which either
    overflows is refused with EstimatorUndefinedError."""
    scale, shift = params.scale, params.shift
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise EstimatorUndefinedError(
            f"the companion estimators are undefined at epsilon = {params.epsilon} and "
            f"l = {params.universe.l}: their scale factor overflows"
        )
    return scale, shift


def _debias(values, centering, params: MechanismParams):
    """scale * values - shift * centering, in place for an array (a float is
    rebound); an epsilon at which scale or shift overflows is refused."""
    scale, shift = _debias_factors(params)
    values *= scale
    values -= shift * centering
    return values


def _estimates(q: StatisticalQuery, answers, params: MechanismParams, estimator: str = "unbiased"):
    """The named estimator's estimates (``_project``) from plain answers q(y),
    debiased by ``_debias``. ``answers`` may carry any leading shape; a batch's
    end in the query axis. They are consumed, as by ``_debias``: pass a fresh array."""
    return _project(_debias(answers, q.centering, params), estimator, q.value_range(), q)


def _project(raw, estimator: str, value_range, q: StatisticalQuery | None = None):
    """Debiased estimates ``raw`` as the named estimator returns them: as they
    are (``unbiased``), clamped to ``value_range`` (lo, hi), which holds every
    answer (``proper``), or the nearest value the one query ``q`` can take,
    ties toward the smaller one (``exact_range``). Callers check the name."""
    if estimator == "unbiased":
        return raw
    if estimator == "proper":
        lo, hi = value_range
        # the bits of np.clip, NaN included, without its Python-level wrapper
        return np.minimum(np.maximum(raw, lo), hi)
    vals = achievable_values(q)
    idx = np.clip(np.searchsorted(vals, raw), 1, vals.size - 1)
    left = vals[idx - 1]
    right = vals[idx]
    # tie toward the smaller value; beyond either end, the end value
    out = np.where(raw - left <= right - raw, left, right)
    return np.where(raw <= vals[0], vals[0], np.where(raw >= vals[-1], vals[-1], out))


def estimate_unbiased(q: StatisticalQuery, y: Database, params: MechanismParams):
    """Debiased answer from a synthetic database; exactly unbiased under the
    mechanism for every input database. A float for one query, an array (Q,)
    for a batch."""
    _check_universe(params.universe, q.universe, "mechanism parameters and query")
    return _estimates(q, q.evaluate(y), params)


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """Sorted values with each run of neighbors closer than tol kept once."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) > tol
    return values[keep]


def achievable_values(q: StatisticalQuery) -> np.ndarray:
    """Sorted array of every value q can take on a real database.

    One dynamic program over the query's tables, each seeded with the
    distinct sums of the tables before it. Per table value, state t holds
    the distinct sums with t of the table's rows assigned so far; the last
    value takes the rest. Sums that are equal in exact arithmetic can round
    differently (0.1 + 0.2 vs 0.3), so values within 1e-12 * n * max|table|
    (before normalization) count as one. The cap (``ACHIEVABLE_CAP``) counts
    one value's merged states as they are built, each target left counting
    one sum, and raises as soon as they exceed it, so no step holds much more.
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
                if total + len(targets) - len(built) > ACHIEVABLE_CAP:
                    raise EnumerationTooLargeError(
                        f"achievable-value set exceeds the cap of {ACHIEVABLE_CAP} distinct sums"
                    )
            states = built
        sums = states[-1]
    return sums / q.c_sum


def project_proper(q: StatisticalQuery, raw, strategy: str = "interval_clamp"):
    """Map a raw estimate onto answers a real database could produce, as the
    ``proper`` (strategy ``interval_clamp``) or the one-query ``exact_range``
    estimator does: a float for one query, an array (Q,) for a batch."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != q.tables.shape[:-2]:
        raise DimensionMismatchError(f"raw estimates must have shape {q.tables.shape[:-2]}, got {raw.shape}")
    if strategy not in ("interval_clamp", "exact_range"):
        raise ValidationError(f"unknown projection strategy {strategy!r}")
    estimator = "proper" if strategy == "interval_clamp" else strategy
    return _per_query(_project(raw, estimator, q.value_range(), q))


def _distortion_bound(q: StatisticalQuery, n: int, params: MechanismParams, estimator: str, measure: str) -> float:
    """The closed-form bound on the chosen distortion for q's class constants."""
    inputs = bounds_mod.BoundInputs(
        n=n, l=q.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c
    )
    _, bound = _MEASURES[measure]
    return bound(inputs, proper=estimator != "unbiased")


def _check_single(q: StatisticalQuery, what: str) -> None:
    if q.tables.ndim != 2:
        raise ValidationError(f"{what} takes one query, not a batch of {q.tables.shape[0]}")


def _check_enums(estimator: str, measure: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if measure not in MEASURES:
        raise ValidationError(f"measure must be one of {MEASURES}, got {measure!r}")


def exact_distortion(
    q: StatisticalQuery, x: Database, params: MechanismParams, estimator: str = "unbiased", measure: str = "squared"
) -> float:
    """Expected distortion by full enumeration of the output distribution."""
    _check_enums(estimator, measure)
    _check_single(q, "exact_distortion")
    _check_universe(params.universe, q.universe, "mechanism parameters and query")
    q._check(x)
    enumeration_size(x.universe, x.n)  # the cap holds at the identity too
    if params.is_identity:
        # Y = x with probability 1; the log-space pmf would give e^-eps > 0 off x
        rows, probs = x.rows[None, :], np.ones(1)
    else:
        rows = all_databases_matrix(x.universe, x.n)
        probs = np.exp(log_pmf_all_outputs(x, params))
    err = _estimates(q, q.evaluate_rows(rows), params, estimator)
    err -= q.evaluate(x)
    distortion, _ = _MEASURES[measure]
    return float(probs @ distortion(err, out=err))


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
    the identity boundary, where alpha is exactly 0. An epsilon that
    ``_debias`` refuses is refused here too; an MSE beyond the largest float
    is returned as inf, its rounding.
    """
    _check_single(q, "exact_unbiased_mse")
    _check_universe(params.universe, q.universe, "mechanism parameters and query")
    scale, _ = _debias_factors(params)
    stay = 1.0 / scale  # 1 - alpha without cancellation
    dev2 = (q.tables - q.tables.mean(axis=-1, keepdims=True)) ** 2
    var = params.redraw_prob * (dev2.mean(axis=-1, keepdims=True) + stay * dev2)
    # Python floats: a product overflows to inf where a square would raise
    ratio = scale / q.c_sum
    return float(np.vdot(q.database_histogram(x), var)) * ratio * ratio


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


def _release_histograms(q: StatisticalQuery, x: Database, hist: np.ndarray, params: MechanismParams,
                        gen: np.random.Generator, trials: int):
    """The per-(table, code) counts of ``trials`` independent releases of x,
    yielded in chunks (count, k, 2**l) whose sizes the query fixes.

    With n <= _ROWS_PER_BIN * k * 2**l each chunk is one ``sample_rows``
    release of x tiled ``count`` times (the shipped kernel: keep iff the
    uniform is below K * 2**-53), counted in one pass through the stacked
    offsets; the tiled rows and the offsets are built once, for the first
    chunk, and sliced for a shorter last one. A chunk holds at most
    _ROW_CHUNK rows and _HIST_BINS counts. Otherwise each chunk is drawn
    from ``hist`` by ``sample_histograms`` (the kernel with the nominal
    alpha, ``redraw_prob``), at most _HIST_BINS counts."""
    k, card = q.heterogeneity, q.universe.cardinality
    step = q._histograms_per_step()
    if x.n > _ROWS_PER_BIN * k * card:
        for start in range(0, trials, step):
            yield sample_histograms(hist, params, gen, min(step, trials - start))
        return
    n, size = x.n, k * card
    step = min(step, max(1, _ROW_CHUNK // n))
    tiles = min(step, trials)
    tiled = Database._adopt(x.universe, np.tile(x.rows, tiles))
    offsets = q._stacked_offsets(tiles)
    for start in range(0, trials, step):
        count = min(step, trials - start)
        release = tiled if count == tiles else Database._adopt(x.universe, tiled.rows[: count * n])
        rows = sample_rows(release, params, gen)
        # an out-of-range code would count silently into another trial's bins
        _check_codes(rows, x.universe)
        yield _count_codes(rows, count * size, offsets[: count * n]).reshape(count, k, card)


def measure_distortion(
    q: StatisticalQuery,
    x: Database,
    params: MechanismParams,
    estimator: str = "unbiased",
    measure: str = "squared",
    trials: int = 1000,
    *,
    rng: RandomSource,
) -> DistortionReport:
    """Monte Carlo distortion of the chosen estimator at one database.

    Draws the per-(table, code) histograms of ``trials`` independent
    releases, exact in distribution (``_release_histograms``), evaluates
    the estimator on each and averages the distortion. Small databases,
    n <= 8 * k * 2**l for k tables, are released row by row through
    ``sample_rows``, whose kernel is the one a release ships; larger ones
    have their counts drawn by ``sample_histograms``, with the nominal
    alpha, without rows. The rule reads only the query and the database.
    The chunks' sizes are fixed by the query alone, and the mean is
    accumulated with exact (fsum) summation, so the result is reproducible
    to the last bit for a given RandomSource. An epsilon the sampler's
    53-bit threshold cannot realize raises ValidationError on either path,
    as ``sample_rows`` would. From IDENTITY_EPSILON on every release is x
    and none is drawn: each trial's error is the estimate at x, from the
    truth's own product, so ``unbiased`` and ``proper`` report exactly 0.
    """
    _check_enums(estimator, measure)
    _check_single(q, "measure_distortion")
    trials = _check_int(trials, "trials", 1)
    _check_universe(params.universe, q.universe, "mechanism parameters and query")
    # an epsilon sample_rows refuses is refused on the count path too
    _keep_threshold(params.epsilon, params.universe.l)
    hist = q.database_histogram(x)
    qx = q.answers(hist)
    distortion, _ = _MEASURES[measure]
    if params.is_identity:
        # every release is x. Its estimate takes the truth's own product: the
        # matrix product may round equal histograms differently in a batch
        values = np.full(trials, distortion(_estimates(q, q.answers(hist), params, estimator) - qx))
    else:
        values = np.empty(trials)
        start = 0
        for synthetic in _release_histograms(q, x, hist, params, rng.generator(), trials):
            count = len(synthetic)
            err = _estimates(q, q.answers(synthetic), params, estimator)
            err -= qx
            distortion(err, out=values[start : start + count])
            start += count
    mean, stderr = _mean_and_stderr(values)
    return DistortionReport(
        query_id=q.label or "query",
        distortion_measure=measure,
        empirical_mean=mean,
        empirical_stderr=stderr,
        sample_count=trials,
        analytic_bound=_distortion_bound(q, x.n, params, estimator, measure),
    )
