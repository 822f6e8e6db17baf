"""The synthetic-database releasing mechanism: per-row randomized response.

The mechanism draws a synthetic database Y from an input database x with
probability proportional to exp(-eps * d(x, y)), where d is the row-level
Hamming distance. Normalizing over D^n factorizes the distribution across
rows: each output row independently keeps the input row with probability
1/g(eps) and otherwise moves to one of the other 2**l - 1 codes uniformly,
where

    g(eps) = 1 + (2**l - 1) * exp(-eps).

Sampling therefore costs two draws per row (a keep/flip Bernoulli and, on
flip, an alternative index), never materializing the 2**l-entry row
distribution. All probability arithmetic for exact pmf evaluation is done in
log space; the normalizer n*log(g) grows linearly in n and would underflow
the plain pmf at realistic sizes.

The same kernel is a mixture: with probability alpha = 2**l * exp(-eps) / g
(``MechanismParams.redraw_prob``) a row is redrawn uniformly over all 2**l
codes (possibly its own), otherwise it is kept; keeping then has total
probability 1 - alpha + alpha / 2**l = 1/g and each other code alpha / 2**l
= exp(-eps) / g. Rows are independent, so the per-(table, code) counts of a
release, which are all a statistical query's estimators read, can be drawn
without drawing rows: ``sample_histograms`` draws the redrawn rows of each
(table, code) bin as Binomial(count, alpha) and spreads each table's total
uniformly over the codes with one Multinomial. That costs O(trials * k *
2**l) draws for k tables, against O(trials * n) for ``sample_rows``. A
binomial draw costs more than a row's draw, so counts win only when n is
well above k * 2**l; with one table per row they lose. ``sample_rows`` stays
for the release itself and wherever one release is evaluated under several
row-to-table assignments.

``verify_dp`` is a brute-force check of the privacy guarantee: it enumerates
every neighbor pair and every output and reports the largest log-probability
ratio, which equals eps exactly for this mechanism. It is one pure-numpy
path for every (n, l): an int8 distance matrix over all 2**(n*l) databases,
scanned once per row position for the largest integer distance gap between
neighbors, then multiplied by eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
    _check_compatible,
)

# exp(-eps) is below 1e-304 here; MechanismParams stores it as exact 0, so the
# release is an exact identity and the estimator corrections vanish.
IDENTITY_EPSILON = 700.0

VERIFY_BIT_CAP = 12


@dataclass(frozen=True)
class MechanismParams:
    """Privacy level together with its derived per-row constants."""

    epsilon: float
    universe: DataUniverse
    # exp(-eps), exactly 0.0 from IDENTITY_EPSILON on: there keep_prob is 1
    # and flip_prob, redraw_prob and log_g are 0, so samplers need no branch
    exp_neg_eps: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0.0:
            raise ValidationError(f"epsilon must be a finite nonnegative real, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "exp_neg_eps", 0.0 if eps >= IDENTITY_EPSILON else math.exp(-eps))

    @property
    def is_identity(self) -> bool:
        return self.epsilon >= IDENTITY_EPSILON

    @property
    def g(self) -> float:
        """g(eps) = 1 + (2**l - 1) exp(-eps); lies in [1, 2**l]."""
        return 1.0 + (self.universe.cardinality - 1) * self.exp_neg_eps

    @property
    def log_g(self) -> float:
        return math.log1p((self.universe.cardinality - 1) * self.exp_neg_eps)

    @property
    def keep_prob(self) -> float:
        """Probability that a row survives unchanged; in [2**-l, 1]."""
        return 1.0 / self.g

    @property
    def flip_prob(self) -> float:
        """Probability mass assigned to each of the 2**l - 1 alternatives."""
        return self.exp_neg_eps / self.g

    @property
    def redraw_prob(self) -> float:
        """alpha = 2**l exp(-eps) / g: the kernel keeps a row or, with this
        probability, redraws it uniformly over all 2**l codes; in [0, 1]."""
        return self.universe.cardinality * self.exp_neg_eps / self.g


def sample_rows(rows: np.ndarray, params: MechanismParams, gen: np.random.Generator, trials: int) -> np.ndarray:
    """Draw ``trials`` independent synthetic row vectors for one input.

    Returns an array of shape (trials, n). Each entry keeps the input row
    with probability 1/g and otherwise flips to a uniform alternative; the
    alternative index is shifted past the input code so that exactly the
    2**l - 1 other values are reachable.
    """
    card = params.universe.cardinality
    keep = gen.random((trials, rows.size)) < params.keep_prob
    alt = gen.integers(0, card - 1, size=(trials, rows.size), dtype=np.int64)
    alt += alt >= rows
    np.copyto(alt, rows, where=keep)
    return alt


def sample_histograms(hist, params: MechanismParams, gen: np.random.Generator, trials: int) -> np.ndarray:
    """Draw ``trials`` independent synthetic histograms for one input.

    ``hist`` holds the input's per-(table, code) counts, shape (k, 2**l) as
    ``StatisticalQuery.histogram`` returns them. The result, shape
    (trials, k, 2**l), has the distribution of the histograms of ``trials``
    releases by ``sample_rows``: each bin loses Binomial(count, alpha)
    redrawn rows, and each table's redrawn rows land Multinomial-uniformly
    over all 2**l codes (see the module docstring).
    """
    hist = np.asarray(hist, dtype=np.int64)
    card = params.universe.cardinality
    if hist.ndim != 2 or hist.shape[1] != card:
        raise DimensionMismatchError(f"histogram must have shape (k, {card})")
    redrawn = gen.binomial(hist, params.redraw_prob, size=(trials,) + hist.shape)
    arrivals = gen.multinomial(redrawn.sum(axis=-1), np.full(card, 1.0 / card))
    return hist - redrawn + arrivals


def sample_synthetic(x: Database, params: MechanismParams, rng: RandomSource) -> Database:
    """Release one synthetic database for x at privacy level params.epsilon."""
    if x.universe != params.universe:
        raise DimensionMismatchError("database universe does not match mechanism parameters")
    out = sample_rows(x.rows, params, rng.generator(), 1)[0]
    return Database._adopt(x.universe, out.astype(x.rows.dtype, copy=False))


def exact_log_pmf(x: Database, y: Database, params: MechanismParams) -> float:
    """log Pr[Y = y | x] = -eps * d(x, y) - n * log g(eps)."""
    if x.universe != params.universe:
        raise DimensionMismatchError("database universe does not match mechanism parameters")
    _check_compatible(x, y)
    d = int(np.count_nonzero(x.rows != y.rows))
    return -params.epsilon * d - x.n * params.log_g


def log_pmf_all_outputs(x: Database, params: MechanismParams, rows_matrix: np.ndarray | None = None) -> np.ndarray:
    """Vector of log Pr[Y = y | x] over every output code, in code order.

    ``rows_matrix`` may pass a precomputed ``all_databases_matrix`` to share
    the enumeration across calls.
    """
    if x.universe != params.universe:
        raise DimensionMismatchError("database universe does not match mechanism parameters")
    if rows_matrix is None:
        rows_matrix = all_databases_matrix(x.universe, x.n)
    dists = (rows_matrix != x.rows).sum(axis=1)
    return -params.epsilon * dists - x.n * params.log_g


def _distance_matrix(l: int, n: int) -> np.ndarray:
    """int8 Hamming distances between all 2**(n*l) databases, in code order."""
    rows = all_databases_matrix(DataUniverse(l), n, bit_cap=VERIFY_BIT_CAP)
    dist = np.zeros((rows.shape[0], rows.shape[0]), dtype=np.int8)
    for col in rows.T:
        dist += col[:, None] != col[None, :]
    return dist


def _neighbor_gap(dist: np.ndarray, l: int, n: int) -> int:
    """max |dist[x, y] - dist[x', y]| over every neighbor pair (x, x') and y.

    Members of a row-r clique sit 2**(l*r) codes apart, so the reshape puts
    each clique on axis 1 (see ``verify_dp`` for why cliques suffice).
    """
    m = dist.shape[0]
    card = 1 << l
    gap = 0
    for r in range(n):
        stride = 1 << (l * r)
        cliques = dist.reshape(m // (card * stride), card, stride, m)
        gap = max(gap, int((cliques.max(axis=1) - cliques.min(axis=1)).max()))
    return gap


@functools.lru_cache(maxsize=None)
def _verify_gap(l: int, n: int) -> int:
    return _neighbor_gap(_distance_matrix(l, n), l, n)


def verify_dp(universe: DataUniverse, n: int, params: MechanismParams) -> float:
    """Largest |log p(y|x) - log p(y|x')| over all neighbor pairs and outputs.

    Exhaustive over every triple (x, x', y) with d(x, x') = 1; requires
    n*l <= 12. The common normalizer -n*log(g) cancels inside each
    difference, leaving eps * |d(x, y) - d(x', y)|, so the scan runs on the
    integer distance matrix. For each row position r, the databases that
    agree everywhere except in row r form cliques of 2**l codes. Every
    neighbor pair lies in exactly one such clique and every pair inside a
    clique is a neighbor pair, so the largest gap over the pairs of a clique
    at output y is the clique's column max minus its column min; the max of
    that over all cliques and all y is the exact max over every triple. This
    is an enumeration, not the analytic |d(x, y) - d(x', y)| <= 1 argument.
    The integer gap does not depend on eps, so it is computed once per
    (n, l) and cached; eps multiplies it at the end.
    """
    if universe != params.universe:
        raise DimensionMismatchError("universe does not match mechanism parameters")
    return params.epsilon * _verify_gap(universe.l, n)
