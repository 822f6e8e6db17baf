"""The synthetic-database releasing mechanism: per-row randomized response.

The mechanism draws a synthetic database Y from an input database x with
probability proportional to exp(-eps * d(x, y)), where d is the row-level
Hamming distance. Normalizing over D^n factorizes the distribution across
rows: each output row independently keeps the input row with probability
1/g(eps) and otherwise moves to one of the other 2**l - 1 codes uniformly,
where

    g(eps) = 1 + (2**l - 1) * exp(-eps).

Sampling therefore costs two draws per row (a keep/flip Bernoulli and, on
flip, an alternative index; at l = 1 the alternative is the other bit and
needs no draw), never materializing the 2**l-entry row distribution. All
probability arithmetic for exact pmf evaluation is done in log space; the
normalizer n*log(g) grows linearly in n and would underflow the plain pmf
at realistic sizes.

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
neighbors, then multiplied by eps. The matrix is still a full enumeration,
materialized entry by entry, but it is built by recursion over row
positions: each added row multiplies the side by 2**l, and block (b, b') of
the larger matrix is the smaller one plus [b != b'], one broadcast add. The
scan reads every entry once per row position, in blocks of 2**18 clique
columns that reduce into two small buffers reused across blocks and row
positions, so it allocates nothing the size of the matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EXACT_BIT_CAP,
    Database,
    DataUniverse,
    DimensionMismatchError,
    EstimatorUndefinedError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
    enumeration_size,
    _check_compatible,
)

# exp(-eps) is below 1e-304 here; MechanismParams stores it as exact 0, so the
# release is an exact identity and the estimator corrections vanish.
IDENTITY_EPSILON = 700.0


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

    @property
    def scale(self) -> float:
        """g / (1 - e^-eps). The companion estimators debias a plain answer
        q(y) as scale * q(y) - shift * C (see ``estimators``), and the upper
        bounds are that estimator's spread. (scale, shift) is exactly (1, 0)
        from IDENTITY_EPSILON on."""
        return self.g / self._one_minus_exp_neg_eps()

    @property
    def shift(self) -> float:
        """e^-eps / (1 - e^-eps), the factor on the centering constant C."""
        return self.exp_neg_eps / self._one_minus_exp_neg_eps()

    def _one_minus_exp_neg_eps(self) -> float:
        if self.epsilon == 0.0:
            raise EstimatorUndefinedError(
                "the companion estimators are undefined at epsilon = 0 (zero denominator)"
            )
        return -math.expm1(-self.epsilon)


def sample_rows(rows: np.ndarray, params: MechanismParams, gen: np.random.Generator, trials: int) -> np.ndarray:
    """Draw ``trials`` independent synthetic row vectors for one input.

    Returns an array of shape (trials, n). Each entry keeps the input row
    with probability 1/g and otherwise flips to a uniform alternative; the
    alternative index is shifted past the input code so that exactly the
    2**l - 1 other values are reachable. At l = 1 the alternative is the
    other bit, so the result is ``rows`` with the flipped entries inverted,
    in the dtype of ``rows``; otherwise it is int64.

    Below IDENTITY_EPSILON, an epsilon at which keep_prob rounds to 1.0
    raises ValidationError: every row would be kept, an infinite privacy
    loss at a finite nominal epsilon.
    """
    card = params.universe.cardinality
    keep_prob = params.keep_prob
    if keep_prob == 1.0 and not params.is_identity:
        raise ValidationError(
            f"epsilon={params.epsilon} at l={params.universe.l} rounds the keep probability "
            f"to 1, so the release would be its input; use a smaller epsilon, or "
            f"epsilon >= {IDENTITY_EPSILON} for the documented identity"
        )
    keep = _keep_mask(gen, (trials, rows.size), keep_prob)
    if card == 2:
        # the alternatives are gen.integers(0, 1, ...): all 0, and drawn
        # without consuming the stream, so skipping them changes no draw
        return rows ^ np.logical_not(keep, out=keep)
    alt = gen.integers(0, card - 1, size=(trials, rows.size), dtype=np.int64)
    alt += alt >= rows
    np.copyto(alt, rows, where=keep)
    return alt


_UNIFORM_BLOCK = 1 << 16


def _keep_mask(gen: np.random.Generator, shape: tuple, keep_prob: float) -> np.ndarray:
    """gen.random(shape) < keep_prob, drawn 2**16 uniforms at a time: the
    same stream as one draw, without a float64 per entry."""
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    buf = np.empty(min(flat.size, _UNIFORM_BLOCK))
    for start in range(0, flat.size, _UNIFORM_BLOCK):
        block = buf[: min(_UNIFORM_BLOCK, flat.size - start)]
        gen.random(out=block)
        np.less(block, keep_prob, out=flat[start : start + block.size])
    return keep


def sample_histograms(hist, params: MechanismParams, gen: np.random.Generator, trials: int) -> np.ndarray:
    """Draw ``trials`` independent synthetic histograms for one input.

    ``hist`` holds the input's per-(table, code) counts, shape (k, 2**l) as
    ``StatisticalQuery.histogram`` returns them. The result, shape
    (trials, k, 2**l), has the distribution of the histograms of ``trials``
    releases by ``sample_rows``: each bin loses Binomial(count, alpha)
    redrawn rows, and each table's redrawn rows land Multinomial-uniformly
    over all 2**l codes (see the module docstring). The result reuses the
    redrawn counts' array, so the peak is about twice the result's size.
    """
    hist = np.asarray(hist, dtype=np.int64)
    card = params.universe.cardinality
    if hist.ndim != 2 or hist.shape[1] != card:
        raise DimensionMismatchError(f"histogram must have shape (k, {card})")
    redrawn = gen.binomial(hist, params.redraw_prob, size=(trials,) + hist.shape)
    arrivals = gen.multinomial(redrawn.sum(axis=-1), np.full(card, 1.0 / card))
    return np.add(np.subtract(hist, redrawn, out=redrawn), arrivals, out=redrawn)


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
    """int8 Hamming distances between all 2**(n*l) databases, in code order.

    Built by recursion over row positions. Code order packs row r into bits
    [l*r, l*(r+1)), so adding row r makes its value the outer block index:
    block (b, b') of the new matrix is the previous matrix plus [b != b'].
    Each step is one broadcast add into a fresh array, so the peak is the
    output plus the previous matrix, 1/4 of it or less. The cap is checked
    before anything is allocated.
    """
    enumeration_size(DataUniverse(l), n, bit_cap=EXACT_BIT_CAP)
    card = 1 << l
    differ = np.ones((card, card), dtype=np.int8)
    np.fill_diagonal(differ, 0)
    dist = differ
    for _ in range(1, n):
        side = dist.shape[0]
        out = np.empty((card, side, card, side), dtype=np.int8)
        np.add(differ[:, None, :, None], dist[None, :, None, :], out=out)
        dist = out.reshape(card * side, card * side)
    return dist


_SCAN_BLOCK = 1 << 18


def _neighbor_gap(dist: np.ndarray, l: int, n: int) -> int:
    """max |dist[x, y] - dist[x', y]| over every neighbor pair (x, x') and y.

    Members of a row-r clique sit 2**(l*r) codes apart, so the reshape puts
    each clique on axis 1 (see ``verify_dp`` for why cliques suffice). The
    clique column max, min and their difference are taken 2**18 clique
    columns at a time, in two int8 buffers allocated once per call and
    reused across blocks and row positions: a block spans several leading
    cliques when a clique's inner run (2**(l*r) * m entries) is shorter than
    a block, and is a slice of one run otherwise. Every entry of ``dist`` is
    still read once per row position.
    """
    m = dist.shape[0]
    card = 1 << l
    hi = np.empty(min(_SCAN_BLOCK, m * m // card), dtype=np.int8)
    lo = np.empty_like(hi)
    gap = 0
    for r in range(n):
        inner = (1 << (l * r)) * m
        cols = min(inner, hi.size)
        lead = m * m // (card * inner)
        cliques = dist.reshape(lead, card, inner // cols, cols)
        k = hi.size // cols  # cliques per block; powers of two, so k divides lead
        hi_k, lo_k = hi.reshape(k, cols), lo.reshape(k, cols)
        for a in range(0, lead, k):
            for j in range(inner // cols):
                block = cliques[a : a + k, :, j]
                np.maximum.reduce(block, axis=1, out=hi_k)
                np.minimum.reduce(block, axis=1, out=lo_k)
                np.subtract(hi_k, lo_k, out=hi_k)
                gap = max(gap, int(hi_k.max()))
    return gap


# typed: True and 2.0 must not hit the entries of 1 and 2, but reach the
# size check in _distance_matrix
@functools.lru_cache(maxsize=None, typed=True)
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
    The distance matrix holds d(x, y) for every pair, built block by block
    over row positions (``_distance_matrix``); n*l is checked against the
    cap before it is allocated. The scan (``_neighbor_gap``) reads it in
    blocks of clique columns, into two buffers it reuses across blocks and
    row positions. The integer gap does not depend on eps, so it is computed
    once per (n, l) and cached; eps multiplies it at the end.
    """
    if universe != params.universe:
        raise DimensionMismatchError("universe does not match mechanism parameters")
    return params.epsilon * _verify_gap(universe.l, n)
