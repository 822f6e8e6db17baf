"""Release pipeline for [0,1]-valued rows with Lipschitz row functions.

The discrete mechanism handles a continuous row domain through a k-bit
front-end: rows are discretized onto the grid {0, 1/2^k, ..., (2^k-1)/2^k},
the release and estimation run on the induced 2^k-code universe, and the
Lipschitz constant controls how much the discretization can move the answer
(at most L / (c 2^k)). Balancing discretization bias against estimator
variance gives the grid-size rule 2^(2k) = sqrt(n); k is the integer
rounding of that prescription. The grid query depends only on the query, n
and k, not on the release, so each ``LipschitzQuery`` builds it once per
(n, k) and every later release at that size reuses it. Likewise the grid
codes depend only on the database and k, so each ``ContinuousDatabase``
keeps its discretized ``Database`` per k, and a release draws on those codes
and counts the drawn codes once, never wrapping them in a Database: it costs
its draws. A release takes about 42 us at n = 256 and 81 us at n = 4096 on
2 vCPUs, about 12 us of it building the random generator and most of the
rest ``sample_rows``. A Lipschitz row function cannot be given on the
command line, so this module is library-only and reads no files.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import (
    DataUniverse,
    Database,
    RandomSource,
    ValidationError,
    _check_codes,
    _check_int,
    _check_real,
    _count_codes,
    _table_codes,
)
from .estimators import _estimates
from .mechanism import MechanismParams, sample_rows
from .queries import StatisticalQuery, _per_query

_LIPSCHITZ_GRID_POINTS = 10_001
# rounding slack, in ulps of a row function's float type coarser than float64
_ROUNDING_ULPS = 4


class ContinuousDatabase:
    """A nonempty vector of real rows, each in [0, 1].

    The database keeps its grid codes: the read-only ``Database`` that
    ``discretize`` builds at each k, made on the first release at that k
    (``_grid_codes``) and freed with the database. The rows are read-only and
    the database immutable, so the codes cannot go stale.
    """

    __slots__ = ("rows", "_grids", "__weakref__")

    def __init__(self, rows):
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("a continuous database is a nonempty 1-d vector")
        if not np.isfinite(arr).all():
            raise ValidationError("rows must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError("rows must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "_grids", {})

    def __setattr__(self, name, value):
        raise AttributeError("ContinuousDatabase is immutable")

    @property
    def n(self) -> int:
        return int(self.rows.size)


class LipschitzQuery:
    """A statistical query with one L-Lipschitz row function on [0, 1].

    L, a (``lower``) and b (``upper``) must be finite numbers, with L >= 0
    and b > a. The row function arrives as an opaque callable, so they are
    spot-checked on a dense grid at construction: adjacent grid points
    must satisfy the Lipschitz inequality (which extends to all grid pairs by
    the triangle inequality) and values must stay inside [a, b], both within
    1e-9 (1 + L), widened by a few ulps times max(|a|, |b|, 1) when the
    function returns a float type coarser than float64. The spread of the
    checked values, max - min, is kept as ``spread``: it normalizes every
    answer. A constant function is rejected, as its spread is zero; so is a
    row value that is not a real number.

    The row function must be deterministic: ``grid_query`` evaluates it once
    per (n, k) and keeps the induced query on this object, so a release
    reuses the table of an earlier one. Each cached (n, k) entry is a
    one-table query, so it holds its table and no per-row array; entries are
    freed with the query.
    """

    __slots__ = ("fn", "lipschitz", "lower", "upper", "spread", "_grids", "__weakref__")

    def __init__(self, fn, lipschitz: float, lower: float, upper: float):
        lipschitz = _check_real(lipschitz, "Lipschitz constant")
        if lipschitz < 0.0:
            raise ValidationError(f"Lipschitz constant must be >= 0, got {lipschitz}")
        lower, upper = _check_real(lower, "lower"), _check_real(upper, "upper")
        if not upper > lower:
            raise ValidationError("row function needs a positive declared spread (b > a)")
        grid = np.linspace(0.0, 1.0, _LIPSCHITZ_GRID_POINTS)
        raw = [_real(fn(u), u) for u in grid]
        vals = np.asarray([float(v) for v in raw])
        if not np.isfinite(vals).all():
            raise ValidationError("row function must be finite on [0, 1]")
        tol = 1e-9 * (1.0 + lipschitz)
        # a row function computing in a coarser float type rounds each value
        # by up to half an ulp of that type
        kinds = {type(v) for v in raw}
        coarsest = max((np.finfo(t).eps for t in kinds if issubclass(t, np.floating)), default=0.0)
        if coarsest > np.finfo(np.float64).eps:
            tol += _ROUNDING_ULPS * coarsest * max(abs(lower), abs(upper), 1.0)
        if vals.min() < lower - tol or vals.max() > upper + tol:
            raise ValidationError("row function leaves its declared [a, b] range")
        step = grid[1] - grid[0]
        if np.abs(np.diff(vals)).max() > lipschitz * step + tol:
            raise ValidationError("row function violates its declared Lipschitz constant")
        spread = float(vals.max() - vals.min())
        if spread == 0.0:
            raise ValidationError("constant row functions are not allowed")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "lipschitz", lipschitz)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "spread", spread)
        object.__setattr__(self, "_grids", {})

    def __setattr__(self, name, value):
        raise AttributeError("LipschitzQuery is immutable")


def _real(v, u: float):
    """The row value v returned at u, a 0-d array unwrapped to its scalar. A
    value that is not a real number (None, complex, a string, an array that
    is not 0-d ...) is a ValidationError naming u; bools count as 0 and 1."""
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v[()]
    # concrete types first: the ABC check costs several times the call
    if not isinstance(v, (float, int, np.bool_)) and not isinstance(v, numbers.Real):
        raise ValidationError(f"row function must return a real number, got {v!r} at u = {float(u)!r}")
    return v


def _row_value(fn, u: float) -> float:
    """fn(u) as a float, checked by ``_real``."""
    return float(_real(fn(u), u))


def choose_k(n: int) -> int:
    """Bits per discretized row: round(log2(n) / 4) with a floor of 1.

    Half-integer values round up (half-up, not banker's rounding) so the rule
    is monotone in n.
    """
    return max(1, math.floor(math.log2(_check_int(n, "n", 1)) / 4.0 + 0.5))


def discretize(x: ContinuousDatabase, k: int) -> Database:
    """Map each row to its k-bit cell index floor(x_i * 2^k), clamping x = 1
    into the top cell; the represented value code/2^k is within 2^-k."""
    universe = DataUniverse(k)
    scale = universe.cardinality
    codes = np.minimum(np.floor(x.rows * scale).astype(np.int64), scale - 1)
    return Database._adopt(universe, codes)


def grid_query(q: LipschitzQuery, n: int, k: int) -> StatisticalQuery:
    """The statistical query induced on the k-bit grid.

    The table evaluates the row function at the cell left endpoints
    code / 2^k, matching the represented values of ``discretize``. Constants
    (a, b, c) of the induced query are computed from the table itself; they
    can differ from the declared continuous constants by up to L * 2^-k.
    Built on the first call for each (n, k) and kept on ``q``; later calls
    return the same immutable query.
    """
    gq = q._grids.get((n, k))
    if gq is None:
        universe = DataUniverse(k)
        scale = _table_codes(universe)
        table = np.asarray([_row_value(q.fn, code / scale) for code in range(scale)])
        gq = StatisticalQuery._one_table(universe, table, n, label=f"grid(k={k})")
        q._grids[(n, k)] = gq
    return gq


def _grid_codes(x: ContinuousDatabase, k: int) -> Database:
    """``discretize(x, k)``, built on the first call for each k and kept on
    ``x``; later calls return the same read-only Database."""
    xd = x._grids.get(k)
    if xd is None:
        xd = x._grids[k] = discretize(x, k)
    return xd


def release_continuous(
    x: ContinuousDatabase, q: LipschitzQuery, epsilon: float, rng: RandomSource
) -> float:
    """End-to-end private answer: discretize, release, estimate. The answer is
    normalized by the query's own spread, ``q.spread``: the grid query
    normalizes by its table's spread ``c``, up to L * 2^-k smaller, so its
    ``proper`` estimate is rescaled by c / q.spread. The factor is positive,
    so the answer stays between the grid table's least and largest values,
    each divided by q.spread.

    The release is drawn by ``sample_rows`` on the codes ``x`` keeps
    (``_grid_codes``) and answered from one count of the drawn codes, never
    wrapped in a Database: the same draws and the same float operations as
    ``sample_synthetic`` followed by ``gq.evaluate``, so the same bits."""
    k = choose_k(x.n)
    gq = grid_query(q, x.n, k)
    xd = _grid_codes(x, k)
    params = MechanismParams(epsilon, xd.universe)
    codes = sample_rows(xd, params, rng.generator())
    _check_codes(codes, xd.universe)
    hist = _count_codes(codes, xd.universe.cardinality)[None, :]
    return float(_estimates(gq, _per_query(gq.answers(hist)), params, "proper")) * (gq.c / q.spread)
