"""Release pipeline for [0,1]-valued rows with Lipschitz row functions.

The discrete mechanism handles a continuous row domain through a k-bit
front-end: rows are discretized onto the grid {0, 1/2^k, ..., (2^k-1)/2^k},
the release and estimation run on the induced 2^k-code universe, and the
Lipschitz constant controls how much the discretization can move the answer
(at most L / (c 2^k)). Balancing discretization bias against estimator
variance gives the grid-size rule 2^(2k) = sqrt(n); k is the integer
rounding of that prescription. The grid query depends only on the query, n
and k, not on the release, so each ``LipschitzQuery`` builds it once per
(n, k) and every later release at that size reuses it. A Lipschitz row
function cannot be given on the command line, so this module is library-only
and reads no files.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import DataUniverse, Database, RandomSource, ValidationError
from .estimators import estimate_unbiased, project_proper
from .mechanism import MechanismParams, sample_synthetic
from .queries import StatisticalQuery

_LIPSCHITZ_GRID_POINTS = 10_001


class ContinuousDatabase:
    """A nonempty vector of real rows, each in [0, 1]."""

    __slots__ = ("rows",)

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

    def __setattr__(self, name, value):
        raise AttributeError("ContinuousDatabase is immutable")

    @property
    def n(self) -> int:
        return int(self.rows.size)


class LipschitzQuery:
    """A statistical query with one L-Lipschitz row function on [0, 1].

    The row function arrives as an opaque callable, so the declared constants
    are spot-checked on a dense grid at construction: adjacent grid points
    must satisfy the Lipschitz inequality (which extends to all grid pairs by
    the triangle inequality) and values must stay inside [a, b]. A constant
    function is rejected, as the induced query would have zero spread; so is
    a row value that is not a real number.

    The row function must be deterministic: ``grid_query`` evaluates it once
    per (n, k) and keeps the induced query on this object, so a release
    reuses the table of an earlier one. Each cached (n, k) entry holds n int64
    row offsets; entries are freed with the query.
    """

    __slots__ = ("fn", "lipschitz", "lower", "upper", "_grids", "__weakref__")

    def __init__(self, fn, lipschitz: float, lower: float, upper: float):
        if not (math.isfinite(lipschitz) and lipschitz >= 0.0):
            raise ValidationError(f"Lipschitz constant must be finite and >= 0, got {lipschitz}")
        if not upper > lower:
            raise ValidationError("row function needs a positive declared spread (b > a)")
        grid = np.linspace(0.0, 1.0, _LIPSCHITZ_GRID_POINTS)
        vals = np.asarray([_row_value(fn, u) for u in grid])
        if not np.isfinite(vals).all():
            raise ValidationError("row function must be finite on [0, 1]")
        tol = 1e-9 * (1.0 + lipschitz)
        if vals.min() < lower - tol or vals.max() > upper + tol:
            raise ValidationError("row function leaves its declared [a, b] range")
        step = grid[1] - grid[0]
        if np.abs(np.diff(vals)).max() > lipschitz * step + tol:
            raise ValidationError("row function violates its declared Lipschitz constant")
        if vals.max() - vals.min() == 0.0:
            raise ValidationError("constant row functions are not allowed")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "lipschitz", float(lipschitz))
        object.__setattr__(self, "lower", float(lower))
        object.__setattr__(self, "upper", float(upper))
        object.__setattr__(self, "_grids", {})

    def __setattr__(self, name, value):
        raise AttributeError("LipschitzQuery is immutable")


def _row_value(fn, u: float) -> float:
    """fn(u) as a float. A value that is not a real number (None, complex,
    a string, an array that is not 0-d ...) is a ValidationError naming u;
    bools count as 0 and 1."""
    v = fn(u)
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v[()]
    # concrete types first: the ABC check costs several times the call
    if not isinstance(v, (float, int, np.bool_)) and not isinstance(v, numbers.Real):
        raise ValidationError(f"row function must return a real number, got {v!r} at u = {float(u)!r}")
    return float(v)


def choose_k(n: int) -> int:
    """Bits per discretized row: round(log2(n) / 4) with a floor of 1.

    Half-integer values round up (half-up, not banker's rounding) so the rule
    is monotone in n.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return max(1, math.floor(math.log2(n) / 4.0 + 0.5))


def discretize(x: ContinuousDatabase, k: int) -> Database:
    """Map each row to its k-bit cell index floor(x_i * 2^k), clamping x = 1
    into the top cell; the represented value code/2^k is within 2^-k."""
    if not 1 <= k <= 30:
        raise ValidationError(f"k must lie in [1, 30], got {k}")
    scale = 1 << k
    codes = np.minimum(np.floor(x.rows * scale).astype(np.int64), scale - 1)
    return Database._adopt(DataUniverse(k), codes)


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
        scale = 1 << k
        table = np.asarray([_row_value(q.fn, code / scale) for code in range(scale)])
        gq = StatisticalQuery(
            DataUniverse(k), table[None, :], np.zeros(n, dtype=np.int64), label=f"grid(k={k})"
        )
        q._grids[(n, k)] = gq
    return gq


def release_continuous(
    x: ContinuousDatabase, q: LipschitzQuery, epsilon: float, rng: RandomSource
) -> float:
    """End-to-end private answer: discretize, release, estimate, project.

    Uses the proper estimator with interval clamping on the induced grid
    query; the answer therefore always lies in the achievable value interval.
    """
    k = choose_k(x.n)
    gq = grid_query(q, x.n, k)
    xd = discretize(x, k)
    params = MechanismParams(epsilon, xd.universe)
    y = sample_synthetic(xd, params, rng)
    raw = estimate_unbiased(gq, y, params)
    return project_proper(gq, raw, "interval_clamp")

