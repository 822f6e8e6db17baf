"""Statistical queries: normalized sums of bounded per-row functions.

A statistical query over databases of size n is specified by row functions
phi_1 .. phi_n (arbitrary bounded functions of a single row) and answers

    q(x) = (1 / sum_i c_i) * sum_i phi_i(x_i),

where c_i = max(phi_i) - min(phi_i). The normalization makes the spread of
q over all databases exactly 1, which puts every query on the same distortion
scale. Row functions are stored as dense value tables over the 2**l row
codes: the per-row extrema, the centering constant and the debiasing
coefficients of the companion estimators all need exact sums and extrema
over the whole row domain, and tables make those one vector operation.

Distinct tables are stored once and shared between rows ("heterogeneity" is
the number of distinct row functions; 1 means the query is a linear query).
Queries that share the row-to-table assignment form one batch with stacked
tables (Q, k, 2**l). A query is evaluated from the per-(table, code) counts
of the rows alone, so one histogram of a release answers the whole batch.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    RandomSource,
    ValidationError,
)

# cap on the counts one chunk of histograms holds, in ``evaluate_rows`` and
# in ``estimators.measure_distortion``
_HIST_BINS = 1 << 22


class StatisticalQuery:
    """A statistical query, or a batch of queries sharing one assignment,
    with deduplicated dense row-function tables.

    Every evaluation goes through ``histogram`` (the per-(table, code)
    counts of the rows, a sufficient statistic for every query on the same
    assignment) and ``answers`` (those counts contracted with the tables).

    Parameters
    ----------
    universe:
        Row domain the tables are defined over.
    tables:
        Array (k, 2**l) of row-function value tables for one query, or
        (Q, k, 2**l) for a batch of Q queries that share ``assignment``.
    assignment:
        Integer array (n,) mapping each row to its table.
    label:
        Optional identifier used in reports.

    Per-query values (``c_sum``, ``centering``, ``value_range()``,
    ``evaluate``) are floats for one query and arrays (Q,) for a batch. The
    class constants ``a``, ``b``, ``c`` and ``heterogeneity`` are taken over
    the whole batch.
    """

    __slots__ = (
        "universe",
        "tables",
        "label",
        "a",
        "b",
        "c",
        "c_sum",
        "centering",
        "heterogeneity",
        "_offsets",
        "_counts",
    )

    def __init__(self, universe: DataUniverse, tables, assignment, label: str = ""):
        tables = np.asarray(tables, dtype=np.float64)
        assignment = np.asarray(assignment)
        card = universe.cardinality
        if tables.ndim not in (2, 3) or tables.shape[-1] != card or tables.size == 0:
            raise ValidationError(
                f"row-function tables must have shape (k, {card}) or (Q, k, {card})"
            )
        if not np.isfinite(tables).all():
            raise ValidationError("row-function tables must be finite")
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValidationError("assignment must be a nonempty 1-d index vector")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValidationError("assignment must hold integer table indices")
        if assignment.min() < 0 or assignment.max() >= tables.shape[-2]:
            raise ValidationError("assignment indexes a missing table")

        # drop unused tables, then merge tables that are equal in every query
        # of the batch, in order of first use; evaluation is invariant to
        # this re-encoding
        batch = tables.shape[:-2]
        per_table = np.bincount(assignment.astype(np.intp, copy=False), minlength=tables.shape[-2])
        used = np.flatnonzero(per_table)
        keys = tables.reshape((-1,) + tables.shape[-2:])[:, used].transpose(1, 0, 2)
        seen: dict = {}
        first = [seen.setdefault(key.tobytes(), j) for j, key in enumerate(keys)]
        kept, merged = np.unique(first, return_inverse=True)
        k = kept.size
        tables = keys[kept].transpose(1, 0, 2).reshape(batch + (k, card))
        counts = np.bincount(merged, weights=per_table[used], minlength=k)
        # the query keeps only each row's offset, table * 2**l, into the flat
        # (table, code) bins of a histogram
        table_offsets = np.zeros(per_table.size, dtype=np.int64)
        table_offsets[used] = merged * card
        offsets = table_offsets[assignment]

        row_min = tables.min(axis=-1)
        row_max = tables.max(axis=-1)
        if not (row_max > row_min).all():
            raise ValidationError("constant row functions are not allowed (need max > min)")

        c_sum = (row_max - row_min) @ counts

        object.__setattr__(self, "universe", universe)
        for arr in (tables, offsets, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "a", float(row_min.min()))
        object.__setattr__(self, "b", float(row_max.max()))
        object.__setattr__(self, "c", float((row_max - row_min).min()))
        object.__setattr__(self, "c_sum", _per_query(c_sum))
        object.__setattr__(self, "centering", _per_query(tables.sum(axis=-1) @ counts / c_sum))
        object.__setattr__(self, "heterogeneity", int(k))

    def __setattr__(self, name, value):
        raise AttributeError("StatisticalQuery is immutable")

    @property
    def n(self) -> int:
        return int(self._offsets.size)

    @property
    def assignment(self) -> np.ndarray:
        """Integer array (n,): the table of each row."""
        return self._offsets >> self.universe.l

    def _check(self, x: Database) -> None:
        if x.universe != self.universe:
            raise DimensionMismatchError("database universe does not match the query")
        if x.n != self.n:
            raise DimensionMismatchError(
                f"query is defined for n={self.n} rows, database has {x.n}"
            )

    def histogram(self, rows) -> np.ndarray:
        """Per-(table, code) counts of row codes: (k, 2**l) for rows of shape
        (n,), (m, k, 2**l) for rows of shape (m, n). Codes outside
        [0, 2**l) raise ValidationError."""
        card = self.universe.cardinality
        size = self.heterogeneity * card
        rows = np.asarray(rows)
        # an out-of-range code would count silently into another table's bins;
        # all codes lie in [0, 2**l) exactly when their bitwise OR does (a
        # negative code sets the sign bit), and one OR pass is cheaper than
        # a min and a max
        if np.bitwise_or.reduce(rows, axis=None) >> self.universe.l:
            raise ValidationError(f"row codes must lie in [0, {card})")
        flat = rows + self._offsets
        lead = flat.shape[:-1]
        m = math.prod(lead)
        if lead:
            # each row of ``rows`` counts into its own block of bins
            flat += np.arange(0, m * size, size).reshape(lead + (1,))
        counts = np.bincount(flat.ravel(), minlength=m * size)
        return counts.reshape(lead + (self.heterogeneity, card))

    def answers(self, hist: np.ndarray) -> np.ndarray:
        """Answers from per-(table, code) counts ``hist`` (..., k, 2**l):
        (...) for one query, (..., Q) for a batch."""
        card = self.universe.cardinality
        stacked = self.tables.reshape(-1, self.heterogeneity, card)
        total = np.einsum("...kv,qkv->...q", hist, stacked)
        return total.reshape(hist.shape[:-2] + self.tables.shape[:-2]) / self.c_sum

    def evaluate(self, x: Database):
        """(1 / sum_i c_i) * sum_i phi_i(x_i)."""
        self._check(x)
        return _per_query(self.answers(self.histogram(x.rows)))

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized evaluate over a (m, n) matrix of row codes: (m,) for one
        query, (m, Q) for a batch. Rows go through ``histogram`` in chunks of
        at most _HIST_BINS counts, so a wide row domain never makes the
        counts outgrow the rows."""
        rows = np.asarray(rows)
        step = self._histograms_per_step()
        return np.concatenate(
            [self.answers(self.histogram(rows[i : i + step])) for i in range(0, len(rows), step)]
        )

    def _histograms_per_step(self) -> int:
        """How many histograms fit in _HIST_BINS counts (at least one); the
        step of every chunked evaluation, so one constant bounds memory."""
        return max(1, _HIST_BINS // (self.heterogeneity * self.universe.cardinality))

    def value_range(self):
        """[sum_i a_i, sum_i b_i] / sum_i c_i — the exact span of q; width 1."""
        lo = self.tables.min(axis=-1) @ self._counts / self.c_sum
        hi = self.tables.max(axis=-1) @ self._counts / self.c_sum
        return _per_query(lo), _per_query(hi)


def _per_query(values):
    """A float for one query, the (Q,) array for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def centering_constant(q: StatisticalQuery) -> float:
    """C = (1 / sum_i c_i) * sum_i sum_v phi_i(v); for a k-conjunct predicate
    query this is 2**(l-k)."""
    return q.centering


def make_predicate_query(universe: DataUniverse, n: int, conjunct_bits) -> StatisticalQuery:
    """Counting query for the fraction of rows with all given attribute bits set."""
    bits = sorted(set(int(b) for b in conjunct_bits))
    if not bits:
        raise ValidationError("a predicate query needs at least one conjunct attribute")
    if bits[0] < 0 or bits[-1] >= universe.l:
        raise ValidationError(f"conjunct attribute indices must lie in [0, {universe.l})")
    if n < 1:
        raise ValidationError("n must be >= 1")
    codes = np.arange(universe.cardinality)
    table = np.ones(universe.cardinality)
    for b in bits:
        table *= (codes >> b) & 1
    return StatisticalQuery(
        universe,
        table[None, :],
        np.zeros(n, dtype=np.int64),
        label=f"predicate(bits={bits})",
    )


def make_hamming_query(z: Database) -> StatisticalQuery:
    """The query x -> d(x, z) / n for a reference database z."""
    card = z.universe.cardinality
    values, inverse = np.unique(z.rows, return_inverse=True)
    tables = np.ones((values.size, card))
    tables[np.arange(values.size), values] = 0.0
    return StatisticalQuery(z.universe, tables, inverse.astype(np.int64), label="hamming")


def generate_random_query(
    universe: DataUniverse, n: int, heterogeneity: int, rng: RandomSource, count: int | None = None
) -> StatisticalQuery:
    """Random query with the given number of distinct row functions.

    Each of the ``heterogeneity`` tables has i.i.d. uniform [0,1] entries and
    is divided by its spread (max - min), so every c_i is exactly 1. Table j
    is assigned to the j-th contiguous block of n/heterogeneity rows, which
    is why heterogeneity must divide n. With ``count`` the result is a batch
    of that many queries, drawn in one call from the same generator stream
    (``count=1`` draws the same tables as ``count=None``).
    """
    if not 1 <= heterogeneity <= n:
        raise ValidationError(f"heterogeneity must lie in [1, {n}], got {heterogeneity}")
    if n % heterogeneity != 0:
        raise ValidationError(
            f"heterogeneity {heterogeneity} must divide n={n} (contiguous equal blocks)"
        )
    if count is not None and count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    shape = (heterogeneity, universe.cardinality)
    tables = rng.generator().random(shape if count is None else (count,) + shape)
    spread = tables.max(axis=-1, keepdims=True) - tables.min(axis=-1, keepdims=True)
    tables /= spread
    assignment = np.repeat(np.arange(heterogeneity, dtype=np.int64), n // heterogeneity)
    return StatisticalQuery(universe, tables, assignment, label=f"random(h={heterogeneity})")


def query_to_dict(q: StatisticalQuery) -> dict:
    """Serializable description in the explicit-tables schema."""
    return {
        "type": "tables",
        "l": q.universe.l,
        "tables": q.tables.tolist(),
        "assignment": q.assignment.tolist(),
    }


def _field(spec: dict, key: str):
    try:
        return spec[key]
    except KeyError:
        raise ValidationError(f"{spec['type']} query needs a {key!r} field") from None


def _int_field(spec: dict, key: str) -> int:
    value = _field(spec, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"query field {key!r} must be an integer, got {value!r}")
    return value


def _array_field(spec: dict, key: str, ndim: int, integer: bool = False) -> np.ndarray:
    try:
        arr = np.asarray(_field(spec, key), dtype=None if integer else np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"query field {key!r} must be a numeric array") from None
    if arr.ndim != ndim:
        raise ValidationError(f"query field {key!r} must be a {ndim}-d array")
    if integer and arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"query field {key!r} must hold integers")
    return arr.astype(np.int64, copy=False) if integer else arr


def query_from_dict(spec: dict) -> StatisticalQuery:
    """Build a query from its file representation.

    Supported shapes::

        {"type": "predicate", "l": 3, "n": 100, "conjunct_bits": [0, 2]}
        {"type": "hamming", "l": 2, "z": [0, 3, 1]}
        {"type": "tables", "l": 1, "tables": [[0.0, 1.0]], "assignment": [0, 0]}

    Missing fields, non-integer ``l``/``n`` and arrays of the wrong shape
    raise ValidationError.
    """
    try:
        kind = spec["type"]
    except (TypeError, KeyError):
        raise ValidationError("query definition needs a 'type' field") from None
    if kind not in ("predicate", "hamming", "tables"):
        raise ValidationError(f"unknown query type {kind!r}")
    universe = DataUniverse(_int_field(spec, "l"))
    if kind == "predicate":
        bits = _array_field(spec, "conjunct_bits", 1, integer=True)
        return make_predicate_query(universe, _int_field(spec, "n"), bits)
    if kind == "hamming":
        return make_hamming_query(Database(universe, _array_field(spec, "z", 1, integer=True)))
    return StatisticalQuery(
        universe,
        _array_field(spec, "tables", 2),
        _array_field(spec, "assignment", 1, integer=True),
        label="tables",
    )


def load_query(path) -> StatisticalQuery:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return query_from_dict(spec)
