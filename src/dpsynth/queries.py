"""Statistical queries: normalized sums of bounded per-row functions.

A statistical query over databases of size n is specified by row functions
phi_1 .. phi_n (arbitrary bounded functions of a single row) and answers

    q(x) = (1 / sum_i c_i) * sum_i phi_i(x_i),

where c_i = max(phi_i) - min(phi_i). The normalization makes the spread of
q over all databases exactly 1, which puts every query on the same distortion
scale. Row functions are stored as dense value tables over the 2**l row
codes: the per-row extrema, the centering constant and the debiasing
coefficients of the companion estimators all need exact sums and extrema
over the whole row domain, and tables make those one vector operation. A
universe of more than ``core.MAX_TABLE_CODES`` codes is refused with a
ValidationError before any table is made.

Distinct tables are stored once and shared between rows ("heterogeneity" is
the number of distinct row functions; 1 means the query is a linear query).
Queries that share the row-to-table assignment form one batch with stacked
tables (Q, k, 2**l). A query is evaluated from the per-(table, code) counts
of the rows alone, so one histogram of a release answers the whole batch; a
one-table query reads the per-code counts that the release's ``Database``
keeps, so one count of a release answers every such query.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    RandomSource,
    ValidationError,
    _check_codes,
    _check_int,
    _check_size,
    _check_universe,
    _count_codes,
    _read_json_int_arrays,
    _table_codes,
)

# cap on the counts one chunk of histograms holds, in ``evaluate_rows`` and
# on both of ``estimators.measure_distortion``'s paths (its row path also
# caps the rows of a chunk)
_HIST_BINS = 1 << 22


class StatisticalQuery:
    """A statistical query, or a batch of queries sharing one assignment,
    with deduplicated dense row-function tables.

    Every evaluation goes through ``histogram`` (the per-(table, code)
    counts of the rows, a sufficient statistic for every query on the same
    assignment) and ``answers`` (those counts contracted with the tables in
    one matrix product). A ``Database`` is counted by ``database_histogram``:
    a one-table query reads the per-code counts the Database keeps
    (``Database.code_counts``), so any number of one-table queries on one
    release cost one count of its rows.

    The query keeps its tables, the number of rows on each table and ``n``.
    A query of several tables also keeps each row's int64 offset into the
    flat (table, code) bins, n of them; a one-table query (a linear query,
    after merging equal tables) keeps no per-row array, and its histogram
    counts the codes themselves.

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
    the whole batch. ``centering`` is C = (1 / sum_i c_i) * sum_i sum_v
    phi_i(v); for a k-conjunct predicate query it is 2**(l-k).
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
        "n",
        "_offsets",
        "_counts",
        "_value_range",
    )

    def __init__(self, universe: DataUniverse, tables, assignment, label: str = ""):
        tables = _checked_tables(universe, tables)
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValidationError("assignment must be a nonempty 1-d index vector")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValidationError("assignment must hold integer table indices")
        if assignment.min() < 0 or assignment.max() >= tables.shape[-2]:
            raise ValidationError("assignment indexes a missing table")
        per_table = _count_codes(assignment, tables.shape[-2])
        self._build(universe, tables, per_table, assignment, label)

    @classmethod
    def _one_table(cls, universe: DataUniverse, table, n: int, label: str) -> "StatisticalQuery":
        """The query whose one table ``table`` (2**l,) holds for all ``n``
        rows, built from the row count alone: no n-length assignment is
        made only to be counted."""
        q = cls.__new__(cls)
        q._build(universe, _checked_tables(universe, np.asarray(table)[None, :]), np.array([n]), None, label)
        return q

    def _build(self, universe: DataUniverse, tables: np.ndarray, per_table: np.ndarray, assignment, label: str):
        """Set every slot from checked ``tables`` and the number of rows on
        each table, ``per_table``; ``assignment`` gives each row's table, and
        is read only when several tables are used."""
        card = universe.cardinality
        # drop unused tables, then merge tables that are equal in every query
        # of the batch, in order of first use; evaluation is invariant to
        # this re-encoding
        batch = tables.shape[:-2]
        used = np.flatnonzero(per_table)
        keys = tables.reshape((-1,) + tables.shape[-2:])[:, used].transpose(1, 0, 2)
        seen: dict = {}
        first = [seen.setdefault(key.tobytes(), j) for j, key in enumerate(keys)]
        kept, merged = np.unique(first, return_inverse=True)
        k = kept.size
        tables = keys[kept].transpose(1, 0, 2).reshape(batch + (k, card))
        counts = np.bincount(merged, weights=per_table[used], minlength=k)
        # a query of several tables keeps only each row's offset, table *
        # 2**l, into the flat (table, code) bins of a histogram; with one
        # table every offset is 0, so it keeps none
        offsets = None
        if k > 1:
            table_offsets = np.zeros(per_table.size, dtype=np.int64)
            table_offsets[used] = merged * card
            offsets = table_offsets[assignment]
            offsets.setflags(write=False)

        row_min = tables.min(axis=-1)
        row_max = tables.max(axis=-1)
        if not (row_max > row_min).all():
            raise ValidationError("constant row functions are not allowed (need max > min)")

        # finite tables can still overflow these sums; they are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            c_sum = (row_max - row_min) @ counts
            centering = tables.sum(axis=-1) @ counts / c_sum
            lo, hi = row_min @ counts / c_sum, row_max @ counts / c_sum
        if not all(np.isfinite(v).all() for v in (c_sum, centering, lo, hi)):
            raise ValidationError("the query's normalization overflows: its sums over the rows are not finite")

        object.__setattr__(self, "universe", universe)
        for arr in (tables, counts):
            arr.setflags(write=False)
        if batch:  # a batch's per-query values are arrays (Q,), read-only like its tables
            for arr in (c_sum, centering, lo, hi):
                arr.setflags(write=False)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "n", int(per_table.sum()))
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "a", float(row_min.min()))
        object.__setattr__(self, "b", float(row_max.max()))
        object.__setattr__(self, "c", float((row_max - row_min).min()))
        object.__setattr__(self, "c_sum", _per_query(c_sum))
        object.__setattr__(self, "centering", _per_query(centering))
        object.__setattr__(self, "heterogeneity", int(k))
        object.__setattr__(self, "_value_range", (_per_query(lo), _per_query(hi)))

    def __setattr__(self, name, value):
        raise AttributeError("StatisticalQuery is immutable")

    @property
    def assignment(self) -> np.ndarray:
        """Integer array (n,): the table of each row."""
        if self._offsets is None:
            return np.zeros(self.n, dtype=np.int64)
        return self._offsets >> self.universe.l

    def _check(self, x: Database) -> None:
        _check_universe(x.universe, self.universe, "database and query")
        if x.n != self.n:
            raise DimensionMismatchError(
                f"query is defined for n={self.n} rows, database has {x.n}"
            )

    def histogram(self, rows) -> np.ndarray:
        """Per-(table, code) counts of row codes: (k, 2**l) for rows of shape
        (n,), (m, k, 2**l) for rows of shape (m, n). Rows of another length
        raise DimensionMismatchError; rows that are not integer codes of the
        universe (bool and float rows included) raise ValidationError, as
        they do in a ``Database``."""
        card = self.universe.cardinality
        size = self.heterogeneity * card
        rows = np.asarray(rows)
        if rows.ndim == 0 or rows.shape[-1] != self.n:
            raise DimensionMismatchError(
                f"query is defined for n={self.n} rows, got rows of shape {rows.shape}"
            )
        # an out-of-range code would count silently into another table's bins
        _check_codes(rows, self.universe)
        lead = rows.shape[:-1]
        m = math.prod(lead)
        offsets = self._stacked_offsets(m) if lead else self._offsets
        counts = _count_codes(rows.reshape(-1), m * size, offsets)
        return counts.reshape(lead + (self.heterogeneity, card))

    def _stacked_offsets(self, m: int) -> np.ndarray:
        """int64 offsets (m * n,) of m stacked row vectors into the flat
        (vector, table, code) bins of their m histograms: each vector counts
        into its own block of bins."""
        size = self.heterogeneity * self.universe.cardinality
        row_offsets = np.zeros(self.n, dtype=np.int64) if self._offsets is None else self._offsets
        return np.add.outer(np.arange(0, m * size, size), row_offsets).reshape(-1)

    def database_histogram(self, x: Database) -> np.ndarray:
        """``histogram(x.rows)``, after checking ``x`` against the query. A
        one-table query, a batch included, reads the counts that ``x`` keeps
        (``Database.code_counts``, read-only) as its (1, 2**l) histogram, so
        ``x``'s rows are counted at most once whatever is asked of it. A
        multi-table query counts them without ``histogram``'s code check:
        ``x`` was checked when it was made."""
        self._check(x)
        if self._offsets is None:
            return x.code_counts[None, :]
        card = self.universe.cardinality
        return _count_codes(x.rows, self.heterogeneity * card, self._offsets).reshape(self.heterogeneity, card)

    def answers(self, hist: np.ndarray) -> np.ndarray:
        """Answers from per-(table, code) counts ``hist`` (..., k, 2**l):
        (...) for one query, (..., Q) for a batch, in a fresh float array.
        The counts and the tables are contracted in one matrix product, the
        flat (table, code) bins of every histogram against those of every
        query.

        The product is not row-independent: the BLAS (OpenBLAS, for one) may
        round equal histograms differently by their row position, so an
        answer from a batch of histograms can differ in the last bit from
        the answer to the same histogram alone. Bit-exact comparisons must
        answer the same shape of batch."""
        shape = (self.heterogeneity, self.universe.cardinality)
        if hist.shape[-2:] != shape:
            raise DimensionMismatchError(f"histograms must end in shape {shape}, got {hist.shape}")
        size = math.prod(shape)
        total = hist.reshape(-1, size) @ self.tables.reshape(-1, size).T
        total = total.reshape(hist.shape[:-2] + self.tables.shape[:-2])
        return np.divide(total, self.c_sum, out=total)

    def evaluate(self, x: Database):
        """(1 / sum_i c_i) * sum_i phi_i(x_i)."""
        return _per_query(self.answers(self.database_histogram(x)))

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized evaluate over a (m, n) matrix of row codes: (m,) for one
        query, (m, Q) for a batch. Rows go through ``histogram`` in chunks of
        at most _HIST_BINS counts, so a wide row domain never makes the
        counts outgrow the rows. No rows give an empty (0,) or (0, Q)."""
        rows = np.asarray(rows)
        step = self._histograms_per_step()
        if rows.ndim < 2 or len(rows) <= step:
            return self.answers(self.histogram(rows))
        return np.concatenate(
            [self.answers(self.histogram(rows[i : i + step])) for i in range(0, len(rows), step)]
        )

    def _histograms_per_step(self) -> int:
        """How many histograms fit in _HIST_BINS counts (at least one); the
        step of every chunked evaluation, so one constant bounds memory."""
        return max(1, _HIST_BINS // (self.heterogeneity * self.universe.cardinality))

    def value_range(self):
        """[sum_i a_i, sum_i b_i] / sum_i c_i — the exact span of q; width 1.
        Computed once, when the query is built: floats for one query,
        read-only arrays (Q,) for a batch."""
        return self._value_range


def _checked_tables(universe: DataUniverse, tables) -> np.ndarray:
    """``tables`` as float64 (k, 2**l) or (Q, k, 2**l), finite; the table
    cap on 2**l is checked first."""
    card = _table_codes(universe)
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim not in (2, 3) or tables.shape[-1] != card or tables.size == 0:
        raise ValidationError(
            f"row-function tables must have shape (k, {card}) or (Q, k, {card})"
        )
    if not np.isfinite(tables).all():
        raise ValidationError("row-function tables must be finite")
    return tables


def _per_query(values):
    """A float for one query, the (Q,) array for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def make_predicate_query(universe: DataUniverse, n: int, conjunct_bits) -> StatisticalQuery:
    """Counting query for the fraction of rows with all given attribute bits set."""
    bits = sorted(set(int(b) for b in conjunct_bits))
    if not bits:
        raise ValidationError("a predicate query needs at least one conjunct attribute")
    if bits[0] < 0 or bits[-1] >= universe.l:
        raise ValidationError(f"conjunct attribute indices must lie in [0, {universe.l})")
    _check_size(n, "n")
    codes = np.arange(_table_codes(universe))
    table = np.ones(codes.size)
    for b in bits:
        table *= (codes >> b) & 1
    return StatisticalQuery._one_table(universe, table, n, label=f"predicate(bits={bits})")


def make_hamming_query(z: Database) -> StatisticalQuery:
    """The query x -> d(x, z) / n for a reference database z: one table per distinct row of z."""
    values, inverse = np.unique(z.rows, return_inverse=True)
    card = _table_codes(z.universe, values.size)
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
    if _check_int(heterogeneity, "heterogeneity", 1) > _check_size(n, "n"):
        raise ValidationError(f"heterogeneity must lie in [1, {n}], got {heterogeneity}")
    if n % heterogeneity != 0:
        raise ValidationError(
            f"heterogeneity {heterogeneity} must divide n={n} (contiguous equal blocks)"
        )
    if count is not None:
        _check_size(count, "count")
    shape = (heterogeneity, _table_codes(universe))
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
    return _check_int(_field(spec, key), f"query field {key!r}", 1)


def _holds_bool(value) -> bool:
    """Whether a bool, Python's or numpy's, sits anywhere in ``value``: an
    array, or nested lists and tuples."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool or (value.dtype == object and _holds_bool(value.tolist()))
    if not isinstance(value, (list, tuple)):
        return isinstance(value, (bool, np.bool_))
    # one pass over the item types, so a long flat list costs no Python call per item
    types = set(map(type, value))
    if bool in types or np.bool_ in types:
        return True
    return any(issubclass(t, (list, tuple, np.ndarray)) for t in types) and any(map(_holds_bool, value))


def _array_field(spec: dict, key: str, ndim: int, integer: bool = False) -> np.ndarray:
    value = _field(spec, key)
    try:
        arr = np.asarray(value, dtype=None if integer else np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"query field {key!r} must be a numeric array") from None
    if arr.ndim != ndim:
        raise ValidationError(f"query field {key!r} must be a {ndim}-d array")
    if _holds_bool(value):
        raise ValidationError(f"query field {key!r} must hold numbers, not booleans")
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


# the query fields that hold one integer per row (or per conjunct); long ones
# are read from a file by the byte scan. Other fields keep json's lists, so a
# message that quotes a field's value reads as before.
_INT_ARRAY_FIELDS = ("assignment", "z", "conjunct_bits")


def load_query(path) -> StatisticalQuery:
    """The query in the JSON file ``path`` (see ``query_from_dict``)."""
    return query_from_dict(_read_json_int_arrays(path, _INT_ARRAY_FIELDS))
