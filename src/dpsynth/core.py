"""Databases over a binary-attribute row domain, and seeded randomness.

A row with ``l`` binary attributes is encoded as an unsigned integer in
``[0, 2**l)``; attribute ``k`` of a row is bit ``k`` of the code. A database
is a length-n vector of such codes. Rows are compared as whole values, never
bitwise: two databases are neighbors when they differ in exactly one row.

All types are immutable after construction and safe to share across threads.
Every stochastic operation in this package takes an explicit
:class:`RandomSource`; there is no hidden global randomness.
JSON files, code files and edge lists are parsed here (``_read_json``,
``_read_int_rows``). A code file or edge list is parsed by numpy's C
reader, ``np.loadtxt``; where that parse fails, a walk over its lines returns
the rows or names the first bad line.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

MAX_ATTRIBUTES = 30
ENUMERATION_BIT_CAP = 24


class ValidationError(ValueError):
    """An input violates a documented invariant."""

    category = "validation"


class DimensionMismatchError(ValidationError):
    """Operands are defined over different universes or row counts."""

    category = "dimension-mismatch"


class EnumerationTooLargeError(ValidationError):
    """An exhaustive enumeration would exceed its configured cap."""

    category = "enumeration-too-large"


class EstimatorUndefinedError(ValidationError):
    """The requested estimator is undefined at the given privacy level."""

    category = "estimator-undefined"


class ConfigError(ValidationError):
    """An experiment or ingestion configuration is invalid."""

    category = "config"


def _not_utf8(path, exc: UnicodeDecodeError, error=ValidationError) -> ValidationError:
    return error(f"{path}: not UTF-8 text ({exc.reason})")


def _read_json(path, error=ValidationError):
    """Parse a JSON file; invalid JSON or non-UTF-8 bytes raise ``error``
    naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, error) from None


def _utf8_lines(fh, path) -> Iterator[str]:
    """The lines of the text file ``fh``, opened from ``path`` as UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line with content before its '#'."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def _read_int_rows(path, width: int, minimum: int) -> np.ndarray:
    """(m, width) int64 rows of a file of ``width`` whitespace-separated
    integers >= ``minimum`` (each as ``int()`` reads it) per non-blank line,
    '#' comments allowed. numpy's C reader parses the file; its integer
    grammar is a subset of ``int()``'s, so if it fails, or a check does, the
    lines are walked instead: the walk returns the rows, or names the first
    bad line. Not thread-safe: the process's warning filters are swapped
    during the parse, to drop np.loadtxt's warning on a file with no rows."""
    try:
        # a handle, not the path: numpy opens a path string through its
        # DataSource, which decompresses by suffix, reads a compressed
        # sibling of a missing file and fetches URLs
        with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    except (ValueError, OverflowError):  # UnicodeDecodeError included
        pass
    else:
        if rows.shape[1] == width or rows.size == 0:
            rows = rows.reshape(-1, width)
            if (rows >= minimum).all():
                return rows
    walked = []
    for lineno, line in _content_lines(path):
        try:
            row = np.array(line.split(), dtype=np.int64)
            ok = row.shape == (width,) and (row >= minimum).all()
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValidationError(f"{path}:{lineno}: expected {width} integer(s) >= {minimum} per line, got {line!r}")
        walked.append(row)
    return np.array(walked, dtype=np.int64).reshape(-1, width)


@dataclass(frozen=True)
class DataUniverse:
    """The row domain {0,1}^l, encoded as the integers 0 .. 2**l - 1."""

    l: int

    def __post_init__(self):
        if isinstance(self.l, bool) or not isinstance(self.l, numbers.Integral):
            raise ValidationError(f"universe dimension must be an integer, got {self.l!r}")
        object.__setattr__(self, "l", int(self.l))
        if not 1 <= self.l <= MAX_ATTRIBUTES:
            raise ValidationError(f"universe dimension must be in [1, {MAX_ATTRIBUTES}], got {self.l}")

    @property
    def cardinality(self) -> int:
        return 1 << self.l


class Database:
    """A length-n vector of universe-encoded rows.

    Rows are stored as a read-only integer array; the constructor copies
    them and validates every code against the universe cardinality.
    """

    __slots__ = ("universe", "rows")

    def __init__(self, universe: DataUniverse, rows):
        self._own(universe, np.array(rows))

    @classmethod
    def _adopt(cls, universe: DataUniverse, arr: np.ndarray) -> "Database":
        """A Database over ``arr`` itself, validated and made read-only but
        not copied. Only for an array the package has just built and keeps
        no other reference to."""
        db = cls.__new__(cls)
        db._own(universe, arr)
        return db

    def _own(self, universe: DataUniverse, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("a database is a nonempty 1-d sequence of row codes")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"row codes must be integers, got dtype {arr.dtype}")
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= universe.cardinality:
            raise ValidationError(
                f"row codes must lie in [0, {universe.cardinality}), found range [{lo}, {hi}]"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "rows", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Database is immutable")

    @property
    def n(self) -> int:
        return int(self.rows.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.n == other.n
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __repr__(self) -> str:
        head = np.array2string(self.rows[:8], separator=",")
        tail = ", ..." if self.n > 8 else ""
        return f"Database(l={self.universe.l}, n={self.n}, rows={head}{tail})"


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness handle.

    The same ``(seed, stream)`` always produces the same draw sequence;
    distinct streams are statistically independent. :meth:`derive` appends
    indices to an internal derivation path so that nested consumers (runs
    within a sweep, trials within a run) get independent sub-streams without
    coordinating offsets.
    """

    seed: int
    stream: int = 0
    path: tuple = field(default_factory=tuple)

    def generator(self) -> np.random.Generator:
        key = (self.stream,) + tuple(self.path)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def derive(self, *indices: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream, tuple(self.path) + tuple(indices))


def _check_compatible(x: Database, y: Database) -> None:
    if x.universe != y.universe:
        raise DimensionMismatchError(
            f"databases live in different universes (l={x.universe.l} vs l={y.universe.l})"
        )
    if x.n != y.n:
        raise DimensionMismatchError(f"databases have different sizes ({x.n} vs {y.n})")


def hamming_distance(x: Database, y: Database) -> int:
    """Number of rows on which x and y differ (rows compared as whole codes)."""
    _check_compatible(x, y)
    return int(np.count_nonzero(x.rows != y.rows))


def is_neighbor(x: Database, y: Database) -> bool:
    """True when x and y differ on exactly one row."""
    return hamming_distance(x, y) == 1


def enumeration_size(universe: DataUniverse, n: int, bit_cap: int = ENUMERATION_BIT_CAP) -> int:
    """Validate n*l against the cap and return 2**(n*l)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"database size must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"database size must be >= 1, got {n}")
    bits = n * universe.l
    if bits > bit_cap:
        raise EnumerationTooLargeError(
            f"enumerating 2^{bits} databases exceeds the 2^{bit_cap} cap"
        )
    return 1 << bits


def _decode(universe: DataUniverse, n: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, n) rows of the database codes start .. stop - 1."""
    codes = np.arange(start, stop, dtype=np.int64)
    out = np.empty((codes.size, n), dtype=np.int64)
    mask = universe.cardinality - 1
    for r in range(n):
        out[:, r] = (codes >> (universe.l * r)) & mask
    return out


def all_databases_matrix(universe: DataUniverse, n: int, bit_cap: int = ENUMERATION_BIT_CAP) -> np.ndarray:
    """Matrix of shape (2**(n*l), n) whose k-th row decodes database code k.

    Database code k packs row i into bits [l*i, l*(i+1)). The matrix is the
    workhorse of every exact-enumeration oracle in the package.
    """
    return _decode(universe, n, 0, enumeration_size(universe, n, bit_cap))


def enumerate_databases(universe: DataUniverse, n: int) -> Iterator[Database]:
    """Yield every database in (D^n), each exactly once, in code order."""
    size = enumeration_size(universe, n)
    chunk = 1 << 16
    for start in range(0, size, chunk):
        for row in _decode(universe, n, start, min(start + chunk, size)):
            yield Database(universe, row)
