"""Graphs as edge-indicator databases and private cut-function release.

A graph on V vertices is a ``Database`` with l = 1 and n = |V|^2: row
i*|V| + j holds the indicator of the directed pair (i, j). There is no
separate graph type: the input graph and its release are the same kind of
database. ``adjacency_database``, ``edges_database``, ``read_edge_list`` and
the two generators build it; ``vertex_count`` checks it (l = 1, n a perfect
square) wherever a graph is read, input or release. Privacy is at the edge
level (neighbors differ in one vertex pair). Undirected input data is
symmetrized at ingestion by default, setting both (i, j) and (j, i); a
count-once mode keeps only the given orientation since the convention
affects cut values and is a property of the dataset, not the mechanism.
Edge lists are parsed by ``core._read_int_rows``, cut specs by
``core._content_lines``; both refuse non-ASCII comments. |V|^2 is checked
against ``MAX_ENCODED_PAIRS`` before any |V| x |V| array is allocated.

Every cut count, exact (``cut_value``) or released (``answer_cut``, the cut
estimator), is one contraction of (C, |V|) indicator matrices: the row sums
of (S @ M) * T. Released counts are debiased by ``estimators._debias``,
with centering constant |S||T|, and ``estimators._project`` makes the named
estimator's answers on [0, |S||T|]. Random bisections are drawn straight
into such matrices (``_bisection_indicators``), with no ``CutQuery`` per cut.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .core import (
    Database,
    DataUniverse,
    RandomSource,
    ValidationError,
    _check_int,
    _check_real,
    _content_lines,
    _read_int_rows,
)
from .estimators import _debias, _project
from .mechanism import MechanismParams, _keep_mask, sample_synthetic

MAX_ENCODED_PAIRS = 10**8

EDGE_UNIVERSE = DataUniverse(1)


def adjacency_database(adjacency) -> Database:
    """Edge-indicator database of a square adjacency matrix (nonzero = edge)."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
        raise ValidationError("adjacency must be a nonempty square matrix")
    return Database(EDGE_UNIVERSE, adj.reshape(-1).view(np.uint8))


def edges_database(vertex_count: int, pairs, symmetrize: bool = False) -> Database:
    """Edge-indicator database on ``vertex_count`` vertices with the (i, j)
    rows of ``pairs`` set; ``symmetrize`` sets (j, i) as well."""
    _check_pair_cap(_check_int(vertex_count, "vertex_count", 1))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = pairs[((pairs < 0) | (pairs >= vertex_count)).any(axis=1)]
    if bad.size:
        raise ValidationError(f"edge ({bad[0, 0]}, {bad[0, 1]}) has an endpoint outside [0, {vertex_count})")
    rows = np.zeros(vertex_count * vertex_count, dtype=np.uint8)
    rows[pairs[:, 0] * vertex_count + pairs[:, 1]] = 1
    if symmetrize:
        rows[pairs[:, 1] * vertex_count + pairs[:, 0]] = 1
    return Database._adopt(EDGE_UNIVERSE, rows)


def vertex_count(db: Database) -> int:
    """|V| of an edge-indicator database, which must have l = 1 and n = |V|^2."""
    if db.universe.l != 1:
        raise ValidationError("an edge-indicator database must have l = 1")
    v = math.isqrt(db.n)
    if v * v != db.n:
        raise ValidationError(f"database size {db.n} is not a perfect square")
    return v


@dataclass(frozen=True)
class CutQuery:
    """Disjoint vertex sets (S, T); answers count edges from S into T."""

    s_set: frozenset
    t_set: frozenset

    def __post_init__(self):
        # operator.index takes ints, bools and numpy ints; int() would
        # truncate a float id onto another vertex
        try:
            s = frozenset(map(operator.index, self.s_set))
            t = frozenset(map(operator.index, self.t_set))
        except TypeError:
            raise ValidationError("cut query vertex ids must be integers") from None
        if s & t:
            raise ValidationError("cut query needs disjoint vertex sets")
        object.__setattr__(self, "s_set", s)
        object.__setattr__(self, "t_set", t)


def _cut_indicators(cuts, vertex_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 (C, |V|) indicator matrices (S, T) of C cuts. Every vertex id must
    lie in [0, |V|): fancy indexing would wrap a negative one onto another vertex."""
    sets = [q.s_set for q in cuts] + [q.t_set for q in cuts]
    ids = [w for side in sets for w in side]
    lo, hi = min(ids, default=0), max(ids, default=0)
    if lo < 0 or hi >= vertex_count:
        raise ValidationError(f"vertex {lo if lo < 0 else hi} outside [0, {vertex_count})")
    ind = np.zeros((len(sets), vertex_count), dtype=np.float32)
    ind[np.repeat(np.arange(len(sets)), [len(side) for side in sets]), ids] = 1.0
    return ind[: len(cuts)], ind[len(cuts) :]


def _cut_counts(m: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-cut sums of M (|V| x |V|, or flat) over S_c x T_c, in float64: the
    row sums of (S @ M) * T. S @ M holds integers <= |V|, exact in float32;
    the final sum runs in float64, exact up to |V|^2 pairs."""
    return (np.matmul(s, m.reshape(s.shape[1], -1), dtype=np.float32) * t).sum(axis=1, dtype=np.float64)


def _answer_cuts(y: Database, s: np.ndarray, t: np.ndarray, epsilon: float, estimator: str) -> np.ndarray:
    """Cut answers from a release y as ``estimator`` returns them, from the counts debiased with C = |S||T|."""
    sizes = s.sum(axis=1, dtype=np.float64) * t.sum(axis=1, dtype=np.float64)
    raw = _debias(_cut_counts(y.rows, s, t), sizes, MechanismParams(epsilon, y.universe))
    return _project(raw, estimator, (0.0, sizes))


def _check_pair_cap(vertex_count: int) -> None:
    if vertex_count**2 > MAX_ENCODED_PAIRS:
        raise ValidationError(f"|V|^2 = {vertex_count**2} exceeds the {MAX_ENCODED_PAIRS} encoded-pair cap")


def cut_value(x: Database, q: CutQuery) -> int:
    """Exact number of edges (i, j) with i in S, j in T."""
    s, t = _cut_indicators([q], vertex_count(x))
    return int(_cut_counts(x.rows, s, t)[0])


def release_graph(x: Database, epsilon: float, rng: RandomSource) -> Database:
    """Private synthetic edge-indicator database for the whole graph x.

    Each indicator independently survives with probability 1/(1 + e^-eps)
    and flips otherwise; one release answers every later cut query.
    """
    _check_pair_cap(vertex_count(x))
    return sample_synthetic(x, MechanismParams(epsilon, EDGE_UNIVERSE), rng)


def answer_cut(y: Database, q: CutQuery, epsilon: float) -> float:
    """Unbiased directed-cut count from a released edge-indicator database
    (l = 1, n = |V|^2). Answers below 0 or above |S||T| are legal; the
    ``proper`` estimator (``graph-cut --estimator proper``) clamps them."""
    s, t = _cut_indicators([q], vertex_count(y))
    return float(_answer_cuts(y, s, t, epsilon, "unbiased")[0])


def _bisection_indicators(vertex_count: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Float32 (C, |V|) indicator matrices (S, T) of C random bisections,
    cut c drawn from ``rngs[c]``: S is a uniform floor(|V|/2)-subset, one
    ``choice`` without replacement written straight into row c, and T = 1 - S
    its complement. The one place a bisection is drawn."""
    if vertex_count < 2:
        raise ValidationError("a bisection cut needs at least two vertices")
    s = np.zeros((len(rngs), vertex_count), dtype=np.float32)
    for row, rng in zip(s, rngs):
        row[rng.generator().choice(vertex_count, size=vertex_count // 2, replace=False)] = 1.0
    return s, 1.0 - s


def random_bisection_cut(x: Database, rng: RandomSource) -> CutQuery:
    """S = uniform floor(|V|/2)-subset, T = the complement; the largest
    |S||T| product, hence the worst case of the cut distortion bound."""
    s, t = _bisection_indicators(vertex_count(x), [rng])
    return CutQuery(frozenset(np.flatnonzero(s[0]).tolist()), frozenset(np.flatnonzero(t[0]).tolist()))


def erdos_renyi_graph(vertex_count: int, edge_prob: float, rng: RandomSource) -> Database:
    """Undirected G(V, p) without self-loops, symmetrized into the directed
    encoding (each undirected edge sets both rows)."""
    _check_int(vertex_count, "vertex_count", 1)
    edge_prob = _check_real(edge_prob, "edge probability")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError(f"edge probability must lie in [0, 1], got {edge_prob}")
    _check_pair_cap(vertex_count)
    # the same stream as one (|V|, |V|) draw of uniforms, without its float64 matrix
    upper = np.triu(_keep_mask(rng.generator(), (vertex_count, vertex_count), edge_prob), 1)
    return adjacency_database(upper | upper.T)


def power_law_graph(vertex_count: int, attach_count: int, rng: RandomSource) -> Database:
    """Preferential-attachment (Barabasi-Albert style) undirected graph.

    Starts from a star on attach_count + 1 vertices; every later vertex
    attaches to ``attach_count`` distinct existing vertices chosen with
    probability proportional to their degree.
    """
    _check_int(vertex_count, "vertex_count", _check_int(attach_count, "attach_count", 1) + 1)
    _check_pair_cap(vertex_count)
    gen = rng.generator()
    adj = np.zeros((vertex_count, vertex_count), dtype=bool)
    degree_pool: list[int] = []
    for w in range(1, attach_count + 1):
        adj[0, w] = adj[w, 0] = True
        degree_pool.extend((0, w))
    for w in range(attach_count + 1, vertex_count):
        targets: set[int] = set()
        while len(targets) < attach_count:
            targets.add(int(degree_pool[gen.integers(0, len(degree_pool))]))
        for u in targets:
            adj[w, u] = adj[u, w] = True
            degree_pool.extend((w, u))
    return adjacency_database(adj)


def read_edge_list(path, one_based: bool = False, symmetrize: bool = True) -> Database:
    """Parse a text edge list: one ``i j`` pair of integers per line, '#'
    comments.

    ``one_based`` shifts ids down by one. The vertex count is one past the
    largest id.
    """
    pairs = _read_int_rows(path, 2, int(one_based)) - int(one_based)
    if pairs.shape[0] == 0:
        raise ValidationError(f"{path}: no edges")
    return edges_database(int(pairs.max()) + 1, pairs, symmetrize=symmetrize)


def read_cut_spec(path) -> CutQuery:
    """Two lines of vertex ids, runs of at most 18 ASCII digits separated by
    ' ' and '\t': S, then T. '#' comments must be ASCII, as in an edge list."""
    sets = []
    # line by line, so the first bad line is the one named
    for lineno, text in _content_lines(path):
        if not re.fullmatch(r"[0-9]{1,18}(?:[ \t]+[0-9]{1,18})*", text):
            raise ValidationError(f"{path}:{lineno}: expected vertex ids separated by spaces or tabs, got {text!r}")
        sets.append(frozenset(int(w) for w in text.split()))
    if len(sets) != 2:
        raise ValidationError(f"{path}: a cut spec needs exactly two non-empty lines (S then T)")
    return CutQuery(*sets)
