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
Edge lists are parsed by ``core._read_int_rows``. |V|^2 is checked against
``MAX_ENCODED_PAIRS`` before any |V| x |V| array is allocated.

Every cut count, exact (``cut_value``) or released (``answer_cut``, the cut
estimator), is one contraction of (C, |V|) indicator matrices: the row sums
of (S @ M) * T. Released counts are debiased by the same affine map as a
statistical query, with centering constant |S||T|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Database,
    DataUniverse,
    RandomSource,
    ValidationError,
    _content_lines,
    _read_int_rows,
)
from .estimators import _affine_coefficients
from .mechanism import MechanismParams, sample_synthetic

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
    _check_pair_cap(vertex_count)
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
        s = frozenset(int(i) for i in self.s_set)
        t = frozenset(int(j) for j in self.t_set)
        if s & t:
            raise ValidationError("cut query needs disjoint vertex sets")
        object.__setattr__(self, "s_set", s)
        object.__setattr__(self, "t_set", t)

    def validate_for(self, vertex_count: int) -> None:
        _cut_indicators([self], vertex_count)


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


def _answer_cuts(y: Database, s: np.ndarray, t: np.ndarray, epsilon: float) -> np.ndarray:
    """Debiased cut answers, scale * count - shift * |S||T|, from a release y."""
    scale, shift = _affine_coefficients(MechanismParams(epsilon, y.universe))
    sizes = s.sum(axis=1, dtype=np.float64) * t.sum(axis=1, dtype=np.float64)
    return scale * _cut_counts(y.rows, s, t) - shift * sizes


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
    (l = 1, n = |V|^2). Answers below 0 or above |S||T| are legal; clamp
    separately if a proper value is needed."""
    s, t = _cut_indicators([q], vertex_count(y))
    return float(_answer_cuts(y, s, t, epsilon)[0])


def random_bisection_cut(x: Database, rng: RandomSource) -> CutQuery:
    """S = uniform floor(|V|/2)-subset, T = the complement; the largest
    |S||T| product, hence the worst case of the cut distortion bound."""
    v = vertex_count(x)
    if v < 2:
        raise ValidationError("a bisection cut needs at least two vertices")
    gen = rng.generator()
    s = gen.choice(v, size=v // 2, replace=False)
    s_set = frozenset(int(i) for i in s)
    t_set = frozenset(range(v)) - s_set
    return CutQuery(s_set, t_set)


def erdos_renyi_graph(vertex_count: int, edge_prob: float, rng: RandomSource) -> Database:
    """Undirected G(V, p) without self-loops, symmetrized into the directed
    encoding (each undirected edge sets both rows)."""
    if vertex_count < 1:
        raise ValidationError("vertex_count must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError(f"edge probability must lie in [0, 1], got {edge_prob}")
    _check_pair_cap(vertex_count)
    # Row blocks of at most 2**16 draws: the same stream as one (|V|, |V|)
    # draw, without its float64 matrix.
    gen = rng.generator()
    upper = np.empty((vertex_count, vertex_count), dtype=bool)
    step = max(1, (1 << 16) // vertex_count)
    cols = np.arange(vertex_count)
    for start in range(0, vertex_count, step):
        block = upper[start : start + step]
        np.less(gen.random(block.shape), edge_prob, out=block)
        block &= cols > np.arange(start, start + len(block))[:, None]
    return adjacency_database(upper | upper.T)


def power_law_graph(vertex_count: int, attach_count: int, rng: RandomSource) -> Database:
    """Preferential-attachment (Barabasi-Albert style) undirected graph.

    Starts from a star on attach_count + 1 vertices; every later vertex
    attaches to ``attach_count`` distinct existing vertices chosen with
    probability proportional to their degree.
    """
    if attach_count < 1:
        raise ValidationError("attach_count must be >= 1")
    if vertex_count < attach_count + 1:
        raise ValidationError("need vertex_count >= attach_count + 1")
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
    """Two lines of whitespace-separated vertex ids: S, then T."""
    lines = [text for _, text in _content_lines(path)]
    if len(lines) != 2:
        raise ValidationError(f"{path}: a cut spec needs exactly two non-empty lines (S then T)")
    try:
        s = frozenset(int(w) for w in lines[0].split())
        t = frozenset(int(w) for w in lines[1].split())
    except ValueError:
        raise ValidationError(f"{path}: vertex ids must be integers") from None
    return CutQuery(s, t)
