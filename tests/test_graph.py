import math
import tracemalloc

import numpy as np
import pytest

from dpsynth.bounds import cut_bound
from dpsynth.core import (
    Database,
    DataUniverse,
    EstimatorUndefinedError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
)
from dpsynth import graph
from dpsynth.graph import (
    CutQuery,
    _cut_counts,
    adjacency_database,
    answer_cut,
    cut_value,
    edges_database,
    erdos_renyi_graph,
    power_law_graph,
    random_bisection_cut,
    read_cut_spec,
    read_edge_list,
    release_graph,
    vertex_count,
)
from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs

CUT_HAND_VALUE = -0.581976706869326424385  # -e^-1/(1-e^-1), frozen at 30 digits


def edge_db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


def cut(s_set, t_set):
    return CutQuery(frozenset(s_set), frozenset(t_set))


def adjacency(x):
    v = vertex_count(x)
    return x.rows.reshape(v, v).astype(bool)


def edge_set(x):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(adjacency(x)))}


class TestEncoding:
    def test_round_trip_random_graphs(self):
        gen = RandomSource(11).generator()
        for _ in range(25):
            v = int(gen.integers(1, 65))
            adj = gen.random((v, v)) < 0.2
            x = adjacency_database(adj)
            assert x.universe.l == 1 and vertex_count(x) == v
            assert adjacency(x).tolist() == adj.tolist()
            assert x == edges_database(v, np.argwhere(adj))

    def test_row_index_layout(self):
        db = edges_database(3, [(0, 2), (1, 0)])
        assert db.universe.l == 1 and db.n == 9
        assert db.rows[0 * 3 + 2] == 1
        assert db.rows[1 * 3 + 0] == 1
        assert db.rows.sum() == 2

    def test_symmetrize_sets_both_rows(self):
        db = edges_database(3, [(0, 2)], symmetrize=True)
        assert db.rows[0 * 3 + 2] and db.rows[2 * 3 + 0]
        assert db.rows.sum() == 2

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            edges_database(2, [(0, 5)])
        with pytest.raises(ValidationError, match=r"\(-1, 0\)"):
            edges_database(2, [(0, 1), (-1, 0)])

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_from_edges_matches_per_edge_loop(self, symmetrize):
        gen = RandomSource(5).generator()
        v = 40
        pairs = gen.integers(0, v, (500, 2))
        reference = np.zeros((v, v), dtype=bool)
        for i, j in pairs.tolist():
            reference[i, j] = True
            if symmetrize:
                reference[j, i] = True
        for given in (pairs, [tuple(p) for p in pairs.tolist()]):
            x = edges_database(v, given, symmetrize=symmetrize)
            assert np.array_equal(adjacency(x), reference)

    def test_adjacency_copied_edges_adopted(self):
        adj = np.zeros((2, 2), dtype=bool)
        x = adjacency_database(adj)  # rows are a view of adj, so they are copied
        adj[0, 1] = True
        assert x.rows.sum() == 0 and adj.flags.writeable
        assert not x.rows.flags.writeable
        assert not edges_database(2, [(0, 1)]).rows.flags.writeable

    def test_non_square_database_rejected(self):
        # the one check for inputs and releases alike
        with pytest.raises(ValidationError, match="perfect square"):
            vertex_count(Database(DataUniverse(1), np.array([0, 1, 0])))
        with pytest.raises(ValidationError, match="l = 1"):
            vertex_count(Database(DataUniverse(2), np.zeros(4, dtype=np.int64)))
        for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0))):
            with pytest.raises(ValidationError, match="square"):
                adjacency_database(bad)


class TestCutValue:
    def test_empty_side(self):
        x = edges_database(4, [(0, 1), (2, 3)])
        assert cut_value(x, CutQuery(frozenset(), frozenset({1}))) == 0
        assert cut_value(x, CutQuery(frozenset({0}), frozenset())) == 0

    def test_complete_directed_graph(self):
        v = 5
        adj = np.ones((v, v), dtype=bool)
        np.fill_diagonal(adj, False)
        x = adjacency_database(adj)
        assert cut_value(x, CutQuery(frozenset({0, 1}), frozenset({2, 3, 4}))) == 6

    def test_hand_count(self):
        x = edges_database(3, [(0, 1), (1, 2)])
        assert cut_value(x, CutQuery(frozenset({0, 1}), frozenset({2}))) == 1

    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            CutQuery(frozenset({0, 1}), frozenset({1, 2}))

    def test_out_of_range_vertex(self):
        x = edges_database(2, [(0, 1)])
        with pytest.raises(ValidationError):
            cut_value(x, CutQuery(frozenset({0}), frozenset({5})))

    def test_counts_exact_beyond_float32(self):
        # 4097^2 is odd and above 2^24: a float32 final sum would round it
        v = 4097
        ones = np.ones((1, v), dtype=np.float32)
        assert int(_cut_counts(np.ones(v * v, dtype=np.uint8), ones, ones)[0]) == v * v

    @pytest.mark.parametrize("bad", [-1, 3, 2**70])
    def test_vertex_outside_range_on_either_side(self, bad):
        # -1 would wrap onto vertex 2 and 3 would overflow the indicator row
        x = edges_database(3, [(0, 1), (1, 2), (2, 0)])
        y = release_graph(x, 1.0, RandomSource(0))
        for q in (cut({0, bad}, {1}), cut({0}, {1, bad})):
            with pytest.raises(ValidationError, match="outside"):
                cut_value(x, q)
            with pytest.raises(ValidationError, match="outside"):
                answer_cut(y, q, 1.0)


class TestReleaseGraph:
    def test_identity_epsilon(self):
        x = erdos_renyi_graph(12, 0.3, RandomSource(0))
        y = release_graph(x, 700.0, RandomSource(1))
        assert y == x

    def test_flip_fraction_at_eps_one(self):
        # e^-1 / (1 + e^-1) = 0.26894 per indicator, 10^6 vertex pairs
        v = 1000
        x = adjacency_database(np.zeros((v, v), dtype=bool))
        y = release_graph(x, 1.0, RandomSource(5))
        flipped = float(np.mean(y.rows != x.rows))
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert abs(flipped - expected) < 0.002

    def test_zero_epsilon_uniform(self):
        v = 400
        x = adjacency_database(np.zeros((v, v), dtype=bool))
        y = release_graph(x, 0.0, RandomSource(6))
        assert abs(float(np.mean(y.rows)) - 0.5) < 0.005

    def test_size_cap(self, monkeypatch):
        # a graph over the real cap would need gigabytes; lower the cap instead
        x = adjacency_database(np.zeros((4, 4), dtype=bool))
        monkeypatch.setattr(graph, "MAX_ENCODED_PAIRS", 15)
        with pytest.raises(ValidationError, match="encoded-pair cap"):
            release_graph(x, 1.0, RandomSource(0))
        monkeypatch.setattr(graph, "MAX_ENCODED_PAIRS", 16)
        assert release_graph(x, 1.0, RandomSource(0)).n == 16


class TestAnswerCut:
    def test_identity_epsilon_exact(self):
        x = edges_database(4, [(0, 1), (1, 2), (3, 2), (2, 0)])
        q = CutQuery(frozenset({0, 3}), frozenset({1, 2}))
        y = release_graph(x, 700.0, RandomSource(2))
        assert answer_cut(y, q, 700.0) == cut_value(x, q)

    def test_micro_enumeration_unbiased(self):
        # |V| = 2: 4 vertex pairs, 16 outputs enumerated exactly
        x = edges_database(2, [(0, 1)])
        u = DataUniverse(1)
        params = MechanismParams(0.8, u)
        rows = all_databases_matrix(u, 4)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        q = CutQuery(frozenset({0}), frozenset({1}))
        answers = np.array([answer_cut(Database(u, r), q, 0.8) for r in rows])
        assert float(probs @ answers) == pytest.approx(cut_value(x, q), abs=1e-10)

    def test_compliance_rate_at_577_vertices(self):
        # per-run |answer - truth| <= bound in >= 95% of 100 runs, and the
        # run mean stays below the bound
        v = 577
        x = erdos_renyi_graph(v, 0.02, RandomSource(40))
        q = random_bisection_cut(x, RandomSource(41))
        truth = cut_value(x, q)
        bound = cut_bound(len(q.s_set), len(q.t_set), 1.0)
        errors = []
        for run in range(100):
            y = release_graph(x, 1.0, RandomSource(42, run))
            errors.append(abs(answer_cut(y, q, 1.0) - truth))
        errors = np.array(errors)
        assert float(np.mean(errors <= bound)) >= 0.95
        assert errors.mean() <= bound


class TestCutEstimator:
    def test_identity_epsilon_returns_raw_count(self):
        y = edge_db(1, [0, 1, 1, 0])  # 2 vertices
        assert answer_cut(y, cut({0}, {1}), 700.0) == 1.0

    def test_hand_value_edge_absent(self):
        y = edge_db(1, [0, 0, 0, 0])
        assert answer_cut(y, cut({0}, {1}), 1.0) == pytest.approx(CUT_HAND_VALUE, abs=1e-12)

    def test_unbiased_by_enumeration_three_vertices(self):
        # all 2^9 outputs of a 3-vertex graph release, weighted by the pmf
        x = edges_database(3, [(0, 1), (1, 2), (2, 0)])
        u = DataUniverse(1)
        params = MechanismParams(1.0, u)
        rows = all_databases_matrix(u, 9)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        q = cut({0, 1}, {2})
        estimates = np.array([answer_cut(Database(u, r), q, 1.0) for r in rows])
        true_cut = 1.0  # only (1, 2) crosses from S into T
        assert float(probs @ estimates) == pytest.approx(true_cut, abs=1e-10)

    def test_validation(self):
        y = edge_db(1, [0, 0, 0, 0])
        with pytest.raises(ValidationError):
            answer_cut(y, cut({0}, {0}), 1.0)  # overlap
        with pytest.raises(EstimatorUndefinedError):
            answer_cut(y, cut({0}, {1}), 0.0)
        for eps in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                answer_cut(y, cut({0}, {1}), eps)
        with pytest.raises(ValidationError):
            answer_cut(edge_db(1, [0, 0, 0]), cut({0}, {1}), 1.0)  # not square
        with pytest.raises(ValidationError):
            answer_cut(edge_db(2, [0, 0, 0, 0]), cut({0}, {1}), 1.0)  # l != 1

    def test_empty_side_gives_zero(self):
        y = edge_db(1, [1, 1, 1, 1])
        assert answer_cut(y, cut(set(), {1}), 1.0) == 0.0


class TestRandomBisection:
    def test_two_vertices(self):
        x = adjacency_database(np.zeros((2, 2), dtype=bool))
        q = random_bisection_cut(x, RandomSource(0))
        assert len(q.s_set) == 1 and len(q.t_set) == 1

    @pytest.mark.parametrize("v", [2, 5, 16, 33])
    def test_partition_sizes(self, v):
        x = adjacency_database(np.zeros((v, v), dtype=bool))
        q = random_bisection_cut(x, RandomSource(v))
        assert len(q.s_set) == v // 2
        assert len(q.s_set) + len(q.t_set) == v
        assert q.s_set | q.t_set == frozenset(range(v))


class TestGenerators:
    def test_erdos_renyi_symmetric_no_loops(self):
        adj = adjacency(erdos_renyi_graph(50, 0.2, RandomSource(1)))
        assert not adj.diagonal().any()
        assert (adj == adj.T).all()

    @pytest.mark.parametrize("v", [1, 2, 300, 1001])
    def test_erdos_renyi_matches_one_matrix_draw(self, v):
        # drawn in row blocks, but the same stream as one (|V|, |V|) draw
        gen = RandomSource(8).generator()
        upper = np.triu(gen.random((v, v)) < 0.3, k=1)
        assert erdos_renyi_graph(v, 0.3, RandomSource(8)) == adjacency_database(upper | upper.T)

    def test_erdos_renyi_peak_memory(self):
        # 1001^2 pairs: 1 MB per bool matrix, against 8 MB for one float64 draw
        tracemalloc.start()
        try:
            x = erdos_renyi_graph(1001, 0.1, RandomSource(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.n

    def test_power_law_degree_and_determinism(self):
        v, m = 60, 3
        a = power_law_graph(v, m, RandomSource(2))
        assert a == power_law_graph(v, m, RandomSource(2))
        adj = adjacency(a)
        degrees = adj.sum(axis=1)
        # every vertex added after the seed star attaches to m distinct targets
        assert degrees[m + 1 :].min() >= m
        assert adj.sum() == 2 * (m + (v - m - 1) * m)
        assert (adj == adj.T).all()

    def test_generator_validation(self):
        with pytest.raises(ValidationError):
            erdos_renyi_graph(5, 1.5, RandomSource(0))
        with pytest.raises(ValidationError):
            power_law_graph(3, 5, RandomSource(0))

    @pytest.mark.parametrize("make,param", [(erdos_renyi_graph, 0.5), (power_law_graph, 2)])
    def test_pair_cap_checked_before_allocation(self, monkeypatch, make, param):
        # 1001^2 pairs: the float64 draw alone would be 8 MB, the bool matrix 1 MB
        monkeypatch.setattr(graph, "MAX_ENCODED_PAIRS", 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="encoded-pair cap"):
                make(1001, param, RandomSource(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        assert vertex_count(make(1000, param, RandomSource(0))) == 1000


class TestFiles:
    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n2 0 # trailing\n\n")
        x = read_edge_list(path, symmetrize=False)
        assert vertex_count(x) == 3
        assert edge_set(x) == {(0, 1), (2, 0)}

    def test_edge_list_symmetrized_by_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        assert edge_set(read_edge_list(path)) == {(0, 1), (1, 0)}

    def test_edge_list_peak_memory_near_output(self, tmp_path):
        # the Database adopts the indicator array; a copy would read 2.0x
        path = tmp_path / "g.txt"
        path.write_text("0 2999\n")
        tracemalloc.start()
        try:
            x = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vertex_count(x) == 3000 and edge_set(x) == {(0, 2999), (2999, 0)}
        assert not x.rows.flags.writeable
        assert peak <= 1.2 * x.rows.nbytes

    def test_one_based(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n")
        assert edge_set(read_edge_list(path, one_based=True, symmetrize=False)) == {(0, 1)}

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValidationError, match="1"):
            read_edge_list(path)
        path.write_text("")
        with pytest.raises(ValidationError):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text,line",
        [("1 2\n\n# c\n2 0 # zero\n", 4), ("1 -9223372036854775808\n", 1)],
    )
    def test_negative_after_shift_names_line(self, tmp_path, text, line):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_edge_list(path, one_based=True)
        assert str(info.value).startswith(f"{path}:{line}: expected 2 integer(s) >= 1")

    def test_pair_cap_checked_before_allocation(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 10000\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="encoded-pair cap"):
                read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**7  # the 10001 x 10001 adjacency alone is 100 MB

    def test_cut_spec(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_text("0 1 2\n3 4\n")
        q = read_cut_spec(path)
        assert q.s_set == frozenset({0, 1, 2})
        assert q.t_set == frozenset({3, 4})

    def test_cut_spec_validation(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValidationError):
            read_cut_spec(path)
