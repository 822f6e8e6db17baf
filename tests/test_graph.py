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
from dpsynth.graph import (
    CutQuery,
    Graph,
    _cut_counts,
    answer_cut,
    cut_value,
    erdos_renyi_graph,
    power_law_graph,
    random_bisection_cut,
    read_cut_spec,
    read_edge_list,
    release_graph,
)
from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs

CUT_HAND_VALUE = -0.581976706869326424385  # -e^-1/(1-e^-1), frozen at 30 digits


def edge_db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


def cut(s_set, t_set):
    return CutQuery(frozenset(s_set), frozenset(t_set))


class TestEncoding:
    def test_round_trip_random_graphs(self):
        gen = RandomSource(11).generator()
        for _ in range(25):
            v = int(gen.integers(1, 65))
            adj = gen.random((v, v)) < 0.2
            g = Graph(adj)
            assert Graph.from_database(g.to_database()).adjacency.tolist() == g.adjacency.tolist()

    def test_row_index_layout(self):
        g = Graph.from_edges(3, [(0, 2), (1, 0)])
        db = g.to_database()
        assert db.universe.l == 1 and db.n == 9
        assert db.rows[0 * 3 + 2] == 1
        assert db.rows[1 * 3 + 0] == 1
        assert db.rows.sum() == 2

    def test_symmetrize_sets_both_rows(self):
        g = Graph.from_edges(3, [(0, 2)], symmetrize=True)
        assert g.adjacency[0, 2] and g.adjacency[2, 0]

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValidationError, match=r"\(-1, 0\)"):
            Graph.from_edges(2, [(0, 1), (-1, 0)])

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
            g = Graph.from_edges(v, given, symmetrize=symmetrize)
            assert np.array_equal(g.adjacency, reference)

    def test_non_square_database_rejected(self):
        with pytest.raises(ValidationError):
            Graph.from_database(Database(DataUniverse(1), np.array([0, 1, 0])))


class TestCutValue:
    def test_empty_side(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert cut_value(g, CutQuery(frozenset(), frozenset({1}))) == 0
        assert cut_value(g, CutQuery(frozenset({0}), frozenset())) == 0

    def test_complete_directed_graph(self):
        v = 5
        adj = np.ones((v, v), dtype=bool)
        np.fill_diagonal(adj, False)
        g = Graph(adj)
        assert cut_value(g, CutQuery(frozenset({0, 1}), frozenset({2, 3, 4}))) == 6

    def test_hand_count(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert cut_value(g, CutQuery(frozenset({0, 1}), frozenset({2}))) == 1

    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            CutQuery(frozenset({0, 1}), frozenset({1, 2}))

    def test_out_of_range_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValidationError):
            cut_value(g, CutQuery(frozenset({0}), frozenset({5})))

    def test_counts_exact_beyond_float32(self):
        # 4097^2 is odd and above 2^24: a float32 final sum would round it
        v = 4097
        ones = np.ones((1, v), dtype=np.float32)
        assert int(_cut_counts(np.ones((v, v), dtype=bool), ones, ones)[0]) == v * v

    @pytest.mark.parametrize("bad", [-1, 3, 2**70])
    def test_vertex_outside_range_on_either_side(self, bad):
        # -1 would wrap onto vertex 2 and 3 would overflow the indicator row
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        y = release_graph(g, 1.0, RandomSource(0))
        for q in (cut({0, bad}, {1}), cut({0}, {1, bad})):
            with pytest.raises(ValidationError, match="outside"):
                cut_value(g, q)
            with pytest.raises(ValidationError, match="outside"):
                answer_cut(y, q, 1.0)


class TestReleaseGraph:
    def test_identity_epsilon(self):
        g = erdos_renyi_graph(12, 0.3, RandomSource(0))
        y = release_graph(g, 700.0, RandomSource(1))
        assert Graph.from_database(y).adjacency.tolist() == g.adjacency.tolist()

    def test_flip_fraction_at_eps_one(self):
        # e^-1 / (1 + e^-1) = 0.26894 per indicator, 10^6 vertex pairs
        v = 1000
        g = Graph(np.zeros((v, v), dtype=bool))
        y = release_graph(g, 1.0, RandomSource(5))
        flipped = float(np.mean(y.rows != g.to_database().rows))
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert abs(flipped - expected) < 0.002

    def test_zero_epsilon_uniform(self):
        v = 400
        g = Graph(np.zeros((v, v), dtype=bool))
        y = release_graph(g, 0.0, RandomSource(6))
        assert abs(float(np.mean(y.rows)) - 0.5) < 0.005

    def test_size_cap(self):
        # constructing a >10^8-pair graph directly would need gigabytes;
        # check the guard through a stub that only reports its vertex count
        with pytest.raises(ValidationError):
            release_graph(_HugeGraphStub(), 1.0, RandomSource(0))


class _HugeGraphStub:
    vertex_count = 20000

    def to_database(self):  # pragma: no cover - guard fires first
        raise AssertionError


class TestAnswerCut:
    def test_identity_epsilon_exact(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (3, 2), (2, 0)])
        q = CutQuery(frozenset({0, 3}), frozenset({1, 2}))
        y = release_graph(g, 700.0, RandomSource(2))
        assert answer_cut(y, q, 700.0) == cut_value(g, q)

    def test_micro_enumeration_unbiased(self):
        # |V| = 2: 4 vertex pairs, 16 outputs enumerated exactly
        from dpsynth.core import all_databases_matrix
        from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs

        g = Graph.from_edges(2, [(0, 1)])
        x = g.to_database()
        u = DataUniverse(1)
        params = MechanismParams(0.8, u)
        rows = all_databases_matrix(u, 4)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        q = CutQuery(frozenset({0}), frozenset({1}))
        answers = np.array([answer_cut(Database(u, r), q, 0.8) for r in rows])
        assert float(probs @ answers) == pytest.approx(cut_value(g, q), abs=1e-10)

    def test_compliance_rate_at_577_vertices(self):
        # per-run |answer - truth| <= bound in >= 95% of 100 runs, and the
        # run mean stays below the bound
        v = 577
        g = erdos_renyi_graph(v, 0.02, RandomSource(40))
        q = random_bisection_cut(g, RandomSource(41))
        truth = cut_value(g, q)
        bound = cut_bound(len(q.s_set), len(q.t_set), 1.0)
        errors = []
        for run in range(100):
            y = release_graph(g, 1.0, RandomSource(42, run))
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
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        x = g.to_database()
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
        g = Graph(np.zeros((2, 2), dtype=bool))
        q = random_bisection_cut(g, RandomSource(0))
        assert len(q.s_set) == 1 and len(q.t_set) == 1

    @pytest.mark.parametrize("v", [2, 5, 16, 33])
    def test_partition_sizes(self, v):
        g = Graph(np.zeros((v, v), dtype=bool))
        q = random_bisection_cut(g, RandomSource(v))
        assert len(q.s_set) == v // 2
        assert len(q.s_set) + len(q.t_set) == v
        assert q.s_set | q.t_set == frozenset(range(v))


class TestGenerators:
    def test_erdos_renyi_symmetric_no_loops(self):
        g = erdos_renyi_graph(50, 0.2, RandomSource(1))
        adj = g.adjacency
        assert not adj.diagonal().any()
        assert (adj == adj.T).all()

    def test_power_law_degree_and_determinism(self):
        v, m = 60, 3
        a = power_law_graph(v, m, RandomSource(2))
        b = power_law_graph(v, m, RandomSource(2))
        assert a.adjacency.tolist() == b.adjacency.tolist()
        degrees = a.adjacency.sum(axis=1)
        # every vertex added after the seed star attaches to m distinct targets
        assert degrees[m + 1 :].min() >= m
        assert a.adjacency.sum() == 2 * (m + (v - m - 1) * m)
        assert (a.adjacency == a.adjacency.T).all()

    def test_generator_validation(self):
        with pytest.raises(ValidationError):
            erdos_renyi_graph(5, 1.5, RandomSource(0))
        with pytest.raises(ValidationError):
            power_law_graph(3, 5, RandomSource(0))


class TestFiles:
    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n2 0 # trailing\n\n")
        g = read_edge_list(path, symmetrize=False)
        assert g.vertex_count == 3
        assert set(g.edges) == {(0, 1), (2, 0)}

    def test_edge_list_symmetrized_by_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path)
        assert set(g.edges) == {(0, 1), (1, 0)}

    def test_one_based(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n")
        g = read_edge_list(path, one_based=True, symmetrize=False)
        assert set(g.edges) == {(0, 1)}

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
