import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth.core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    RandomSource,
    ValidationError,
    enumerate_databases,
)
from dpsynth.estimators import (
    _estimates,
    achievable_values,
    estimate_unbiased,
    exact_distortion,
    measure_distortion,
)
from dpsynth.mechanism import MechanismParams
from dpsynth.queries import (
    StatisticalQuery,
    centering_constant,
    generate_random_query,
    load_query,
    make_hamming_query,
    make_predicate_query,
    query_from_dict,
    query_to_dict,
)


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


class TestEvaluate:
    def test_indicator_upper_extreme(self):
        q = make_predicate_query(DataUniverse(2), 3, [0])
        x = db(2, [1, 3, 1])  # every row satisfies bit 0
        assert q.evaluate(x) == pytest.approx(1.0)

    def test_hand_evaluation(self):
        # phi_1 = (0, 1), phi_2 = (0, 2): c_sum = 3; x = (1, 1) -> (1+2)/3 = 1
        q = StatisticalQuery(
            DataUniverse(1), np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([0, 1])
        )
        assert q.c_sum == pytest.approx(3.0)
        assert q.evaluate(db(1, [1, 1])) == pytest.approx(1.0)
        assert q.evaluate(db(1, [0, 1])) == pytest.approx(2.0 / 3.0)

    def test_hamming_zero_at_reference(self):
        z = db(2, [0, 3, 1])
        q = make_hamming_query(z)
        assert q.evaluate(z) == 0.0

    def test_dimension_mismatch(self):
        q = make_predicate_query(DataUniverse(1), 3, [0])
        with pytest.raises(DimensionMismatchError):
            q.evaluate(db(1, [0, 1]))
        with pytest.raises(DimensionMismatchError):
            q.evaluate(db(2, [0, 1, 2]))

    def test_evaluate_rows_matches_scalar(self):
        q = generate_random_query(DataUniverse(2), 6, 3, RandomSource(4))
        gen = RandomSource(5).generator()
        rows = gen.integers(0, 4, size=(20, 6))
        batch = q.evaluate_rows(rows)
        for k in range(20):
            assert batch[k] == pytest.approx(q.evaluate(db(2, rows[k])), abs=1e-13)


class TestNormalization:
    @given(st.integers(1, 3), st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_range_span_is_one(self, l, n, data):
        divisors = [h for h in range(1, n + 1) if n % h == 0]
        h = data.draw(st.sampled_from(divisors))
        seed = data.draw(st.integers(0, 2**20))
        q = generate_random_query(DataUniverse(l), n, h, RandomSource(seed))
        lo, hi = q.value_range()
        assert hi - lo == pytest.approx(1.0, abs=1e-12)

    def test_hamming_equals_distance_over_n(self):
        from dpsynth.core import hamming_distance

        u = DataUniverse(2)
        z = db(2, [1, 2, 0])
        q = make_hamming_query(z)
        for x in enumerate_databases(u, 3):
            assert q.evaluate(x) == pytest.approx(hamming_distance(x, z) / 3, abs=1e-12)

    def test_hamming_extremes(self):
        z = db(1, [0, 0, 0])
        q = make_hamming_query(z)
        assert q.evaluate(db(1, [1, 1, 1])) == pytest.approx(1.0)
        assert q.evaluate(db(1, [1, 1, 0])) == pytest.approx(2.0 / 3.0)


class TestCentering:
    @pytest.mark.parametrize("l", range(1, 11))
    def test_predicate_power_of_two(self, l):
        for k in range(1, l + 1):
            q = make_predicate_query(DataUniverse(l), 5, list(range(k)))
            assert centering_constant(q) == pytest.approx(2.0 ** (l - k), abs=1e-12)

    def test_hamming_centering(self):
        q = make_hamming_query(db(3, [0, 5]))
        assert centering_constant(q) == pytest.approx(2**3 - 1)

    def test_single_indicator(self):
        q = StatisticalQuery(DataUniverse(1), np.array([[0.0, 1.0]]), np.array([0]))
        assert centering_constant(q) == pytest.approx(1.0)


class TestPredicate:
    def test_table_example(self):
        q = make_predicate_query(DataUniverse(2), 4, [0, 1])
        assert np.array_equal(q.tables[0], [0.0, 0.0, 0.0, 1.0])
        assert q.heterogeneity == 1
        assert (q.a, q.b, q.c) == (0.0, 1.0, 1.0)

    def test_empty_conjuncts_rejected(self):
        with pytest.raises(ValidationError):
            make_predicate_query(DataUniverse(2), 4, [])
        with pytest.raises(ValidationError):
            make_predicate_query(DataUniverse(2), 4, [5])


class TestRandomQueries:
    def test_heterogeneity_one_is_linear(self):
        q = generate_random_query(DataUniverse(2), 8, 1, RandomSource(0))
        assert q.heterogeneity == 1

    def test_tables_normalized(self):
        q = generate_random_query(DataUniverse(3), 8, 4, RandomSource(1))
        spreads = q.tables.max(axis=1) - q.tables.min(axis=1)
        assert np.abs(spreads - 1.0).max() < 1e-12

    def test_full_heterogeneity(self):
        q = generate_random_query(DataUniverse(1), 6, 6, RandomSource(2))
        assert q.heterogeneity == 6

    def test_non_divisible_rejected(self):
        with pytest.raises(ValidationError):
            generate_random_query(DataUniverse(1), 6, 4, RandomSource(3))
        with pytest.raises(ValidationError):
            generate_random_query(DataUniverse(1), 6, 7, RandomSource(3))


class TestBatchedQuery:
    """A (Q, k, 2**l) batch behaves as Q queries sharing one assignment."""

    @staticmethod
    def single(qs, i):
        return StatisticalQuery(qs.universe, qs.tables[i], qs.assignment)

    def test_answers_match_single_queries(self):
        universe = DataUniverse(2)
        qs = generate_random_query(universe, 12, 3, RandomSource(3), count=4)
        x = Database(universe, RandomSource(4).generator().integers(0, 4, size=12))
        batch = qs.answers(qs.histogram(x.rows))
        assert batch.shape == (4,)
        for qi in range(4):
            assert batch[qi] == pytest.approx(self.single(qs, qi).evaluate(x), abs=1e-12)
        rows = RandomSource(5).generator().integers(0, 4, size=(7, 12))
        assert qs.evaluate_rows(rows).shape == (7, 4)
        for qi in range(4):
            single = self.single(qs, qi).evaluate_rows(rows)
            assert np.allclose(qs.evaluate_rows(rows)[:, qi], single, rtol=0, atol=1e-12)

    def test_estimates_match_estimator_module(self):
        universe = DataUniverse(1)
        qs = generate_random_query(universe, 8, 2, RandomSource(9), count=3)
        params = MechanismParams(1.0, universe)
        y = Database(universe, RandomSource(10).generator().integers(0, 2, size=8))
        batch = estimate_unbiased(qs, y, params)
        for qi in range(3):
            single = estimate_unbiased(self.single(qs, qi), y, params)
            assert batch[qi] == pytest.approx(single, abs=1e-12)

    def test_proper_estimates_clamped(self):
        universe = DataUniverse(1)
        qs = generate_random_query(universe, 4, 1, RandomSource(11), count=5)
        params = MechanismParams(0.25, universe)
        y = Database(universe, np.array([1, 1, 1, 1]))
        est = _estimates(qs, qs.evaluate(y), params, "proper")
        lo, hi = qs.value_range()
        assert lo.shape == hi.shape == (5,)
        assert (est <= hi + 1e-12).all() and (est >= lo - 1e-12).all()

    def test_duplicate_queries_do_not_change_worst(self):
        universe = DataUniverse(1)
        qs = generate_random_query(universe, 16, 1, RandomSource(1), count=3)
        x = Database(universe, RandomSource(2).generator().integers(0, 2, size=16))
        y = Database(universe, RandomSource(6).generator().integers(0, 2, size=16))
        errs = np.abs(estimate_unbiased(qs, y, MechanismParams(1.0, universe)) - qs.evaluate(x))
        assert np.max(np.concatenate([errs, errs])) == np.max(errs)

    def test_count_one_draws_single_query_tables(self):
        universe = DataUniverse(3)
        single = generate_random_query(universe, 8, 4, RandomSource(12))
        batch = generate_random_query(universe, 8, 4, RandomSource(12), count=1)
        assert batch.tables.shape == (1,) + single.tables.shape
        assert np.array_equal(batch.tables[0], single.tables)
        assert np.array_equal(batch.assignment, single.assignment)

    def test_single_query_functions_reject_a_batch(self):
        universe = DataUniverse(1)
        qs = generate_random_query(universe, 2, 1, RandomSource(15), count=2)
        x, params = db(1, [0, 1]), MechanismParams(1.0, universe)
        with pytest.raises(ValidationError, match="batch"):
            achievable_values(qs)
        with pytest.raises(ValidationError, match="batch"):
            exact_distortion(qs, x, params)
        with pytest.raises(ValidationError, match="batch"):
            measure_distortion(qs, x, params, rng=RandomSource(16))

    def test_class_constants_span_the_batch(self):
        tables = np.array([[[0.0, 1.0], [0.0, 2.0]], [[-1.0, 0.0], [0.0, 0.5]]])
        qs = StatisticalQuery(DataUniverse(1), tables, np.array([0, 1, 1]))
        assert (qs.a, qs.b, qs.c) == (-1.0, 2.0, 0.5)
        assert np.allclose(qs.c_sum, [5.0, 2.0])
        assert qs.heterogeneity == 2

    def test_dedup_needs_equal_tables_in_every_query(self):
        # tables 0 and 1 agree in the first query only, so they stay distinct
        tables = np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        qs = StatisticalQuery(DataUniverse(1), tables, np.array([0, 1]))
        assert qs.heterogeneity == 2
        x = db(1, [1, 1])
        assert np.allclose(qs.evaluate(x), [1.0, 0.5])
        merged = StatisticalQuery(DataUniverse(1), tables[:1], np.array([0, 1]))
        assert merged.heterogeneity == 1

    def test_histogram_counts_per_table_and_code(self):
        q = StatisticalQuery(
            DataUniverse(1), np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([0, 0, 1])
        )
        assert q.histogram(np.array([1, 0, 1])).tolist() == [[1, 1], [0, 1]]
        hist = q.histogram(np.array([[1, 0, 1], [0, 0, 0]]))
        assert hist.tolist() == [[[1, 1], [0, 1]], [[2, 0], [1, 0]]]
        for bad in ([[1, 0, 2]], [[1, -1, 0]]):
            with pytest.raises(ValidationError):
                q.evaluate_rows(np.array(bad))

    def test_evaluate_rows_chunks_wide_domains(self, monkeypatch):
        import dpsynth.queries as queries_mod

        q = generate_random_query(DataUniverse(3), 4, 2, RandomSource(13))
        rows = RandomSource(14).generator().integers(0, 8, size=(9, 4))
        whole = q.evaluate_rows(rows)
        monkeypatch.setattr(queries_mod, "_HIST_BINS", 16)  # one row per histogram
        assert np.array_equal(q.evaluate_rows(rows), whole)


class TestConstruction:
    def test_constant_table_rejected(self):
        with pytest.raises(ValidationError):
            StatisticalQuery(DataUniverse(1), np.array([[0.5, 0.5]]), np.array([0, 0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            StatisticalQuery(DataUniverse(1), np.array([[0.0, np.inf]]), np.array([0]))

    def test_dedup_transparency(self):
        # materialized duplicate tables evaluate identically to the deduped form
        table = np.array([0.1, 0.9, 0.4, 0.2])
        dup = StatisticalQuery(
            DataUniverse(2), np.stack([table, table, table]), np.array([0, 1, 2, 0])
        )
        dedup = StatisticalQuery(DataUniverse(2), table[None, :], np.array([0, 0, 0, 0]))
        assert dup.heterogeneity == 1
        x = db(2, [3, 0, 1, 2])
        assert dup.evaluate(x) == pytest.approx(dedup.evaluate(x), abs=1e-14)
        assert dup.centering == pytest.approx(dedup.centering, abs=1e-14)

    def test_class_constants(self):
        q = StatisticalQuery(
            DataUniverse(1), np.array([[0.0, 1.0], [-1.0, 3.0]]), np.array([0, 1, 1])
        )
        assert q.a == -1.0
        assert q.b == 3.0
        assert q.c == 1.0
        assert q.c_sum == pytest.approx(1.0 + 4.0 + 4.0)


class TestSerialization:
    def test_round_trip_tables(self):
        q = generate_random_query(DataUniverse(2), 4, 2, RandomSource(6))
        q2 = query_from_dict(query_to_dict(q))
        x = db(2, [0, 3, 2, 1])
        assert q2.evaluate(x) == pytest.approx(q.evaluate(x), abs=1e-14)

    def test_predicate_spec(self):
        q = query_from_dict({"type": "predicate", "l": 2, "n": 4, "conjunct_bits": [0, 1]})
        assert q.evaluate(db(2, [3, 3, 0, 1])) == pytest.approx(0.5)

    def test_hamming_spec(self):
        q = query_from_dict({"type": "hamming", "l": 1, "z": [0, 0, 0]})
        assert q.evaluate(db(1, [1, 0, 0])) == pytest.approx(1.0 / 3.0)

    def test_bad_specs(self):
        with pytest.raises(ValidationError):
            query_from_dict({"l": 1})
        with pytest.raises(ValidationError):
            query_from_dict({"type": "mystery", "l": 1})

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "predicate", "l": 2},
            {"type": "predicate", "n": 4, "conjunct_bits": [0]},
            {"type": "predicate", "l": 2.5, "n": 4, "conjunct_bits": [0]},
            {"type": "predicate", "l": 2, "n": "4", "conjunct_bits": [0]},
            {"type": "predicate", "l": 2, "n": 4, "conjunct_bits": [0.5]},
            {"type": "hamming", "l": 1},
            {"type": "hamming", "l": 1, "z": [[0, 1]]},
            {"type": "tables", "l": 1, "assignment": [0]},
            {"type": "tables", "l": 1, "tables": [0.0, 1.0], "assignment": [0]},
            {"type": "tables", "l": 1, "tables": [[[0.0, 1.0]]], "assignment": [0]},
            {"type": "tables", "l": 1, "tables": [["a", "b"]], "assignment": [0]},
            {"type": "tables", "l": 1, "tables": [[0.0, 1.0]], "assignment": [0.0]},
            [1, 2],
        ],
    )
    def test_malformed_specs_raise_validation_error(self, spec):
        with pytest.raises(ValidationError):
            query_from_dict(spec)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_query(path)
