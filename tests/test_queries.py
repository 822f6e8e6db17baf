import json
import math
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import core
from dpsynth.core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    RandomSource,
    ValidationError,
    _read_json,
    _read_json_int_arrays,
    enumerate_databases,
)
from dpsynth.continuous import LipschitzQuery, grid_query
from dpsynth.estimators import (
    _estimates,
    achievable_values,
    estimate_unbiased,
    exact_distortion,
    exact_unbiased_mse,
    measure_distortion,
)
from dpsynth.mechanism import MechanismParams, sample_synthetic
from dpsynth.queries import (
    _INT_ARRAY_FIELDS,
    StatisticalQuery,
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

    @pytest.mark.parametrize("heterogeneity", [1, 3])
    @pytest.mark.parametrize("shape", [(5,), (7,), (2, 5), (2, 7), (0, 5), ()])
    def test_wrong_length_rows_rejected(self, heterogeneity, shape):
        q = generate_random_query(DataUniverse(2), 6, heterogeneity, RandomSource(4))
        rows = np.ones(shape, dtype=np.int64)
        with pytest.raises(DimensionMismatchError, match="n=6"):
            q.histogram(rows)
        with pytest.raises(DimensionMismatchError, match="n=6"):
            q.evaluate_rows(rows)

    def test_uint64_rows_answered_as_int64(self):
        universe = DataUniverse(2)
        params = MechanismParams(1.0, universe)
        codes = [1, 2, 3, 0, 2, 3]
        x, x64 = (Database(universe, np.array(codes, dtype=dt)) for dt in (np.uint64, np.int64))
        queries = [make_predicate_query(universe, 6, [0]), make_hamming_query(db(2, [1, 0, 1, 0, 3, 3])),
                   generate_random_query(universe, 6, 2, RandomSource(7)),
                   generate_random_query(universe, 6, 3, RandomSource(8), count=4)]
        for q in queries:
            assert np.array_equal(q.evaluate(x), q.evaluate(x64))
            assert np.array_equal(estimate_unbiased(q, x, params), estimate_unbiased(q, x64, params))
            rows = np.array([codes, codes[::-1]], dtype=np.uint64)
            assert np.array_equal(q.evaluate_rows(rows), q.evaluate_rows(rows.astype(np.int64)))
        for q in queries[:3]:
            assert exact_distortion(q, x, params) == exact_distortion(q, x64, params)
        y, y64 = (sample_synthetic(d, params, RandomSource(9)) for d in (x, x64))
        assert np.array_equal(y.rows, y64.rows)


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

    @pytest.mark.parametrize("kind", ["predicate", "merged_1000", "multi_table", "batch_64", "grid"])
    def test_stored_value_range_is_the_tables_range(self, kind):
        # value_range() is computed once at build; it must be the bits of
        # tables.min(-1) @ counts / c_sum (and the max) for every kind of query
        u = DataUniverse(3)
        if kind == "predicate":
            q = make_predicate_query(u, 100, [0, 2])
        elif kind == "merged_1000":
            table = RandomSource(1).generator().random(8)
            q = StatisticalQuery(u, np.tile(table, (1000, 1)), np.arange(1000))
            assert q.heterogeneity == 1
        elif kind == "multi_table":
            q = generate_random_query(u, 64, 8, RandomSource(2))
            assert q.heterogeneity == 8
        elif kind == "batch_64":
            q = generate_random_query(u, 64, 4, RandomSource(3), count=64)
        else:
            q = grid_query(LipschitzQuery(lambda v: v * v, 2.0, 0.0, 1.0), 256, 3)
        lo, hi = q.value_range()
        expected_lo = q.tables.min(axis=-1) @ q._counts / q.c_sum
        expected_hi = q.tables.max(axis=-1) @ q._counts / q.c_sum
        if kind == "batch_64":
            assert lo.shape == hi.shape == (64,)
            assert np.array_equal(lo, expected_lo) and np.array_equal(hi, expected_hi)
        else:
            assert type(lo) is float and type(hi) is float
            assert lo == float(expected_lo) and hi == float(expected_hi)

    def test_batch_per_query_values_are_read_only(self):
        qs = generate_random_query(DataUniverse(2), 8, 2, RandomSource(4), count=5)
        lo, hi = qs.value_range()
        before = qs.value_range()[0].copy()
        for arr in (lo, hi, qs.c_sum, qs.centering):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert np.array_equal(qs.value_range()[0], before)

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
            assert q.centering == pytest.approx(2.0 ** (l - k), abs=1e-12)

    def test_hamming_centering(self):
        q = make_hamming_query(db(3, [0, 5]))
        assert q.centering == pytest.approx(2**3 - 1)

    def test_single_indicator(self):
        q = StatisticalQuery(DataUniverse(1), np.array([[0.0, 1.0]]), np.array([0]))
        assert q.centering == pytest.approx(1.0)


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

    @pytest.mark.parametrize(
        "n,match",
        [
            (0, "n must be >= 1, got 0$"),
            (-3, "n must be >= 1, got -3$"),
            (4.0, r"n must be an integer, got 4\.0$"),
            (True, "n must be an integer, got True$"),
            ("4", "n must be an integer, got '4'$"),
        ],
        ids=["0", "-3", "4.0", "True", "4"],
    )
    def test_row_count_must_be_a_positive_integer(self, n, match):
        with pytest.raises(ValidationError, match=match):
            make_predicate_query(DataUniverse(2), n, [0])


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

    def test_evaluate_rows_of_no_rows(self):
        universe = DataUniverse(2)
        empty = np.zeros((0, 6), dtype=np.int64)
        q = generate_random_query(universe, 6, 2, RandomSource(15))
        got = q.evaluate_rows(empty)
        assert got.shape == (0,) and got.dtype == np.float64
        qs = generate_random_query(universe, 6, 2, RandomSource(15), count=3)
        got = qs.evaluate_rows(empty)
        assert got.shape == (0, 3) and got.dtype == np.float64


def fsum_answers(q, hist):
    """``q.answers(hist)`` by exact summation: one fsum of the (table, code)
    products per histogram and query, divided by the query's c_sum."""
    size = q.heterogeneity * q.universe.cardinality
    flat_tables = q.tables.reshape(-1, size)
    c_sums = np.atleast_1d(q.c_sum)
    out = [
        [math.fsum((h * t).tolist()) / c for t, c in zip(flat_tables, c_sums)]
        for h in hist.reshape(-1, size)
    ]
    return np.array(out).reshape(hist.shape[:-2] + q.tables.shape[:-2])


class TestAnswers:
    """``answers`` contracts counts with tables in one matrix product; it
    must agree with exact summation to a few units in the last place."""

    @pytest.mark.parametrize("count", [None, 5], ids=["one-query", "batch"])
    @pytest.mark.parametrize("heterogeneity", [1, 4])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["k-2^l", "m-k-2^l", "m-m'-k-2^l"])
    def test_matches_fsum(self, count, heterogeneity, lead):
        q = generate_random_query(DataUniverse(3), 40, heterogeneity, RandomSource(16), count=count)
        hist = RandomSource(17).generator().integers(0, 10**6, size=lead + (heterogeneity, 8))
        got = q.answers(hist)
        expected = fsum_answers(q, hist)
        assert got.shape == expected.shape == lead + ((count,) if count else ())
        # every table value and count is nonnegative: no cancellation
        assert (np.abs(got - expected) <= 4 * np.spacing(expected)).all()

    def test_histograms_of_rows_match_fsum(self):
        qs = generate_random_query(DataUniverse(2), 12, 3, RandomSource(18), count=4)
        rows = RandomSource(19).generator().integers(0, 4, size=(2, 5, 12))
        hist = qs.histogram(rows)
        expected = fsum_answers(qs, hist)
        assert (np.abs(qs.answers(hist) - expected) <= 4 * np.spacing(expected)).all()
        assert np.array_equal(qs.evaluate_rows(rows[0]), qs.answers(hist[0]))

    @pytest.mark.parametrize("shape", [(2, 8), (1, 4), (5, 4, 2), (8,)])
    def test_other_histogram_shape_rejected(self, shape):
        q = generate_random_query(DataUniverse(2), 4, 2, RandomSource(20))
        with pytest.raises(DimensionMismatchError):
            q.answers(np.ones(shape, dtype=np.int64))


class TestOneTableQuery:
    """A query of one table (after merging) keeps no per-row array."""

    @staticmethod
    def retained(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            q = build()
            return q, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_predicate_retains_no_row_array(self):
        q, kept = self.retained(lambda: make_predicate_query(DataUniverse(3), 10**6, [0]))
        assert q.n == 10**6
        # n int64 offsets would be 7.6 MiB
        assert kept < 64 * 2**10

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_predicate_build_makes_no_row_array(self):
        q, peak = self.traced_peak(lambda: make_predicate_query(DataUniverse(3), 10**6, [0]))
        assert q.n == 10**6 and q.heterogeneity == 1
        # an n-length zero assignment would be 7.6 MiB
        assert peak < 64 * 2**10

    def test_one_table_answer_makes_no_row_array(self):
        # ``evaluate`` of a read-only Database, and the counting and
        # contraction of its read-only rows
        n = 10**6
        q = make_predicate_query(DataUniverse(3), n, [0, 2])
        x = Database(DataUniverse(3), RandomSource(21).generator().integers(0, 8, size=n))
        assert not x.rows.flags.writeable
        expected = np.count_nonzero((x.rows & 5) == 5) / n
        got, peak = self.traced_peak(lambda: q.evaluate(x))
        assert got == expected
        # one bincount of all the rows, which copies read-only input, or rows
        # + n offsets would be 7.6 MiB; a count block is 0.5 MiB
        assert peak < 2**20
        got, peak = self.traced_peak(lambda: q.answers(q.histogram(x.rows)))
        assert got == expected
        assert peak < 2**20
        # a later answer reads the Database's counts
        got, peak = self.traced_peak(lambda: q.evaluate(x))
        assert got == expected
        assert peak < 2**12

    def test_equal_tables_merge_to_one(self):
        n, h = 10**5, 1000
        tables = np.tile(RandomSource(22).generator().random(8), (h, 1))
        assignment = np.arange(n) % h
        q, kept = self.retained(lambda: StatisticalQuery(DataUniverse(3), tables, assignment))
        assert q.heterogeneity == 1
        assert kept < 64 * 2**10
        rows = RandomSource(23).generator().integers(0, 8, size=(4, n))
        hist = q.histogram(rows)
        expected = fsum_answers(q, hist)
        assert (np.abs(q.evaluate_rows(rows) - expected) <= 4 * np.spacing(expected)).all()

    def test_assignment_and_round_trip(self):
        q = make_predicate_query(DataUniverse(2), 5, [1])
        assignment = q.assignment
        assert assignment.dtype == np.int64 and assignment.tolist() == [0] * 5
        spec = query_to_dict(q)
        assert spec == {"type": "tables", "l": 2, "tables": [[0.0, 0.0, 1.0, 1.0]], "assignment": [0] * 5}
        again = query_from_dict(spec)
        assert query_to_dict(again) == spec
        x = db(2, [0, 2, 3, 1, 2])
        assert again.evaluate(x) == q.evaluate(x) == 0.6


class TestDatabaseCounts:
    """A Database keeps its per-code counts, and a one-table query reads
    them instead of counting the rows."""

    n = 3 * 2**16 + 5  # four count blocks, the last one partial

    @classmethod
    def queries(cls, l):
        universe = DataUniverse(l)
        n = cls.n
        gen = RandomSource(31).generator()
        return {
            "predicate": make_predicate_query(universe, n, [0, l - 1]),
            "tables-h1": StatisticalQuery(universe, gen.random((1, 2**l)), np.zeros(n, dtype=np.int64)),
            "equal-tables": StatisticalQuery(universe, np.tile(gen.random(2**l), (1000, 1)), np.arange(n) % 1000),
            "batch-64": generate_random_query(universe, n, 1, RandomSource(32), count=64),
            "grid": grid_query(LipschitzQuery(np.square, 2.0, 0.0, 1.0), n, l),
        }

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint64])
    def test_evaluate_equals_answers_of_rows(self, dtype):
        l = 3
        rows = RandomSource(33).generator().integers(0, 2**l, size=self.n).astype(dtype)
        x = Database(DataUniverse(l), rows)
        assert x.rows.dtype == dtype
        assert np.array_equal(x.code_counts, np.bincount(rows.astype(np.int64), minlength=2**l))
        for name, q in self.queries(l).items():
            assert q.heterogeneity == 1, name
            expected = np.asarray(q.answers(q.histogram(x.rows)))
            got = np.asarray(q.evaluate(x))
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name

    def test_counted_once_per_database(self, monkeypatch):
        calls = []
        count_codes = core._count_codes

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return count_codes(*args, **kwargs)

        monkeypatch.setattr(core, "_count_codes", counting)
        l, n = 4, 500
        universe = DataUniverse(l)
        params = MechanismParams(1.0, universe)
        bit_sets = [[0], [1], [2], [3], [0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]
        predicates = [make_predicate_query(universe, n, bits) for bits in bit_sets]
        tables = generate_random_query(universe, n, 1, RandomSource(34), count=3)
        qs = predicates + [tables]
        assert len(qs) == 10
        gen = RandomSource(35).generator()
        x = Database(universe, gen.integers(0, 2**l, size=n))
        for q in qs:
            q.evaluate(x)
            estimate_unbiased(q, x, params)
        for q in predicates:
            exact_unbiased_mse(q, x, params)
            measure_distortion(q, x, params, trials=3, rng=RandomSource(36))
        assert calls == [n]
        y = Database(universe, gen.integers(0, 2**l, size=n))
        for q in qs:
            q.evaluate(y)
        assert calls == [n, n]

    def test_multi_table_query_never_reads_the_counts(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a multi-table query read the Database's counts")

        universe = DataUniverse(3)
        z = Database(universe, np.arange(40) % 8)
        x = Database(universe, RandomSource(37).generator().integers(0, 8, size=40))
        params = MechanismParams(1.0, universe)
        monkeypatch.setattr(Database, "code_counts", property(refuse))
        for q in (make_hamming_query(z), generate_random_query(universe, 40, 4, RandomSource(38))):
            assert q.heterogeneity > 1
            assert q.evaluate(x) == q.answers(q.histogram(x.rows))
            exact_unbiased_mse(q, x, params)
            measure_distortion(q, x, params, trials=3, rng=RandomSource(39))
        assert x._code_counts is None

    def test_multi_table_database_skips_the_range_pass(self, monkeypatch):
        # a Database's codes were range-checked when it was made, so a
        # multi-table query counts them without ``histogram``
        universe = DataUniverse(3)
        n = self.n - 1  # four count blocks, and a multiple of 4
        x = Database(universe, RandomSource(40).generator().integers(0, 8, size=n))
        qs = [
            make_hamming_query(Database(universe, np.arange(n) % 8)),
            generate_random_query(universe, n, 4, RandomSource(41)),
            generate_random_query(universe, n, 4, RandomSource(42), count=5),
        ]
        expected = [np.asarray(q.answers(q.histogram(x.rows))) for q in qs]

        def refuse(self, rows):
            raise AssertionError("a Database's rows went through histogram")

        monkeypatch.setattr(StatisticalQuery, "histogram", refuse)
        for q, want in zip(qs, expected):
            assert q.heterogeneity > 1
            got = np.asarray(q.evaluate(x))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_counts_read_only_and_database_immutable(self):
        x = db(2, [0, 3, 3, 1])
        counts = x.code_counts
        assert counts.dtype == np.int64 and counts.tolist() == [1, 1, 0, 2]
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 5
        assert x.code_counts is counts
        for name in ("rows", "universe", "_code_counts", "code_counts"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        assert x.code_counts is counts


class TestTableCap:
    """A universe of more than MAX_TABLE_CODES codes is refused before any
    table over it is made; the cap is lowered here, so nothing large is ever
    allocated."""

    def test_cap_value(self):
        assert core.MAX_TABLE_CODES == 2**24
        assert core._table_codes(DataUniverse(24)) == 2**24
        for l in (25, 30):
            with pytest.raises(ValidationError, match="cap of 16777216"):
                core._table_codes(DataUniverse(l))

    @pytest.mark.parametrize(
        "build",
        [
            lambda u, lq: make_predicate_query(u, 10, [0]),
            # one distinct row: at the cap, each distinct row's table counts against it
            lambda u, lq: make_hamming_query(Database(u, [2**u.l - 1] * 3)),
            lambda u, lq: generate_random_query(u, 10, 2, RandomSource(40)),
            # a table of the at-cap width: the cap is checked before the shape
            lambda u, lq: StatisticalQuery(u, [np.arange(2.0**10)], [0, 0]),
            lambda u, lq: grid_query(lq, 10, u.l),
            lambda u, lq: Database(u, [0, 7]).code_counts,
        ],
        ids=["predicate", "hamming", "random", "tables", "grid", "database-counts"],
    )
    def test_refused_before_allocation(self, monkeypatch, build):
        monkeypatch.setattr(core, "MAX_TABLE_CODES", 2**10)
        lq = LipschitzQuery(lambda v: v, 1.0, 0.0, 1.0)
        universe = DataUniverse(20)  # a float64 table would be 8 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="above the cap of 1024"):
                build(universe, lq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        build(DataUniverse(10), lq)  # at the cap

    def test_hamming_tables_count_against_the_cap(self, monkeypatch):
        # one table per distinct reference row: 5 tables of 2**8 values exceed 2**10
        monkeypatch.setattr(core, "MAX_TABLE_CODES", 2**10)
        universe = DataUniverse(8)
        message = "^5 tables over l=8 attributes need 1280 values, above the cap of 1024$"
        with pytest.raises(ValidationError, match=message):
            make_hamming_query(Database(universe, [0, 1, 2, 3, 4, 4]))
        assert make_hamming_query(Database(universe, [0, 1, 2, 3, 3])).heterogeneity == 4  # at the cap


class TestConstruction:
    def test_constant_table_rejected(self):
        with pytest.raises(ValidationError):
            StatisticalQuery(DataUniverse(1), np.array([[0.5, 0.5]]), np.array([0, 0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            StatisticalQuery(DataUniverse(1), np.array([[0.0, np.inf]]), np.array([0]))

    @pytest.mark.parametrize(
        "tables,assignment",
        [
            ([[-1e308, 1e308]], [0, 0, 0, 0]),  # c_sum = inf
            ([[0.0, 1e308]], [0, 0]),  # c_sum = 2e308
            ([[1e308, 1.5e308]], [0]),  # the table's sum, hence centering
        ],
        ids=["spread", "rows", "centering"],
    )
    def test_overflowing_normalization_rejected(self, tables, assignment):
        # finite tables whose sums over the rows overflow: the estimate would be NaN
        spec = {"type": "tables", "l": 1, "tables": tables, "assignment": assignment}
        with pytest.raises(ValidationError, match="normalization overflows"):
            query_from_dict(spec)

    def test_overflowing_query_of_a_batch_rejected(self):
        tables = np.array([[[0.0, 1.0]], [[-1e308, 1e308]]])
        with pytest.raises(ValidationError, match="normalization overflows"):
            StatisticalQuery(DataUniverse(1), tables, np.array([0, 0]))
        assert StatisticalQuery(DataUniverse(1), tables[:1], np.array([0, 0])).c_sum.tolist() == [2.0]

    @pytest.mark.parametrize(
        "tables,assignment,match",
        [
            ([[0.0, 1.0]], [[0, 0]], "nonempty 1-d index vector"),
            ([[0.0, 1.0]], [], "nonempty 1-d index vector"),
            ([[0.0, 1.0]], [0.0, 0.0], "integer table indices"),
            ([[0.0, 1.0]], [True, False], "integer table indices"),
            ([[0.0, 1.0]], [0, 1], "indexes a missing table"),
            ([0.0, 1.0], [0], r"tables must have shape \(k, 2\) or \(Q, k, 2\)"),
            ([[0.0, 1.0, 2.0]], [0], r"tables must have shape \(k, 2\)"),
            (np.zeros((1, 1, 1, 2)), [0], r"tables must have shape \(k, 2\)"),
            (np.zeros((0, 2)), [0], r"tables must have shape \(k, 2\)"),
        ],
        ids=["assignment-2d", "assignment-empty", "assignment-float", "assignment-bool", "missing-table",
             "tables-1d", "tables-width", "tables-4d", "tables-empty"],
    )
    def test_malformed_arguments_rejected(self, tables, assignment, match):
        with pytest.raises(ValidationError, match=match):
            StatisticalQuery(DataUniverse(1), tables, assignment)

    def test_random_query_count_validated(self):
        with pytest.raises(ValidationError, match="count must be >= 1, got 0"):
            generate_random_query(DataUniverse(1), 4, 1, RandomSource(0), count=0)

    def test_immutable(self):
        q = make_predicate_query(DataUniverse(1), 4, [0])
        with pytest.raises(AttributeError, match="immutable"):
            q.label = "other"
        with pytest.raises(ValueError):
            q.tables[0, 0] = 1.0

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
            {"type": "predicate", "l": 2, "n": 4, "conjunct_bits": [0, True]},
            {"type": "tables", "l": 1, "tables": [[0.0, 1.0], [1.0, 0.0]], "assignment": [0, True]},
            {"type": "hamming", "l": 1, "z": [0, True]},
            {"type": "tables", "l": 1, "tables": [[0.0, True]], "assignment": [0]},
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


def _json_path(path):
    """The query that json's own parse of ``path`` gives, or its exception."""
    try:
        return query_from_dict(_read_json(path))
    except Exception as exc:
        return exc


def _load(path):
    try:
        return load_query(path)
    except Exception as exc:
        return exc


def _assert_same(got, expected, l):
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, StatisticalQuery), got
    assert got.label == expected.label
    assert np.array_equal(got.assignment, expected.assignment)
    assert np.array_equal(got.tables, expected.tables)
    x = Database(DataUniverse(l), np.random.default_rng(got.n).integers(0, 1 << l, size=got.n))
    assert got.evaluate(x) == expected.evaluate(x)


# JSON whitespace and commas between the elements of an integer array
_SEPARATORS = [",", ", ", " ,", " , ", ",\n", "\r\n,\t", ",\r\n  ", "\t,"]
# out of the scan's grammar; "1 2," leaves as many commas as a valid array
# needs; TRAILING adds a comma after the last element and UNTERMINATED drops
# the array's ']'
_BAD_ELEMENTS = ["-1", "1.0", "1e3", "01", "true", "", "1 2,", "1234567890123456789", "TRAILING", "UNTERMINATED"]


def _query_text(data, bad=None):
    """(JSON text of a random predicate, hamming or tables query, its l).
    ``bad`` replaces one element of its per-row array."""
    kind = data.draw(st.sampled_from(["tables", "hamming", "predicate"]))
    l = data.draw(st.integers(1, 2))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    n = rnd.choice([1, 2, 7, 40, 3000])
    newline = data.draw(st.sampled_from(["\n", "\r\n", " ", ""]))

    def int_array(values, bad=None):
        tokens = [str(v) for v in values]
        if bad not in (None, "TRAILING", "UNTERMINATED"):
            tokens[rnd.randrange(len(tokens))] = bad
        text = tokens[0] + "".join(rnd.choice(_SEPARATORS) + t for t in tokens[1:])
        pad = rnd.choice(["", " ", newline])
        return "[" + pad + text + ("," if bad == "TRAILING" else "") + pad + ("" if bad == "UNTERMINATED" else "]")

    tables_count = rnd.randint(1, 3)
    if kind == "tables":
        key, values = "assignment", [rnd.randrange(tables_count) for _ in range(n)]
        members = [("l", str(l)), ("tables", json.dumps([[0.0, 1.0 + j] + [0.5] * ((1 << l) - 2) for j in range(tables_count)]))]
    elif kind == "hamming":
        key, values = "z", [rnd.randrange(1 << l) for _ in range(n)]
        members = [("l", str(l))]
    else:
        key, values = "conjunct_bits", [rnd.randrange(l) for _ in range(n)]
        members = [("l", str(l)), ("n", str(rnd.randint(1, 5)))]
    members += [("type", f'"{kind}"'), (key, int_array(values, bad))]
    # strings that hold brackets or a member's name, and nested lists
    members += [("label", '"[1, 2]"'), ("note", f'"{key}"'), ("[1, 2] x", "[[1, 2], [3]]")]
    if data.draw(st.booleans()):  # an escaped quote, so no array is lifted
        members.append(("escaped", f'"\\"{key}\\": [9]"'))
    if data.draw(st.booleans()):  # json's other constants
        members.append(("constants", "[NaN, -Infinity]"))
    members = data.draw(st.permutations(members))
    if data.draw(st.booleans()):  # json keeps the last of two equal names
        members = [(key, int_array([0] * n))] + list(members)
    colon = data.draw(st.sampled_from([":", ": ", " :\t", ":" + newline]))
    text = "{" + newline + ("," + newline).join(f'"{name}"{colon}{value}' for name, value in members) + newline + "}"
    if data.draw(st.booleans()):
        text = "\ufeff" + text
    return text, l


class TestLoadQueryScan:
    """load_query reads long per-row integer arrays with the byte scan; every
    result and error must be the one json's own parse gives."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), lift_min=st.sampled_from([0, 64]), block_bytes=st.sampled_from([16, 1 << 15]))
    def test_valid_file_equals_json_path(self, data, lift_min, block_bytes):
        text, l = _query_text(data)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            core, "_LIFT_MIN_BYTES", lift_min
        ), mock.patch.object(core, "_SCAN_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "q.json")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            if lift_min == 0 and "\\" not in text and "NaN" not in text:  # the scan reads the arrays
                spec = _read_json_int_arrays(path, _INT_ARRAY_FIELDS)
                key = next(k for k in _INT_ARRAY_FIELDS if k in spec)
                assert isinstance(spec[key], np.ndarray) and spec[key].dtype == np.int64
            _assert_same(_load(path), _json_path(path), l)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        digits=st.integers(1, 3),
        separator=st.sampled_from(_SEPARATORS),
        block_bytes=st.sampled_from([16, 37, 1 << 15]),
    )
    def test_equal_width_array_equals_json_path(self, data, digits, separator, block_bytes):
        # the elements of an array of equal-width integers all have one
        # byte layout, so its blocks are read from their byte matrix
        # column by column; one element of two or more digits may be led
        # by '0', which json rejects
        rnd = random.Random(data.draw(st.integers(0, 2**32)))
        count = data.draw(st.sampled_from([1, 2, 40, 3000, 20000]))
        low = 10 ** (digits - 1) if digits > 1 else 0
        tokens = [str(rnd.randrange(low, 10**digits)) for _ in range(count)]
        lifted = not (digits > 1 and data.draw(st.booleans()))
        if not lifted:
            at = rnd.randrange(count)
            tokens[at] = "0" + tokens[at][1:]
        tables = [[0.0, 1.0 + j] for j in range(10**digits)]
        text = f'{{"type": "tables", "l": 1, "tables": {json.dumps(tables)}, "assignment": [{separator.join(tokens)}]}}'
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            core, "_LIFT_MIN_BYTES", 0
        ), mock.patch.object(core, "_SCAN_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "q.json")
            with open(path, "w") as fh:
                fh.write(text)
            if lifted:
                assert isinstance(_read_json_int_arrays(path, _INT_ARRAY_FIELDS)["assignment"], np.ndarray)
            _assert_same(_load(path), _json_path(path), 1)

    @pytest.mark.parametrize("bad", _BAD_ELEMENTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), lift_min=st.sampled_from([0, 64]))
    def test_out_of_grammar_file_equals_json_path(self, bad, data, lift_min):
        text, l = _query_text(data, bad)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "_LIFT_MIN_BYTES", lift_min):
            path = os.path.join(tmp, "q.json")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            expected = _json_path(path)
            _assert_same(_load(path), expected, l)
        if bad == "true":
            assert isinstance(expected, ValidationError) and "booleans" in str(expected)

    def test_syntax_error_after_long_array_keeps_json_message(self, tmp_path):
        path = tmp_path / "q.json"
        line = '"assignment": [' + ", ".join(["0"] * 10**5) + "] x"
        path.write_text('{"type": "tables", "l": 1, "tables": [[0.0, 1.0]],\n' + line + "}")
        with pytest.raises(ValidationError) as info:
            load_query(path)
        assert str(info.value) == str(_json_path(path))
        # the position is in the file's own text, not in the text json saw
        # with the array lifted out
        assert f"line 2 column {len(line)}" in str(info.value)

    def test_long_array_read_by_scan(self, tmp_path):
        path = tmp_path / "q.json"
        assignment = np.random.default_rng(3).integers(0, 1000, size=10**5)
        tables = np.random.default_rng(4).random((1000, 8))
        path.write_text(json.dumps({"type": "tables", "l": 3, "tables": tables.tolist(), "assignment": assignment.tolist()}))
        spec = _read_json_int_arrays(path, _INT_ARRAY_FIELDS)
        assert spec["assignment"].dtype == np.int64 and np.array_equal(spec["assignment"], assignment)
        _assert_same(load_query(path), _json_path(path), 3)

    def test_peak_memory_near_int64_array(self, tmp_path):
        # the json path's list of 10**6 Python ints alone is over 30 MB
        n = 10**6
        path = tmp_path / "q.json"
        tables = [[0.0, 1.0 + j / 1000] for j in range(1000)]
        assignment = ", ".join(map(str, np.repeat(np.arange(1000), n // 1000).tolist()))
        path.write_text(f'{{"type": "tables", "l": 1, "tables": {json.dumps(tables)}, "assignment": [{assignment}]}}')
        tracemalloc.start()
        try:
            q = load_query(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.n == n
        # about 2.9x: the file's bytes, a copy of the array's text, and the
        # int64 array, which the first block's prediction overshoots (the
        # first rows hold fewer digits) until its final trim
        assert peak <= 3.5 * n * 8
