import gzip
import os
import random
import re
import tempfile
import tracemalloc
import warnings
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
    EnumerationTooLargeError,
    RandomSource,
    ValidationError,
    _read_int_rows,
    all_databases_matrix,
    enumerate_databases,
    hamming_distance,
    is_neighbor,
)
from dpsynth.queries import StatisticalQuery, make_predicate_query


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


class TestDataUniverse:
    def test_cardinality(self):
        assert DataUniverse(1).cardinality == 2
        assert DataUniverse(10).cardinality == 1024
        assert DataUniverse(30).cardinality == 2**30

    @pytest.mark.parametrize("l", [0, -1, 31, 64, True])
    def test_dimension_limits(self, l):
        with pytest.raises(ValidationError):
            DataUniverse(l)

    @pytest.mark.parametrize("l", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_is_a_python_int(self, l):
        u = DataUniverse(l)
        assert u == DataUniverse(3) and hash(u) == hash(DataUniverse(3))
        assert type(u.l) is int and type(u.cardinality) is int and u.cardinality == 8


class TestDatabase:
    def test_rows_validated(self):
        with pytest.raises(ValidationError):
            db(1, [0, 2])
        with pytest.raises(ValidationError):
            db(2, [-1])
        with pytest.raises(ValidationError):
            db(1, [])
        with pytest.raises(ValidationError):
            Database(DataUniverse(1), np.array([0.5]))

    def test_immutable(self):
        x = db(2, [0, 3])
        with pytest.raises(ValueError):
            x.rows[0] = 1
        with pytest.raises(AttributeError):
            x.universe = DataUniverse(1)

    def test_caller_array_copied(self):
        arr = np.array([0, 1, 2])
        x = Database(DataUniverse(2), arr)
        arr[0] = 3
        assert list(x.rows) == [0, 1, 2]
        assert arr.flags.writeable

    def test_adopted_rows_validated_and_read_only(self):
        arr = np.array([0, 3])
        x = Database._adopt(DataUniverse(2), arr)
        assert x.rows is arr and not arr.flags.writeable
        with pytest.raises(ValidationError):
            Database._adopt(DataUniverse(1), np.array([0, 2]))

    @pytest.mark.parametrize("l", [1, 3, 7, 8, 30])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_one_pass_range_check_every_integer_dtype(self, dtype, l):
        # the range check is one bitwise OR shifted by l: it must accept
        # exactly the codes in [0, 2**l) of every integer dtype, and still
        # name the range it found; raw rows given to a query meet the same
        # check
        info = np.iinfo(dtype)
        universe = DataUniverse(l)
        for code in (0, (1 << l) - 1, 1 << l, -1, info.min, info.max):
            if not info.min <= code <= info.max:
                continue
            rows = np.array([0, code, 0], dtype=dtype)
            if 0 <= code < 1 << l:
                x = Database(universe, rows)
                assert x.rows.tolist() == [0, code, 0]
                for of_database, call, r in _raw_row_paths(universe, rows):
                    want = of_database(x)
                    assert np.array_equal(call(r), want if r.ndim == 1 else [want, want])
                continue
            lo, hi = min(0, code), max(0, code)
            with pytest.raises(ValidationError, match=re.escape(f"found range [{lo}, {hi}]")) as expected:
                Database(universe, rows)
            for _, call, r in _raw_row_paths(universe, rows):
                _assert_raises_like(expected.value, call, r)

    @pytest.mark.parametrize("rows", [np.array([0, 1, 1], dtype=bool), np.array([0.0, 1.0, 1.0]),
                                      np.array([0, 1, 1], dtype=np.float32)])
    def test_bool_and_float_rows_rejected(self, rows):
        # a query given raw rows refuses them as a Database does: bool rows
        # are not codes 0 and 1
        with pytest.raises(ValidationError, match="must be integers") as expected:
            Database(DataUniverse(1), rows)
        for _, call, r in _raw_row_paths(DataUniverse(1), rows):
            _assert_raises_like(expected.value, call, r)

    def test_equality(self):
        assert db(2, [1, 2]) == db(2, [1, 2])
        assert db(2, [1, 2]) != db(2, [2, 1])
        assert db(1, [0, 1]) != db(2, [0, 1])
        # another type is not equal, not compared by its rows
        assert db(1, [0, 1]) != [0, 1]
        assert db(1, [0, 1]).__eq__(np.array([0, 1])) is NotImplemented

    def test_repr(self):
        assert repr(db(2, [1, 2])) == "Database(l=2, n=2, rows=[1,2])"
        assert repr(db(1, [0, 1] * 5)) == "Database(l=1, n=10, rows=[0,1,0,1,0,1,0,1], ...)"


def _raw_row_paths(universe, rows):
    """(of_database, call, rows) for each query path that takes raw rows:
    the ``histogram`` and ``evaluate_rows`` of a predicate query and of a
    3-table query, given ``rows`` (3,) and the (2, 3) stack of two copies;
    ``of_database`` is the same path's answer for a Database. No path where
    a table over ``universe`` is above the table cap."""
    if universe.cardinality > core.MAX_TABLE_CODES:
        return []
    codes = np.arange(universe.cardinality, dtype=np.float64)
    queries = [make_predicate_query(universe, 3, [0]),
               StatisticalQuery(universe, np.stack([codes, 2 * codes, 3 * codes]), [0, 1, 2])]
    assert queries[1].heterogeneity == 3
    return [(of_database, call, r) for q in queries
            for of_database, call in ((q.database_histogram, q.histogram), (q.evaluate, q.evaluate_rows))
            for r in (rows, np.stack([rows, rows]))]


def _assert_raises_like(expected, call, rows):
    with pytest.raises(ValidationError) as got:
        call(rows)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


class TestHammingDistance:
    def test_identity_is_zero(self):
        for rows in ([0], [1, 0, 1], [3, 2, 1, 0]):
            l = 2 if max(rows) > 1 else 1
            assert hamming_distance(db(l, rows), db(l, rows)) == 0

    def test_direct_count(self):
        assert hamming_distance(db(1, [0, 0, 0]), db(1, [1, 1, 0])) == 2

    def test_rows_compared_as_whole_values(self):
        # (3, 0) vs (0, 0): the first rows differ in two bits but count once
        assert hamming_distance(db(2, [3, 0]), db(2, [0, 0])) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(db(1, [0, 1]), db(1, [0, 1, 0]))
        with pytest.raises(DimensionMismatchError):
            hamming_distance(db(1, [0, 1]), db(2, [0, 1]))

    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, l, n, data):
        card = 2**l
        draw = lambda: db(l, data.draw(st.lists(st.integers(0, card - 1), min_size=n, max_size=n)))
        x, y, z = draw(), draw(), draw()
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)
        assert (hamming_distance(x, y) == 0) == (x == y)


class TestNeighbors:
    def test_trivial_cases(self):
        x = db(1, [0, 0, 0])
        assert not is_neighbor(x, x)
        assert is_neighbor(x, db(1, [1, 0, 0]))
        assert not is_neighbor(x, db(1, [1, 1, 0]))

    @given(st.integers(1, 2), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_irreflexive(self, l, n, data):
        card = 2**l
        rows = st.lists(st.integers(0, card - 1), min_size=n, max_size=n)
        x, y = db(l, data.draw(rows)), db(l, data.draw(rows))
        assert is_neighbor(x, y) == is_neighbor(y, x)
        assert not is_neighbor(x, x)


def _log_pmf_outputs(u, n):
    from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs

    return log_pmf_all_outputs(Database(u, np.zeros(n, dtype=np.int64)), MechanismParams(1.0, u)).size


# the number of databases each public enumerator walks
ENUMERATION_COUNTS = {
    "enumeration_size": core.enumeration_size,
    "all_databases_matrix": lambda u, n: all_databases_matrix(u, n).shape[0],
    "enumerate_databases": lambda u, n: sum(1 for _ in enumerate_databases(u, n)),
    "log_pmf_all_outputs": _log_pmf_outputs,
}


class TestEnumeration:
    @pytest.mark.parametrize(
        "l,n,expected", [(1, 2, 4), (2, 1, 4), (2, 3, 64), (1, 1, 2), (3, 2, 64)]
    )
    def test_counts_and_distinctness(self, l, n, expected):
        seen = {tuple(d.rows) for d in enumerate_databases(DataUniverse(l), n)}
        assert len(seen) == expected

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            list(enumerate_databases(DataUniverse(5), 5))

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_must_be_positive(self, n):
        with pytest.raises(ValidationError, match=f"database size must be >= 1, got {n}$"):
            core.enumeration_size(DataUniverse(1), n)

    @pytest.mark.parametrize("count", ENUMERATION_COUNTS.values(), ids=ENUMERATION_COUNTS.keys())
    @pytest.mark.parametrize("l,n", [(1, 12), (3, 4), (12, 1)])
    def test_every_enumerator_reaches_twelve_bits(self, count, l, n):
        assert count(DataUniverse(l), n) == 1 << 12

    @pytest.mark.parametrize("count", ENUMERATION_COUNTS.values(), ids=ENUMERATION_COUNTS.keys())
    @pytest.mark.parametrize("l,n", [(1, 13), (13, 1)])
    def test_every_enumerator_refuses_thirteen_bits(self, count, l, n):
        with pytest.raises(EnumerationTooLargeError, match=r"2\^13 databases exceeds the 2\^12 cap"):
            count(DataUniverse(l), n)

    @pytest.mark.parametrize(
        "call,bad",
        [
            (lambda: DataUniverse(True), "True"),
            (lambda: DataUniverse(2.0), "2.0"),
            (lambda: DataUniverse("3"), "'3'"),
            (lambda: DataUniverse(np.True_), "np.True_"),
            (lambda: all_databases_matrix(DataUniverse(1), True), "True"),
            (lambda: list(enumerate_databases(DataUniverse(1), 1.5)), "1.5"),
            (lambda: _verify(1, True), "True"),
            (lambda: _verify(1, 2.0), "2.0"),
            (lambda: _verify(1, "2"), "'2'"),
        ],
        ids=["universe-bool", "universe-float", "universe-str", "universe-numpy-bool", "matrix-bool",
             "enumerate-float", "verify-bool", "verify-float", "verify-str"],
    )
    def test_sizes_must_be_integers(self, call, bad):
        for size in (1, 2):  # cache the sizes that equal True and 2.0
            _verify(1, size)
        with pytest.raises(ValidationError, match=f"must be an integer, got {bad}$"):
            call()

    def test_matrix_matches_generator(self):
        u = DataUniverse(2)
        mat = all_databases_matrix(u, 2)
        gen = [tuple(d.rows) for d in enumerate_databases(u, 2)]
        assert [tuple(r) for r in mat] == gen


def _verify(l, n):
    from dpsynth.mechanism import MechanismParams, verify_dp

    u = DataUniverse(l)
    return verify_dp(u, n, MechanismParams(1.0, u))


class TestRandomSource:
    def test_replay_is_bit_identical(self):
        a = RandomSource(123, 5).generator().random(100)
        b = RandomSource(123, 5).generator().random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(123, 0).generator().random(100)
        b = RandomSource(123, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_derive_is_stable_and_distinct(self):
        base = RandomSource(7)
        assert np.array_equal(
            base.derive(1, 2).generator().random(10), base.derive(1, 2).generator().random(10)
        )
        assert not np.array_equal(
            base.derive(1).generator().random(10), base.derive(2).generator().random(10)
        )

    def test_stream_is_pcg64(self):
        # every pinned release hash, and splitting a release's stream with
        # PCG64.advance, depend on the generator staying PCG64
        for source in (RandomSource(0), RandomSource(123, 5), RandomSource(7).derive(1, 2)):
            assert isinstance(source.generator().bit_generator, np.random.PCG64)


def reference_int_rows(path, width, minimum):
    """The strict per-line loop of the code-file grammar: the (m, width)
    rows, or the number of the first bad line. Lines end in '\n', and a '\r'
    is stripped only before one. A line is ASCII and holds no other '\r';
    its text before a '#' is empty or ``width`` tokens separated by ' ' and
    '\t', each a run of 1 to 18 ASCII digits whose value is >= ``minimum``."""
    rows = []
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(b"\xef\xbb\xbf").split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        if lineno < len(lines):
            line = line.removesuffix(b"\r")
        if not line.isascii() or b"\r" in line:
            return lineno
        text = line.split(b"#", 1)[0].strip(b" \t")
        if not text:
            continue
        parts = re.split(rb"[ \t]+", text)
        if len(parts) != width or not all(re.fullmatch(rb"[0-9]{1,18}", p) for p in parts):
            return lineno
        row = [int(p) for p in parts]
        if min(row) < minimum:
            return lineno
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def read_or_line(path, width, minimum):
    """_read_int_rows' rows, or the line number its error names."""
    try:
        return _read_int_rows(path, width, minimum)
    except ValidationError as exc:
        prefix = f"{path}:"
        assert str(exc).startswith(prefix), str(exc)
        return int(str(exc)[len(prefix):].split(":", 1)[0])


# tokens that int() reads and that it rejects; of the first list the strict
# grammar keeps only the plain digit runs, of the gaps ' ' and '\t', and of
# the line ends '\n' and '\r\n'
_GOOD_TOKENS = ["0", "7", "42", "-3", "+5", "-0", "007", "1_0", "\u0663", "-9223372036854775808"]
_BAD_TOKENS = ["x", "1.5", "0x1", "_1", "1__0", "12345678901234567890", "9223372036854775808"]
_GAPS = [" ", "\t", "  ", "\f", "\u2028", "\x0b"]
_ENDINGS = ["\n", "\r\n", "\r"]


def _random_line(rnd, width):
    kind = rnd.random()
    if kind < 0.1:
        return rnd.choice(["", "   ", "\t", "\f", "\u2028"])
    if kind < 0.2:
        return rnd.choice(["# only a comment", "#", "  # indented 1 2"])
    count = width if rnd.random() < 0.85 else rnd.choice([width - 1, width + 1])
    good = rnd.random() < 0.97
    tokens = [rnd.choice(_GOOD_TOKENS if good else _GOOD_TOKENS + _BAD_TOKENS) for _ in range(count)]
    text = "".join(rnd.choice(_GAPS) + t for t in tokens)
    if rnd.random() < 0.3:
        text = rnd.choice(["", " ", "\f"]) + text
    if rnd.random() < 0.2:
        text += rnd.choice([" # note", "#1 2 3", "\t#"])
    return text


# the scan's alphabet, and one that adds what lies just outside it
_DIGITS = st.text("0123456789", min_size=1, max_size=19)
_SPACE = st.text(" \t", min_size=1, max_size=2)
_ASCII = st.text(st.characters(max_codepoint=127, blacklist_characters="\r\n"), max_size=6)
_ODD = "+_\u0663\r\f\x0b\u2028"
_ALPHABETS = {
    False: (_DIGITS, _SPACE, _ASCII, ["\n", "\r\n"]),
    True: (
        st.one_of(_DIGITS, st.text("0123456789" + _ODD, min_size=1, max_size=3)),
        st.one_of(_SPACE, st.sampled_from(_ODD)),
        st.one_of(_ASCII, st.text(st.characters(codec="utf-8", blacklist_characters="\n"), max_size=6)),
        ["\n", "\r\n", "\r"],
    ),
}
_CORPUS_BOUNDS = [(1, -(2**63)), (2, -(2**63)), (1, 0), (2, 1)]


class TestReadIntRows:
    @pytest.mark.parametrize(
        "width,minimum,block_bytes",
        [pytest.param(w, m, None, id=f"{w}-{m}") for w, m in _CORPUS_BOUNDS]
        + [pytest.param(w, m, 16, id=f"{w}-{m}-16-byte-blocks") for w, m in _CORPUS_BOUNDS],
    )
    def test_matches_line_loop_on_random_corpus(self, tmp_path, monkeypatch, width, minimum, block_bytes):
        # 16-byte blocks cut almost every line, token and comment of the corpus
        if block_bytes is not None:
            monkeypatch.setattr(core, "_SCAN_BLOCK_BYTES", block_bytes)
        rnd = random.Random(2014 + width)
        outcomes = {"rows": 0, "error": 0}
        for k in range(400):
            lines = [_random_line(rnd, width) for _ in range(rnd.randint(0, 8))]
            body = "".join(line + rnd.choice(_ENDINGS) for line in lines)
            if lines and rnd.random() < 0.3:
                body = body.rstrip("\r\n")  # no trailing newline
            path = tmp_path / f"f{k}.txt"
            path.write_bytes(body.encode("utf-8"))
            expected = reference_int_rows(path, width, minimum)
            got = read_or_line(path, width, minimum)
            if isinstance(expected, int):
                outcomes["error"] += 1
                assert got == expected, repr(body)
            else:
                outcomes["rows"] += 1
                assert isinstance(got, np.ndarray), repr(body)
                assert got.dtype == np.int64 and got.shape == expected.shape, repr(body)
                assert np.array_equal(got, expected), repr(body)
        assert min(outcomes.values()) >= 50, outcomes

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize(
        "body",
        [
            "1\x002\n", "\x00\n", "\ufeff1 2\n", "\ufeff\n", "1\x1c2\n", "1\x852\n", "1\u20282\n",
            "\uff11 \uff12\n", "1,2\n", '"1" "2"\n', "'1'\n", "+ 1\n", "- 1 2\n", "1 2.0\n", "1e3 2\n",
            "0x1 2\n", "nan 1\n", "-0 +0\n", "1_0 2\n", "\u0663 \u0664\n", "9223372036854775808 1\n",
        ],
    )
    def test_odd_bodies_match_line_loop(self, tmp_path, body, width):
        # The scan must never accept a token or a line break that the strict
        # per-line loop rejects, nor reject what it accepts.
        path = tmp_path / "f.txt"
        path.write_bytes(("0 " * width + "\n" + body + "1 " * width + "\n").encode("utf-8"))
        expected = reference_int_rows(path, width, -(2**63))
        got = read_or_line(path, width, -(2**63))
        if isinstance(expected, int):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)

    @pytest.mark.parametrize("body", ["", "# only\n\n"])
    def test_no_rows_warns_nothing(self, tmp_path, body):
        # a warning here would reach the CLI's stderr
        path = tmp_path / "f.txt"
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_int_rows(path, 2, 0).shape == (0, 2)

    @pytest.mark.parametrize("name", ["codes.gz", "codes.bz2", "codes.xz", "codes.lzma"])
    def test_compressor_suffix_is_plain_text(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("3\n# c\n4\n")
        assert _read_int_rows(path, 1, 0).tolist() == [[3], [4]]

    def test_missing_file_not_replaced_by_compressed_sibling(self, tmp_path):
        with gzip.open(tmp_path / "codes.txt.gz", "wt") as fh:
            fh.write("1\n")
        with pytest.raises(FileNotFoundError):
            _read_int_rows(tmp_path / "codes.txt", 1, 0)

    def test_peak_memory_near_output(self, tmp_path):
        path = tmp_path / "edges.txt"
        pairs = np.random.default_rng(5).integers(0, 3000, size=(10**5, 2))
        path.write_text("".join(f"{i} {j}\n" for i, j in pairs.tolist()))
        tracemalloc.start()
        try:
            rows = _read_int_rows(path, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, pairs)
        assert peak <= 3 * rows.nbytes

    @pytest.mark.parametrize(
        "body,width,expected",
        [
            ("# head\n\n 3 # three\n\t4\n", 1, [[3], [4]]),
            ("1\r\n\r\n2\r\n", 1, [[1], [2]]),
            ("\t5 \t\n6", 1, [[5], [6]]),
            ("0" * 17 + "1\n" + "9" * 18 + "\n", 1, [[1], [10**18 - 1]]),
            ("0 1\n2\t3 # c\n", 2, [[0, 1], [2, 3]]),
            ("", 2, np.zeros((0, 2), dtype=np.int64)),
            ("# only\n\n", 1, np.zeros((0, 1), dtype=np.int64)),
            ("\ufeff3\n# c\n4", 1, [[3], [4]]),
            ("\ufeff", 1, np.zeros((0, 1), dtype=np.int64)),
            ("0 1\r\n2\t3 # c", 2, [[0, 1], [2, 3]]),
        ],
    )
    def test_rows(self, tmp_path, body, width, expected):
        path = tmp_path / "f.txt"
        path.write_bytes(body.encode("utf-8"))
        got = _read_int_rows(path, width, -(2**63))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.asarray(expected, dtype=np.int64).reshape(-1, width))

    @pytest.mark.parametrize(
        "body,width,line,quoted",
        [
            ("1\n1 2\n", 1, 2, "1 2"),
            ("1\n\n# c\nx # y\n", 1, 4, "x"),
            ("1\u20282\n", 1, 1, "1\u20282"),
            ("3\n12345678901234567890\n", 1, 2, "12345678901234567890"),
            ("3\n-1 # below the minimum\n", 1, 2, "-1"),
            ("0 1\n2\n", 2, 2, "2"),
            ("0 1 2\n", 2, 1, "0 1 2"),
            ("0 1 2\n3\n", 2, 1, "0 1 2"),
            ("0 1\r\n1 1.5\r\n", 2, 2, "1 1.5"),
            ("1_0\n-2\n+3\n\u0663\n", 1, 1, "1_0"),
            ("7\n-2\n", 1, 2, "-2"),
            ("7\n+3\n", 1, 2, "+3"),
            ("7\n\u0663\n", 1, 2, "\u0663"),
            ("\f5\n6", 1, 1, "\f5"),
            ("5\x0b\n", 1, 1, "5\x0b"),
            ("1\n" + "0" * 30 + "42\n8", 1, 2, "0" * 30 + "42"),
            ("0" * 24 + "3\n", 1, 1, "0" * 24 + "3"),
            ("1\r2\r3\r", 1, 1, "1\r2\r3\r"),
            ("1\n2\r", 1, 2, "2\r"),
            ("1\n2 # \u00e9t\u00e9\n", 1, 2, "\u00e9t\u00e9"),
            ("1\n2 # a\rb\n", 1, 2, "a\rb"),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, body, width, line, quoted):
        # the message quotes the whole bad line, comment included, without
        # its '\n' or '\r\n' end
        path = tmp_path / "f.txt"
        path.write_bytes(body.encode("utf-8"))
        with pytest.raises(ValidationError) as info:
            _read_int_rows(path, width, 0)
        bad = re.split(r"\r?\n", body)[line - 1]
        assert str(info.value) == f"{path}:{line}: expected {width} integer(s) in [0, 10**18) per line, got {bad!r}"
        assert quoted in bad

    @pytest.mark.parametrize(
        "body,width,expected",
        [
            pytest.param("1\n" * 7 + "123456\n", 1, [1] * 7 + [123456], id="token"),
            pytest.param("1\n" * 6 + "2 # a comment\n3\n", 1, [1] * 6 + [2, 3], id="comment"),
            pytest.param("1\n" * 7 + "5\r\n6\n", 1, [1] * 7 + [5, 6], id="crlf"),
            pytest.param("0 1\n" * 3 + "22 33\n", 2, [0, 1] * 3 + [22, 33], id="row"),
            pytest.param("\ufeff" + "1\n" * 7 + "123456\n", 1, [1] * 7 + [123456], id="bom"),
            pytest.param("1\n  7" + " " * 30 + "# " + "x" * 40 + "\n8\n", 1, [1, 7, 8], id="long-line"),
        ],
    )
    def test_block_boundary_inside(self, tmp_path, monkeypatch, body, width, expected):
        # with 16-byte blocks, the first block ends inside the named piece;
        # every block is in the scan's grammar, so no bad line is looked for
        def bad_line(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(core, "_SCAN_BLOCK_BYTES", 16)
        monkeypatch.setattr(core, "_bad_line", bad_line)
        path = tmp_path / "f.txt"
        path.write_bytes(body.encode("utf-8"))
        got = _read_int_rows(path, width, 0)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, width))

    @pytest.mark.parametrize("block_bytes", [16, 1 << 15])
    @pytest.mark.parametrize(
        "body,width",
        [
            pytest.param("7\n" * 20 + "5\r\n" + "8\n" * 20, 1, id="crlf"),
            pytest.param("7\n" * 20 + "5 \t\n" + "8\n" * 20, 1, id="trailing-blank"),
            pytest.param("7\n" * 20 + "5 6\n" + "8\n" * 20, 1, id="two-token-row"),
            pytest.param("7 1\n" * 10 + "5\n6\n" + "8 2\n" * 10, 2, id="width-2"),
        ],
    )
    def test_counted_block_beside_analysed_block(self, tmp_path, monkeypatch, body, width, block_bytes):
        # at width 1, a block of one-token lines is settled by counting the
        # tokens that end their line; the block or file that holds the odd
        # line (two tokens, or a token before a gap) needs the per-token
        # analysis, as does every block at width 2, where rows of one token
        # each, in pairs, are still bad lines
        monkeypatch.setattr(core, "_SCAN_BLOCK_BYTES", block_bytes)
        path = tmp_path / "f.txt"
        path.write_bytes(body.encode())
        expected = reference_int_rows(path, width, 0)
        got = read_or_line(path, width, 0)
        if isinstance(expected, int):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)

    @pytest.mark.parametrize("width", [1, 3])
    def test_every_token_length_is_scanned(self, tmp_path, monkeypatch, width):
        # every token here is in the scan's grammar, so no line may be walked
        def bad_line(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(core, "_bad_line", bad_line)
        rnd = random.Random(width)
        tokens = ["0", "00"]
        for k in range(1, 19):
            for value in (10 ** (k - 1), 10**k - 1, rnd.randrange(10 ** (k - 1), 10**k)):
                tokens += [str(value), str(value).zfill(18), str(value).zfill(min(k + 3, 18))]
        tokens = tokens[: len(tokens) // width * width]
        rnd.shuffle(tokens)
        rows = [tokens[i : i + width] for i in range(0, len(tokens), width)]
        path = tmp_path / "f.txt"
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        got = _read_int_rows(path, width, 0)
        assert got.tolist() == [[int(t) for t in row] for row in rows]

    @pytest.mark.parametrize("first,then", [("1", "123456789012"), ("123456789012", "1")])
    def test_output_size_mispredicted_by_first_block(self, tmp_path, first, then):
        # the output is sized from the values per byte read so far: short
        # rows first over-predict the count about fourfold (the array is
        # trimmed), long rows first under-predict it (the array grows three
        # times, each time taking the values read so far)
        path = tmp_path / "f.txt"
        path.write_text(f"{first}\n" * 40000 + f"{then}\n" * 40000)
        got = _read_int_rows(path, 1, 0)
        expected = reference_int_rows(path, 1, 0)
        assert got.dtype == np.int64 and got.shape == (80000, 1)
        assert np.array_equal(got, expected)

    def test_large_file_walks_only_its_bad_block(self, tmp_path, monkeypatch):
        # only the last block is searched for the bad line, and each file
        # fails naming line 10**6
        walks = []
        bad_line = core._bad_line
        monkeypatch.setattr(core, "_bad_line", lambda *args: walks.append(args[3] - args[2]) or bad_line(*args))
        codes = np.random.default_rng(8).integers(0, 8, size=10**6 - 1)
        body = b"".join(b"%d\n" % c for c in codes.tolist())
        for k, last in enumerate([b"x\n", b"1_0\n"]):
            path = tmp_path / f"bad{k}.txt"
            path.write_bytes(body + last)
            assert read_or_line(path, 1, 0) == 10**6
        assert len(walks) == 2 and max(walks) <= core._SCAN_BLOCK_BYTES

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.sampled_from([1, 2]), block_bytes=st.sampled_from([16, 37, 1 << 15]))
    def test_fast_grammar_matches_line_loop(self, data, width, block_bytes):
        # the scan's alphabet (digit runs, ' ' and '\t', '\n' and '\r\n',
        # ASCII comments), in which runs of 19 digits and wrong counts are
        # the bad lines; or that alphabet and '+', '_', a non-ASCII digit,
        # bare '\r', '\f', '\x0b', U+2028 and non-ASCII comment text
        token, gap, comment, endings = _ALPHABETS[data.draw(st.booleans())]
        body = ""
        for k in range(data.draw(st.integers(0, 12)), 0, -1):
            count = data.draw(st.sampled_from([0, width, width, width, width + 1]))
            tokens = data.draw(st.lists(token, min_size=count, max_size=count))
            body += data.draw(st.text(" \t", max_size=2))
            body += "".join(t + data.draw(gap) for t in tokens)
            if data.draw(st.booleans()):
                body += "#" + data.draw(comment)
            body += data.draw(st.sampled_from(endings + ([""] if k == 1 else [])))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "_SCAN_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "f.txt")
            with open(path, "wb") as fh:
                fh.write(body.encode("utf-8"))
            expected = reference_int_rows(path, width, 0)
            got = read_or_line(path, width, 0)
        if isinstance(expected, int):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        width=st.sampled_from([1, 2]),
        minimum=st.sampled_from([0, 1]),
        block_bytes=st.sampled_from([16, 37, 1 << 15]),
    )
    def test_same_layout_rows_match_line_loop(self, data, width, minimum, block_bytes):
        # a block whose rows all have the byte classes of its last row is
        # read from its byte matrix column by column; here every row repeats
        # one drawn layout (gaps, and runs of 1 to 19 digits) with fresh
        # digits, and one row may break it: a 19-digit run, a value below
        # the minimum, or another class ('\r', '#', a gap or a digit) in one
        # column
        lead = data.draw(st.text(" \t", max_size=2))
        lengths = data.draw(st.lists(st.integers(1, 19), min_size=width, max_size=width))
        gaps = data.draw(st.lists(st.text(" \t", min_size=1, max_size=2), min_size=width, max_size=width))
        gaps[-1] = data.draw(st.text(" \t", max_size=2))
        count = data.draw(st.sampled_from([1, 2, 5, 40, 3000]))
        rnd = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [
            lead + "".join("".join(rnd.choices("0123456789", k=k)) + gap for k, gap in zip(lengths, gaps))
            for _ in range(count)
        ]
        odd = data.draw(st.sampled_from([None, "19-digit", "below-minimum", "class"]))
        at = rnd.randrange(count)
        if odd == "19-digit":
            rows[at] = lead + "1" * 19 + rows[at][len(lead) + lengths[0] :]
        elif odd == "below-minimum":
            rows[at] = lead + "0" * lengths[0] + rows[at][len(lead) + lengths[0] :]
        elif odd == "class":
            column = rnd.randrange(len(rows[at]) + 1)
            rows[at] = rows[at][:column] + data.draw(st.sampled_from(["\r", "#", " ", "7"])) + rows[at][column + 1 :]
        body = "".join(row + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "_SCAN_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "f.txt")
            with open(path, "wb") as fh:
                fh.write(body.encode())
            expected = reference_int_rows(path, width, minimum)
            got = read_or_line(path, width, minimum)
        if isinstance(expected, int):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)
