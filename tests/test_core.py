import gzip
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


class TestDataUniverse:
    def test_cardinality(self):
        assert DataUniverse(1).cardinality == 2
        assert DataUniverse(10).cardinality == 1024
        assert DataUniverse(30).cardinality == 2**30

    @pytest.mark.parametrize("l", [0, -1, 31, 64])
    def test_dimension_limits(self, l):
        with pytest.raises(ValidationError):
            DataUniverse(l)


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

    def test_equality(self):
        assert db(2, [1, 2]) == db(2, [1, 2])
        assert db(2, [1, 2]) != db(2, [2, 1])
        assert db(1, [0, 1]) != db(2, [0, 1])


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

    def test_matrix_matches_generator(self):
        u = DataUniverse(2)
        mat = all_databases_matrix(u, 2)
        gen = [tuple(d.rows) for d in enumerate_databases(u, 2)]
        assert [tuple(r) for r in mat] == gen


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


def reference_int_rows(path, width, minimum):
    """The per-line loop the readers used before the one-pass parse: the
    (m, width) rows, or the number of the first bad line. The lower bound
    and the int64 range are checked per line here; the old edge-list loop
    did the same for ids below 0 or 1, and the old code-file loop
    overflowed after the loop, without a line number."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != width:
                return lineno
            try:
                row = [int(p) for p in parts]
            except ValueError:
                return lineno
            if not all(minimum <= v < 2**63 for v in row):
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


class TestReadIntRows:
    @pytest.mark.parametrize("width,minimum", [(1, -(2**63)), (2, -(2**63)), (1, 0), (2, 1)])
    def test_matches_line_loop_on_random_corpus(self, tmp_path, width, minimum):
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
        # The C parser must never accept a token or a line break that int() and
        # the per-line loop reject, nor reject what they accept.
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
        # np.loadtxt warns "input contained no data"; the CLI's stderr must not show it
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
            ("\f5\n6", 1, [[5], [6]]),
            ("1_0\n-2\n+3\n\u0663\n", 1, [[10], [-2], [3], [3]]),
            ("0 1\n2\t3 # c\n", 2, [[0, 1], [2, 3]]),
            ("", 2, np.zeros((0, 2), dtype=np.int64)),
            ("# only\n\n", 1, np.zeros((0, 1), dtype=np.int64)),
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
        ],
    )
    def test_first_bad_line_named(self, tmp_path, body, width, line, quoted):
        path = tmp_path / "f.txt"
        path.write_bytes(body.encode("utf-8"))
        with pytest.raises(ValidationError) as info:
            _read_int_rows(path, width, 0)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert repr(quoted) in str(info.value)
