import gzip
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dpsynth import core, oracle
from dpsynth.cli import main, read_database_codes, write_database_codes
from dpsynth.core import Database, DataUniverse
from dpsynth.estimators import estimate_unbiased, project_proper
from dpsynth.mechanism import MechanismParams
from dpsynth.queries import load_query


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReleaseEstimate:
    def test_round_trip_at_identity_epsilon(self, tmp_path, capsys):
        db_path = tmp_path / "db.txt"
        db_path.write_text("\n".join(["1", "0", "1", "1"]) + "\n")
        out_path = tmp_path / "synthetic.txt"
        code, out, err = run_cli(
            capsys,
            "release", "--input", str(db_path), "--output", str(out_path),
            "--epsilon", "700", "--l", "1", "--seed", "9",
        )
        assert code == 0, err
        released = read_database_codes(out_path, 1)
        assert list(released.rows) == [1, 0, 1, 1]

        query_path = tmp_path / "q.json"
        query_path.write_text(
            json.dumps({"type": "predicate", "l": 1, "n": 4, "conjunct_bits": [0]})
        )
        code, out, err = run_cli(
            capsys,
            "estimate", "--input", str(out_path), "--query", str(query_path),
            "--epsilon", "700",
        )
        assert code == 0, err
        assert float(out.strip()) == pytest.approx(0.75)

    def test_release_is_seeded(self, tmp_path, capsys):
        db_path = tmp_path / "db.txt"
        db_path.write_text("\n".join(["0"] * 50) + "\n")
        a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a_path, b_path):
            code, _, err = run_cli(
                capsys,
                "release", "--input", str(db_path), "--output", str(out),
                "--epsilon", "1.0", "--l", "1", "--seed", "4",
            )
            assert code == 0, err
        assert a_path.read_text() == b_path.read_text()

    def test_csv_input_with_schema(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("rating\n3\n1\n4\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "rating", "cardinality": 5}]}))
        out = tmp_path / "out.txt"
        code, _, err = run_cli(
            capsys,
            "release", "--input", str(data), "--output", str(out),
            "--epsilon", "700", "--schema", str(schema),
        )
        assert code == 0, err
        assert list(read_database_codes(out, 3).rows) == [3, 1, 4]

    @pytest.mark.parametrize(
        "schema_text",
        [
            '{"columns": [',
            json.dumps({"columns": "rating"}),
            json.dumps({"columns": [5]}),
            json.dumps({"columns": [{"name": "rating", "cardinality": "five"}]}),
            json.dumps({"columns": [{"name": "rating", "values": 5}]}),
            json.dumps({"columns": [{"name": "rating", "cardinality": 5}] * 2}),
            json.dumps({"columns": [{"name": "rating", "cardinality": 5}], "has_header": "false"}),
            json.dumps({"columns": [{"name": "rating", "values": ["a", "b"], "cardinality": 5}]}),
        ],
    )
    def test_malformed_schema_exit_2(self, tmp_path, capsys, schema_text):
        data = tmp_path / "data.csv"
        data.write_text("rating\n3\n1\n4\n")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_text)
        code, _, err = run_cli(
            capsys,
            "release", "--input", str(data), "--output", str(tmp_path / "out.txt"),
            "--epsilon", "1.0", "--schema", str(schema), "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error[config]")

    def test_l_with_schema_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("rating\n3\n1\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "rating", "cardinality": 5}]}))
        code, _, err = run_cli(
            capsys,
            "release", "--input", str(data), "--output", str(tmp_path / "out.txt"),
            "--epsilon", "1.0", "--schema", str(schema), "--l", "7", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error[validation]") and "--l" in err
        assert not (tmp_path / "out.txt").exists()

    def test_missing_l_is_config_error(self, tmp_path, capsys):
        db_path = tmp_path / "db.txt"
        db_path.write_text("0\n")
        code, _, err = run_cli(
            capsys,
            "release", "--input", str(db_path), "--output", str(tmp_path / "o.txt"),
            "--epsilon", "1.0",
        )
        assert code == 2
        assert "error[" in err

    def test_proper_estimate(self, tmp_path, capsys):
        db_path = tmp_path / "synthetic.txt"
        write_database_codes(Database(DataUniverse(1), np.array([1, 1, 1, 1])), db_path)
        query_path = tmp_path / "q.json"
        query_path.write_text(
            json.dumps({"type": "predicate", "l": 1, "n": 4, "conjunct_bits": [0]})
        )
        code, out, err = run_cli(
            capsys,
            "estimate", "--input", str(db_path), "--query", str(query_path),
            "--epsilon", "0.5", "--estimator", "proper",
        )
        assert code == 0, err
        assert 0.0 <= float(out.strip()) <= 1.0


    def test_proper_exact_range_on_multi_table_query(self, tmp_path, capsys):
        # a hamming query with four tables, n * l = 128
        db_path = tmp_path / "synthetic.txt"
        write_database_codes(Database(DataUniverse(2), np.arange(64) % 3), db_path)
        query_path = tmp_path / "q.json"
        query_path.write_text(json.dumps({"type": "hamming", "l": 2, "z": [i % 4 for i in range(64)]}))
        code, out, err = run_cli(
            capsys,
            "estimate", "--input", str(db_path), "--query", str(query_path),
            "--epsilon", "1.0", "--estimator", "proper", "--projection", "exact_range",
        )
        assert code == 0, err
        assert float(out) * 64 == round(float(out) * 64)

    @pytest.mark.parametrize(
        "l,rows,spec",
        [
            (1, [1, 0, 1, 1, 0], {"type": "predicate", "l": 1, "n": 5, "conjunct_bits": [0]}),
            (2, [3, 0, 1, 2, 2, 1], {"type": "hamming", "l": 2, "z": [0, 1, 2, 3, 0, 1]}),
        ],
        ids=["predicate", "multi-table"],
    )
    @pytest.mark.parametrize(
        "argv",
        [[], ["--estimator", "proper"], ["--estimator", "proper", "--projection", "exact_range"]],
        ids=["unbiased", "interval-clamp", "exact-range"],
    )
    def test_estimate_prints_the_library_answer(self, tmp_path, capsys, l, rows, spec, argv):
        db_path, query_path = tmp_path / "synthetic.txt", tmp_path / "q.json"
        write_database_codes(Database(DataUniverse(l), np.array(rows)), db_path)
        query_path.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(db_path), "--query", str(query_path), "--epsilon", "0.4", *argv,
        )
        assert code == 0, err
        q, y = load_query(query_path), read_database_codes(db_path, l)
        answer = estimate_unbiased(q, y, MechanismParams(0.4, q.universe))
        if argv:
            answer = project_proper(q, answer, argv[-1] if "--projection" in argv else "interval_clamp")
        # exact_range's answer is a 0-d array: printed as one float
        assert out == f"{float(answer):.9g}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["release", "--input", "db.txt", "--output", "o.txt", "--l", "1"],
            ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt"],
            ["release", "--input", "db.txt", "--output", "o.txt", "--l", "1", "--seed", "3"],
            ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt", "--seed", "3"],
        ],
        ids=["release", "graph-cut", "release-seeded", "graph-cut-seeded"],
    )
    def test_epsilon_whose_keep_prob_rounds_to_one_exit_2(self, tmp_path, capsys, argv):
        # l = 1 at eps = 40 < 700: every row would be kept. The refusal is
        # stderr's first line: nothing is drawn, so no seed warning
        (tmp_path / "db.txt").write_text("0\n1\n")
        (tmp_path / "g.txt").write_text("0 1\n")
        (tmp_path / "cut.txt").write_text("0\n1\n")
        argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
        code, _, err = run_cli(capsys, *argv, "--epsilon", "40")
        assert code == 2
        assert err.splitlines()[0].startswith("error[validation]: epsilon=40.0 at l=1")
        assert "warning" not in err
        assert not (tmp_path / "o.txt").exists()


class TestReleaseOverInput:
    """``release`` refuses an --output that names its --input, before it
    reads or writes anything: the release would replace its private input."""

    INPUT = "0\n1\n1\n0\n"

    @pytest.mark.parametrize("alias", ["same", "relative", "symlink", "hardlink"])
    def test_refused(self, tmp_path, capsys, monkeypatch, alias):
        src = tmp_path / "db.txt"
        src.write_text(self.INPUT)
        out = src
        if alias == "relative":
            monkeypatch.chdir(tmp_path)
            out = "./sub/../db.txt"
            (tmp_path / "sub").mkdir()
        elif alias == "symlink":
            out = tmp_path / "link.txt"
            out.symlink_to(src)
        elif alias == "hardlink":
            out = tmp_path / "hard.txt"
            out.hardlink_to(src)
        code, stdout, err = run_cli(capsys, "release", "--input", str(src), "--output", str(out),
                                    "--l", "1", "--epsilon", "1", "--seed", "3")
        assert code == 2 and stdout == ""
        assert err.startswith("error[validation]: --output "), err
        assert "warning" not in err
        assert src.read_text() == self.INPUT

    def test_missing_input_at_the_output_path_refused(self, tmp_path, capsys):
        path = tmp_path / "db.txt"
        code, _, err = run_cli(capsys, "release", "--input", str(path), "--output", str(path),
                               "--l", "1", "--epsilon", "1")
        assert code == 2 and err.startswith("error[validation]: --output ")
        assert not path.exists()

    def test_other_output_allowed(self, tmp_path, capsys):
        src = tmp_path / "db.txt"
        src.write_text(self.INPUT)
        code, _, err = run_cli(capsys, "release", "--input", str(src), "--output", str(tmp_path / "o.txt"),
                               "--l", "1", "--epsilon", "1")
        assert code == 0, err
        assert src.read_text() == self.INPUT


class TestSeed:
    N = 10**4
    # sha256 of the release of ``i % 8`` (i < 10^4), l = 3, eps = 1, --seed 7,
    # as written before the default seed changed: a pinned seed replays it.
    SEED_7_SHA256 = "cb3a94648f74376d2e7f03d3393a55eafc5d9c89e0220e8e7a2737421283094f"

    def _release(self, capsys, tmp_path, out, *seed):
        db_path = tmp_path / "db.txt"
        db_path.write_text("".join(f"{i % 8}\n" for i in range(self.N)))
        code, _, err = run_cli(
            capsys,
            "release", "--input", str(db_path), "--output", str(out),
            "--epsilon", "1.0", "--l", "3", *seed,
        )
        assert code == 0, err
        return err

    def test_default_releases_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert "warning" not in self._release(capsys, tmp_path, a)
        assert "warning" not in self._release(capsys, tmp_path, b)
        assert a.read_bytes() != b.read_bytes()

    def test_seeded_release_is_pinned_and_warns(self, tmp_path, capsys):
        out = tmp_path / "a.txt"
        err = self._release(capsys, tmp_path, out, "--seed", "7")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SEED_7_SHA256
        assert err.startswith("warning: --seed 7") and "reproducible" in err

    def test_seeded_graph_cut_warns(self, tmp_path, capsys):
        edges, cut = tmp_path / "g.txt", tmp_path / "cut.txt"
        edges.write_text("0 1\n")
        cut.write_text("0\n1\n")
        argv = ["graph-cut", "--edges", str(edges), "--cut", str(cut), "--epsilon", "1.0"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        code, _, err = run_cli(capsys, *argv, "--seed", "3")
        assert code == 0 and "warning: --seed 3" in err


class TestBadNumbersExit2:
    """A negative seed or an infinite bound constant exits 2 with a category
    prefix and no traceback, before any output is written."""

    def _exit_2(self, capsys, category, message, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error[{category}]: {message}\n") and "Traceback" not in err
        assert out == ""

    def _config(self, tmp_path, **fields):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output": str(tmp_path / "a.csv"), **fields}))
        return str(path)

    SWEEP = {"experiment": "heterogeneity", "n": 32, "l": 1, "query_count": 4, "trial_count": 2,
             "heterogeneity_grid": [1]}

    def test_release_negative_seed(self, tmp_path, capsys):
        db_path, out = tmp_path / "db.txt", tmp_path / "out.txt"
        db_path.write_text("0\n1\n")
        self._exit_2(capsys, "validation", "seed must be >= 0, got -1", "release", "--input", str(db_path),
                     "--output", str(out), "--epsilon", "1", "--l", "1", "--seed", "-1")
        assert not out.exists()

    def test_graph_cut_negative_seed(self, tmp_path, capsys):
        edges, cut = tmp_path / "g.txt", tmp_path / "cut.txt"
        edges.write_text("0 1\n")
        cut.write_text("0\n1\n")
        self._exit_2(capsys, "validation", "seed must be >= 0, got -1", "graph-cut", "--edges", str(edges),
                     "--cut", str(cut), "--epsilon", "1", "--seed", "-1")

    def test_experiment_negative_seed_override(self, tmp_path, capsys):
        config = self._config(tmp_path, **self.SWEEP)
        self._exit_2(capsys, "config", "seed must be >= 0, got -1", "experiment", "--config", config, "--seed", "-1")
        assert not (tmp_path / "a.csv").exists()

    def test_config_negative_seed(self, tmp_path, capsys):
        config = self._config(tmp_path, **self.SWEEP, seed=-1)
        self._exit_2(capsys, "config", "seed must be >= 0, got -1", "experiment", "--config", config)
        assert not (tmp_path / "a.csv").exists()

    def test_config_infinite_c(self, tmp_path, capsys):
        # json writes and reads math.inf as Infinity
        config = self._config(tmp_path, experiment="bounds_table", c=math.inf)
        assert "Infinity" in (tmp_path / "cfg.json").read_text()
        self._exit_2(capsys, "config", "c must be a finite number, got inf", "experiment", "--config", config)
        assert not (tmp_path / "a.csv").exists()

    def test_bounds_infinite_c(self, capsys):
        self._exit_2(capsys, "validation", "c must be a finite number, got inf",
                     "bounds", "--n", "10", "--l", "1", "--epsilon", "1", "--c", "inf")


class TestReadDatabaseCodes:
    def test_peak_memory_near_output(self, tmp_path):
        # the Database adopts the parsed array; a copy would read 2.0x. What
        # is left above 1x is the reader's growth slack and one block's
        # temporaries (1.15x here)
        path = tmp_path / "codes.txt"
        codes = np.random.default_rng(3).integers(0, 8, size=10**6)
        path.write_bytes(b"".join(b"%d\n" % c for c in codes.tolist()))
        tracemalloc.start()
        try:
            x = read_database_codes(path, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x.rows, codes) and not x.rows.flags.writeable
        assert peak <= 1.3 * x.rows.nbytes

    # the release of a 4-row database at l = 2, estimated at l = 3, or cut
    # short and released again: both read a wrong database without the check
    @pytest.mark.parametrize(
        "text,command",
        [
            ("# l=2 n=4\n0\n1\n2\n3\n", "estimate"),
            ("# l=2 n=4\r\n0\r\n1\r\n2\r\n3\r\n", "estimate"),
            ("# l=2 n=4\n0\n1\n2\n", "release"),
            ("\ufeff# l=2 n=4\n0\n1\n2\n3\n", "estimate"),
            ("\ufeff# l=2 n=4\n0\n1\n2\n", "release"),
        ],
        ids=["other-l", "crlf-other-l", "truncated", "bom-other-l", "bom-truncated"],
    )
    def test_header_mismatch_exits_2(self, tmp_path, capsys, text, command):
        db_path = tmp_path / "synthetic.txt"
        db_path.write_bytes(text.encode())
        if command == "estimate":
            query_path = tmp_path / "q.json"
            query_path.write_text(json.dumps({"type": "predicate", "l": 3, "n": 4, "conjunct_bits": [0]}))
            args = ["--query", str(query_path)]
        else:
            args = ["--l", "2", "--output", str(tmp_path / "out.txt")]
        code, out, err = run_cli(capsys, command, "--input", str(db_path), "--epsilon", "1.0", *args)
        assert (code, out) == (2, "")
        assert err.startswith("error[dimension-mismatch]") and "# l=2 n=4" in err

    @pytest.mark.parametrize(
        "text",
        [
            "# l=2 n=4\n0\n1\n2\n3\n",
            "\ufeff# l=2 n=4\n0\n1\n2\n3\n",
            "0\n1\n2\n3\n",
            "# l=3 n=4 eps=1\n0\n1\n2\n3\n",
            "0\n# l=3 n=9\n1\n2\n3\n",
        ],
        ids=["matching-header", "bom-matching-header", "headerless", "other-comment", "header-not-first"],
    )
    def test_files_without_a_mismatched_header_read(self, tmp_path, text):
        path = tmp_path / "codes.txt"
        path.write_bytes(text.encode())
        assert list(read_database_codes(path, 2).rows) == [0, 1, 2, 3]


class TestWriteDatabaseCodes:
    @pytest.mark.parametrize("n", [1, 2**14 + 1, 2**16 - 1, 2**16, 2**16 + 1])
    def test_bytes_match_per_row_writer(self, tmp_path, n):
        db = Database(DataUniverse(3), np.arange(n) % 8)
        path = tmp_path / "out.txt"
        write_database_codes(db, path)
        reference = f"# l=3 n={n}\n" + "".join(f"{int(code)}\n" for code in db.rows)
        assert path.read_bytes() == reference.encode("utf-8")

    @staticmethod
    def _digit_boundary_database(l, n):
        top = 2**l - 1
        edges = [0, top] + [c for k in range(1, 10) for c in (10**k - 1, 10**k) if c <= top]
        return Database(DataUniverse(l), np.resize(np.array(sorted(edges)[::-1], dtype=np.int64), n))

    @pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("l", [1, 4, 10, 17, 30])
    def test_digit_boundaries_match_per_row_writer(self, tmp_path, l, n):
        # every code is zero-padded to D digits, the digit count of 2**l - 1
        db = self._digit_boundary_database(l, n)
        digits = len(str(2**l - 1))
        path = tmp_path / "out.txt"
        write_database_codes(db, path)
        reference = f"# l={l} n={n}\n" + "".join(f"{int(code):0{digits}d}\n" for code in db.rows)
        assert path.read_bytes() == reference.encode("utf-8")
        assert {len(line) for line in path.read_bytes().split(b"\n")[1:-1]} == {digits}

    @pytest.mark.parametrize("l", [4, 8, 30])
    def test_unpadded_release_reads(self, tmp_path, l):
        # the layout of releases from earlier versions: codes without
        # leading zeros, so one file mixes code widths
        db = self._digit_boundary_database(l, 2**16 + 1)
        path = tmp_path / "old.txt"
        path.write_text(f"# l={l} n={db.n}\n" + "".join(f"{int(code)}\n" for code in db.rows))
        assert read_database_codes(path, l) == db

    @pytest.mark.parametrize("l", range(1, 31))
    def test_digit_boundaries_round_trip(self, tmp_path, l):
        db = self._digit_boundary_database(l, 2**16 + 1)
        path = tmp_path / "out.txt"
        write_database_codes(db, path)
        lines = path.read_bytes().split(b"\n")[1:-1]
        assert len(lines) == db.n and {len(line) for line in lines} == {len(str(2**l - 1))}
        assert read_database_codes(path, l) == db

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 8, 16, 30])
    def test_round_trip_reads_same_layout_blocks(self, tmp_path, monkeypatch, l):
        # every line of a release is D zero-padded digits and '\n', so every
        # block but the header's is read from its byte matrix and never
        # reaches the per-token digit gather
        calls = []
        token_values = core._token_values
        monkeypatch.setattr(core, "_token_values", lambda *args: calls.append(1) or token_values(*args))
        db = Database(DataUniverse(l), np.random.default_rng(l).integers(0, 2**l, size=10**5))
        path = tmp_path / "out.txt"
        write_database_codes(db, path)
        assert read_database_codes(path, l) == db
        assert len(calls) <= 1


# tokens and line breaks that the int() line walk read before the code-file
# grammar became the only one
_FORMERLY_READ = {
    "plus": "+1",
    "underscore": "1_0",
    "arabic-indic": "\u0663",
    "form-feed": "\f1",
    "vertical-tab": "1\x0b",
    "line-separator": "1\u20281",
    "25-digit": "0" * 24 + "1",
    "non-ascii-comment": "1 # \u00e9",
    "bare-cr": "1\r1",
}


class TestMalformedLineFiles:
    """Every malformed code file or edge list exits 2 naming the first bad
    line and quoting it; a file with no content lines has no line to name."""

    @pytest.mark.parametrize("command", ["release", "estimate"])
    @pytest.mark.parametrize(
        "text,line,quoted",
        [
            ("1\n0\nx\n", 3, "x"),
            ("1\n1 2 # two\n", 2, "1 2"),
            ("0\n12345678901234567890\n", 2, "12345678901234567890"),
            ("# nothing\n\n", None, None),
        ],
        ids=["non-integer", "two-tokens", "20-digit", "comment-only"],
    )
    def test_code_file(self, tmp_path, capsys, command, text, line, quoted):
        path = tmp_path / "db.txt"
        path.write_text(text)
        if command == "release":
            argv = ["--l", "1", "--output", str(tmp_path / "out.txt"), "--seed", "1"]
        else:
            query = tmp_path / "q.json"
            query.write_text(json.dumps({"type": "predicate", "l": 1, "n": 2, "conjunct_bits": [0]}))
            argv = ["--query", str(query)]
        code, _, err = run_cli(capsys, command, "--input", str(path), "--epsilon", "1.0", *argv)
        self._assert_names_line(code, err, path, line, quoted, "no rows")

    @pytest.mark.parametrize(
        "text,line,quoted,flags",
        [
            ("0 1\n1 x\n", 2, "1 x", ()),
            ("0 1\n2\n", 2, "2", ()),
            ("0 1 2\n", 1, "0 1 2", ()),
            ("1 2\n\n0 3 # zero\n", 3, "0 3", ("--one-based",)),
            ("# none\n", None, None, ()),
        ],
        ids=["non-integer", "one-token", "three-tokens", "negative-after-shift", "comment-only"],
    )
    def test_edge_list(self, tmp_path, capsys, text, line, quoted, flags):
        edges, cut = tmp_path / "g.txt", tmp_path / "cut.txt"
        edges.write_text(text)
        cut.write_text("0\n1\n")
        code, _, err = run_cli(
            capsys,
            "graph-cut", "--edges", str(edges), "--cut", str(cut), "--epsilon", "1.0", "--seed", "1",
            *flags,
        )
        self._assert_names_line(code, err, edges, line, quoted, "no edges")

    @staticmethod
    def _assert_names_line(code, err, path, line, quoted, empty_message):
        assert code == 2
        assert "error[validation]: " in err
        if line is None:
            assert f"{path}: {empty_message}" in err
        else:
            # the whole bad line is quoted, its comment included
            assert f"{path}:{line}: " in err
            assert repr(quoted)[1:-1] in err.split(" got ", 1)[1]

    @pytest.mark.parametrize(
        "kind,token",
        [
            pytest.param(kind, token, id=f"{kind}-{name}")
            for kind in ("code-file", "edge-list", "cut-spec")
            for name, token in _FORMERLY_READ.items()
        ],
    )
    def test_token_outside_the_grammar(self, tmp_path, capsys, kind, token):
        # now each file exits 2 naming the line that holds the token
        edges, cut, db = tmp_path / "g.txt", tmp_path / "cut.txt", tmp_path / "db.txt"
        edges.write_bytes(b"0 1\n" + (f"1 {token}\n" if kind == "edge-list" else "1 0\n").encode())
        cut.write_bytes(b"0\n" + (f"{token}\n" if kind == "cut-spec" else "1\n").encode())
        db.write_bytes(f"0\n{token}\n1\n".encode())
        if kind == "code-file":
            path = db
            argv = ["release", "--input", str(db), "--l", "1", "--output", str(tmp_path / "out.txt")]
        else:
            path = edges if kind == "edge-list" else cut
            argv = ["graph-cut", "--edges", str(edges), "--cut", str(cut)]
        code, out, err = run_cli(capsys, *argv, "--epsilon", "1.0", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith(f"error[validation]: {path}:2: "), err


class TestCompressorSuffixes:
    """A code file is plain UTF-8 text whatever its name ends in: a gzip
    file is not decompressed, and a missing file is not replaced by a
    compressed sibling."""

    def _release(self, capsys, tmp_path, source):
        return run_cli(
            capsys,
            "release", "--input", str(source), "--output", str(tmp_path / "out.txt"),
            "--epsilon", "1.0", "--l", "2", "--seed", "7",
        )

    def test_gzip_bytes_are_not_utf8(self, tmp_path, capsys):
        with gzip.open(tmp_path / "codes.gz", "wt") as fh:
            fh.write("3\n1\n")
        code, _, err = self._release(capsys, tmp_path, tmp_path / "codes.gz")
        assert code == 2
        assert "not UTF-8" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        with gzip.open(tmp_path / "codes.txt.gz", "wt") as fh:
            fh.write("3\n1\n")
        code, _, err = self._release(capsys, tmp_path, tmp_path / "codes.txt")
        assert code == 2
        assert "error[io]" in err


class TestMalformedQueryFile:
    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"type": "predicate", "l": 2}),
            "{not json",
            json.dumps({"type": "predicate", "l": "two", "n": 4, "conjunct_bits": [0]}),
            json.dumps({"type": "tables", "l": 1, "tables": [0.0, 1.0], "assignment": [0]}),
        ],
        ids=["missing-field", "invalid-json", "non-integer-l", "tables-not-2d"],
    )
    def test_estimate_exits_2(self, tmp_path, capsys, text):
        db_path = tmp_path / "synthetic.txt"
        write_database_codes(Database(DataUniverse(2), np.array([1, 3, 0, 2])), db_path)
        query_path = tmp_path / "q.json"
        query_path.write_text(text)
        code, _, err = run_cli(
            capsys,
            "estimate", "--input", str(db_path), "--query", str(query_path), "--epsilon", "1.0",
        )
        assert code == 2
        assert err.startswith("error[")


    @pytest.mark.parametrize("estimator", ["unbiased", "proper"])
    def test_overflowing_normalization_exits_2(self, tmp_path, capsys, estimator):
        # finite tables, but c_sum = 4 * 2e308 = inf: the estimate was NaN
        db_path = tmp_path / "synthetic.txt"
        write_database_codes(Database(DataUniverse(1), np.array([1, 0, 0, 1])), db_path)
        query_path = tmp_path / "q.json"
        query_path.write_text(json.dumps({"type": "tables", "l": 1, "tables": [[-1e308, 1e308]],
                                          "assignment": [0, 0, 0, 0]}))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(db_path), "--query", str(query_path), "--epsilon", "1.0",
            "--estimator", estimator,
        )
        assert code == 2 and out == ""
        assert err.startswith("error[validation]: the query's normalization overflows")

    def test_query_over_a_wide_universe_exits_2(self, tmp_path, capsys, monkeypatch):
        # the table cap, lowered so that the refused query would be 8 MiB
        monkeypatch.setattr(core, "MAX_TABLE_CODES", 2**10)
        db_path = tmp_path / "synthetic.txt"
        write_database_codes(Database(DataUniverse(20), np.array([1, 3, 2**20 - 1])), db_path)
        query_path = tmp_path / "q.json"
        query_path.write_text(json.dumps({"type": "predicate", "l": 20, "n": 3, "conjunct_bits": [0]}))
        code, out, err = run_cli(
            capsys,
            "estimate", "--input", str(db_path), "--query", str(query_path), "--epsilon", "1.0",
        )
        assert code == 2 and out == ""
        assert err.startswith("error[validation]: a table over l=20 attributes")


class TestBounds:
    def test_csv_row(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--n", "1000", "--l", "1", "--epsilon", "1.0"
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,l,epsilon")
        cells = lines[1].split(",")
        header = lines[0].split(",")
        value = float(cells[header.index("upper_squared")])
        assert value == pytest.approx(4.68269437683e-3, rel=1e-9)

    @pytest.mark.parametrize("L", [None, 2.5])
    def test_row_matches_bounds_table_experiment(self, tmp_path, capsys, L):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "experiment": "bounds_table", "n_grid": [1000], "epsilon_grid": [0.7], "l": 2,
            "a": -1.0, "b": 3.0, "c": 0.5, "L": L, "output": str(tmp_path / "bounds.csv"),
        }))
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 0, err
        argv = ["--n", "1000", "--l", "2", "--epsilon", "0.7", "--a", "-1.0", "--b", "3.0", "--c", "0.5"]
        if L is not None:
            argv += ["--L", str(L)]
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 0, err
        assert out.splitlines() == (tmp_path / "bounds.csv").read_text().splitlines()

    def test_invalid_inputs_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "0", "--l", "1", "--epsilon", "1")
        assert code == 2
        assert "error[validation]" in err

    def test_large_epsilon_prints(self, capsys):
        # e^800 overflows a float; the bounds are written in e^-800 = 0
        code, out, err = run_cli(capsys, "bounds", "--n", "10", "--l", "3", "--epsilon", "800")
        assert code == 0, err
        assert out.splitlines()[1] == "10,3,800,0,1,1,,0.1,0.4,0.316227766,0.632455532,0,0,"

    @pytest.mark.parametrize("argv", [
        ["--l", "31", "--epsilon", "1"],
        ["--l", "1030", "--epsilon", "1"],
        ["--l", "3", "--epsilon", "1", "--L", "nan"],
    ])
    def test_out_of_range_inputs_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "bounds", "--n", "10", *argv)
        assert code == 2
        assert err.startswith("error[validation]") and out == ""

    def test_bounds_table_at_large_epsilon(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "experiment": "bounds_table", "n_grid": [10], "epsilon_grid": [1000], "l": 3,
            "output": str(tmp_path / "bounds.csv"),
        }))
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 0, err
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[1] == "10,3,1000,0,1,1,,0.1,0.4,0.316227766,0.632455532,0,0,"


class TestExperiment:
    def test_runs_config_and_is_deterministic(self, tmp_path, capsys):
        cfg = {
            "experiment": "heterogeneity",
            "n": 32,
            "l": 1,
            "query_count": 8,
            "trial_count": 3,
            "heterogeneity_grid": [1, 4],
            "seed": 5,
            "output": str(tmp_path / "a.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0, err
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path),
            "--output", str(tmp_path / "b.csv"),
        )
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_override(self, tmp_path, capsys):
        cfg = {
            "experiment": "heterogeneity",
            "n": 32,
            "l": 1,
            "query_count": 8,
            "trial_count": 3,
            "heterogeneity_grid": [1],
            "seed": 5,
            "output": str(tmp_path / "a.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg_path),
            "--seed", "6", "--output", str(tmp_path / "b.csv"),
        )
        assert code == 0, err
        run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "heterogeneity", "bogus": True}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2
        assert "error[config]" in err

    @pytest.mark.parametrize(
        "key,value",
        [("epsilon", "1"), ("n", "64"), ("trial_count", 2.5), ("set_sizes", 5), ("n", True), ("output", 5)],
    )
    def test_wrong_field_type_exit_2(self, tmp_path, capsys, key, value):
        cfg = {"experiment": "query_set_size", "n": 64, "l": 1, "set_sizes": [2, 4],
               "output": str(tmp_path / "a.csv")}
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2
        assert "error[config]" in err
        assert key in err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2

    def test_vertex_grid_over_pair_cap_exit_2(self, tmp_path, capsys):
        # 20000^2 pairs: the sweep would allocate gigabytes before any check
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "cut_scaling", "vertex_grid": [64, 20000],
                                        "output": str(tmp_path / "a.csv")}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2
        assert err.startswith("error[config]: vertex_grid") and "encoded-pair cap" in err
        assert not (tmp_path / "a.csv").exists()


class TestGraphCut:
    def test_identity_epsilon_exact_answer(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n")
        cut = tmp_path / "cut.txt"
        cut.write_text("0 1\n2\n")
        code, out, err = run_cli(
            capsys,
            "graph-cut", "--edges", str(edges), "--cut", str(cut),
            "--epsilon", "700", "--seed", "1",
        )
        assert code == 0, err
        # symmetrized: edges (1,2) and (2,1); crossing from {0,1} into {2} is 1
        assert float(out.strip()) == pytest.approx(1.0)

    def test_seeded_reproducible(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 3\n")
        cut = tmp_path / "cut.txt"
        cut.write_text("0 1\n2 3\n")
        outs = []
        for _ in range(2):
            code, out, err = run_cli(
                capsys,
                "graph-cut", "--edges", str(edges), "--cut", str(cut),
                "--epsilon", "1.0", "--seed", "33",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_clamp_flag(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n")
        cut = tmp_path / "cut.txt"
        cut.write_text("0\n1\n")
        code, out, err = run_cli(
            capsys,
            "graph-cut", "--edges", str(edges), "--cut", str(cut),
            "--epsilon", "0.3", "--seed", "2", "--clamp",
        )
        assert code == 0, err
        assert 0.0 <= float(out.strip()) <= 1.0

    def test_out_of_range_vertex_refused_before_the_release(self, tmp_path, capsys):
        edges, cut = tmp_path / "g.txt", tmp_path / "cut.txt"
        edges.write_text("0 1\n1 2\n")
        cut.write_text("0 1\n3\n")
        code, out, err = run_cli(
            capsys, "graph-cut", "--edges", str(edges), "--cut", str(cut), "--epsilon", "1.0", "--seed", "2",
        )
        assert code == 2 and out == ""
        # no seed warning: the cut is checked before any coin is drawn
        assert err == "error[validation]: vertex 3 outside [0, 3)\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "graph-cut", "--edges", str(tmp_path / "none.txt"),
            "--cut", str(tmp_path / "c.txt"), "--epsilon", "1.0",
        )
        assert code == 2
        assert "error[io]" in err


class TestOverflowingEpsilon:
    """Below about 1e-308 the estimators' scale and shift overflow and the
    answer would be NaN: every estimating command exits 2 and prints nothing.
    A release at that epsilon is still made, and ``bounds`` prints inf."""

    QUERY = {"type": "predicate", "l": 1, "n": 4, "conjunct_bits": [0]}

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "db.txt").write_text("0\n1\n1\n0\n")
        (tmp_path / "q.json").write_text(json.dumps(self.QUERY))
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        (tmp_path / "cut.txt").write_text("0 1\n2\n")
        return tmp_path

    @staticmethod
    def _assert_refused(code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("error[estimator-undefined]: the companion estimators are undefined"), err

    @pytest.mark.parametrize(
        "argv",
        [[], ["--estimator", "proper"], ["--estimator", "proper", "--projection", "exact_range"]],
        ids=["unbiased", "interval-clamp", "exact-range"],
    )
    def test_estimate(self, files, capsys, argv):
        code, out, err = run_cli(capsys, "estimate", "--input", str(files / "db.txt"), "--query",
                                 str(files / "q.json"), "--epsilon", "1e-320", *argv)
        self._assert_refused(code, out, err)

    @pytest.mark.parametrize("eps", ["1e-308", "1e-320"])
    @pytest.mark.parametrize("clamp", [[], ["--clamp"]], ids=["raw", "clamp"])
    def test_graph_cut(self, files, capsys, eps, clamp):
        code, out, err = run_cli(capsys, "graph-cut", "--edges", str(files / "g.txt"), "--cut",
                                 str(files / "cut.txt"), "--epsilon", eps, *clamp)
        self._assert_refused(code, out, err)

    def test_graph_cut_refuses_before_drawing(self, files, capsys):
        # the refusal comes before the release, so before the seed warning
        code, out, err = run_cli(capsys, "graph-cut", "--edges", str(files / "g.txt"), "--cut",
                                 str(files / "cut.txt"), "--epsilon", "1e-308", "--seed", "3")
        self._assert_refused(code, out, err)
        assert "warning" not in err

    def test_database_scaling_writes_no_csv(self, files, capsys):
        cfg, csv_path = files / "cfg.json", files / "out.csv"
        cfg.write_text(json.dumps({"experiment": "database_scaling", "n_grid": [10, 100], "l": 1,
                                   "query_count": 2, "trial_count": 2, "epsilon": 1e-320,
                                   "output": str(csv_path)}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        self._assert_refused(code, out, err)
        assert not csv_path.exists()

    def test_release_still_allowed(self, files, capsys):
        out_path = files / "out.txt"
        code, _, err = run_cli(capsys, "release", "--input", str(files / "db.txt"), "--l", "1",
                               "--output", str(out_path), "--epsilon", "1e-320")
        assert code == 0, err
        assert read_database_codes(out_path, 1).n == 4

    def test_bounds_print_inf(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "10", "--l", "1", "--epsilon", "1e-320")
        assert code == 0, err
        header, row = (line.split(",") for line in out.splitlines())
        uppers = [row[header.index(name)] for name in header if name.startswith("upper_")]
        assert uppers == ["inf"] * 4


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0, out + err
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        results = [("kept", True, "ok"), ("broken", False, "off by one")]
        monkeypatch.setattr(oracle, "run_verification_suite", lambda: results)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "[FAIL] broken: off by one" in out and "1/2 checks passed" in out


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file exits 2 naming the file:
    error[config] for config and schema JSON, error[validation] otherwise."""

    GOOD = {
        "db.txt": b"0\n1\n",
        "q.json": json.dumps({"type": "predicate", "l": 1, "n": 2, "conjunct_bits": [0]}).encode(),
        "g.txt": b"0 1\n",
        "cut.txt": b"0\n1\n",
        "cfg.json": json.dumps({"experiment": "bounds_table"}).encode(),
        "data.csv": b"rating\n3\n1\n",
        "schema.json": json.dumps({"columns": [{"name": "rating", "cardinality": 5}]}).encode(),
    }
    BAD = {
        "db.txt": b"0\n1\n\xff\n",
        "q.json": b'{"type": "\xff"}',
        "g.txt": b"0 1\n\xff 2\n",
        "cut.txt": b"0\n\xff\n",
        "cfg.json": b'{"experiment": "\xff"}',
        "data.csv": b"rating\n3\n\xff\n",
        "schema.json": b'{"columns": "\xff"}',
    }

    @pytest.mark.parametrize(
        "bad,argv,category",
        [
            ("db.txt", ["release", "--input", "db.txt", "--l", "1", "--output", "out.txt"], "validation"),
            ("db.txt", ["estimate", "--input", "db.txt", "--query", "q.json"], "validation"),
            ("q.json", ["estimate", "--input", "db.txt", "--query", "q.json"], "validation"),
            ("g.txt", ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt"], "validation"),
            ("cut.txt", ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt"], "validation"),
            ("cfg.json", ["experiment", "--config", "cfg.json", "--output", "out.csv"], "config"),
            ("data.csv", ["release", "--input", "data.csv", "--schema", "schema.json", "--output", "out.txt"],
             "validation"),
            ("schema.json", ["release", "--input", "data.csv", "--schema", "schema.json", "--output", "out.txt"],
             "config"),
        ],
        ids=["code-file-release", "code-file-estimate", "query-json", "edge-list", "cut-spec", "config-json",
             "csv", "schema-json"],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, bad, argv, category):
        for name, data in self.GOOD.items():
            (tmp_path / name).write_bytes(self.BAD[name] if name == bad else data)
        argv = [str(tmp_path / a) if (tmp_path / a).exists() or a.startswith("out") else a for a in argv]
        if argv[0] != "experiment":
            argv += ["--epsilon", "1.0"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error[{category}]: {tmp_path / bad}: not UTF-8 text"), err

    @pytest.mark.parametrize("command", ["release", "estimate"])
    def test_code_file_comment(self, tmp_path, capsys, command):
        # comment text is never parsed, but it must still be UTF-8
        for name, data in self.GOOD.items():
            (tmp_path / name).write_bytes(data)
        path = tmp_path / "db.txt"
        path.write_bytes(b"0\n# note \xff\n1\n")
        if command == "release":
            argv = ["--l", "1", "--output", str(tmp_path / "out.txt")]
        else:
            argv = ["--query", str(tmp_path / "q.json")]
        code, _, err = run_cli(capsys, command, "--input", str(path), "--epsilon", "1.0", *argv)
        assert code == 2
        assert err.startswith(f"error[validation]: {path}: not UTF-8 text"), err


class TestByteOrderMark:
    """A UTF-8 byte order mark, which Excel's "CSV UTF-8" writes, is skipped
    in every text input: each command prints and writes what it does for the
    same file without one. (TestNonUtf8Input runs the same decoder.)"""

    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("db.txt", ["release", "--input", "db.txt", "--l", "1", "--output", "out.txt", "--seed", "3"]),
            ("db.txt", ["estimate", "--input", "db.txt", "--query", "q.json"]),
            ("q.json", ["estimate", "--input", "db.txt", "--query", "q.json"]),
            ("g.txt", ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt", "--seed", "3"]),
            ("cut.txt", ["graph-cut", "--edges", "g.txt", "--cut", "cut.txt", "--seed", "3"]),
            ("cfg.json", ["experiment", "--config", "cfg.json", "--output", "out.csv"]),
            ("data.csv", ["release", "--input", "data.csv", "--schema", "schema.json", "--output", "out.txt",
                          "--seed", "3"]),
            ("schema.json", ["release", "--input", "data.csv", "--schema", "schema.json", "--output", "out.txt",
                             "--seed", "3"]),
        ],
        ids=["code-file-release", "code-file-estimate", "query-json", "edge-list", "cut-spec", "config-json",
             "csv", "schema-json"],
    )
    def test_same_output_as_without(self, tmp_path, capsys, name, argv):
        argv = [str(tmp_path / a) if "." in a else a for a in argv]
        if argv[0] != "experiment":
            argv += ["--epsilon", "1.0"]
        results = []
        for prefix in (b"", self.BOM):
            for file, data in TestNonUtf8Input.GOOD.items():
                (tmp_path / file).write_bytes(prefix + data if file == name else data)
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            written = [p.read_bytes() for p in sorted(tmp_path.glob("out.*"))]
            results.append((out, written))
        assert results[0] == results[1]


class TestCutPathPinned:
    """sha256 of cut outputs as written before the input graph became an
    edge-indicator Database: the representation change moves no draw."""

    CUT_SCALING_SHA256 = {
        "erdos_renyi": "0f9d7273279291b7d5e837df93e21ffdd901bf0c3ea2f26d4a8611c409bbf63f",
        "power_law": "a531dcb6ff95b95871f0753dc98d1d78108860c87027acee0b3bc9698d94e5e8",
    }
    GRAPH_CUT_SEED_7_SHA256 = "7e1d0f2a59b83d9c95867800a1175a2c15c8bf690ec484a5f0faaa3b1bbc4858"

    @pytest.mark.parametrize("model,param", [("erdos_renyi", 0.2), ("power_law", 3)])
    def test_cut_scaling_csv(self, tmp_path, capsys, model, param):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "cut.csv"
        cfg_path.write_text(json.dumps({
            "experiment": "cut_scaling", "vertex_grid": [16, 24, 40], "graph_model": model,
            "graph_param": param, "cut_count": 10, "trial_count": 4, "epsilon": 0.5, "seed": 3,
            "output": str(out),
        }))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CUT_SCALING_SHA256[model]

    def test_graph_cut_answers(self, tmp_path, capsys):
        edges, cut = tmp_path / "g.txt", tmp_path / "cut.txt"
        edges.write_text("".join(f"{(7 * k) % 23 + 1} {(11 * k + 5) % 23 + 1}\n" for k in range(60)))
        cut.write_text("0 1 2 3 4 5\n10 11 12 13 14 15 16\n")
        answers = []
        for eps in ("1", "0.3", "700"):
            for flags in ((), ("--no-symmetrize",), ("--one-based",), ("--clamp",)):
                code, out, err = run_cli(
                    capsys, "graph-cut", "--edges", str(edges), "--cut", str(cut), "--epsilon", eps,
                    "--seed", "7", *flags,
                )
                assert code == 0, err
                answers.append(out)
        assert hashlib.sha256("".join(answers).encode()).hexdigest() == self.GRAPH_CUT_SEED_7_SHA256
