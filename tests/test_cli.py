import json

import numpy as np
import pytest

from dpsynth.cli import main, read_database_codes, write_database_codes
from dpsynth.core import Database, DataUniverse


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

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "graph-cut", "--edges", str(tmp_path / "none.txt"),
            "--cut", str(tmp_path / "c.txt"), "--epsilon", "1.0",
        )
        assert code == 2
        assert "error[io]" in err


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick")
        assert code == 0, out + err
        assert "[PASS]" in out
        assert "[FAIL]" not in out
