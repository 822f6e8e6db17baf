import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from dpsynth.bounds import BoundInputs, cut_bound, upper_bound_absolute, upper_bound_squared
from dpsynth.cli import main
from dpsynth.core import ConfigError, RandomSource, ValidationError
from dpsynth.harness import (
    category_extension_table,
    config_from_dict,
    fit_loglog_slope,
    ingest_csv,
    load_ingestion_schema,
    run_cut_scaling,
    run_database_scaling,
    run_experiment,
    run_heterogeneity_sweep,
    run_query_set_size_sweep,
    write_results_csv,
)
from dpsynth import harness
from dpsynth.core import DataUniverse
from dpsynth.graph import erdos_renyi_graph, power_law_graph, random_bisection_cut, release_graph
from dpsynth.mechanism import MechanismParams, sample_rows
from dpsynth.queries import generate_random_query
from test_acceptance import weighted_slope


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "heterogeneity", "bogus": 1})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "nonsense"})

    @pytest.mark.parametrize(
        "raw,unread",
        [
            ({"experiment": "query_set_size", "query_count": 7}, ["query_count"]),
            ({"experiment": "query_set_size", "cut_count": 3, "graph_model": "power_law"},
             ["cut_count", "graph_model"]),
            ({"experiment": "heterogeneity", "set_sizes": [4]}, ["set_sizes"]),
            ({"experiment": "database_scaling", "n": 64}, ["n"]),
            ({"experiment": "cut_scaling", "l": 2, "query_count": 5}, ["l", "query_count"]),
        ],
        ids=["query-count", "cut-fields", "set-sizes", "n", "statistical-fields"],
    )
    def test_key_the_experiment_does_not_read_rejected(self, raw, unread):
        # the sweep would ignore such a key and write the CSV it writes without it
        message = f"the {raw['experiment']} experiment reads no config keys {unread}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(raw)

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_every_key_the_experiment_reads_accepted(self, experiment):
        keys = harness._SHARED_KEYS | harness._EXPERIMENT_KEYS[experiment]
        defaults = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig) if f.name in keys}
        assert config_from_dict({**defaults, "experiment": experiment}) == config_from_dict({"experiment": experiment})

    def test_direct_config_field_the_experiment_does_not_read_rejected(self, tmp_path):
        # built directly, these fields used to be ignored, and the CSV was
        # the one the default-valued config writes
        base = dict(n=8, l=1, set_sizes=(1, 2), database_count=2, trial_count=2)
        message = "the query_set_size experiment does not read query_count, set to 7"
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.ExperimentConfig("query_set_size", **base, query_count=7, cut_count=3, graph_model="power_law")
        out = tmp_path / "r.csv"
        run_experiment(harness.ExperimentConfig("query_set_size", **base), output=out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "503818d6d362595c671b45c5d979ad87e9e529dbf0730fdce36d8be38265ee70"
        )

    @pytest.mark.parametrize(
        "experiment,field,value",
        [
            ("heterogeneity", "set_sizes", (4,)),
            ("database_scaling", "n", 64),
            ("cut_scaling", "l", 2),
            ("query_set_size", "vertex_grid", (8, 16)),
        ],
    )
    def test_direct_config_names_the_unread_field(self, experiment, field, value):
        with pytest.raises(ConfigError, match=f"does not read {field}, set to"):
            harness.ExperimentConfig(experiment, **{field: value})

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_direct_config_at_defaults_accepted(self, experiment):
        defaults = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig) if f.name != "experiment"}
        assert harness.ExperimentConfig(experiment, **defaults) == config_from_dict({"experiment": experiment})

    def test_keys_cover_every_field(self):
        keys = set().union(harness._SHARED_KEYS, *harness._EXPERIMENT_KEYS.values())
        assert keys == {f.name for f in dataclasses.fields(harness.ExperimentConfig)}

    def test_heterogeneity_must_divide(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"experiment": "heterogeneity", "n": 10, "heterogeneity_grid": [3]}
            )

    def test_default_heterogeneity_grid(self):
        cfg = config_from_dict({"experiment": "heterogeneity", "n": 64})
        assert cfg.heterogeneity_grid == (1, 2, 4, 8, 16, 32)
        # a null grid is read as empty, which selects the default
        cfg = config_from_dict({"experiment": "heterogeneity", "n": 64, "heterogeneity_grid": None})
        assert cfg.heterogeneity_grid == (1, 2, 4, 8, 16, 32)

    @pytest.mark.parametrize(
        "experiment,grid",
        [("heterogeneity", "heterogeneity_grid"), ("query_set_size", "set_sizes"), ("database_scaling", "n_grid"),
         ("cut_scaling", "vertex_grid")],
    )
    def test_null_grid_reads_as_its_default(self, experiment, grid):
        cfg = config_from_dict({"experiment": experiment, grid: None})
        assert cfg == config_from_dict({"experiment": experiment})

    @pytest.mark.parametrize(
        "raw,match",
        [
            ([{"experiment": "heterogeneity"}], "must be a JSON object"),
            ({"experiment": "heterogeneity", "estimator": "biased"}, "estimator must be one of"),
            ({"experiment": "heterogeneity", "n": 0}, "n must be >= 1"),
            # n = 1 has no power of two up to n/2, so the default grid is empty
            ({"experiment": "heterogeneity", "n": 1}, "heterogeneity grid must be nonempty"),
            ({"experiment": "query_set_size", "database_count": 0}, "database_count must be >= 1"),
            ({"experiment": "cut_scaling", "graph_model": "lattice"}, "graph_model must be one of"),
            ({"experiment": "cut_scaling", "cut_count": 0}, "cut_count must be >= 1"),
        ],
        ids=["not-an-object", "estimator", "n", "empty-default-grid", "database-count", "graph-model",
             "cut-count"],
    )
    def test_invalid_config_rejected(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_set_sizes_must_ascend(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "query_set_size", "set_sizes": [64, 32]})

    def test_scaling_grid_needs_a_decade(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "database_scaling", "n_grid": [128, 256]})

    def test_epsilon_positive(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "heterogeneity", "epsilon": 0.0})

    def test_trial_count_positive(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "heterogeneity", "trial_count": 0})

    def test_query_count_positive(self):
        # an empty query set is unobservable through the config layer
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "heterogeneity", "query_count": 0})

    @pytest.mark.parametrize("param", [2.5, 1.5, 0.05, 0, -2, 16, math.inf, math.nan])
    def test_power_law_param_is_an_attachment_count(self, param):
        # an integer in [1, min(vertex_grid)); the sweep used to truncate it
        with pytest.raises(ConfigError, match="graph_param"):
            config_from_dict({"experiment": "cut_scaling", "vertex_grid": [16, 32],
                              "graph_model": "power_law", "graph_param": param})

    def test_power_law_default_param_rejected(self):
        with pytest.raises(ConfigError, match="graph_param"):
            config_from_dict({"experiment": "cut_scaling", "graph_model": "power_law"})

    @pytest.mark.parametrize("param", [1.5, -0.1, math.inf, math.nan])
    def test_erdos_renyi_param_is_a_probability(self, param):
        with pytest.raises(ConfigError, match="graph_param"):
            config_from_dict({"experiment": "cut_scaling", "graph_param": param})

    @pytest.mark.parametrize("model,param", [("power_law", 1), ("power_law", 15), ("power_law", 3.0),
                                             ("erdos_renyi", 0), ("erdos_renyi", 1)])
    def test_graph_param_edges_accepted(self, model, param):
        cfg = config_from_dict({"experiment": "cut_scaling", "vertex_grid": [16, 32],
                                "graph_model": model, "graph_param": param})
        assert cfg.graph_param == param

    def test_vertex_grid_over_pair_cap_rejected(self):
        # 20000^2 pairs would ask for gigabytes before any release ran
        with pytest.raises(ConfigError, match="encoded-pair cap"):
            config_from_dict({"experiment": "cut_scaling", "vertex_grid": [64, 20000]})
        cfg = config_from_dict({"experiment": "cut_scaling", "vertex_grid": [64, 10000]})
        assert cfg.vertex_grid == (64, 10000)


def tiny_config(**overrides):
    base = {
        "experiment": "heterogeneity",
        "n": 64,
        "l": 2,
        "query_count": 16,
        "trial_count": 5,
        "heterogeneity_grid": [1, 4, 32],
        "seed": 42,
    }
    base.update(overrides)
    return config_from_dict(base)


class TestHeterogeneitySweep:
    def test_rows_shape_and_invariants(self):
        cfg = tiny_config()
        rows = run_heterogeneity_sweep(cfg, RandomSource(cfg.seed))
        assert [r.grid_point for r in rows] == [1, 4, 32]
        for r in rows:
            assert r.worst_case_distortion >= r.mean_distortion >= 0.0
            assert r.runs == 5 and r.seed == 42
            assert r.relative_error is None

    def test_bound_matches_independent_call(self):
        cfg = tiny_config()
        rows = run_heterogeneity_sweep(cfg, RandomSource(cfg.seed))
        for gi, r in enumerate(rows):
            qs = generate_random_query(
                DataUniverse(cfg.l), cfg.n, int(r.grid_point),
                RandomSource(cfg.seed).derive(2, gi), count=cfg.query_count,
            )
            expected = upper_bound_absolute(
                BoundInputs(n=cfg.n, l=cfg.l, epsilon=cfg.epsilon, a=qs.a, b=qs.b, c=qs.c)
            )
            assert r.analytic_bound == expected

    def test_flat_across_heterogeneity(self):
        cfg = config_from_dict(
            {
                "experiment": "heterogeneity",
                "n": 256,
                "l": 2,
                "query_count": 50,
                "trial_count": 10,
                "heterogeneity_grid": [1, 128],
                "seed": 7,
            }
        )
        rows = run_heterogeneity_sweep(cfg, RandomSource(cfg.seed))
        lo, hi = rows[0], rows[-1]
        pooled = (lo.worst_case_stderr**2 + hi.worst_case_stderr**2) ** 0.5
        assert abs(lo.worst_case_distortion - hi.worst_case_distortion) < 3 * pooled


class TestQuerySetSizeSweep:
    def test_size_one_equals_single_query_distortion(self):
        cfg = config_from_dict(
            {
                "experiment": "query_set_size",
                "n": 32,
                "l": 1,
                "set_sizes": [1],
                "database_count": 1,
                "trial_count": 4,
                "seed": 3,
            }
        )
        rows = run_query_set_size_sweep(cfg, RandomSource(cfg.seed))
        assert len(rows) == 1
        # with one query and one database, worst == mean by construction
        assert rows[0].worst_case_distortion == pytest.approx(rows[0].mean_distortion)

    def test_worst_below_bound(self):
        cfg = config_from_dict(
            {
                "experiment": "query_set_size",
                "n": 128,
                "l": 2,
                "set_sizes": [8, 64],
                "database_count": 4,
                "trial_count": 8,
                "seed": 5,
            }
        )
        rows = run_query_set_size_sweep(cfg, RandomSource(cfg.seed))
        for r in rows:
            assert r.worst_case_distortion <= r.analytic_bound


    def test_one_release_per_database_and_run(self, monkeypatch):
        import dpsynth.harness as harness

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sample_rows(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_rows", counting)
        cfg = config_from_dict(
            {
                "experiment": "query_set_size",
                "n": 16,
                "l": 1,
                "set_sizes": [2, 8, 32],
                "database_count": 3,
                "trial_count": 4,
                "seed": 8,
            }
        )
        rows = run_query_set_size_sweep(cfg, RandomSource(cfg.seed))
        assert len(rows) == 3
        assert len(calls) == cfg.database_count * cfg.trial_count


class TestDatabaseScaling:
    def test_slope_and_bounds(self):
        cfg = config_from_dict(
            {
                "experiment": "database_scaling",
                "n_grid": [256, 1024, 4096],
                "l": 1,
                "query_count": 40,
                "trial_count": 10,
                "seed": 11,
            }
        )
        rows = run_database_scaling(cfg, RandomSource(cfg.seed))
        slope = fit_loglog_slope(
            [r.grid_point for r in rows], [r.worst_case_distortion for r in rows]
        )
        assert -1.4 < slope < -0.6
        # the bound column is the set-level instance bound; recompute it from
        # the same query stream
        qs = generate_random_query(
            DataUniverse(1), 256, 1, RandomSource(cfg.seed).derive(2), count=cfg.query_count
        )
        for r in rows:
            assert r.worst_case_distortion <= r.analytic_bound
            expected = upper_bound_squared(
                BoundInputs(
                    n=int(r.grid_point), l=1, epsilon=1.0, a=qs.a, b=qs.b, c=qs.c
                )
            )
            assert r.analytic_bound == expected

    def test_single_point_grid_slope_omitted(self):
        assert fit_loglog_slope([100], [0.5]) is None


class TestCutScaling:
    def test_rows_and_relative_error(self):
        cfg = config_from_dict(
            {
                "experiment": "cut_scaling",
                "vertex_grid": [16, 32],
                "cut_count": 10,
                "trial_count": 4,
                "graph_param": 0.2,
                "seed": 13,
            }
        )
        rows = run_cut_scaling(cfg, RandomSource(cfg.seed))
        assert [r.grid_point for r in rows] == [16, 32]
        for r in rows:
            v = int(r.grid_point)
            assert r.analytic_bound == cut_bound(v // 2, v - v // 2, 1.0)
            assert r.worst_case_distortion >= r.mean_distortion >= 0.0
            assert r.relative_error is not None and r.relative_error > 0.0

    def test_power_law_model(self):
        cfg = config_from_dict(
            {
                "experiment": "cut_scaling",
                "vertex_grid": [24],
                "cut_count": 5,
                "trial_count": 3,
                "graph_model": "power_law",
                "graph_param": 3,
                "seed": 17,
            }
        )
        rows = run_cut_scaling(cfg, RandomSource(cfg.seed))
        assert len(rows) == 1

    @pytest.mark.parametrize("model,param,eps", [("erdos_renyi", 0.3, 0.7), ("power_law", 2, 1.3)])
    def test_per_cut_errors_match_gather_reference(self, monkeypatch, model, param, eps):
        cfg = config_from_dict({"experiment": "cut_scaling", "vertex_grid": [12, 33], "cut_count": 6,
                                "trial_count": 4, "graph_model": model, "graph_param": param,
                                "epsilon": eps, "seed": 23})
        seen = []
        block_summary = harness._block_summary

        def capture(errs, total):
            seen.append(errs.copy())
            return block_summary(errs, total)

        monkeypatch.setattr(harness, "_block_summary", capture)
        run_cut_scaling(cfg, RandomSource(cfg.seed))
        # the debias of the cut estimator in closed form, l = 1: g = 1 + e^-eps
        one_minus = -math.expm1(-eps)
        scale, shift = (1.0 + math.exp(-eps)) / one_minus, math.exp(-eps) / one_minus
        rng = RandomSource(cfg.seed)
        for gi, v in enumerate(cfg.vertex_grid):
            make = erdos_renyi_graph if model == "erdos_renyi" else power_law_graph
            x = make(v, param, rng.derive(harness._S_GRAPH, gi))
            adjacency = x.rows.reshape(v, v)
            cuts = [random_bisection_cut(x, rng.derive(harness._S_CUTS, gi, ci))
                    for ci in range(cfg.cut_count)]
            expected = np.empty((cfg.trial_count, cfg.cut_count))
            for r in range(cfg.trial_count):
                y = release_graph(x, eps, rng.derive(harness._S_RELEASE, gi, r)).rows.reshape(v, v)
                for ci, q in enumerate(cuts):
                    s, t = sorted(q.s_set), sorted(q.t_set)
                    truth = float(adjacency[np.ix_(s, t)].sum())
                    raw = float(y[np.ix_(s, t)].sum())
                    expected[r, ci] = abs(scale * raw - shift * (len(s) * len(t)) - truth)
            assert np.array_equal(seen[gi], expected)
        assert len(seen) == len(cfg.vertex_grid)

    def test_estimator_field_picks_the_cut_estimator(self, tmp_path, monkeypatch):
        # the same releases answered by both estimators: clamping onto
        # [0, |S||T|], which holds the true count, never increases an error
        seen = {"unbiased": [], "proper": []}
        block_summary = harness._block_summary

        def capture(errs, total):
            seen[cfg.estimator].append(errs.copy())
            return block_summary(errs, total)

        monkeypatch.setattr(harness, "_block_summary", capture)
        rows = {}
        for estimator in ("unbiased", "proper"):
            cfg = config_from_dict({"experiment": "cut_scaling", "vertex_grid": [8, 16], "cut_count": 3,
                                    "trial_count": 2, "epsilon": 0.3, "estimator": estimator,
                                    "output": str(tmp_path / f"{estimator}.csv")})
            rows[estimator] = run_experiment(cfg)
        assert (tmp_path / "unbiased.csv").read_bytes() != (tmp_path / "proper.csv").read_bytes()
        for unbiased, proper in zip(seen["unbiased"], seen["proper"]):
            assert (proper <= unbiased).all()
        assert any((p < u).any() for u, p in zip(seen["unbiased"], seen["proper"]))
        for u, p in zip(rows["unbiased"], rows["proper"]):
            assert p.grid_point == u.grid_point and p.analytic_bound == u.analytic_bound
            assert p.worst_case_distortion <= u.worst_case_distortion
            assert p.mean_distortion <= u.mean_distortion


def whole_array_summary(errs):
    """(worst, stderr of worst, mean) from one whole error array with runs on
    axis 0, as the harness computed it before it took one database at a time."""
    runs = errs.shape[0]
    flat = errs.reshape(runs, -1)
    means = flat.mean(axis=0)
    worst = float(means.max())
    mean = float(means.mean())
    if runs < 2:
        return worst, float("inf"), mean
    total = flat.sum(axis=0)
    loo_worst = np.empty(runs)
    for r in range(runs):
        loo_worst[r] = ((total - flat[r]) / (runs - 1)).max()
    se = math.sqrt((runs - 1) / runs * ((loo_worst - loo_worst.mean()) ** 2).sum())
    return worst, se, mean


class TestBlockSummary:
    @pytest.mark.parametrize("runs", [1, 2, 20])
    @pytest.mark.parametrize("databases,queries", [(1, 5), (1, 64), (3, 1), (3, 64), (7, 1), (7, 5)])
    @pytest.mark.parametrize("tied", [False, True])
    def test_equals_whole_array_summary(self, runs, databases, queries, tied):
        gen = RandomSource(runs).derive(databases, queries).generator()
        if tied:  # few distinct values: the cell means and the left-out maxima tie
            blocks = [gen.integers(0, 3, size=(runs, queries)) / 4.0 for _ in range(databases)]
        else:
            blocks = [np.abs(gen.normal(size=(runs, queries))) for _ in range(databases)]
        whole = np.stack(blocks, axis=1)
        assert harness._summarize(iter(blocks), runs, databases) == whole_array_summary(whole)

    def test_single_cell_sums_runs_in_order(self):
        # add.reduce sums a lone (runs, 1) column pairwise; the block path
        # adds the runs in order, as it does for every wider block
        errs = np.abs(RandomSource(9).generator().normal(size=(20, 1)))
        total = 0.0
        for value in errs[:, 0]:
            total += value
        worst, _, mean = harness._summarize([errs], 20, 1)
        assert worst == mean == total / 20

    @staticmethod
    def grid_point_peak(n, databases, runs, size):
        """Traced peak of one query_set_size grid point (l = 3) of ``size``
        linear queries, with its databases and releases built untraced."""
        cfg = config_from_dict({"experiment": "query_set_size", "n": n, "l": 3, "set_sizes": [size],
                                "database_count": databases, "trial_count": runs, "seed": 1})
        universe = DataUniverse(cfg.l)
        params = MechanismParams(cfg.epsilon, universe)
        rng = RandomSource(cfg.seed)
        dbs = [harness._random_database(universe, cfg.n, rng.derive(harness._S_DATABASE, d))
               for d in range(cfg.database_count)]
        releases = [harness._release_runs(x, params, rng, cfg.trial_count, d) for d, x in enumerate(dbs)]
        qs = generate_random_query(universe, cfg.n, 1, rng.derive(harness._S_QUERIES), count=size)
        tracemalloc.start()
        try:
            row = harness._statistical_row(cfg, size, qs, dbs, releases, params, "absolute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < row.worst_case_distortion <= row.analytic_bound
        return peak

    def test_peak_memory_below_whole_array(self):
        # 20 runs x 20 databases x 4096 queries: the whole float64 error
        # array would be 12.5 MB
        assert self.grid_point_peak(256, 20, 20, 4096) <= 0.5 * 20 * 20 * 4096 * 8

    def test_error_path_has_no_full_size_temporaries(self):
        # criterion 7's largest grid point: 16384 queries, 50 databases of
        # 1024 rows, 20 runs. A database's errors are debiased, compared
        # and summarized in the (runs, Q) array its answers arrive in (2.5
        # MiB), and dropped before the next database's arrive, so the peak
        # is the 50 databases' per-query sums (6.25 MiB) and one such
        # array: 8.9 MiB. The bound leaves less than one more (runs, Q)
        # array above that.
        assert self.grid_point_peak(1024, 50, 20, 16384) < 10 * 2**20


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        cfg = tiny_config(output=str(tmp_path / "a.csv"))
        run_experiment(cfg)
        first = (tmp_path / "a.csv").read_bytes()
        run_experiment(cfg, output=str(tmp_path / "b.csv"))
        second = (tmp_path / "b.csv").read_bytes()
        assert first == second
        assert first.startswith(b"experiment,grid_point,")

    def test_seed_changes_output(self, tmp_path):
        cfg = tiny_config(output=str(tmp_path / "a.csv"))
        run_experiment(cfg)
        cfg2 = tiny_config(seed=43, output=str(tmp_path / "b.csv"))
        run_experiment(cfg2)
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


class TestSlopeHelpers:
    def test_weighted_slope_recovers_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0 + 0.5 * x for x in xs]
        slope, se = weighted_slope(xs, ys, [0.1] * 4)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert se > 0.0


class TestIngestion:
    def test_rating_column(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("rating\n0\n4\n2\n")
        schema = {"columns": [{"name": "rating", "cardinality": 5}]}
        db = ingest_csv(path, schema)
        assert db.universe.l == 3  # ceil(log2 5)
        assert list(db.rows) == [0, 4, 2]

    def test_multi_column_bit_layout(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n0,3\n")
        schema = {
            "columns": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 4}]
        }
        db = ingest_csv(path, schema)
        assert db.universe.l == 3
        # column a in bit 0, column b in bits 1-2
        assert list(db.rows) == [1 + (2 << 1), 0 + (3 << 1)]

    def test_label_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("color\nred\nblue\n")
        schema = {"columns": [{"name": "color", "values": ["red", "green", "blue"]}]}
        db = ingest_csv(path, schema)
        assert list(db.rows) == [0, 2]

    def test_positional_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n0\n")
        schema = {"columns": [{"name": "x", "cardinality": 2}], "has_header": False}
        assert list(ingest_csv(path, schema).rows) == [1, 0]

    def test_code_out_of_cardinality_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("rating\n5\n")
        schema = {"columns": [{"name": "rating", "cardinality": 5}]}
        with pytest.raises(ValidationError, match="2"):
            ingest_csv(path, schema)

    def test_empty_and_header_only_rejected(self, tmp_path):
        schema = {"columns": [{"name": "rating", "cardinality": 5}]}
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            ingest_csv(path, schema)
        path.write_text("rating\n")
        with pytest.raises(ValidationError):
            ingest_csv(path, schema)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("rating\n3\nxyz\n")
        schema = {"columns": [{"name": "rating", "cardinality": 5}]}
        with pytest.raises(ValidationError, match="3"):
            ingest_csv(path, schema)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("rating\n3\n\n , \n1\n")
        db = ingest_csv(path, {"columns": [{"name": "rating", "cardinality": 5}]})
        assert list(db.rows) == [3, 1]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("score\n3\n", "missing column 'rating' in header"),
            ("rating,label\n3,b\n1\n", ":3: expected 2 columns"),
            ("rating,label\n3,c\n", ":2: unknown label 'c' for column 'label'"),
            ("rating,label\n3.5,a\n", ":2: non-integer code '3.5' for column 'rating'"),
        ],
        ids=["missing-column", "short-row", "unknown-label", "non-integer-code"],
    )
    def test_malformed_csv_rejected(self, tmp_path, text, match):
        path = tmp_path / "data.csv"
        path.write_text(text)
        schema = {"columns": [{"name": "rating", "cardinality": 5}, {"name": "label", "values": ["a", "b"]}]}
        with pytest.raises(ValidationError, match=match):
            ingest_csv(path, schema)

    def test_schema_validation(self):
        with pytest.raises(ConfigError):
            load_ingestion_schema({"columns": [{"name": "x", "cardinality": 1}]})
        with pytest.raises(ConfigError):
            load_ingestion_schema({"columns": []})
        with pytest.raises(ConfigError):
            load_ingestion_schema({"nonsense": True})

    @pytest.mark.parametrize(
        "schema,match",
        [
            ({"columns": "rating"}, "columns"),
            ({"columns": [5]}, "object"),
            ({"columns": [{"name": "x", "cardinality": "five"}]}, "cardinality"),
            ({"columns": [{"name": "x", "cardinality": 2.7}]}, "cardinality"),
            ({"columns": [{"name": "x", "cardinality": True}]}, "cardinality"),
            ({"columns": [{"name": "x", "values": 5}]}, "values"),
            ({"columns": [{"name": "x", "values": "abc"}]}, "values"),
            ({"columns": [{"name": "x", "values": ["a", "a"]}]}, "distinct"),
            ({"columns": [{"name": 3, "cardinality": 2}]}, "name"),
            ({"columns": [{"name": "a", "cardinality": 4}, {"name": "a", "cardinality": 2}]}, "unique"),
            ({"columns": [{"name": "x", "cardinality": 2}], "has_header": "false"}, "has_header"),
            ({"columns": [{"name": "x", "cardinality": 2}], "header": True}, "unknown schema keys"),
            ({"columns": [{"name": "x", "cardinality": 2, "bits": 1}]}, "column 0: unknown keys"),
            ({"columns": [{"name": "a", "cardinality": 2**16}, {"name": "b", "cardinality": 2**15 + 1}]},
             "needs 32 bits"),
        ],
    )
    def test_malformed_schema_rejected(self, schema, match):
        with pytest.raises(ConfigError, match=match):
            load_ingestion_schema(schema)

    def test_invalid_schema_json_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"columns": [')
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_ingestion_schema(path)

    def test_extension_table_replicates_top_code(self):
        table = category_extension_table(3, 5, [1.0, 2.0, 3.0, 4.0, 5.0])
        # codes 5, 6, 7 are unreachable from data and replicate code 4
        assert list(table) == [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0]

    def test_extension_table_validated(self):
        with pytest.raises(ValidationError, match="need exactly 5 category values"):
            category_extension_table(3, 5, [1.0, 2.0])
        with pytest.raises(ValidationError, match=r"valid_count must lie in \[2, 2\*\*2\]"):
            category_extension_table(2, 5, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_released_codes_may_be_unreachable(self, tmp_path):
        # mechanism outputs cover the full 2^l universe; estimation still works
        from dpsynth.estimators import estimate_unbiased
        from dpsynth.mechanism import sample_synthetic
        from dpsynth.queries import StatisticalQuery

        path = tmp_path / "ratings.csv"
        path.write_text("rating\n" + "\n".join(str(v % 5) for v in range(50)) + "\n")
        x = ingest_csv(path, {"columns": [{"name": "rating", "cardinality": 5}]})
        params = MechanismParams(0.5, x.universe)
        y = sample_synthetic(x, params, RandomSource(21))
        table = category_extension_table(3, 5, [0.0, 0.25, 0.5, 0.75, 1.0])
        q = StatisticalQuery(x.universe, table[None, :], np.zeros(50, dtype=np.int64))
        value = estimate_unbiased(q, y, params)
        assert np.isfinite(value)


class TestSweepPinned:
    """sha256 of experiment CSVs and of ``dpsynth bounds`` stdout, as
    written before the sweeps shared one grid-point path and one CSV writer:
    the refactor moves no draw and no byte. ``query_set_size_large`` is
    criterion 7's size, where summation order is most exposed; it was
    pinned while the summary still read one whole (runs, databases,
    queries) error array. The grid ``bounds`` stdout carries the pin of the
    bound-table experiment it replaced: the same table, byte for byte."""

    CONFIGS = {
        "heterogeneity": {"experiment": "heterogeneity", "n": 64, "l": 2, "query_count": 16,
                          "trial_count": 5, "heterogeneity_grid": [1, 4, 32], "seed": 42},
        # the default grid, (1, 2, 4, 8, 16), and the projection
        "heterogeneity_proper": {"experiment": "heterogeneity", "n": 32, "l": 3, "query_count": 12,
                                 "trial_count": 4, "estimator": "proper", "epsilon": 0.5, "seed": 5},
        "query_set_size": {"experiment": "query_set_size", "n": 24, "l": 2, "set_sizes": [1, 6, 40],
                           "database_count": 3, "trial_count": 4, "epsilon": 2.0, "seed": 8},
        "query_set_size_large": {"experiment": "query_set_size", "n": 1024, "l": 3,
                                 "set_sizes": [64, 1024, 16384], "database_count": 50,
                                 "trial_count": 20, "seed": 7},
        "database_scaling": {"experiment": "database_scaling", "n_grid": [64, 256, 1024], "l": 1,
                             "query_count": 10, "trial_count": 4, "seed": 11},
    }
    CSV_SHA256 = {
        "heterogeneity": "e7d914da3266ba745aa57be8df572f748bf84739eda11c2f1e494bbc7ca3bc22",
        "heterogeneity_proper": "43445c344045649b4cf762ea4061be27d1834a41871e6389552c64ea7c6dfb09",
        "query_set_size": "1aeed62485631d9c105e263c4af1aaf02759757d9647cef609f1a8efc220c72e",
        "query_set_size_large": "103b5ee64ea329c614437087a2f43418ef7066215e08cca9fffb5802c1364b50",
        "database_scaling": "703a90d2627a84f2f3ffff04518c6873deb096b00d5ed11dc0e4f0c0fbd44313",
    }
    BOUNDS_STDOUT_SHA256 = "2f12792494795b9fa6f33322515f555c53c8ba3fad82a8a50b7a100feeeb43f6"
    BOUNDS_GRID_STDOUT_SHA256 = "256073baf8a767982b60a8837b76aa3ef1892be0f5309516a134b12987e24d77"

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_experiment_csv(self, tmp_path, capsys, name):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({**self.CONFIGS[name], "output": str(out)}))
        assert main(["experiment", "--config", str(cfg_path)]) == 0, capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CSV_SHA256[name]

    def test_bounds_stdout(self, capsys):
        assert main(["bounds", "--n", "5000", "--l", "3", "--epsilon", "0.8", "--a", "0.5",
                     "--b", "2.0", "--c", "0.25", "--L", "1.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.BOUNDS_STDOUT_SHA256

    def test_bounds_grid_stdout(self, capsys):
        assert main(["bounds", "--n", "100", "1000", "--l", "2", "--epsilon", "0.5", "1.0", "--a", "-1.0",
                     "--b", "3.0", "--c", "0.5", "--L", "2.0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.BOUNDS_GRID_STDOUT_SHA256


class TestResultCsv:
    def test_nine_significant_digits(self, tmp_path):
        from dpsynth.harness import ResultRow

        rows = [
            ResultRow("heterogeneity", 1, 0.123456789123, 0.01, 0.1, 0.2, 5, 42, None)
        ]
        path = tmp_path / "out.csv"
        write_results_csv(rows, path)
        text = path.read_text()
        assert "0.123456789" in text
        assert text.endswith("\r\n") or text.endswith("\n")
