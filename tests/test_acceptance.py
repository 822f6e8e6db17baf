"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (visible under ``pytest -s`` or on failure).

Monte Carlo criteria run at fixed seeds; they are statistical statements, so
re-running with different seeds can move individual checks by a few standard
errors (the slope checks in criteria 6 and 7 are the sensitive ones).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpsynth.bounds import (
    BoundInputs,
    continuous_bound,
    cut_bound,
    lower_bound_lemma4,
    lower_bound_squared_asymptotic,
    upper_bound_absolute,
    upper_bound_squared,
)
from dpsynth.continuous import ContinuousDatabase, LipschitzQuery, release_continuous
from dpsynth.core import (
    Database,
    DataUniverse,
    RandomSource,
    all_databases_matrix,
)
from dpsynth.estimators import (
    exact_distortion,
    measure_distortion,
    project_proper,
)
from dpsynth.graph import CutQuery, answer_cut, cut_value, edges_database, erdos_renyi_graph, random_bisection_cut
from dpsynth.harness import (
    config_from_dict,
    fit_loglog_slope,
    run_cut_scaling,
    run_database_scaling,
    run_experiment,
    run_heterogeneity_sweep,
    run_query_set_size_sweep,
)
from dpsynth.mechanism import MechanismParams, log_pmf_all_outputs, sample_rows, verify_dp
from dpsynth.queries import generate_random_query, make_predicate_query

SEED = 20250809


def weighted_slope(xs, ys, ses) -> tuple[float, float]:
    """Weighted least-squares slope of ys on xs and its standard error,
    weighting each point by 1/se^2."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    se = np.maximum(np.asarray(ses, dtype=np.float64), 1e-300)
    w = 1.0 / (se * se)
    xbar = float((w * x).sum() / w.sum())
    ybar = float((w * y).sum() / w.sum())
    sxx = float((w * (x - xbar) ** 2).sum())
    slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    return slope, math.sqrt(1.0 / sxx)


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its runtime limit"


def micro_instance(seed, max_bits=10):
    gen = RandomSource(seed).generator()
    l = int(gen.integers(1, 4))
    n = int(gen.integers(1, max_bits // l + 1))
    u = DataUniverse(l)
    h = int(gen.choice([d for d in range(1, n + 1) if n % d == 0]))
    q = generate_random_query(u, n, h, RandomSource(seed, 1))
    x = Database(u, gen.integers(0, u.cardinality, size=n))
    eps = float(gen.choice([0.25, 0.5, 1.0, 2.0]))
    return q, x, MechanismParams(eps, u)


def test_criterion_01_dp_exactness():
    """Exhaustive neighbor log-ratio equals epsilon for every n*l <= 12."""
    with criterion(1, "DP exactness", 10.0):
        combos = [(n, l) for l in range(1, 13) for n in range(1, 12 // l + 1)]
        assert len(combos) == 35
        for n, l in combos:
            u = DataUniverse(l)
            for eps in (0.25, 1.0, 2.0):
                ratio = verify_dp(u, n, MechanismParams(eps, u))
                assert abs(ratio - eps) <= 1e-12, (n, l, eps, ratio)


def test_criterion_02_unbiasedness():
    """E[est(Y)] = q(x) by full enumeration on 100 random micro-instances."""
    with criterion(2, "unbiasedness", 30.0):
        for seed in range(100):
            q, x, params = micro_instance(seed)
            rows = all_databases_matrix(x.universe, x.n)
            probs = np.exp(log_pmf_all_outputs(x, params))
            estimates = params.scale * q.evaluate_rows(rows) - params.shift * q.centering
            assert abs(float(probs @ estimates) - q.evaluate(x)) <= 1e-10


def test_criterion_03_squared_error_bound():
    """Exact MSE below the closed-form bound everywhere; Monte Carlo MSE at
    n = 10^4 below the bound value 4.683e-3."""
    with criterion(3, "squared-error bound", 120.0):
        for seed in range(40):
            q, x, params = micro_instance(seed)
            bound = upper_bound_squared(
                BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c)
            )
            assert exact_distortion(q, x, params, "unbiased", "squared") <= bound * (1 + 1e-12)

        n = 10**4
        u = DataUniverse(1)
        q = make_predicate_query(u, n, [0])  # a = 0, b = c = 1
        x = Database(u, RandomSource(SEED, 1).generator().integers(0, 2, size=n))
        params = MechanismParams(1.0, u)
        report = measure_distortion(
            q, x, params, "unbiased", "squared", trials=10**5, rng=RandomSource(SEED, 2)
        )
        # direct evaluation of the bound at n = 10^4: 4.6827e-4 (the spec's
        # stated 4.683e-3 is the n = 10^3 value; the true bound is tighter)
        bound = upper_bound_squared(BoundInputs(n=n, l=1, epsilon=1.0))
        assert bound == pytest.approx(4.6827e-4, abs=1e-7)
        print(f"    MC MSE {report.empirical_mean:.3e} vs bound {bound:.3e}")
        assert report.empirical_mean <= bound
        assert report.empirical_mean <= 4.683e-3


def test_criterion_04_factor_four_quantization():
    """Projection at most doubles the pointwise error; enumerated proper MSE
    stays within 4x the unbiased bound."""
    with criterion(4, "factor-4 quantization", 60.0):
        for seed in range(25):
            q, x, params = micro_instance(seed, max_bits=8)
            rows = all_databases_matrix(x.universe, x.n)
            qx = q.evaluate(x)
            raw = params.scale * q.evaluate_rows(rows) - params.shift * q.centering
            lo, hi = q.value_range()
            clamped = np.clip(raw, lo, hi)
            assert (np.abs(clamped - qx) <= 2.0 * np.abs(raw - qx) + 1e-12).all()
            projected = np.array([project_proper(q, r, "exact_range") for r in raw])
            assert (np.abs(projected - qx) <= 2.0 * np.abs(raw - qx) + 1e-12).all()

            unbiased_bound = upper_bound_squared(
                BoundInputs(n=x.n, l=x.universe.l, epsilon=params.epsilon, a=q.a, b=q.b, c=q.c)
            )
            proper_mse = exact_distortion(q, x, params, "proper", "squared")
            assert proper_mse <= 4.0 * unbiased_bound * (1 + 1e-12)


def test_criterion_05_scaling_law():
    """Worst-case squared distortion scales as 1/n: log-log slope in
    [-1.15, -0.85] over n = 2^10 .. 2^16."""
    with criterion(5, "database-size scaling law", 600.0):
        cfg = config_from_dict(
            {
                "experiment": "database_scaling",
                "n_grid": [2**k for k in range(10, 17)],
                "l": 3,
                "epsilon": 1.0,
                "query_count": 200,
                "trial_count": 20,
                "seed": SEED,
            }
        )
        rows = run_database_scaling(cfg, RandomSource(cfg.seed))
        slope = fit_loglog_slope(
            [r.grid_point for r in rows], [r.worst_case_distortion for r in rows]
        )
        print(f"    scaling slope = {slope:.4f}")
        assert -1.15 <= slope <= -0.85
        for r in rows:
            assert r.worst_case_distortion <= r.analytic_bound


def test_criterion_06_heterogeneity_robustness():
    """Worst-case absolute distortion at heterogeneity 1 vs n/2 differs by
    less than 3 pooled standard errors."""
    with criterion(6, "heterogeneity robustness", 300.0):
        n = 1024
        cfg = config_from_dict(
            {
                "experiment": "heterogeneity",
                "n": n,
                "l": 3,
                "epsilon": 1.0,
                "query_count": 200,
                "trial_count": 20,
                "heterogeneity_grid": [1, n // 2],
                "seed": SEED,
            }
        )
        rows = run_heterogeneity_sweep(cfg, RandomSource(cfg.seed))
        low, high = rows[0], rows[-1]
        pooled = math.hypot(low.worst_case_stderr, high.worst_case_stderr)
        gap = abs(low.worst_case_distortion - high.worst_case_distortion)
        print(f"    worst@h=1 {low.worst_case_distortion:.5f}, "
              f"worst@h={n // 2} {high.worst_case_distortion:.5f}, "
              f"gap/pooled = {gap / pooled:.2f}")
        assert gap < 3.0 * pooled


def test_criterion_07_query_set_size_independence():
    """Worst-case absolute distortion stays below the bound at set sizes
    {64, 1024, 16384} with no size trend beyond noise."""
    with criterion(7, "query-set-size independence", 600.0):
        cfg = config_from_dict(
            {
                "experiment": "query_set_size",
                "n": 1024,
                "l": 3,
                "epsilon": 1.0,
                "set_sizes": [64, 1024, 16384],
                "database_count": 50,
                "trial_count": 20,
                "seed": SEED,
            }
        )
        rows = run_query_set_size_sweep(cfg, RandomSource(cfg.seed))
        for r in rows:
            assert r.worst_case_distortion <= r.analytic_bound
        slope, slope_se = weighted_slope(
            [math.log(r.grid_point) for r in rows],
            [r.worst_case_distortion for r in rows],
            [r.worst_case_stderr for r in rows],
        )
        print(f"    slope = {slope:.3e} (se {slope_se:.3e})")
        assert slope <= 0.0 or abs(slope) < 2.0 * slope_se


def test_criterion_08_cut_release():
    """Cut estimator: exact bound compliance on micro-graphs, Monte Carlo
    bound compliance at |V| in {64, 256}, growth slope <= 1.1, and the
    relative-error table (reported, ungated)."""
    with criterion(8, "cut release", 600.0):
        # micro-graphs, exact enumeration
        for edges, v, s_set, t_set in [
            ([(0, 1)], 2, {0}, {1}),
            ([(0, 1), (1, 2), (2, 0)], 3, {0, 1}, {2}),
            ([(0, 1), (1, 2)], 3, {0}, {1, 2}),
        ]:
            x = edges_database(v, edges)
            u = DataUniverse(1)
            params = MechanismParams(1.0, u)
            rows = all_databases_matrix(u, v * v)
            probs = np.exp(log_pmf_all_outputs(x, params))
            q = CutQuery(frozenset(s_set), frozenset(t_set))
            truth = cut_value(x, q)
            errors = np.array([abs(answer_cut(Database(u, r), q, 1.0) - truth) for r in rows])
            assert float(probs @ errors) <= cut_bound(len(s_set), len(t_set), 1.0)

        # Monte Carlo at |V| in {64, 256}: 10^4 trials, mean <= bound
        for v in (64, 256):
            x = erdos_renyi_graph(v, 0.05, RandomSource(SEED, v))
            q = random_bisection_cut(x, RandomSource(SEED, v + 1))
            truth = cut_value(x, q)
            bound = cut_bound(len(q.s_set), len(q.t_set), 1.0)
            params = MechanismParams(1.0, DataUniverse(1))
            s = sorted(q.s_set)
            t = sorted(q.t_set)
            factor = (1 + math.exp(-1.0)) / (1 - math.exp(-1.0))
            shift = math.exp(-1.0) / (1 - math.exp(-1.0)) * (len(s) * len(t))
            gen = RandomSource(SEED, v + 2).generator()
            trials, chunk = 10**4, 200
            total_abs = 0.0
            for start in range(0, trials, chunk):
                count = min(chunk, trials - start)
                # count releases from one stream: one release of x tiled count times
                ys = sample_rows(Database(x.universe, np.tile(x.rows, count)), params, gen)
                sub = ys.reshape(count, v, v)[:, s][:, :, t]
                raw = sub.sum(axis=(1, 2)).astype(np.float64)
                total_abs += float(np.abs(factor * raw - shift - truth).sum())
            mean_error = total_abs / trials
            print(f"    |V|={v}: mean |error| {mean_error:.2f} vs bound {bound:.2f}")
            assert mean_error <= bound

        # growth with |V| and the relative-error table
        cfg = config_from_dict(
            {
                "experiment": "cut_scaling",
                "vertex_grid": [64, 128, 256, 512],
                "epsilon": 1.0,
                "cut_count": 100,
                "trial_count": 10,
                "graph_param": 0.05,
                "seed": SEED,
            }
        )
        rows = run_cut_scaling(cfg, RandomSource(cfg.seed))
        slope = fit_loglog_slope(
            [r.grid_point for r in rows], [r.worst_case_distortion for r in rows]
        )
        print(f"    cut error slope = {slope:.3f}")
        for r in rows:
            assert r.mean_distortion <= r.analytic_bound
            print(
                f"    |V|={int(r.grid_point):4d}: worst relative error "
                f"{100 * r.relative_error:.1f}% (reported, not gated)"
            )
        assert slope <= 1.1


def test_criterion_09_bound_self_consistency():
    """Bound calculators: algebraic identity, finite-n/asymptotic agreement,
    and lower <= upper across the grid."""
    with criterion(9, "bound self-consistency", 5.0):
        for n in (100, 10**4, 10**8):
            for l in range(1, 9):
                for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
                    inputs = BoundInputs(n=n, l=l, epsilon=eps)
                    absolute = upper_bound_absolute(inputs)
                    squared = upper_bound_squared(inputs)
                    assert abs(absolute * absolute - squared) <= 1e-12 * squared
                    assert lower_bound_lemma4(inputs) <= upper_bound_squared(
                        inputs, proper=True
                    )
                    assert lower_bound_squared_asymptotic(inputs) <= upper_bound_squared(
                        inputs, proper=True
                    )
        inputs = BoundInputs(n=10**8, l=1, epsilon=1.0)
        finite = lower_bound_lemma4(inputs)
        asym = lower_bound_squared_asymptotic(inputs)
        assert abs(finite - asym) / asym < 0.01


def test_criterion_10_continuous_pipeline():
    """End-to-end continuous release MSE within 1.25x the leading term at
    n in {256, 4096}."""
    with criterion(10, "continuous pipeline", 300.0):
        q = LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        trials = 10**4
        for n in (256, 4096):
            x = ContinuousDatabase(RandomSource(SEED, n).generator().random(n))
            truth = float(np.mean(x.rows))
            base = RandomSource(SEED, n + 1)
            total_sq = 0.0
            for t in range(trials):
                answer = release_continuous(x, q, 1.0, base.derive(t))
                total_sq += (answer - truth) ** 2
            mse = total_sq / trials
            bound = continuous_bound(BoundInputs(n=n, l=1, epsilon=1.0, L=1.0))
            print(f"    n={n}: MSE {mse:.5f} vs 1.25x bound {1.25 * bound:.5f}")
            assert mse <= 1.25 * bound


def test_criterion_11_determinism(tmp_path):
    """Identical config and seed produce byte-identical experiment CSVs."""
    with criterion(11, "determinism", 60.0):
        cfg = config_from_dict(
            {
                "experiment": "heterogeneity",
                "n": 256,
                "l": 2,
                "query_count": 50,
                "trial_count": 10,
                "heterogeneity_grid": [1, 8, 128],
                "seed": SEED,
            }
        )
        run_experiment(cfg, output=str(tmp_path / "first.csv"))
        run_experiment(cfg, output=str(tmp_path / "second.csv"))
        first = (tmp_path / "first.csv").read_bytes()
        second = (tmp_path / "second.csv").read_bytes()
        assert first == second
        assert len(first.splitlines()) == 4
