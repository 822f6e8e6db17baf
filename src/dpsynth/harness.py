"""Experiment suites, data ingestion, and CSV result emission.

The sweeps reproduce the scaling experiments at desk scale: worst-case
distortion under varying query heterogeneity, query-set size, database size,
and graph size, each against the applicable closed-form bound. Defaults use
200 queries and 20 runs (the reference experiment sizes) with databases
capped at 2^16 rows and graphs at 512 vertices so a full sweep takes minutes
on a laptop; the larger scales remain config-reachable.

Conventions shared by the statistical sweeps:

* One synthetic database is released per run and answers every query at
  every grid point — the release is query-set independent, so re-releasing
  per query would misrepresent the mechanism.
* The distortion of a query is its expected distortion, estimated by the
  across-run mean; ``worst_case_distortion`` is the maximum of those means
  over the query set (and database set, where applicable), and
  ``worst_case_stderr`` is its leave-one-run-out jackknife standard error.
* Every ``analytic_bound`` column is computed by the ``bounds`` module from
  the generated query set's own class constants.

Determinism: every random draw derives from the config seed through fixed
stream indices, and rows are emitted in grid order, so identical configs
produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .bounds import BOUND_TABLE_COLUMNS, BoundInputs, bound_table_row, cut_bound
from .core import ConfigError, Database, DataUniverse, RandomSource, ValidationError
from .estimators import _distortion_bound, _estimates
from .graph import (
    answer_cut,
    cut_value,
    erdos_renyi_graph,
    power_law_graph,
    random_bisection_cut,
    release_graph,
)
from .mechanism import MechanismParams, sample_rows
from .queries import generate_random_query

EXPERIMENTS = (
    "heterogeneity",
    "query_set_size",
    "database_scaling",
    "cut_scaling",
    "bounds_table",
)

GRAPH_MODELS = ("erdos_renyi", "power_law")

RESULT_COLUMNS = (
    "experiment",
    "grid_point",
    "worst_case_distortion",
    "worst_case_stderr",
    "mean_distortion",
    "analytic_bound",
    "runs",
    "seed",
    "relative_error",
)

# stream indices hung off the config seed; fixed so results are reproducible
_S_DATABASE = 1
_S_QUERIES = 2
_S_RELEASE = 3
_S_GRAPH = 4
_S_CUTS = 5


# the type each config field must have; a parsed JSON config guarantees none
_STR_FIELDS = ("experiment", "output", "graph_model", "estimator")
_INT_FIELDS = ("seed", "l", "n", "query_count", "database_count", "cut_count", "trial_count")
_REAL_FIELDS = ("epsilon", "graph_param", "a", "b", "c", "L")
_INT_GRIDS = ("n_grid", "heterogeneity_grid", "set_sizes", "vertex_grid")
_REAL_GRIDS = ("epsilon_grid",)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see ``config_from_dict``."""

    experiment: str
    seed: int = 0
    output: str = "results.csv"
    epsilon: float = 1.0
    l: int = 3
    n: int = 1024
    n_grid: tuple = ()
    query_count: int = 200
    heterogeneity_grid: tuple = ()
    set_sizes: tuple = (64, 1024, 16384)
    database_count: int = 50
    vertex_grid: tuple = (64, 128, 256, 512)
    graph_model: str = "erdos_renyi"
    graph_param: float = 0.05
    cut_count: int = 100
    trial_count: int = 20
    estimator: str = "unbiased"
    a: float = 0.0
    b: float = 1.0
    c: float = 1.0
    L: float | None = None
    epsilon_grid: tuple = ()

    def __post_init__(self):
        self._check_types()
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.trial_count < 1:
            raise ConfigError("trial_count must be >= 1")
        if self.query_count < 1:
            raise ConfigError("query_count must be >= 1")
        if self.estimator not in ("unbiased", "proper"):
            raise ConfigError(f"estimator must be 'unbiased' or 'proper', got {self.estimator!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.experiment == "heterogeneity":
            grid = self.heterogeneity_grid or _default_heterogeneity_grid(self.n)
            if not grid:
                raise ConfigError("heterogeneity grid must be nonempty")
            for h in grid:
                if not 1 <= h <= self.n or self.n % h != 0:
                    raise ConfigError(f"heterogeneity {h} must divide n={self.n}")
            object.__setattr__(self, "heterogeneity_grid", tuple(int(h) for h in grid))
        if self.experiment == "query_set_size":
            if not self.set_sizes or list(self.set_sizes) != sorted(set(self.set_sizes)):
                raise ConfigError("set_sizes must be nonempty, ascending, and distinct")
            if min(self.set_sizes) < 1:
                raise ConfigError("set sizes must be >= 1")
            if self.database_count < 1:
                raise ConfigError("database_count must be >= 1")
            object.__setattr__(self, "set_sizes", tuple(int(s) for s in self.set_sizes))
        if self.experiment == "database_scaling":
            grid = self.n_grid or tuple(2**k for k in range(10, 17))
            if len(grid) < 1 or list(grid) != sorted(set(grid)) or min(grid) < 1:
                raise ConfigError("n_grid must be nonempty, ascending, and distinct")
            if len(grid) >= 2 and max(grid) < 10 * min(grid):
                raise ConfigError("n_grid should span at least one decade for a slope fit")
            object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        if self.experiment == "cut_scaling":
            if not self.vertex_grid or min(self.vertex_grid) < 2:
                raise ConfigError("vertex_grid must be nonempty with |V| >= 2")
            if list(self.vertex_grid) != sorted(set(self.vertex_grid)):
                raise ConfigError("vertex_grid must be ascending and distinct")
            if self.graph_model not in GRAPH_MODELS:
                raise ConfigError(f"graph_model must be one of {GRAPH_MODELS}")
            if self.cut_count < 1:
                raise ConfigError("cut_count must be >= 1")
            object.__setattr__(self, "vertex_grid", tuple(int(v) for v in self.vertex_grid))
        if self.experiment == "bounds_table":
            grid = self.n_grid or (1000, 10000, 100000)
            eps_grid = self.epsilon_grid or (self.epsilon,)
            object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
            object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in eps_grid))

    def _check_types(self):
        """Reject a field of the wrong type with ConfigError, before any
        comparison or arithmetic could raise TypeError; grids given as lists
        become tuples. ``L`` may be None, and so may a grid (read as empty,
        which selects its default)."""
        for name in _STR_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        for names, ok, what in ((_INT_FIELDS, _is_int, "an integer"), (_REAL_FIELDS, _is_real, "a number")):
            for name in names:
                value = getattr(self, name)
                if not ok(value) and not (name == "L" and value is None):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        for names, ok, what in ((_INT_GRIDS, _is_int, "integers"), (_REAL_GRIDS, _is_real, "numbers")):
            for name in names:
                value = getattr(self, name)
                if value is None:
                    continue
                if not isinstance(value, (list, tuple)) or not all(ok(v) for v in value):
                    raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
                object.__setattr__(self, name, tuple(value))


def _default_heterogeneity_grid(n: int) -> tuple:
    grid = []
    h = 1
    while h <= n // 2:
        grid.append(h)
        h *= 2
    return tuple(grid)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' field")
    return ExperimentConfig(**raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(raw)


@dataclass(frozen=True)
class ResultRow:
    """One grid point of one experiment."""

    experiment: str
    grid_point: float
    worst_case_distortion: float
    worst_case_stderr: float
    mean_distortion: float
    analytic_bound: float
    runs: int
    seed: int
    relative_error: float | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def write_results_csv(rows, path) -> None:
    """RFC-4180 CSV, one header line, floats at 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in RESULT_COLUMNS])


def write_bounds_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUND_TABLE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in BOUND_TABLE_COLUMNS])


def _random_database(universe: DataUniverse, n: int, rng: RandomSource) -> Database:
    gen = rng.generator()
    return Database(universe, gen.integers(0, universe.cardinality, size=n))


def _release_runs(x: Database, params: MechanismParams, rng: RandomSource, runs: int, *stream) -> np.ndarray:
    """(runs, n) synthetic rows; run r is drawn from stream (_S_RELEASE, *stream, r)."""
    return np.stack(
        [
            sample_rows(x.rows, params, rng.derive(_S_RELEASE, *stream, r).generator(), 1)[0]
            for r in range(runs)
        ]
    )


@dataclass(frozen=True)
class _Stats:
    worst: float
    worst_se: float
    mean: float


def _summarize(errs: np.ndarray) -> _Stats:
    """errs has runs on axis 0; the rest indexes (query [, database]).

    Per-query distortion = across-run mean; worst case = max of those means;
    the stderr of the worst case is the leave-one-run-out jackknife.
    """
    runs = errs.shape[0]
    flat = errs.reshape(runs, -1)
    means = flat.mean(axis=0)
    worst = float(means.max())
    mean = float(means.mean())
    if runs < 2:
        return _Stats(worst, float("inf"), mean)
    total = flat.sum(axis=0)
    loo_worst = np.empty(runs)
    for r in range(runs):
        loo_worst[r] = ((total - flat[r]) / (runs - 1)).max()
    se = math.sqrt((runs - 1) / runs * ((loo_worst - loo_worst.mean()) ** 2).sum())
    return _Stats(worst, se, mean)


def run_heterogeneity_sweep(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case absolute distortion under varying query heterogeneity.

    The released databases are shared across heterogeneity levels (one
    release answers everything), so level-to-level differences are driven by
    the query structure, not by fresh release noise.
    """
    universe = DataUniverse(config.l)
    params = MechanismParams(config.epsilon, universe)
    x = _random_database(universe, config.n, rng.derive(_S_DATABASE))
    releases = _release_runs(x, params, rng, config.trial_count)
    out = []
    for gi, h in enumerate(config.heterogeneity_grid):
        qs = generate_random_query(
            universe, config.n, h, rng.derive(_S_QUERIES, gi), count=config.query_count
        )
        est = _estimates(qs, qs.evaluate_rows(releases), params, config.estimator)
        stats = _summarize(np.abs(est - qs.evaluate(x)))
        bound = _distortion_bound(qs, config.n, params, config.estimator, "absolute")
        out.append(
            ResultRow(
                "heterogeneity", h, stats.worst, stats.worst_se, stats.mean, bound,
                config.trial_count, config.seed,
            )
        )
    return out


def run_query_set_size_sweep(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case absolute distortion across query sets of growing size.

    Linear queries (heterogeneity 1); the worst case additionally ranges over
    ``database_count`` random databases, mirroring the reference experiment's
    sub-database sampling (how those sub-databases were chosen upstream is
    unrecorded, so they are seeded uniform draws here). Each (database, run)
    pair is released once and answers the query sets of every size.
    """
    universe = DataUniverse(config.l)
    params = MechanismParams(config.epsilon, universe)
    dbs = [
        _random_database(universe, config.n, rng.derive(_S_DATABASE, d))
        for d in range(config.database_count)
    ]
    releases = [_release_runs(x, params, rng, config.trial_count, di) for di, x in enumerate(dbs)]
    out = []
    for gi, size in enumerate(config.set_sizes):
        qs = generate_random_query(universe, config.n, 1, rng.derive(_S_QUERIES, gi), count=size)
        errs = np.empty((config.trial_count, config.database_count, size))
        for di, x in enumerate(dbs):
            est = _estimates(qs, qs.evaluate_rows(releases[di]), params, config.estimator)
            errs[:, di] = np.abs(est - qs.evaluate(x))
        stats = _summarize(errs)
        bound = _distortion_bound(qs, config.n, params, config.estimator, "absolute")
        out.append(
            ResultRow(
                "query_set_size", size, stats.worst, stats.worst_se, stats.mean, bound,
                config.trial_count, config.seed,
            )
        )
    return out


def run_database_scaling(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case squared distortion against database size; one query set
    (linear, shared across sizes) per the reference scaling experiment."""
    universe = DataUniverse(config.l)
    params = MechanismParams(config.epsilon, universe)
    out = []
    for gi, n in enumerate(config.n_grid):
        qs = generate_random_query(universe, n, 1, rng.derive(_S_QUERIES), count=config.query_count)
        x = _random_database(universe, n, rng.derive(_S_DATABASE, gi))
        releases = _release_runs(x, params, rng, config.trial_count, gi)
        est = _estimates(qs, qs.evaluate_rows(releases), params, config.estimator)
        stats = _summarize((est - qs.evaluate(x)) ** 2)
        bound = _distortion_bound(qs, n, params, config.estimator, "squared")
        out.append(
            ResultRow(
                "database_scaling", n, stats.worst, stats.worst_se, stats.mean, bound,
                config.trial_count, config.seed,
            )
        )
    return out


def run_cut_scaling(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case absolute cut error against graph size, with the cut bound
    overlay and the worst-case relative error (Table-style, ungated)."""
    out = []
    for gi, v in enumerate(config.vertex_grid):
        if config.graph_model == "erdos_renyi":
            g = erdos_renyi_graph(v, config.graph_param, rng.derive(_S_GRAPH, gi))
        else:
            g = power_law_graph(v, max(1, int(config.graph_param)), rng.derive(_S_GRAPH, gi))
        cuts = [
            random_bisection_cut(g, rng.derive(_S_CUTS, gi, ci)) for ci in range(config.cut_count)
        ]
        truths = np.array([cut_value(g, q) for q in cuts], dtype=np.float64)
        errs = np.empty((config.trial_count, config.cut_count))
        for r in range(config.trial_count):
            y = release_graph(g, config.epsilon, rng.derive(_S_RELEASE, gi, r))
            for ci, q in enumerate(cuts):
                errs[r, ci] = abs(answer_cut(y, q, config.epsilon) - truths[ci])
        stats = _summarize(errs)
        bound = cut_bound(v // 2, v - v // 2, config.epsilon)
        positive = truths > 0
        relative = None
        if positive.any():
            relative = float((errs.mean(axis=0)[positive] / truths[positive]).max())
        out.append(
            ResultRow(
                "cut_scaling", v, stats.worst, stats.worst_se, stats.mean, bound,
                config.trial_count, config.seed, relative_error=relative,
            )
        )
    return out


def run_bounds_table(config: ExperimentConfig) -> list[dict]:
    rows = []
    for eps in config.epsilon_grid:
        for n in config.n_grid:
            rows.append(
                bound_table_row(
                    BoundInputs(
                        n=n, l=config.l, epsilon=eps, a=config.a, b=config.b, c=config.c,
                        L=config.L,
                    )
                )
            )
    return rows


def run_experiment(config: ExperimentConfig, output=None):
    """Dispatch one experiment and write its CSV; returns the result rows."""
    path = output if output is not None else config.output
    rng = RandomSource(config.seed)
    if config.experiment == "bounds_table":
        rows = run_bounds_table(config)
        write_bounds_csv(rows, path)
        return rows
    if config.experiment == "heterogeneity":
        rows = run_heterogeneity_sweep(config, rng)
    elif config.experiment == "query_set_size":
        rows = run_query_set_size_sweep(config, rng)
    elif config.experiment == "database_scaling":
        rows = run_database_scaling(config, rng)
    else:
        rows = run_cut_scaling(config, rng)
    write_results_csv(rows, path)
    return rows


def fit_loglog_slope(grid, values):
    """Least-squares slope of log(value) against log(grid); None when the
    grid has fewer than two points or a value is nonpositive."""
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if grid.size < 2 or (values <= 0).any():
        return None
    return float(np.polyfit(np.log(grid), np.log(values), 1)[0])


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


def load_ingestion_schema(source) -> dict:
    """Validate a column schema: {"columns": [{"name", "cardinality" |
    "values"}...], "has_header": bool}."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict) or "columns" not in raw:
        raise ConfigError("schema needs a 'columns' list")
    unknown = set(raw) - {"columns", "has_header"}
    if unknown:
        raise ConfigError(f"unknown schema keys: {sorted(unknown)}")
    columns = []
    total_bits = 0
    for idx, col in enumerate(raw["columns"]):
        unknown = set(col) - {"name", "cardinality", "values"}
        if unknown:
            raise ConfigError(f"column {idx}: unknown keys {sorted(unknown)}")
        name = col.get("name", f"col{idx}")
        values = col.get("values")
        if values is not None:
            cardinality = len(values)
        else:
            cardinality = col.get("cardinality")
        if cardinality is None or int(cardinality) < 2:
            raise ConfigError(f"column {name!r}: cardinality must be >= 2")
        cardinality = int(cardinality)
        bits = (cardinality - 1).bit_length()
        columns.append(
            {"name": name, "cardinality": cardinality, "values": values, "bits": bits,
             "offset": total_bits}
        )
        total_bits += bits
    if not columns:
        raise ConfigError("schema needs at least one column")
    if total_bits > 30:
        raise ConfigError(f"schema needs {total_bits} bits; the universe cap is 30")
    return {"columns": columns, "has_header": bool(raw.get("has_header", True)), "l": total_bits}


def ingest_csv(path, schema) -> Database:
    """Read a categorical CSV into a database under a ceil-log2 bit layout.

    Column j of the schema occupies ``bits_j = ceil(log2 cardinality_j)``
    bits starting at its offset (first column least significant). Codes
    beyond a column's cardinality are unreachable from real data but are
    legal synthetic outputs of the release mechanism, which perturbs over the
    full 2**l universe; see ``category_extension_table`` for lifting
    per-category values onto the full code range.
    """
    schema = load_ingestion_schema(schema)
    columns = schema["columns"]
    codes = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if schema["has_header"]:
            header = [cell.strip() for cell in first]
            positions = []
            for col in columns:
                if col["name"] not in header:
                    raise ValidationError(f"{path}: missing column {col['name']!r} in header")
                positions.append(header.index(col["name"]))
            start_line = 2
        else:
            positions = list(range(len(columns)))
            reader = _chain_rows(first, reader)
            start_line = 1
        for lineno, row in enumerate(reader, start=start_line):
            if not row or all(not cell.strip() for cell in row):
                continue
            if max(positions) >= len(row):
                raise ValidationError(f"{path}:{lineno}: expected {max(positions) + 1} columns")
            code = 0
            for col, pos in zip(columns, positions):
                cell = row[pos].strip()
                if col["values"] is not None:
                    try:
                        value = col["values"].index(cell)
                    except ValueError:
                        raise ValidationError(
                            f"{path}:{lineno}: unknown label {cell!r} for column {col['name']!r}"
                        ) from None
                else:
                    try:
                        value = int(cell)
                    except ValueError:
                        raise ValidationError(
                            f"{path}:{lineno}: non-integer code {cell!r} for column {col['name']!r}"
                        ) from None
                    if not 0 <= value < col["cardinality"]:
                        raise ValidationError(
                            f"{path}:{lineno}: code {value} outside [0, {col['cardinality']}) "
                            f"for column {col['name']!r}"
                        )
                code |= value << col["offset"]
            codes.append(code)
    if not codes:
        raise ValidationError(f"{path}: no data rows")
    return Database(DataUniverse(schema["l"]), np.asarray(codes, dtype=np.int64))


def _chain_rows(first, reader):
    yield first
    yield from reader


def category_extension_table(l: int, valid_count: int, values) -> np.ndarray:
    """Lift per-category values onto the full 2**l code range.

    Codes at or beyond ``valid_count`` replicate the nearest valid code's
    value (the top category), which is the default extension rule for
    queries over ceil-log2-encoded categorical columns.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size != valid_count:
        raise ValidationError(f"need exactly {valid_count} category values")
    if not 2 <= valid_count <= (1 << l):
        raise ValidationError(f"valid_count must lie in [2, 2**{l}]")
    codes = np.minimum(np.arange(1 << l), valid_count - 1)
    return values[codes]
