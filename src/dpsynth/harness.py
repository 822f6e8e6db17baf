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
  Both are summarized one database's (runs, queries) errors at a time.
* Every ``analytic_bound`` column is computed by the ``bounds`` module from
  the generated query set's own class constants.

Each ``ExperimentConfig`` field declares, once (``_key``), its default,
its kind and the experiments that read it. A config key the experiment does
not read is refused (``_refuse_unread``), never silently ignored, and so is
such a field set to other than its default in an ``ExperimentConfig`` built
directly. A null or absent grid takes its default; an empty one is refused.
The closed-form bound table is not an experiment: ``dpsynth bounds`` prints
it for any grid of n and epsilon, through the same ``_write_csv``.

Determinism: every random draw derives from the config seed through fixed
stream indices, and rows are emitted in grid order, so identical configs
produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .bounds import cut_bound
from .core import (
    MAX_ATTRIBUTES,
    ConfigError,
    Database,
    DataUniverse,
    RandomSource,
    ValidationError,
    _check_choice,
    _check_int,
    _check_real,
    _check_size,
    _read_json,
    _utf8_lines,
)
from .estimators import _BATCH_ESTIMATORS, _MEASURES, _distortion_bound, _estimates
from .graph import (
    MAX_ENCODED_PAIRS,
    _answer_cuts,
    _bisection_indicators,
    _cut_counts,
    erdos_renyi_graph,
    power_law_graph,
    release_graph,
)
from .mechanism import MechanismParams, sample_rows
from .queries import generate_random_query

EXPERIMENTS = ("heterogeneity", "query_set_size", "database_scaling", "cut_scaling")
GRAPH_MODELS = ("erdos_renyi", "power_law")

# stream indices hung off the config seed; fixed so results are reproducible
_S_DATABASE = 1
_S_QUERIES = 2
_S_RELEASE = 3
_S_GRAPH = 4
_S_CUTS = 5


def _key(default, kind, *readers):
    """A config field: its default, its kind and the experiments that read
    it (every one, if none is named). The kind is ``str``, a tuple of the
    allowed names, a least integer, ``"size"`` if it sizes an array,
    ``float`` for a finite real, or a list of one of these number kinds for
    a grid of them."""
    return field(default=default, metadata={"kind": kind, "readers": readers or EXPERIMENTS})


def _check_value(value, what: str, kind):
    if kind is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{what} must be a string, got {value!r}")
    if isinstance(kind, tuple):
        return _check_choice(value, kind, what, ConfigError)
    if kind is float:
        return _check_real(value, what, ConfigError)
    return _check_size(value, what, ConfigError) if kind == "size" else _check_int(value, what, kind, ConfigError)


def _refuse_unread(keys, read, what: str, error) -> None:
    """Refuse, with ``error``, any of ``keys`` outside ``read``: a key nothing
    reads would change nothing, so it is never silently ignored."""
    unread = set(keys).difference(read)
    if unread:
        raise error(f"{what} does not read {sorted(unread)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see ``config_from_dict``."""

    experiment: str = _key(MISSING, EXPERIMENTS)
    seed: int = _key(0, 0)
    output: str = _key("results.csv", str)
    epsilon: float = _key(1.0, float)
    l: int = _key(3, 1, "heterogeneity", "query_set_size", "database_scaling")
    n: int = _key(1024, "size", "heterogeneity", "query_set_size")
    n_grid: tuple = _key(tuple(2**k for k in range(10, 17)), ["size"], "database_scaling")
    query_count: int = _key(200, "size", "heterogeneity", "database_scaling")
    # None: every power of two up to n/2 (``_heterogeneity_grid``)
    heterogeneity_grid: tuple | None = _key(None, [1], "heterogeneity")
    set_sizes: tuple = _key((64, 1024, 16384), ["size"], "query_set_size")
    database_count: int = _key(50, 1, "query_set_size")
    vertex_grid: tuple = _key((64, 128, 256, 512), [2], "cut_scaling")
    graph_model: str = _key("erdos_renyi", GRAPH_MODELS, "cut_scaling")
    graph_param: float = _key(0.05, float, "cut_scaling")
    cut_count: int = _key(100, 1, "cut_scaling")
    trial_count: int = _key(20, 1)
    estimator: str = _key("unbiased", _BATCH_ESTIMATORS)

    def __post_init__(self):
        self._check_kinds()
        off_default = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        _refuse_unread(off_default, _reads(self.experiment), f"the {self.experiment} experiment", ConfigError)
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.experiment == "heterogeneity":
            grid = _heterogeneity_grid(self)
            if not grid:
                raise ConfigError("heterogeneity grid must be nonempty")
            for h in grid:
                if h > self.n or self.n % h != 0:
                    raise ConfigError(f"heterogeneity {h} must divide n={self.n}")
        if self.experiment == "query_set_size":
            _check_ascending("set_sizes", self.set_sizes)
        if self.experiment == "database_scaling":
            _check_ascending("n_grid", self.n_grid)
            if len(self.n_grid) >= 2 and max(self.n_grid) < 10 * min(self.n_grid):
                raise ConfigError("n_grid should span at least one decade for a slope fit")
        if self.experiment == "cut_scaling":
            _check_ascending("vertex_grid", self.vertex_grid)
            if max(self.vertex_grid) ** 2 > MAX_ENCODED_PAIRS:
                raise ConfigError(f"vertex_grid: |V|^2 = {max(self.vertex_grid) ** 2} exceeds the "
                                  f"{MAX_ENCODED_PAIRS} encoded-pair cap")
            p = self.graph_param
            if self.graph_model == "erdos_renyi" and not 0.0 <= p <= 1.0:
                raise ConfigError(f"erdos_renyi graph_param must be a probability in [0, 1], got {p}")
            if self.graph_model == "power_law" and not (1 <= p < min(self.vertex_grid) and p % 1 == 0):
                raise ConfigError(f"power_law graph_param must be an integer in [1, min(vertex_grid)), got {p}")

    def _check_kinds(self):
        """Reject, field by field, a value not of its declared kind with
        ConfigError, before any comparison or arithmetic could raise
        TypeError. Each grid becomes a nonempty tuple; a null grid reads as
        its default."""
        for f in fields(self):
            value, kind = getattr(self, f.name), f.metadata["kind"]
            if isinstance(kind, list):
                value = f.default if value is None else value
                if value is None:  # the derived heterogeneity grid
                    continue
                if not isinstance(value, (list, tuple)) or not value:
                    raise ConfigError(f"{f.name} must be a nonempty list, got {value!r}")
                value = tuple(_check_value(v, f"an entry of {f.name}", kind[0]) for v in value)
            else:
                value = _check_value(value, f.name, kind)
            object.__setattr__(self, f.name, value)


def _reads(experiment: str) -> set:
    """The config keys ``experiment`` reads."""
    return {f.name for f in fields(ExperimentConfig) if experiment in f.metadata["readers"]}


def _heterogeneity_grid(config: ExperimentConfig) -> tuple:
    """The config's heterogeneity grid, by default every power of two up to n/2."""
    if config.heterogeneity_grid is not None:
        return config.heterogeneity_grid
    return tuple(1 << k for k in range(config.n.bit_length() - 1))


def _check_ascending(name: str, grid) -> None:
    if list(grid) != sorted(set(grid)):
        raise ConfigError(f"{name} must be nonempty, ascending and distinct, got {grid!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, refusing a key its experiment does
    not read before any value is checked, even at its default."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' field")
    experiment = _check_choice(raw["experiment"], EXPERIMENTS, "experiment", ConfigError)
    _refuse_unread(raw, _reads(experiment), f"the {experiment} experiment", ConfigError)
    return ExperimentConfig(**raw)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, ConfigError))


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


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def _write_csv(fh, columns, rows) -> None:
    """RFC-4180 CSV to the text handle fh: a header of ``columns``, then one
    line per row (a mapping of column to value), floats at 9 significant
    digits. Every CSV the package writes goes through here."""
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows([_fmt(row[col]) for col in columns] for row in rows)


def write_results_csv(rows, path) -> None:
    """The CSV of result rows, one line per grid point."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, RESULT_COLUMNS, map(vars, rows))


def _random_database(universe: DataUniverse, n: int, rng: RandomSource) -> Database:
    gen = rng.generator()
    return Database(universe, gen.integers(0, universe.cardinality, size=n))


def _release_runs(x: Database, params: MechanismParams, rng: RandomSource, runs: int, *stream) -> np.ndarray:
    """(runs, n) synthetic rows; run r is drawn from stream (_S_RELEASE, *stream, r)."""
    return np.stack(
        [
            sample_rows(x, params, rng.derive(_S_RELEASE, *stream, r).generator())
            for r in range(runs)
        ]
    )


def _block_summary(errs: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Per-run leave-one-out worst case of one (runs, cells) block of
    errors, empty at one run; the per-cell sum over runs goes to ``total``
    (cells,). The leave-one-out sums overwrite ``errs``, which is consumed;
    each run's largest is divided by runs - 1 after the max, which
    rounding, being monotone, leaves bit for bit as dividing every cell
    first."""
    np.copyto(total, errs[0])
    for row in errs[1:]:  # run by run, as add.reduce sums axis 0 of blocks wider than one cell
        total += row
    runs = len(errs)
    if runs == 1:
        return np.empty(0)
    loo = np.subtract(total, errs, out=errs).max(axis=1)
    loo /= runs - 1
    return loo


def _summarize(blocks, runs: int, count: int) -> tuple[float, float, float]:
    """(worst, stderr of worst, mean) of the errors in ``blocks``, ``count``
    (runs, cells) arrays taken one at a time and held no longer. Per-cell
    distortion = across-run mean; worst case = max of those means; its
    stderr is the leave-one-run-out jackknife over the blocks' per-run
    maxima. Each block's per-cell sums fill one row of a (count, cells)
    array. A grid point of one (database, query) cell sums its runs in
    order, so its last bits can differ from those of numpy's pairwise
    ``sum``."""
    sums, loos = None, []
    # each block is dropped before the next is made: hence the ``del``, and
    # no enumerate, whose cached result tuple would keep it alive
    for errs in blocks:
        if sums is None:
            sums = np.empty((count, errs.shape[1]))
        loos.append(_block_summary(errs, sums[len(loos)]))
        del errs
    means, loo_worst = sums.reshape(-1), np.max(loos, axis=0)
    means /= runs
    se = math.sqrt((runs - 1) / runs * ((loo_worst - loo_worst.mean()) ** 2).sum()) if runs > 1 else math.inf
    return float(means.max()), se, float(means.mean())


def _result_row(config: ExperimentConfig, point: int, blocks, count: int, bound: float, relative=None) -> ResultRow:
    """The row of one grid point from its ``count`` blocks of errors, one per database."""
    worst, stderr, mean = _summarize(blocks, config.trial_count, count)
    return ResultRow(
        config.experiment, point, worst, stderr, mean, bound, config.trial_count, config.seed, relative
    )


def _statistical_row(config, point, qs, dbs, releases, params: MechanismParams, measure: str) -> ResultRow:
    """One grid point of a statistical sweep: the errors of the batch qs on
    each database dbs[d], from its (runs, n) released rows releases[d],
    against the closed-form bound of qs's own class constants. The errors
    are computed and summarized one database at a time, each in the one
    (runs, Q) array its answers arrive in."""
    distortion, _ = _MEASURES[measure]

    def errors():
        for x, rows in zip(dbs, releases):
            err = _estimates(qs, qs.evaluate_rows(rows), params, config.estimator)
            err -= qs.evaluate(x)
            yield distortion(err, out=err)
            del err  # dropped before the next database's answers are made

    bound = _distortion_bound(qs, qs.n, params, config.estimator, measure)
    return _result_row(config, point, errors(), len(dbs), bound)


def run_heterogeneity_sweep(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case absolute distortion under varying query heterogeneity.

    The released databases are shared across heterogeneity levels (one
    release answers everything), so level-to-level differences are driven by
    the query structure, not by fresh release noise.
    """
    universe = DataUniverse(config.l)
    params = MechanismParams(config.epsilon, universe)
    x = _random_database(universe, config.n, rng.derive(_S_DATABASE))
    releases = [_release_runs(x, params, rng, config.trial_count)]
    out = []
    for gi, h in enumerate(_heterogeneity_grid(config)):
        qs = generate_random_query(universe, config.n, h, rng.derive(_S_QUERIES, gi), count=config.query_count)
        out.append(_statistical_row(config, h, qs, [x], releases, params, "absolute"))
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
    dbs = [_random_database(universe, config.n, rng.derive(_S_DATABASE, d)) for d in range(config.database_count)]
    releases = [_release_runs(x, params, rng, config.trial_count, di) for di, x in enumerate(dbs)]
    out = []
    for gi, size in enumerate(config.set_sizes):
        qs = generate_random_query(universe, config.n, 1, rng.derive(_S_QUERIES, gi), count=size)
        out.append(_statistical_row(config, size, qs, dbs, releases, params, "absolute"))
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
        releases = [_release_runs(x, params, rng, config.trial_count, gi)]
        out.append(_statistical_row(config, n, qs, [x], releases, params, "squared"))
    return out


def run_cut_scaling(config: ExperimentConfig, rng: RandomSource) -> list[ResultRow]:
    """Worst-case absolute cut error against graph size, with the cut bound
    overlay and the worst-case relative error (Table-style, ungated)."""
    distortion, _ = _MEASURES["absolute"]
    out = []
    for gi, v in enumerate(config.vertex_grid):
        if config.graph_model == "erdos_renyi":
            x = erdos_renyi_graph(v, config.graph_param, rng.derive(_S_GRAPH, gi))
        else:
            x = power_law_graph(v, int(config.graph_param), rng.derive(_S_GRAPH, gi))
        s, t = _bisection_indicators(v, [rng.derive(_S_CUTS, gi, ci) for ci in range(config.cut_count)])
        truths = _cut_counts(x.rows, s, t)
        errs = np.empty((config.trial_count, config.cut_count))
        for r in range(config.trial_count):
            y = release_graph(x, config.epsilon, rng.derive(_S_RELEASE, gi, r))
            errs[r] = distortion(_answer_cuts(y, s, t, config.epsilon, config.estimator) - truths)
        positive = truths > 0
        relative = None
        if positive.any():
            relative = float((errs.mean(axis=0)[positive] / truths[positive]).max())
        out.append(_result_row(config, v, [errs], 1, cut_bound(v // 2, v - v // 2, config.epsilon), relative))
    return out


_SWEEPS = {
    "heterogeneity": run_heterogeneity_sweep,
    "query_set_size": run_query_set_size_sweep,
    "database_scaling": run_database_scaling,
    "cut_scaling": run_cut_scaling,
}


def run_experiment(config: ExperimentConfig, output=None):
    """Run one experiment's sweep and write its CSV; returns the result rows."""
    rows = _SWEEPS[config.experiment](config, RandomSource(config.seed))
    write_results_csv(rows, output if output is not None else config.output)
    return rows


def fit_loglog_slope(grid, values):
    """Least-squares slope of log(value) against log(grid); None when the
    grid has fewer than two points or a value is nonpositive."""
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if grid.size < 2 or (values <= 0).any():
        return None
    return float(np.polyfit(np.log(grid), np.log(values), 1)[0])


def load_ingestion_schema(source) -> dict:
    """Validate a column schema: {"columns": [{"name", "cardinality" |
    "values"}...], "has_header": bool}."""
    raw = source if isinstance(source, dict) else _read_json(source, ConfigError)
    if not isinstance(raw, dict) or not isinstance(raw.get("columns"), list):
        raise ConfigError("schema needs a 'columns' list")
    _refuse_unread(raw, ("columns", "has_header"), "the schema", ConfigError)
    has_header = raw.get("has_header", True)
    if not isinstance(has_header, bool):
        raise ConfigError(f"has_header must be true or false, got {has_header!r}")
    columns = []
    total_bits = 0
    for idx, col in enumerate(raw["columns"]):
        if not isinstance(col, dict):
            raise ConfigError(f"column {idx} must be an object, got {col!r}")
        _refuse_unread(col, ("name", "cardinality", "values"), f"schema column {idx}", ConfigError)
        name = col.get("name", f"col{idx}")
        if not isinstance(name, str) or any(c["name"] == name for c in columns):
            raise ConfigError(f"column {idx}: name must be a string unique in the schema, got {name!r}")
        values = col.get("values")
        if values is not None:
            if not (isinstance(values, list) and all(isinstance(v, str) for v in values)
                    and len(set(values)) == len(values)):
                raise ConfigError(f"column {name!r}: values must be a list of distinct string labels")
            if col.get("cardinality", len(values)) != len(values):
                raise ConfigError(f"column {name!r}: cardinality {col['cardinality']!r} disagrees with its values")
            cardinality = len(values)
        else:
            cardinality = col.get("cardinality")
        cardinality = _check_int(cardinality, f"column {name!r}: cardinality", 2, ConfigError)
        bits = (cardinality - 1).bit_length()
        columns.append(
            {"name": name, "cardinality": cardinality, "values": values, "bits": bits,
             "offset": total_bits}
        )
        total_bits += bits
    if not columns:
        raise ConfigError("schema needs at least one column")
    if total_bits > MAX_ATTRIBUTES:
        raise ConfigError(f"schema needs {total_bits} bits; the universe cap is {MAX_ATTRIBUTES}")
    return {"columns": columns, "has_header": has_header, "l": total_bits}


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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
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
            reader = itertools.chain([first], reader)
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
