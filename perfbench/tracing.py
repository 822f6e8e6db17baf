"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``install(tracer)`` wraps every public function of the traced dpsynth modules
(and three ``StatisticalQuery`` methods) and then rebinds each wrapped
function at *every* module attribute that refers to it. Several modules
import functions by name (``harness.sample_rows``, ``graph.estimate_cut``,
``continuous.sample_synthetic``, ``mechanism.all_databases_matrix``, ...), so
patching only the defining module would miss those calls. ``uninstall``
restores every attribute it replaced.

A span records its name, start, end and parent. A layer's self time is its
span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap. Counts are taken at the same
boundaries. ``tracemalloc`` runs only inside ``mechanism.sample_rows`` spans
of a traced run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc

TRACED_MODULES = (
    "cli",
    "mechanism",
    "core",
    "queries",
    "estimators",
    "harness",
    "graph",
    "continuous",
)

TRACED_METHODS = {
    "__init__": "queries.StatisticalQuery_init",
    "evaluate": "queries.evaluate",
    "evaluate_rows": "queries.evaluate_rows",
}

# (metric, unit, better); a metric ending in "_s" is the self time of the
# span of the same name, everything else is a count kept by the hooks below.
LAYER_METRICS = (
    ("cli.read_database_codes_s", "s", "lower"),
    ("cli.write_database_codes_s", "s", "lower"),
    ("cli.bytes_read", "bytes", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("queries.load_query_s", "s", "lower"),
    ("queries.StatisticalQuery_init_s", "s", "lower"),
    ("queries.evaluate_s", "s", "lower"),
    ("queries.evaluate_rows_s", "s", "lower"),
    ("mechanism.sample_rows_s", "s", "lower"),
    ("mechanism.rows_drawn", "count", "lower"),
    ("mechanism.sample_rows_peak_mb", "MB", "lower"),
    ("mechanism.sample_synthetic_s", "s", "lower"),
    ("mechanism.verify_dp_cold_s", "s", "lower"),
    ("mechanism.verify_dp_warm_s", "s", "lower"),
    ("mechanism.verify_dp_calls", "count", "higher"),
    ("core.all_databases_matrix_s", "s", "lower"),
    ("core.enumerated_rows", "count", "lower"),
    ("estimators.measure_distortion_s", "s", "lower"),
    ("estimators.trials", "count", "higher"),
    ("estimators.estimate_unbiased_s", "s", "lower"),
    ("estimators.project_proper_s", "s", "lower"),
    ("estimators.estimate_cut_s", "s", "lower"),
    ("graph.answer_cut_s", "s", "lower"),
    ("graph.release_graph_s", "s", "lower"),
    ("graph.cut_value_s", "s", "lower"),
    ("graph.cuts_answered", "count", "higher"),
    ("continuous.grid_query_s", "s", "lower"),
    ("continuous.discretize_s", "s", "lower"),
    ("continuous.release_continuous_s", "s", "lower"),
    ("harness.run_experiment_s", "s", "lower"),
    ("harness.write_results_csv_s", "s", "lower"),
)

# computed by the launcher from a traced and an untraced pass, not a span
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")


class Tracer:
    """In-memory span and count recorder for one child process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, root name]
        self.counts = {}
        self._stack = []
        self._verify_seen = set()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name):
        return _Span(self, name)

    def self_times(self):
        """{(root name, span name): summed self time}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, root) in enumerate(self.spans):
            key = (root, name)
            out[key] = out.get(key, 0.0) + (end - start) - child[i]
        return out

    def root_durations(self):
        out = {}
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def layer_metrics(self):
        """Per-layer self times (summed over roots) and counts, by metric name."""
        by_name = {}
        for (_, name), value in self.self_times().items():
            by_name[name] = by_name.get(name, 0.0) + value
        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric.endswith("_s"):
                out[metric] = by_name.get(metric[:-2], 0.0)
            else:
                out[metric] = float(self.counts.get(metric, 0))
        return out


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()
        return False


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _before_read(tracer, args, kwargs):
    tracer.add("cli.bytes_read", _file_size(args[0] if args else kwargs.get("path")))


def _after_write(tracer, args, kwargs, result):
    tracer.add("cli.bytes_written", _file_size(args[1] if len(args) > 1 else kwargs.get("path")))


def _after_sample_rows(tracer, args, kwargs, result):
    tracer.add("mechanism.rows_drawn", int(result.size))


def _after_enumeration(tracer, args, kwargs, result):
    tracer.add("core.enumerated_rows", int(result.shape[0]))


def _after_measure(tracer, args, kwargs, result):
    tracer.add("estimators.trials", int(result.sample_count))


def _after_answer_cut(tracer, args, kwargs, result):
    tracer.add("graph.cuts_answered", 1)


def _after_verify(tracer, args, kwargs, result):
    tracer.add("mechanism.verify_dp_calls", 1)


def _verify_name(tracer, args, kwargs):
    """The first verify_dp call per (n, l) builds the distance matrix."""
    universe = args[0] if args else kwargs["universe"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    key = (universe.l, int(n))
    if key in tracer._verify_seen:
        return "mechanism.verify_dp_warm"
    tracer._verify_seen.add(key)
    return "mechanism.verify_dp_cold"


# the sweep functions are run_experiment's internals: their self time is the
# harness layer's share of a sweep
ALIASES = {f"harness.{fn}": "harness.run_experiment" for fn in (
    "run_heterogeneity_sweep", "run_query_set_size_sweep", "run_database_scaling",
    "run_cut_scaling", "run_bounds_table")}

BEFORE = {"cli.read_database_codes": _before_read}
AFTER = {
    "cli.write_database_codes": _after_write,
    "mechanism.sample_rows": _after_sample_rows,
    "core.all_databases_matrix": _after_enumeration,
    "estimators.measure_distortion": _after_measure,
    "graph.answer_cut": _after_answer_cut,
    "mechanism.verify_dp": _after_verify,
}
NAMING = {"mechanism.verify_dp": _verify_name}


def _wrap(tracer, name, fn):
    before = BEFORE.get(name)
    after = AFTER.get(name)
    naming = NAMING.get(name)
    measure_memory = name == "mechanism.sample_rows"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tracer.open(naming(tracer, args, kwargs) if naming is not None else name)
        if measure_memory:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if measure_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak("mechanism.sample_rows_peak_mb", peak / 2**20)
            tracer.close()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer, package):
    """Wrap the traced layers of ``package`` (the imported dpsynth); returns
    the list of replaced attributes for ``uninstall``."""
    import importlib

    modules = [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES]
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = (obj, _wrap(tracer, ALIASES.get(name, name), obj))
    replaced = []
    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                replaced.append((module, attr, obj))
                setattr(module, attr, entry[1])
    query_cls = importlib.import_module(f"{package.__name__}.queries").StatisticalQuery
    for attr, name in TRACED_METHODS.items():
        original = query_cls.__dict__[attr]
        replaced.append((query_cls, attr, original))
        setattr(query_cls, attr, _wrap(tracer, name, original))
    return replaced


def uninstall(replaced):
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)
