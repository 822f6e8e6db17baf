"""The four benchmark workloads: input generation, one timed pass, output checks.

The launcher (``run.py``) calls ``make_inputs`` to write a workload's inputs
from the seed into the run's work directory; that is never timed. Each
repetition then runs this file as a fresh child process::

    python3 perfbench/workloads.py <spec.json>

The child imports ``dpsynth`` from the checkout's ``src`` directory and
builds the workload's program-side objects (together: ``setup_s``), runs one
pass of timed calls through the public API and the CLI entry point
``dpsynth.cli.main``, records its peak RSS, checks every output against the
paper's claims, and writes a JSON result next to the spec. A fresh process
per repetition matters: ``mechanism._pairwise_distances`` is an ``lru_cache``
and the mechanism picks its backend at import.

The first call of each kind in a child (a ``release``, a
``measure_distortion`` configuration, a continuous batch) is a warm-up: it
is checked and counted but not sampled. On the reference VM, a fresh
process's first large allocation pays for first-touch page faults whose
cost depends on the host, not on the program.

Every check compares against a claim (epsilon-tightness, bound compliance,
unbiasedness within six standard deviations, value ranges, row counts), never
against bytes, so a change to the random stream keeps the checks valid. A
call that raises or fails its check is one failed operation; the pass goes on.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import re
import resource
import sys
import time

import tracing

WORKLOADS = ("release_1m", "mc_distortion", "verify_exhaustive", "many_small")

# Input sizes. "smoke" keeps every code path and check at toy sizes for the
# benchmark's self-test; the numbers a run reports always come from "full".
SIZES = {
    "full": {
        "release_1m": {"n": 10**6, "l": 3, "tables_h": 1000, "answer_h": [1, 10, 1000],
                       "releases": 4, "rounds": 6},
        "mc_distortion": {"n1": 10**4, "n2": 4096, "h2": 64, "trials": 4096, "calls": 3,
                          "sweeps": 2, "qss_n": 1024, "qss_databases": 50,
                          "qss_sizes": [64, 1024, 16384],
                          "ds_grid": [2**k for k in range(10, 17)]},
        "verify_exhaustive": {"max_bits": 12, "epsilons": [0.25, 1.0, 2.0]},
        "many_small": {"ns": [256, 4096], "batch": 200, "batches": 9,
                       "vertex_grid": [64, 128, 256, 512], "cut_count": 100,
                       "cut_trials": 10, "cut_sweeps": 3},
    },
    "smoke": {
        "release_1m": {"n": 2000, "l": 3, "tables_h": 10, "answer_h": [1, 10, 100],
                       "releases": 2, "rounds": 1},
        "mc_distortion": {"n1": 1000, "n2": 256, "h2": 16, "trials": 64, "calls": 2,
                          "sweeps": 1, "qss_n": 64, "qss_databases": 2,
                          "qss_sizes": [4, 16], "ds_grid": [64, 1024]},
        "verify_exhaustive": {"max_bits": 6, "epsilons": [0.25, 1.0, 2.0]},
        "many_small": {"ns": [256, 4096], "batch": 10, "batches": 2,
                       "vertex_grid": [16, 32], "cut_count": 20, "cut_trials": 5,
                       "cut_sweeps": 1},
    },
}

EPSILON = 1.0
UNBIASED_SIGMAS = 6.0  # unbiased answers must lie within 6 * sqrt(squared bound)
CONTINUOUS_SLACK = 1.25  # continuous MSE must stay within 1.25 x continuous_bound
RANGE_TOL = 1e-9

# The workload's own metric names: (name, sample key, unit). The launcher
# prints each with its median, tail percentile and sample count. Samples
# recorded as "<key>@<group>" form groups: the value is the mean of the group
# medians, so a mix of calls of different cost keeps a stable median.
NAMED_METRICS = {
    "release_1m": [("release_s", "primary", "s"), ("estimate_s", "secondary", "s"),
                   ("answers_per_s", "answers_per_s", "1/s")],
    "mc_distortion": [("mc_trials_per_s", "mc_trials_per_s", "1/s"),
                      ("sweep_s", "secondary", "s")],
    "verify_exhaustive": [("verify_s", "primary", "s"),
                          ("verify_warm_s", "secondary", "s")],
    "many_small": [("continuous_releases_per_s", "continuous_releases_per_s", "1/s"),
                   ("cut_sweep_s", "secondary", "s")],
}


def derive(seed, *parts) -> int:
    """A 62-bit seed derived from the benchmark seed and a label path."""
    return random.Random(":".join(str(p) for p in (seed,) + parts)).getrandbits(62)


# --------------------------------------------------------------------------
# inputs (launcher side, untimed)


def make_inputs(name, work, seed, size):
    """Write the workload's inputs into ``work``; returns their description."""
    import numpy as np

    cfg = SIZES[size][name]
    rng = np.random.default_rng(derive(seed, name, "inputs"))
    info = {"workload": name, "size": size, "epsilon": EPSILON, **cfg}
    if name == "release_1m":
        n, l = cfg["n"], cfg["l"]
        x = rng.integers(0, 1 << l, size=n)
        np.save(os.path.join(work, "x.npy"), x)
        with open(os.path.join(work, "x.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(str, x.tolist())))
            fh.write("\n")
        bits = sorted(int(b) for b in rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False))
        tables = {}
        for h in sorted({cfg["tables_h"], *cfg["answer_h"]}):
            t = rng.random((h, 1 << l))
            t /= t.max(axis=1, keepdims=True) - t.min(axis=1, keepdims=True)
            tables[f"h{h}"] = t
        np.savez(os.path.join(work, "tables.npz"), **tables)
        pred = {"type": "predicate", "l": l, "n": n, "conjunct_bits": bits}
        with open(os.path.join(work, "q_predicate.json"), "w", encoding="utf-8") as fh:
            json.dump(pred, fh)
        th = cfg["tables_h"]
        with open(os.path.join(work, "q_tables.json"), "w", encoding="utf-8") as fh:
            json.dump({"type": "tables", "l": l, "tables": tables[f"h{th}"].tolist(),
                       "assignment": np.repeat(np.arange(th), n // th).tolist()}, fh)

        def predicate_truth(bs):
            mask = np.ones(n, dtype=bool)
            for b in bs:
                mask &= ((x >> b) & 1).astype(bool)
            return {"truth": float(mask.mean()), "lo": 0.0, "hi": 1.0, "a": 0.0, "b": 1.0,
                    "c": 1.0}

        def tables_truth(t):
            h = t.shape[0]
            assign = np.repeat(np.arange(h), n // h)
            spread = t.max(axis=1) - t.min(axis=1)
            c_sum = float(spread[assign].sum())
            return {"truth": float(t[assign, x].sum()) / c_sum,
                    "lo": float(t.min(axis=1)[assign].sum()) / c_sum,
                    "hi": float(t.max(axis=1)[assign].sum()) / c_sum,
                    "a": float(t.min()), "b": float(t.max()), "c": float(spread.min())}

        info["predicate_bits"] = bits
        info["estimates"] = [
            {"file": "q_predicate.json", "estimator": "unbiased", **predicate_truth(bits)},
            {"file": "q_predicate.json", "estimator": "proper", **predicate_truth(bits)},
            {"file": "q_tables.json", "estimator": "unbiased", **tables_truth(tables[f"h{th}"])},
        ]
        answers = []
        for mask in range(1, 1 << l):
            bs = [b for b in range(l) if mask >> b & 1]
            answers.append({"kind": "predicate", "bits": bs, **predicate_truth(bs)})
        for h in cfg["answer_h"]:
            answers.append({"kind": "tables", "key": f"h{h}", **tables_truth(tables[f"h{h}"])})
        info["answers"] = answers
    elif name == "mc_distortion":
        np.save(os.path.join(work, "x1.npy"), rng.integers(0, 2, size=cfg["n1"]))
        np.save(os.path.join(work, "x2.npy"), rng.integers(0, 8, size=cfg["n2"]))
        t = rng.random((cfg["h2"], 8))
        t /= t.max(axis=1, keepdims=True) - t.min(axis=1, keepdims=True)
        np.save(os.path.join(work, "tables2.npy"), t)
    elif name == "many_small":
        for n in cfg["ns"]:
            xc = rng.random(n)
            np.save(os.path.join(work, f"xc{n}.npy"), xc)
            info[f"truth{n}"] = float(xc.mean())
    with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return info


# --------------------------------------------------------------------------
# child side


class SpeedProbe:
    """Times a fixed kernel between timed calls, never inside them: a
    pure-Python loop ("interp"), then random gathers from a preallocated
    8 MiB numpy table, larger than a core's L2 ("both" is the whole kernel).

    The reference machine shares its cores with other tenants, and their load
    moves every timing by tens of percent over minutes. The launcher
    therefore rescales each child's timings by ``CAL_REF_S[part] /
    median(probe part)``, with the part that matches the workload's
    bottleneck (``PROBE_PART``): the timings read as seconds at the reference
    machine's speed. The probe does not touch dpsynth, so a faster program
    still reads faster.
    """

    INTERVAL_S = 1.0

    def __init__(self):
        import numpy as np

        self.gen = np.random.default_rng(12345)
        # preallocated, so the probe never page-faults on memory the program
        # just freed
        self.table = self.gen.random(1 << 20)
        self.idx = self.gen.integers(0, 1 << 20, size=1 << 18)
        self.out = np.empty(1 << 18)
        self.samples = {"interp": [], "both": []}
        self.last = -math.inf
        for _ in range(2):  # warm-up, not recorded
            self.run()
        for part in self.samples.values():
            part.clear()

    def run(self):
        import numpy as np

        start = time.perf_counter()
        s = 0
        for i in range(150_000):
            s += i * i % 7
        middle = time.perf_counter()
        for _ in range(12):
            np.take(self.table, self.idx, out=self.out)
            s += float(self.out.sum())
        self.last = time.perf_counter()
        self.samples["interp"].append(middle - start)
        self.samples["both"].append(self.last - start)
        return s

    def maybe(self):
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.run()


# probe medians on the reference machine (2 vCPU VM, Python 3.11, numpy 2.4)
CAL_REF_S = {"interp": 0.018, "both": 0.035}
# release_1m and many_small spend their time in the interpreter (text parsing
# and writing, per-call overhead); mc_distortion and verify_exhaustive mix
# interpreter work with numpy passes over arrays far larger than L2
PROBE_PART = {"release_1m": "interp", "many_small": "interp",
              "mc_distortion": "both", "verify_exhaustive": "both"}


class Ops:
    """Timed calls and checked operations of one pass."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.samples = {}
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def timed(self, label, fn, *args, warmup=False, **kwargs):
        """Run fn once, timed, with gc.collect() before the timer; returns
        (result, seconds) or (None, seconds) after counting a failure. A
        warm-up call is checked like any other but left out of pass_s."""
        self.probe.maybe()
        gc.collect()
        span = self.tracer.span(f"bench.{label}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            result = None
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if not warmup:
            self.timed_s += elapsed
        return result, elapsed

    def fail(self, what):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok, what):
        if ok:
            self.attempted += 1
        else:
            self.fail(what)


def run_cli(argv):
    """dpsynth.cli.main with stdout captured; returns (exit code, stdout)."""
    import dpsynth.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dpsynth.cli.main(argv)
    return code, buf.getvalue()


def unbiased_ok(ds, answer, spec, n, l):
    bound = ds.bounds.upper_bound_squared(
        ds.bounds.BoundInputs(n=n, l=l, epsilon=EPSILON, a=spec["a"], b=spec["b"], c=spec["c"])
    )
    return math.isfinite(answer) and abs(answer - spec["truth"]) <= UNBIASED_SIGMAS * math.sqrt(bound)


def proper_ok(answer, spec):
    return spec["lo"] - RANGE_TOL <= answer <= spec["hi"] + RANGE_TOL


def check_release_file(path, x, l, epsilon):
    """n non-comment lines, every code in [0, 2**l), and a keep rate within
    six standard deviations of 1/g(eps). Returns an error string or None."""
    import numpy as np

    with open(path, "rb") as fh:
        body = re.sub(rb"#[^\n]*", b"", fh.read())
    lines = len(re.findall(rb"(?m)^[ \t]*\S", body))
    tokens = body.split()
    if lines != x.size or len(tokens) != x.size:
        return f"{path}: {lines} rows, {len(tokens)} codes, expected {x.size}"
    try:
        y = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        return f"{path}: {exc}"
    if y.min() < 0 or y.max() >= 1 << l:
        return f"{path}: codes outside [0, {1 << l})"
    keep = 1.0 / (1.0 + ((1 << l) - 1) * math.exp(-epsilon))
    kept = float((y == x).mean())
    if abs(kept - keep) > 6.0 * math.sqrt(keep * (1.0 - keep) / x.size):
        return f"{path}: keep rate {kept:.5f}, expected {keep:.5f}"
    return None


class Workload:
    def __init__(self, spec, ds):
        self.spec = spec
        self.ds = ds
        self.work = spec["work"]
        self.seed = spec["seed"]
        self.rep = spec["rep"]
        with open(os.path.join(self.work, "inputs.json"), encoding="utf-8") as fh:
            self.info = json.load(fh)

    def path(self, name):
        return os.path.join(self.work, name)

    def seed_for(self, *parts):
        return derive(self.seed, self.info["workload"], self.rep, *parts)

    def load(self):
        """Read the benchmark's own input arrays (untimed)."""

    def setup(self):
        """Build program-side objects (timed as part of setup_s)."""

    def run(self, ops):
        raise NotImplementedError

    def verify(self, ops):
        """Checks that would distort peak RSS if run inside the pass."""


class Release1m(Workload):
    def load(self):
        import numpy as np

        self.tables = dict(np.load(self.path("tables.npz")))
        self.assign = {k: np.repeat(np.arange(t.shape[0]), self.info["n"] // t.shape[0])
                       for k, t in self.tables.items()}

    def setup(self):
        import dpsynth.cli  # noqa: F401  (the CLI module is part of this workload's setup)

        ds, info = self.ds, self.info
        universe = ds.DataUniverse(info["l"])
        self.params = ds.MechanismParams(EPSILON, universe)
        self.queries = []
        for a in info["answers"]:
            if a["kind"] == "predicate":
                q = ds.make_predicate_query(universe, info["n"], a["bits"])
            else:
                q = ds.StatisticalQuery(universe, self.tables[a["key"]], self.assign[a["key"]])
            self.queries.append(q)

    def run(self, ops):
        ds, info = self.ds, self.info
        n, l = info["n"], info["l"]
        self.releases = []
        for r in range(info["releases"]):
            out = self.path(f"release-{self.rep}-{r}.txt")
            argv = ["release", "--input", self.path("x.txt"), "--l", str(l), "--epsilon",
                    str(EPSILON), "--seed", str(self.seed_for("release", r)), "--output", out]
            result, elapsed = ops.timed("release", run_cli, argv, warmup=r == 0)
            if result is None:
                continue
            if r > 0:
                ops.sample("primary", elapsed)
            if result[0] != 0:
                ops.fail(f"release exited {result[0]}")
            else:
                self.releases.append(out)
        if not self.releases:
            return
        first = self.releases[0]
        for i, est in enumerate(info["estimates"]):
            argv = ["estimate", "--input", first, "--query", self.path(est["file"]),
                    "--epsilon", str(EPSILON), "--estimator", est["estimator"]]
            result, elapsed = ops.timed("estimate", run_cli, argv)
            if result is None:
                continue
            ops.sample(f"secondary@{i}", elapsed)
            code, text = result
            try:
                answer = float(text.strip())
            except ValueError:
                ops.fail(f"estimate printed {text!r} (exit {code})")
                continue
            ok = proper_ok(answer, est) if est["estimator"] == "proper" else unbiased_ok(
                ds, answer, est, n, l)
            ops.check(code == 0 and ok, f"estimate {est['file']} {est['estimator']}: {answer}")

        y = ds.cli.read_database_codes(first, l)  # the one loaded release; untimed
        ops.check(y.n == n, f"loaded release has {y.n} rows")
        answers = []

        def answer_all():
            for _ in range(info["rounds"]):
                for q in self.queries:
                    raw = ds.estimate_unbiased(q, y, self.params)
                    answers.append((raw, ds.project_proper(q, raw, "interval_clamp")))

        result, elapsed = ops.timed("answers", answer_all)
        ops.sample("answers_per_s", len(answers) / elapsed)
        specs = info["answers"] * info["rounds"]
        for i, spec in enumerate(specs):
            if i >= len(answers):
                ops.fail(f"answer {i} missing")
                continue
            raw, proper = answers[i]
            ops.check(unbiased_ok(ds, raw, spec, n, l) and proper_ok(proper, spec),
                      f"answer {i} ({spec['kind']}): raw {raw}, proper {proper}")

    def verify(self, ops):
        import numpy as np

        x = np.load(self.path("x.npy"))
        for path in self.releases:
            err = check_release_file(path, x, self.info["l"], EPSILON)
            ops.check(err is None, f"release file: {err}")
            os.remove(path)


class McDistortion(Workload):
    def load(self):
        import numpy as np

        self.x1 = np.load(self.path("x1.npy"))
        self.x2 = np.load(self.path("x2.npy"))
        self.tables2 = np.load(self.path("tables2.npy"))

    def setup(self):
        ds, info = self.ds, self.info
        u1, u3 = ds.DataUniverse(1), ds.DataUniverse(3)
        self.db1 = ds.Database(u1, self.x1)
        self.db2 = ds.Database(u3, self.x2)
        self.q1 = ds.make_predicate_query(u1, info["n1"], [0])
        h = self.tables2.shape[0]
        import numpy as np

        self.q2 = ds.StatisticalQuery(u3, self.tables2, np.repeat(np.arange(h), info["n2"] // h))
        self.p1 = ds.MechanismParams(EPSILON, u1)
        self.p3 = ds.MechanismParams(EPSILON, u3)
        self.configs = []
        for k in range(info["sweeps"]):
            qss = ds.config_from_dict({
                "experiment": "query_set_size", "n": info["qss_n"], "l": 3, "epsilon": EPSILON,
                "database_count": info["qss_databases"], "set_sizes": info["qss_sizes"],
                "seed": self.seed_for("query_set_size", k)})
            dsc = ds.config_from_dict({
                "experiment": "database_scaling", "n_grid": info["ds_grid"], "l": 3,
                "epsilon": EPSILON, "seed": self.seed_for("database_scaling", k)})
            self.configs.append((qss, dsc))

    def run(self, ops):
        ds, info = self.ds, self.info
        trials = info["trials"]
        mc_time = 0.0
        mc_trials = 0
        cases = [("mc_predicate", self.q1, self.db1, self.p1, "unbiased", "squared"),
                 ("mc_random", self.q2, self.db2, self.p3, "proper", "absolute")]
        for label, q, x, params, estimator, measure in cases:
            for k in range(info["calls"]):
                rng = ds.RandomSource(self.seed_for(label, k))
                report, elapsed = ops.timed(
                    label, ds.measure_distortion, q, x, params, estimator, measure,
                    trials=trials, rng=rng, warmup=k == 0)
                if report is None:
                    continue
                if k > 0:
                    mc_time += elapsed
                    mc_trials += report.sample_count
                    if label == "mc_predicate":
                        ops.sample("primary", elapsed)
                ops.check(report.sample_count == trials
                          and 0.0 <= report.empirical_mean <= report.analytic_bound,
                          f"{label}: mean {report.empirical_mean} vs bound {report.analytic_bound}")
        if mc_time > 0:
            ops.sample("mc_trials_per_s", mc_trials / mc_time)
        for k, configs in enumerate(self.configs):
            total = 0.0
            for config in configs:
                out = self.path(f"{config.experiment}-{self.rep}-{k}.csv")
                rows, elapsed = ops.timed("sweep", ds.harness.run_experiment, config, output=out)
                total += elapsed
                if rows is None:
                    continue
                grid = config.set_sizes if config.experiment == "query_set_size" else config.n_grid
                ops.check(check_rows(rows, out, len(grid), "worst_case_distortion"),
                          f"{config.experiment}: a row exceeds its bound or the CSV is short")
            ops.sample("secondary", total)


def check_rows(rows, csv_path, expected, column):
    """Every result row has ``column`` within its analytic bound, and the CSV
    holds a header plus one line per row."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    os.remove(csv_path)
    if len(rows) != expected or len(lines) != expected + 1:
        return False
    return all(0.0 <= getattr(r, column) <= r.analytic_bound for r in rows)


class VerifyExhaustive(Workload):
    def setup(self):
        ds, info = self.ds, self.info
        self.cases = []
        # criterion-1 order: l outer, n inner, epsilon innermost
        for l in range(1, info["max_bits"] + 1):
            universe = ds.DataUniverse(l)
            for n in range(1, info["max_bits"] // l + 1):
                for eps in info["epsilons"]:
                    self.cases.append((universe, n, ds.MechanismParams(eps, universe)))

    def run(self, ops):
        ds = self.ds
        total = warm = 0.0
        seen = set()
        for universe, n, params in self.cases:
            key = (universe.l, n)
            ratio, elapsed = ops.timed("verify", ds.mechanism.verify_dp, universe, n, params)
            total += elapsed
            if key in seen:
                warm += elapsed
            seen.add(key)
            if ratio is None:
                continue
            ops.check(abs(ratio - params.epsilon) <= 1e-12,
                      f"verify_dp(n={n}, l={universe.l}, eps={params.epsilon}) = {ratio}")
        ops.sample("primary", total)
        ops.sample("secondary", warm)


class ManySmall(Workload):
    def load(self):
        import numpy as np

        self.xc = {n: np.load(self.path(f"xc{n}.npy")) for n in self.info["ns"]}

    def setup(self):
        ds, info = self.ds, self.info
        self.lq = ds.LipschitzQuery(lambda u: u, lipschitz=1.0, lower=0.0, upper=1.0)
        self.cdb = {n: ds.ContinuousDatabase(x) for n, x in self.xc.items()}
        self.configs = [ds.config_from_dict({
            "experiment": "cut_scaling", "vertex_grid": info["vertex_grid"],
            "graph_model": "erdos_renyi", "graph_param": 0.05, "cut_count": info["cut_count"],
            "trial_count": info["cut_trials"], "epsilon": EPSILON,
            "seed": self.seed_for("cut_scaling", k)}) for k in range(info["cut_sweeps"])]

    def run(self, ops):
        ds, info = self.ds, self.info
        batch, ns = info["batch"], info["ns"]
        answers = {n: [] for n in ns}
        release = ds.continuous.release_continuous
        for b in range(info["batches"]):
            rngs = {n: [ds.RandomSource(self.seed_for("continuous", n), 0, (b, i))
                        for i in range(batch)] for n in ns}

            def one_batch():
                for n in ns:
                    x, out = self.cdb[n], answers[n]
                    for rng in rngs[n]:
                        try:
                            out.append(release(x, self.lq, EPSILON, rng))
                        except Exception as exc:  # counted, the batch goes on
                            out.append(exc)

            _, elapsed = ops.timed("continuous", one_batch, warmup=b == 0)
            if b > 0:
                calls = batch * len(ns)
                ops.sample("primary", elapsed / calls)
                ops.sample("continuous_releases_per_s", calls / elapsed)
        for n in ns:
            truth = self.info[f"truth{n}"]
            errs = []
            for a in answers[n]:
                if isinstance(a, Exception):
                    ops.fail(f"release_continuous(n={n}): {type(a).__name__}: {a}")
                    continue
                ops.check(-RANGE_TOL <= a <= 1.0 + RANGE_TOL, f"continuous answer {a} outside [0, 1]")
                errs.append((a - truth) ** 2)
            bound = ds.continuous_bound(ds.BoundInputs(n=n, l=1, epsilon=EPSILON, L=1.0))
            mse = math.fsum(errs) / max(len(errs), 1)
            ops.check(bool(errs) and mse <= CONTINUOUS_SLACK * bound,
                      f"continuous MSE at n={n}: {mse} vs {CONTINUOUS_SLACK} x {bound}")
        for k, config in enumerate(self.configs):
            out = self.path(f"cut_scaling-{self.rep}-{k}.csv")
            rows, elapsed = ops.timed("cut_sweep", ds.harness.run_experiment, config, output=out)
            if rows is None:
                continue
            ops.sample("secondary", elapsed)
            ops.check(check_rows(rows, out, len(config.vertex_grid), "mean_distortion")
                      and all(r.relative_error is not None for r in rows),
                      "cut_scaling: a row's mean distortion exceeds its bound or the CSV is short")


CLASSES = {
    "release_1m": Release1m,
    "mc_distortion": McDistortion,
    "verify_exhaustive": VerifyExhaustive,
    "many_small": ManySmall,
}


def child_main(spec_path):
    start = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import dpsynth

    if not os.path.abspath(dpsynth.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dpsynth imported from {dpsynth.__file__}, not from {src}")
    import_s = time.perf_counter() - start
    workload = CLASSES[spec["workload"]](spec, dpsynth)
    workload.load()
    start = time.perf_counter()
    workload.setup()
    result = {"setup_s": import_s + time.perf_counter() - start}
    probe = SpeedProbe()
    for _ in range(3):
        probe.run()
    if spec["mode"] == "rep":
        tracer = tracing.Tracer() if spec["trace"] else None
        replaced = tracing.install(tracer, dpsynth) if tracer else []
        ops = Ops(tracer, probe)
        try:
            workload.run(ops)
        finally:
            tracing.uninstall(replaced)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.verify(ops)
        result.update(pass_s=ops.timed_s, samples=ops.samples, attempted=ops.attempted,
                      failed=ops.failed, failures=ops.failures)
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["self_by_root"] = [[root, name, value]
                                      for (root, name), value in tracer.self_times().items()]
            result["root_s"] = tracer.root_durations()
            with open(spec["out"] + ".spans.jsonl", "w", encoding="utf-8") as fh:
                for name, begin, end, parent, _ in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                         "parent": parent}) + "\n")
    result["probe_s"] = probe.samples
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    child_main(sys.argv[1])
