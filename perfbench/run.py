"""dpsynth benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of the workloads in
``workloads.py`` (or ``all``). The launcher writes the workload's inputs from
the seed, then starts one fresh child process per repetition until
``--seconds`` have passed, one child at a time, with the BLAS/OpenMP thread
settings pinned to ``THREADS``. It prints provenance, the inputs, every
timing with its median, tail percentile and sample count, and, as its last
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every other repetition is traced and
the metrics are the per-layer self times and counts, plus the tracing
overhead against the untraced repetitions of the same run. ``--smoke`` runs
toy sizes for the self-test. Exit code 2 when the checkout has no
``src/dpsynth`` or a metric got no sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_SAMPLES = 3  # fresh-interpreter setups per run; extra setup-only children fill up
HARD_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(values):
    """Highest percentile with at least ten samples above it, as (p, value)."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return math.floor(100 * k / len(ordered)), ordered[k - 1]


def describe(name, values, unit):
    if not values:
        return f"{name}: no samples"
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g} {unit}" if t else "no tail percentile (<11 samples)"
    return (f"{name}: median {statistics.median(values):.6g} {unit}, {tail_text}, "
            f"{len(values)} samples")


def provenance(seed):
    def git_commit():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpsynth").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        importlib.import_module("numba")
        numba_imports = True
    except Exception:
        numba_imports = False
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": {var: str(THREADS) for var in THREAD_VARS},
    }


class Run:
    """One launcher run of one workload."""

    def __init__(self, name, seed, seconds, trace, size):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: str(THREADS) for var in THREAD_VARS})
        self.started = time.perf_counter()
        self.children = 0
        self.errors = []

    def child(self, rep, mode, traced):
        spec_path = self.work / f"spec-{self.children}.json"
        out = self.work / f"result-{self.children}.json"
        self.children += 1
        spec = {"root": str(ROOT), "work": str(self.work), "workload": self.name,
                "seed": self.seed, "rep": rep, "mode": mode, "trace": traced,
                "out": str(out)}
        spec_path.write_text(json.dumps(spec))
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), str(spec_path)],
                                  env=self.env, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} {rep}: timed out")
            return None
        if proc.returncode != 0 or not out.exists():
            self.errors.append(f"{mode} {rep}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(out.read_text())
        if traced:
            spans = out.with_name(out.name + ".spans.jsonl")
            if spans.exists():
                spans.replace(ROOT / ".perfbench" / f"spans-{self.name}.jsonl")
        return result

    def execute(self):
        self.work.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self):
        inputs = workloads.make_inputs(self.name, str(self.work), self.seed, self.size)
        print(f"perfbench workload={self.name} seed={self.seed} seconds={self.seconds} "
              f"trace={int(self.trace)} size={self.size}")
        print("provenance: " + json.dumps(provenance(self.seed)))
        print("inputs: " + json.dumps({k: v for k, v in inputs.items()
                                       if k not in ("estimates", "answers")}))
        reps = []
        begin = time.perf_counter()
        while len(reps) < (2 if self.trace else 1) or time.perf_counter() - begin < self.seconds:
            traced = self.trace and len(reps) % 2 == 1
            result = self.child(len(reps), "rep", traced)
            reps.append((traced, result))
            if time.perf_counter() - self.started > HARD_LIMIT_S - 20:
                break
        setups = [r for _, r in reps if r]
        while len(setups) < SETUP_SAMPLES:
            result = self.child(len(setups), "setup", False)
            if result is None:
                break
            setups.append(result)
        return self.report(reps, setups)

    def report(self, reps, setups):
        """Print the summary and the result line. Each child's timings are
        rescaled by its speed probe (see workloads.SpeedProbe); the raw wall
        medians are printed beside the rescaled ones."""
        done = [(traced, r) for traced, r in reps if r]
        attempted = sum(r["attempted"] for _, r in done) + (len(reps) - len(done))
        failed = sum(r["failed"] for _, r in done) + (len(reps) - len(done))
        for error in self.errors:
            print(f"error: {error}")
        for _, r in done:
            for failure in r["failures"]:
                print(f"failed: {failure}")
        untraced = [r for traced, r in done if not traced]
        traced = [r for is_traced, r in done if is_traced]

        part = workloads.PROBE_PART[self.name]

        def speed(r):
            return statistics.median(r["probe_s"][part]) / workloads.CAL_REF_S[part]

        def groups(results, key, unit, rescale=True):
            """{group: samples} of ``key`` and ``key@<group>``, rescaled by speed."""
            power = -1 if unit == "1/s" else 1
            out = {}
            for r in results:
                for name, values in r["samples"].items():
                    if name == key or name.startswith(key + "@"):
                        out.setdefault(name, []).extend(
                            v / speed(r) ** power if rescale else v for v in values)
            return out

        def value(results, key, unit, rescale=True):
            found = groups(results, key, unit, rescale)
            if not found:
                return None
            return statistics.fmean(statistics.median(v) for v in found.values())

        probes = [v for _, r in done for v in r["probe_s"][part]]
        if probes:
            print(f"{self.name} machine speed: {part} probe median "
                  f"{statistics.median(probes):.6g} s, reference {workloads.CAL_REF_S[part]} s")
        for name, key, unit in workloads.NAMED_METRICS[self.name]:
            found = groups(untraced, key, unit)
            if len(found) > 1:
                print(f"{self.name} {name}: mean of {len(found)} call-kind medians "
                      f"{value(untraced, key, unit):.6g} {unit}; raw wall "
                      f"{value(untraced, key, unit, rescale=False):.6g} {unit}")
            for group, values in found.items():
                raw = statistics.median(groups(untraced, key, unit, rescale=False)[group])
                label = name if len(found) == 1 else f"  {name} [{group}]"
                print(f"{self.name} {describe(label, values, unit)}; raw wall median "
                      f"{raw:.6g} {unit}")
        samples = {
            "setup_s": [r["setup_s"] / speed(r) for r in setups],
            "pass_s": [r["pass_s"] / speed(r) for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for name in ("setup_s", "pass_s"):
            print(f"{self.name} " + describe(name, samples[name], "s"))
        print(f"{self.name} fail_ratio: {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
        metrics = {}
        if not self.trace:
            for name, unit in END_TO_END:
                if name in samples:
                    result = statistics.median(samples[name]) if samples[name] else None
                else:
                    result = value(untraced, name[:-2], unit)
                if result is None:
                    return self.fail(f"no samples for {name}")
                metrics[name] = {"value": result, "unit": unit}
        else:
            if not traced or not samples["pass_s"]:
                return self.fail("a traced run needs one traced and one untraced repetition")
            for name, unit, _ in tracing.LAYER_METRICS:
                layer = statistics.median(r["layers"][name] / (speed(r) if unit == "s" else 1.0)
                                          for r in traced)
                metrics[name] = {"value": layer, "unit": unit}
                print(f"{self.name} layer {name}: {layer:.6g} {unit} per pass")
            overhead = statistics.median(r["pass_s"] / speed(r) for r in traced) / statistics.median(
                samples["pass_s"])
            name, unit, _ = tracing.OVERHEAD_METRIC
            metrics[name] = {"value": overhead, "unit": unit}
            print(f"{self.name} tracing overhead: traced pass / untraced pass = {overhead:.4f}")
            self.print_shares(traced)
        print(json.dumps({"correct": failed == 0 and not self.errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0

    def print_shares(self, traced):
        """How much of a root call's time the named layers account for."""
        claims = {
            "release_1m": ("bench.release",
                           ("cli.read_database_codes", "cli.write_database_codes")),
            "mc_distortion": ("bench.mc_predicate",
                              ("mechanism.sample_rows", "queries.evaluate_rows")),
        }
        if self.name not in claims:
            return
        root, layers = claims[self.name]
        shares = []
        for r in traced:
            part = sum(v for rt, name, v in r["self_by_root"] if rt == root and name in layers)
            shares.append(part / r["root_s"][root])
        print(f"{self.name} share of {root} time in {' + '.join(layers)}: "
              f"{statistics.median(shares):.3f}")

    def fail(self, why):
        print(f"error: {why}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpsynth" / "__init__.py").is_file():
        print(f"error: no dpsynth sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace),
                  "smoke" if args.smoke else "full")
        status = max(status, run.execute())
    return status


if __name__ == "__main__":
    sys.exit(main())
