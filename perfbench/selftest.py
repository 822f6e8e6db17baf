"""Self-test of the benchmark: smoke runs, negative checks, bare-directory exit.

    python3 perfbench/selftest.py

1. Every workload runs at toy sizes (``--smoke``) with ``--trace 0`` and
   ``--trace 1``; each must print exactly the metrics that ``BENCHMARK.json``
   names for that mode, with their units, and fail no operation.
2. Deliberately wrong answers must be counted as failed operations: once at
   the level of the check helpers, once through a whole smoke pass with
   ``estimate_unbiased`` replaced by a wrong one.
3. In a directory that holds only ``BENCHMARK.json`` and the benchmark, the
   launcher must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

ROOT = run.ROOT


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(cwd, script, *args):
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)


def test_smoke_runs():
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = launch(ROOT, run.BENCH_DIR / "run.py", "--workload", name, "--seed", "3",
                          "--seconds", "0.5", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, (name, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stdout)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected_metrics(trace), (name, trace, got)
            for key, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (name, key, metric)
            print(f"ok smoke {name} trace={trace}: {result['attempted']} operations")


def test_checks_reject_wrong_answers():
    sys.path.insert(0, str(ROOT / "src"))
    import dpsynth
    import numpy as np

    spec = {"truth": 0.25, "lo": 0.0, "hi": 1.0, "a": 0.0, "b": 1.0, "c": 1.0}
    ops = workloads.Ops(None, workloads.SpeedProbe())
    ops.check(workloads.unbiased_ok(dpsynth, 0.25, spec, 10**6, 3), "right answer")
    ops.check(workloads.unbiased_ok(dpsynth, 0.75, spec, 10**6, 3), "wrong unbiased answer")
    ops.check(workloads.proper_ok(1.5, spec), "proper answer outside the value range")
    ops.timed("raises", lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (4, 3), (ops.attempted, ops.failed, ops.failures)

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        x = np.arange(100) % 8
        short = os.path.join(tmp, "short.txt")
        Path(short).write_text("# l=3 n=99\n" + "\n".join(map(str, x[:99])) + "\n")
        assert workloads.check_release_file(short, x, 3, 1.0) is not None
        wide = os.path.join(tmp, "wide.txt")
        Path(wide).write_text("\n".join(map(str, x + 8)) + "\n")
        assert workloads.check_release_file(wide, x, 3, 1.0) is not None
    print("ok check helpers count wrong answers as failed")


def test_wrong_program_answer_fails_the_pass():
    sys.path.insert(0, str(ROOT / "src"))
    import dpsynth

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        info = workloads.make_inputs("release_1m", tmp, 5, "smoke")
        spec = {"work": tmp, "seed": 5, "rep": 0}
        workload = workloads.Release1m(spec, dpsynth)
        workload.load()
        workload.setup()
        original = dpsynth.estimate_unbiased
        dpsynth.estimate_unbiased = lambda q, y, params: original(q, y, params) + 10.0
        ops = workloads.Ops(None, workloads.SpeedProbe())
        try:
            workload.run(ops)
        finally:
            dpsynth.estimate_unbiased = original
        workload.verify(ops)
    expected = len(info["answers"]) * info["rounds"]
    assert ops.failed == expected, (ops.failed, expected, ops.failures)
    print(f"ok a wrong estimate_unbiased fails all {expected} in-process answers")


def test_bare_directory_exits_nonzero():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = launch(tmp, Path(tmp) / run.BENCH_DIR.name / "run.py", "--workload",
                      "many_small", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    print("ok bare directory exits with code", proc.returncode)


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    test_checks_reject_wrong_answers()
    test_wrong_program_answer_fails_the_pass()
    test_bare_directory_exits_nonzero()
    test_smoke_runs()
    print("selftest passed")
