"""Command-line front end.

Subcommands: ``release`` (database in, synthetic database out), ``estimate``
(synthetic database + query file -> answer), ``bounds`` (closed-form bound
table), ``experiment`` (config JSON -> results CSV), ``graph-cut`` (edge list
+ cut spec -> private answer), ``verify`` (oracle cross-check suite). Releases
draw fresh OS entropy; ``--seed`` is for tests. Exit codes: 0 success, 2 usage
or config errors, 1 anything else; data errors print a machine-parseable
``error[<category>]`` prefix.

Code files are read by ``core._read_int_rows`` (numpy's C reader, a line
walk as the fallback) and written by ``write_database_codes`` as byte
matrices of digits, not one string per row.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import bounds as bounds_mod
from .core import Database, DataUniverse, RandomSource, ValidationError, _read_int_rows
from .estimators import estimate_unbiased, project_proper
from .graph import answer_cut, read_cut_spec, read_edge_list, release_graph, vertex_count
from .harness import _fmt, fit_loglog_slope, ingest_csv, load_config, run_experiment
from .mechanism import MechanismParams, sample_synthetic
from .oracle import run_verification_suite
from .queries import load_query


def read_database_codes(path, l: int) -> Database:
    """Plain database file: one integer row code per line, '#' comments allowed."""
    codes = _read_int_rows(path, 1, 0)
    if codes.size == 0:
        raise ValidationError(f"{path}: no rows")
    return Database._adopt(DataUniverse(l), codes.reshape(-1))


def write_database_codes(db: Database, path) -> None:
    """Code file of db: a '# l=.. n=..' header, then one decimal code per line.

    Each chunk of rows is rendered as a (rows, D + 1) byte matrix, D the digit
    count of 2**l - 1: the digits right-aligned, then a newline. Its bytes
    with the leading zeros masked off are the chunk's text."""
    digits = len(str(db.universe.cardinality - 1))
    chunk = 1 << 16
    with open(path, "wb") as fh:
        fh.write(f"# l={db.universe.l} n={db.n}\n".encode())
        for start in range(0, db.n, chunk):
            codes = db.rows[start : start + chunk].astype(np.uint32)  # codes < 2**30
            text = np.empty((codes.size, digits + 1), dtype=np.uint8)
            text[:, digits] = ord("\n")
            keep = np.ones(text.shape, dtype=bool)
            for j in range(digits - 1):
                keep[:, j] = codes >= 10 ** (digits - 1 - j)
            for j in range(digits - 1, -1, -1):
                rest = codes // 10
                text[:, j] = codes - 10 * rest + ord("0")
                codes = rest
            fh.write(text[keep].tobytes())


def _release_seed(seed):
    if seed is None:
        return np.random.SeedSequence().entropy
    print(f"warning: --seed {seed} makes this release reproducible by anyone who knows the seed", file=sys.stderr)
    return seed


def _cmd_release(args) -> int:
    if args.schema is not None:
        if args.l is not None:
            raise ValidationError("--l cannot be given with --schema, which fixes l")
        x = ingest_csv(args.input, args.schema)
    else:
        if args.l is None:
            raise ValidationError("--l is required when reading a plain code file")
        x = read_database_codes(args.input, args.l)
    params = MechanismParams(args.epsilon, x.universe)
    y = sample_synthetic(x, params, RandomSource(_release_seed(args.seed)))
    write_database_codes(y, args.output)
    print(f"released n={y.n} rows over l={y.universe.l} at epsilon={args.epsilon}")
    return 0


def _cmd_estimate(args) -> int:
    q = load_query(args.query)
    y = read_database_codes(args.input, q.universe.l)
    params = MechanismParams(args.epsilon, q.universe)
    raw = estimate_unbiased(q, y, params)
    if args.estimator == "proper":
        answer = project_proper(q, raw, args.projection)
    else:
        answer = raw
    print(f"{answer:.9g}")
    return 0


def _cmd_bounds(args) -> int:
    inputs = bounds_mod.BoundInputs(
        n=args.n, l=args.l, epsilon=args.epsilon, a=args.a, b=args.b, c=args.c, L=args.L
    )
    row = bounds_mod.bound_table_row(inputs)
    writer = csv.writer(sys.stdout)
    writer.writerow(bounds_mod.BOUND_TABLE_COLUMNS)
    writer.writerow([_fmt(row[col]) for col in bounds_mod.BOUND_TABLE_COLUMNS])
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    output = args.output if args.output is not None else config.output
    rows = run_experiment(config, output=output)
    print(f"wrote {len(rows)} rows to {output}")
    if config.experiment in ("database_scaling", "cut_scaling"):
        slope = fit_loglog_slope(
            [r.grid_point for r in rows], [r.worst_case_distortion for r in rows]
        )
        if slope is not None:
            print(f"log-log slope of worst-case distortion: {slope:.4f}")
    return 0


def _cmd_graph_cut(args) -> int:
    x = read_edge_list(args.edges, one_based=args.one_based, symmetrize=not args.no_symmetrize)
    q = read_cut_spec(args.cut)
    q.validate_for(vertex_count(x))
    y = release_graph(x, args.epsilon, RandomSource(_release_seed(args.seed)))
    answer = answer_cut(y, q, args.epsilon)
    if args.clamp:
        answer = min(max(answer, 0.0), len(q.s_set) * len(q.t_set))
    print(f"{answer:.9g}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verification_suite()
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("release", help="release a private synthetic database")
    p.add_argument("--input", required=True, help="input database (code file or CSV)")
    p.add_argument("--output", required=True, help="output synthetic database (code file)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="tests only (default: fresh OS entropy)")
    p.add_argument("--l", type=int, default=None, help="attribute count for plain code files")
    p.add_argument("--schema", default=None, help="ingestion schema JSON for CSV input")
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("estimate", help="answer a query from a synthetic database")
    p.add_argument("--input", required=True, help="synthetic database code file")
    p.add_argument("--query", required=True, help="query definition JSON")
    p.add_argument("--epsilon", type=float, required=True, help="epsilon used at release time")
    p.add_argument("--estimator", choices=("unbiased", "proper"), default="unbiased")
    p.add_argument("--projection", choices=("interval_clamp", "exact_range"), default="interval_clamp")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bounds", help="print the closed-form bound table as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--L", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run an experiment config to a results CSV")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output", default=None, help="override the config output path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("graph-cut", help="privately answer a cut query on a graph")
    p.add_argument("--edges", required=True, help="edge list file (one 'i j' per line)")
    p.add_argument("--cut", required=True, help="cut spec file (two lines: S then T)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="tests only (default: fresh OS entropy)")
    p.add_argument("--one-based", action="store_true", help="edge list uses 1-based vertex ids")
    p.add_argument("--no-symmetrize", action="store_true", help="treat the edge list as directed")
    p.add_argument("--clamp", action="store_true", help="clamp the answer to [0, |S||T|]")
    p.set_defaults(func=_cmd_graph_cut)

    p = sub.add_parser("verify", help="run the enumeration-oracle verification suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        category = getattr(exc, "category", "validation")
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
