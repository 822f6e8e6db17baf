"""Command-line front end.

Subcommands: ``release`` (database in, synthetic database out), ``estimate``
(synthetic database + query file -> answer), ``bounds`` (closed-form bound
table over a grid of n and epsilon), ``experiment`` (config JSON -> results
CSV), ``graph-cut`` (edge list + cut spec -> private answer), ``verify``
(oracle cross-check suite). Releases draw fresh OS entropy; ``--seed`` is
for tests. Exit codes: 0 success, 2 usage or config errors and allocations
that fail, 1 anything else; data errors print a machine-parseable
``error[<category>]`` prefix.

Code files are read by ``core._read_int_rows`` (a numpy byte scan, whose
grammar is the only one a code file has; the first line outside it is named
in the error) and written by ``write_database_codes`` as byte matrices of
zero-padded digits, not one string per row: every line of a release has one
length, so the scan reads it as a byte matrix too. The same scan reads a
query file's per-row integer arrays (``core._read_json_int_arrays``, json as
the fallback).

The modules imported at the top (``core``, ``mechanism``, ``queries``,
``estimators``) are the ones ``release`` and ``estimate`` use; every other
subcommand imports its own inside its handler, so a fresh ``release`` or
``estimate`` process loads none of ``harness``, ``graph``, ``oracle`` and
``continuous``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .core import _BOM, Database, DataUniverse, DimensionMismatchError, RandomSource, ValidationError, _read_int_rows
from .estimators import _BATCH_ESTIMATORS, ESTIMATORS, _debias_factors, _estimates
from .mechanism import MechanismParams, realized_epsilon, sample_synthetic
from .queries import load_query


def read_database_codes(path, l: int) -> Database:
    """Plain database file: one integer row code per line, '#' comments allowed.

    A first line that is exactly the ``# l=.. n=..`` header of
    ``write_database_codes`` must name l and the number of codes read."""
    with open(path, "rb") as fh:
        first = fh.readline(64 + len(_BOM)).removeprefix(_BOM)  # _read_int_rows skips a BOM too
    header = re.fullmatch(rb"# l=(\d+) n=(\d+)\r?\n", first)
    codes = _read_int_rows(path, 1, 0)
    if codes.size == 0:
        raise ValidationError(f"{path}: no rows")
    if header and (int(header[1]), int(header[2])) != (l, codes.size):
        raise DimensionMismatchError(
            f"{path}: header '{header[0].decode().strip()}' does not match l={l} "
            f"and the {codes.size} codes read"
        )
    return Database._adopt(DataUniverse(l), codes.reshape(-1))


def write_database_codes(db: Database, path) -> None:
    """Code file of db: a '# l=.. n=..' header, then one decimal code per line,
    zero-padded to D digits, D the digit count of 2**l - 1, so every line
    after the header has D + 1 bytes.

    Each chunk of rows is rendered as its (rows, D + 1) byte matrix: the
    digits, then a newline."""
    digits = len(str(db.universe.cardinality - 1))
    chunk = 1 << 16
    with open(path, "wb") as fh:
        fh.write(f"# l={db.universe.l} n={db.n}\n".encode())
        for start in range(0, db.n, chunk):
            codes = db.rows[start : start + chunk].astype(np.uint32)  # codes < 2**30
            text = np.empty((codes.size, digits + 1), dtype=np.uint8)
            text[:, digits] = ord("\n")
            for j in range(digits - 1, 0, -1):
                rest = codes // 10
                text[:, j] = codes - 10 * rest + ord("0")
                codes = rest
            text[:, 0] = codes + ord("0")  # the top digit: codes < 10 here
            fh.write(text)


def _release_source(seed, params: MechanismParams) -> RandomSource:
    realized_epsilon(params)  # an epsilon the sampler refuses exits before the seed warning
    if seed is None:
        return RandomSource(np.random.SeedSequence().entropy)
    source = RandomSource(seed)  # a bad seed exits before the warning
    print(f"warning: --seed {seed} makes this release reproducible by anyone who knows the seed", file=sys.stderr)
    return source


def _check_not_input(input_path, output_path) -> None:
    """ValidationError if the output names the input file, by the same path,
    a symlink or a hard link: the release would replace its private input."""
    try:
        same = os.path.samefile(input_path, output_path)
    except OSError:  # one of them does not exist (yet)
        same = os.path.realpath(input_path) == os.path.realpath(output_path)
    if same:
        raise ValidationError(f"--output {output_path} is the --input file; the release would overwrite it")


def _cmd_release(args) -> int:
    _check_not_input(args.input, args.output)
    if args.schema is not None:
        if args.l is not None:
            raise ValidationError("--l cannot be given with --schema, which fixes l")
        from .harness import ingest_csv

        x = ingest_csv(args.input, args.schema)
    else:
        if args.l is None:
            raise ValidationError("--l is required when reading a plain code file")
        x = read_database_codes(args.input, args.l)
    params = MechanismParams(args.epsilon, x.universe)
    y = sample_synthetic(x, params, _release_source(args.seed, params))
    write_database_codes(y, args.output)
    print(f"released n={y.n} rows over l={y.universe.l} at epsilon={args.epsilon}")
    return 0


def _cmd_estimate(args) -> int:
    q = load_query(args.query)
    y = read_database_codes(args.input, q.universe.l)
    params = MechanismParams(args.epsilon, q.universe)
    answer = _estimates(q, q.evaluate(y), params, args.estimator)
    print(f"{float(answer):.9g}")
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import BOUND_TABLE_COLUMNS, BoundInputs, bound_table_row
    from .harness import _write_csv

    # every row is built, so every point checked, before the first is written
    rows = [
        bound_table_row(BoundInputs(n=n, l=args.l, epsilon=eps, a=args.a, b=args.b, c=args.c, L=args.L))
        for eps in args.epsilon
        for n in args.n
    ]
    _write_csv(sys.stdout, BOUND_TABLE_COLUMNS, rows)
    return 0


def _cmd_experiment(args) -> int:
    import dataclasses

    from .harness import fit_loglog_slope, load_config, run_experiment

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
    from .graph import _answer_cuts, _cut_indicators, read_cut_spec, read_edge_list, release_graph, vertex_count

    x = read_edge_list(args.edges, one_based=args.one_based, symmetrize=not args.no_symmetrize)
    s, t = _cut_indicators([read_cut_spec(args.cut)], vertex_count(x))
    # refused before anything is drawn and before the seed warning
    params = MechanismParams(args.epsilon, x.universe)
    _debias_factors(params)
    y = release_graph(x, args.epsilon, _release_source(args.seed, params))
    print(f"{float(_answer_cuts(y, s, t, args.epsilon, args.estimator)[0]):.9g}")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import run_verification_suite

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
    p.add_argument("--estimator", choices=ESTIMATORS, default="unbiased", help="unbiased (the debiased answer), "
                   "proper (clamped to the query's value interval) or exact_range (the nearest achievable value)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bounds", help="print the closed-form bound table as CSV, one row per (epsilon, n)")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--epsilon", type=float, nargs="+", required=True)
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
    p.add_argument("--estimator", choices=_BATCH_ESTIMATORS, default="unbiased",
                   help="unbiased (the debiased count) or proper (clamped to [0, |S||T|])")
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
    except MemoryError as exc:
        print(f"error[memory]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
