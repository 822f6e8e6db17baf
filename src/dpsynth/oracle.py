"""Independent brute-force reference implementations, used by tests and the
``verify`` CLI command.

Nothing here calls the production mechanism or estimator code paths: the
output distribution is rebuilt from per-row kernels and normalized
numerically (log-sum-exp) instead of via the closed-form normalizer, and
distances are recomputed directly. A bug shared with the production modules
would have to be made twice to slip through.

``micro_minimax`` evaluates the minimax distortion on micro-instances by
grid search over symmetric per-row randomized-response mechanisms. The true
infimum ranges over all stochastic matrices subject to the privacy
constraints, which is a large linear-fractional program the source theory
gives no algorithm for; the grid therefore brackets the minimax value from
above, and the report says so. Two estimator notions are computed: the
conditional-mean (Bayes, average-case) estimator that the lower-bound theory
uses, and, where the assignment space is small enough to enumerate, the
exact optimal proper estimator (sup-then-inf). The headline value uses the
conditional mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_BIT_CAP,
    Database,
    DataUniverse,
    EnumerationTooLargeError,
    ValidationError,
    _check_real,
    all_databases_matrix,
    enumeration_size,
)
from .mechanism import IDENTITY_EPSILON

MINIMAX_BIT_CAP = 6
MINIMAX_GRID_CAP = 1000
MINIMAX_GRID_POINTS = 17
_PROPER_SEARCH_CAP = 300_000


@dataclass(frozen=True)
class ExactDistribution:
    """Exhaustive output distribution of a release for one input database.

    ``log_probs[k]`` is the log-probability of the database whose packed code
    is k (row i occupies bits [l*i, l*(i+1))).
    """

    universe: DataUniverse
    n: int
    log_probs: np.ndarray

    def prob(self, y: Database) -> float:
        code = 0
        for i, row in enumerate(y.rows):
            code |= int(row) << (self.universe.l * i)
        return float(math.exp(self.log_probs[code]))


def _logsumexp(values: np.ndarray) -> float:
    m = float(values.max())
    return m + math.log(float(np.exp(values - m).sum()))


def exact_distribution(x: Database, params) -> ExactDistribution:
    """Output distribution of the release mechanism by direct enumeration.

    Only ``params.epsilon`` and the universe are read; the distance to every
    output is recomputed here and the distribution is normalized numerically,
    independent of the mechanism module's closed form.
    """
    rows = all_databases_matrix(x.universe, x.n)
    dists = np.zeros(rows.shape[0])
    for i in range(x.n):
        dists += rows[:, i] != int(x.rows[i])
    eps = float(params.epsilon)
    if eps >= IDENTITY_EPSILON:
        # identity release: exact point mass at x
        scores = np.where(dists == 0, 0.0, -np.inf)
    else:
        scores = -eps * dists
    log_probs = scores - _logsumexp(scores)
    return ExactDistribution(x.universe, x.n, log_probs)


def symmetric_row_kernel(universe: DataUniverse, keep_prob: float) -> np.ndarray:
    """Per-row transition matrix: keep with keep_prob, spread the rest
    uniformly over the other codes."""
    card = universe.cardinality
    if not (0.0 < keep_prob <= 1.0):
        raise ValidationError(f"keep probability must lie in (0, 1], got {keep_prob}")
    # every universe has at least 2 codes
    kernel = np.full((card, card), (1.0 - keep_prob) / (card - 1))
    np.fill_diagonal(kernel, keep_prob)
    return kernel


def _full_transition(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(M, M) matrix P[x, y] = prod_i kernel[x_i, y_i] over database codes."""
    m = rows.shape[0]
    out = np.ones((m, m))
    for r in range(rows.shape[1]):
        col = rows[:, r]
        out *= kernel[col[:, None], col[None, :]]
    return out


def conditional_mean_estimates(transition: np.ndarray, answers: np.ndarray) -> np.ndarray:
    """E[q(X) | Y = y] under a uniform prior on X, for every output code."""
    posterior_mass = transition.sum(axis=0)
    return (transition.T @ answers) / posterior_mass


def worst_case_distortion(transition: np.ndarray, answers: np.ndarray, estimates: np.ndarray) -> float:
    """max over inputs x of sum_y P[x, y] (estimates[y] - answers[x])^2."""
    err = estimates[None, :] - answers[:, None]
    return float((transition * err * err).sum(axis=1).max())


def optimal_proper_estimator_distortion(transition: np.ndarray, answers: np.ndarray) -> float | None:
    """Exact sup-then-inf over proper estimators, by exhausting assignments.

    A proper estimator maps each output code to one achievable answer; the
    search space is |range|^(outputs) and is only enumerable on the tiniest
    instances. Returns None when the space exceeds the cap.
    """
    values = np.unique(answers)
    m = transition.shape[0]
    if values.size**m > _PROPER_SEARCH_CAP:
        return None
    best = math.inf
    for assignment in itertools.product(range(values.size), repeat=m):
        est = values[np.asarray(assignment)]
        best = min(best, worst_case_distortion(transition, answers, est))
    return best


def _answer_matrix(queries, rows: np.ndarray) -> np.ndarray:
    """(Q, M) matrix of exact answers for every query and database code."""
    out = np.empty((len(queries), rows.shape[0]))
    for qi, q in enumerate(queries):
        out[qi] = q.evaluate_rows(rows)
    return out


def hamming_query_family(universe: DataUniverse, n: int):
    """The normalized-distance query family {d(., z)/n : z in D^n}."""
    from .queries import make_hamming_query

    rows = all_databases_matrix(universe, n, bit_cap=MINIMAX_BIT_CAP)
    return [make_hamming_query(Database(universe, z)) for z in rows]


def micro_minimax(
    universe: DataUniverse,
    n: int,
    epsilon: float,
    queries=None,
    keep_prob_grid=None,
) -> float:
    """Grid-search upper bracket of the minimax distortion on a micro-instance.

    For each symmetric per-row mechanism on the grid, the worst case over
    (query, input database) of the exact expected squared distortion is
    computed with the conditional-mean estimator; the grid minimum is
    returned. The release mechanism's keep probability 1/g is always included
    in the grid, so the result never exceeds that mechanism's worst case.
    """
    report = micro_minimax_report(universe, n, epsilon, queries, keep_prob_grid)
    return report["grid_optimum"]


def micro_minimax_report(
    universe: DataUniverse,
    n: int,
    epsilon: float,
    queries=None,
    keep_prob_grid=None,
) -> dict:
    """Full micro-minimax search report.

    Keys: ``grid_optimum`` (min over mechanisms of worst-case conditional-
    mean distortion), ``best_keep_prob``, ``mechanism_e_value`` (the release
    mechanism's worst case under the conditional-mean estimator),
    ``proper_optimum`` (exact sup-then-inf over proper estimators at the best
    grid point; None when not enumerable), and ``note`` documenting that the
    grid brackets rather than solves the infimum.
    """
    enumeration_size(universe, n, MINIMAX_BIT_CAP)
    if _check_real(epsilon, "epsilon") < 0.0:
        raise ValidationError(f"epsilon must be a nonnegative real, got {epsilon}")
    card = universe.cardinality
    eps = min(epsilon, IDENTITY_EPSILON)
    keep_e = 1.0 / (1.0 + (card - 1) * math.exp(-eps))
    if keep_prob_grid is None:
        # DP-feasible symmetric keep probabilities: from uniform output up to
        # the release mechanism's keep probability (the tightest allowed)
        keep_prob_grid = np.linspace(1.0 / card, keep_e, MINIMAX_GRID_POINTS)
    grid = np.asarray(keep_prob_grid, dtype=np.float64)
    if grid.size > MINIMAX_GRID_CAP:
        raise EnumerationTooLargeError(f"mechanism grid exceeds {MINIMAX_GRID_CAP} points")
    if not np.any(np.abs(grid - keep_e) < 1e-12):
        grid = np.append(grid, keep_e)
    rows = all_databases_matrix(universe, n, bit_cap=MINIMAX_BIT_CAP)
    if queries is None:
        queries = hamming_query_family(universe, n)
    if not queries:
        raise ValidationError("micro-minimax needs at least one query")
    answer_rows = _answer_matrix(queries, rows)

    best_value = math.inf
    best_keep = float(grid[0])
    mechanism_e_value = math.inf
    for keep in grid:
        kernel = symmetric_row_kernel(universe, float(keep))
        transition = _full_transition(rows, kernel)
        worst = 0.0
        for answers in answer_rows:
            est = conditional_mean_estimates(transition, answers)
            worst = max(worst, worst_case_distortion(transition, answers, est))
        if worst < best_value:
            best_value = worst
            best_keep = float(keep)
        if abs(float(keep) - keep_e) < 1e-12:
            mechanism_e_value = worst
    kernel = symmetric_row_kernel(universe, best_keep)
    transition = _full_transition(rows, kernel)
    proper_vals = [
        optimal_proper_estimator_distortion(transition, answers) for answers in answer_rows
    ]
    proper_optimum = None
    if all(v is not None for v in proper_vals):
        proper_optimum = max(proper_vals)  # worst case over queries
    return {
        "grid_optimum": best_value,
        "best_keep_prob": best_keep,
        "mechanism_e_value": mechanism_e_value,
        "proper_optimum": proper_optimum,
        "note": (
            "grid search over symmetric per-row mechanisms brackets the "
            "minimax infimum from above; it does not solve the full program"
        ),
    }


def run_verification_suite() -> list[tuple[str, bool, str]]:
    """Cross-check the production modules against the oracle.

    Returns (check name, passed, detail) triples; used by the ``verify`` CLI
    subcommand.
    """
    from .estimators import estimate_unbiased, exact_distortion
    from .mechanism import MechanismParams, log_pmf_all_outputs, realized_epsilon, verify_dp
    from .queries import generate_random_query, make_hamming_query
    from .core import RandomSource

    results: list[tuple[str, bool, str]] = []
    instances = [(1, 1, math.log(3.0)), (2, 1, 1.0), (2, 2, 0.5), (3, 1, 0.25), (4, 2, 1.0), (2, 3, 2.0), (6, 1, 1.0)]

    worst_gap = 0.0
    for n, l, eps in instances:
        universe = DataUniverse(l)
        rng = RandomSource(2024, n * 31 + l)
        x = Database(universe, rng.generator().integers(0, universe.cardinality, size=n))
        params = MechanismParams(eps, universe)
        dist = exact_distribution(x, params)
        prod = log_pmf_all_outputs(x, params)
        worst_gap = max(worst_gap, float(np.abs(dist.log_probs - prod).max()))
    results.append(
        (
            "output distribution matches the closed-form pmf",
            worst_gap <= 1e-10,
            f"max |log p| gap {worst_gap:.3e} (tolerance 1e-10)",
        )
    )

    worst_norm = 0.0
    for n, l, eps in instances:
        universe = DataUniverse(l)
        x = Database(universe, np.zeros(n, dtype=np.int64))
        params = MechanismParams(eps, universe)
        total = float(np.exp(log_pmf_all_outputs(x, params)).sum())
        worst_norm = max(worst_norm, abs(total - 1.0))
    results.append(
        (
            "pmf normalizes to 1 over all outputs",
            worst_norm <= 1e-10,
            f"max |sum - 1| = {worst_norm:.3e} (tolerance 1e-10)",
        )
    )

    shapes = [(n, l) for l in range(1, EXACT_BIT_CAP + 1) for n in range(1, EXACT_BIT_CAP // l + 1)]
    worst_dp = 0.0
    for n, l in shapes:
        universe = DataUniverse(l)
        for eps in (0.25, 1.0, 2.0):
            ratio = verify_dp(universe, n, MechanismParams(eps, universe))
            worst_dp = max(worst_dp, abs(ratio - eps))
    results.append(
        (
            "exhaustive neighbor log-ratio equals epsilon",
            worst_dp <= 1e-12,
            f"max |ratio - eps| = {worst_dp:.3e} over all {len(shapes)} shapes with n*l <= {EXACT_BIT_CAP}"
            " at eps 0.25, 1, 2 (tolerance 1e-12)",
        )
    )

    # the per-row loss the 53-bit keep threshold realizes, at every l the
    # package accepts, on a grid up to just below each l's largest epsilon
    grid = (0.0, 1e-300, 1e-9, 0.02, 0.25, 1.0, 2.0, 10.0, 30.0, 35.64)
    worst_loss_gap = -math.inf
    for l in range(1, 31):
        largest = math.log(2.0**53 - 1) + math.log(2.0**l - 1) - 1e-9
        for eps in grid + (largest,):
            gap = realized_epsilon(MechanismParams(eps, DataUniverse(l))) - eps
            worst_loss_gap = max(worst_loss_gap, gap)
    results.append(
        (
            "sampler's realized privacy loss is at most epsilon",
            worst_loss_gap <= 0.0,
            f"max (realized - eps) = {worst_loss_gap:.3e} over l = 1..30 at {len(grid) + 1} epsilons"
            " up to each l's largest",
        )
    )

    worst_bias = 0.0
    count = 30
    for k in range(count):
        rng = RandomSource(99, k)
        gen = rng.generator()
        l = int(gen.integers(1, 3))
        n = int(gen.integers(1, 9 // l + 1))
        universe = DataUniverse(l)
        eps = float(gen.choice([0.25, 0.5, 1.0, 2.0]))
        h = int(gen.choice([d for d in range(1, n + 1) if n % d == 0]))
        q = generate_random_query(universe, n, h, rng.derive(1))
        x = Database(universe, gen.integers(0, universe.cardinality, size=n))
        params = MechanismParams(eps, universe)
        dist = exact_distribution(x, params)
        rows = all_databases_matrix(universe, n)
        probs = np.exp(dist.log_probs)
        est = np.array(
            [estimate_unbiased(q, Database(universe, row), params) for row in rows]
        )
        worst_bias = max(worst_bias, abs(float(probs @ est) - q.evaluate(x)))
    results.append(
        (
            "companion estimator is unbiased (oracle enumeration)",
            worst_bias <= 1e-10,
            f"max |E[est] - q(x)| = {worst_bias:.3e} over {count} instances (tolerance 1e-10)",
        )
    )

    universe = DataUniverse(1)
    n, eps = 2, 1.0
    rows = all_databases_matrix(universe, n, bit_cap=MINIMAX_BIT_CAP)
    params = MechanismParams(eps, universe)
    kernel = symmetric_row_kernel(universe, params.keep_prob)
    transition = _full_transition(rows, kernel)
    worst_excess = -math.inf
    for z in rows:
        q = make_hamming_query(Database(universe, z))
        answers = q.evaluate_rows(rows)
        est = conditional_mean_estimates(transition, answers)
        err = est[None, :] - answers[:, None]
        cm = (transition * err * err).sum(axis=1)
        companion = np.array(
            [
                exact_distortion(q, Database(universe, xr), params, "unbiased", "squared")
                for xr in rows
            ]
        )
        worst_excess = max(worst_excess, float((cm - companion).max()))
    results.append(
        (
            "conditional mean dominates the companion estimator per input",
            worst_excess <= 1e-10,
            f"max (conditional-mean - companion) distortion gap {worst_excess:.3e}",
        )
    )

    report = micro_minimax_report(universe, 2, 1.0)
    results.append(
        (
            "micro-minimax grid optimum <= release mechanism's value",
            report["grid_optimum"] <= report["mechanism_e_value"] + 1e-12,
            f"grid {report['grid_optimum']:.6e} vs mechanism {report['mechanism_e_value']:.6e}",
        )
    )
    return results
