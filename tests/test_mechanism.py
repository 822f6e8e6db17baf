import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from dpsynth.core import (
    Database,
    DataUniverse,
    DimensionMismatchError,
    EnumerationTooLargeError,
    RandomSource,
    ValidationError,
    all_databases_matrix,
    enumerate_databases,
    hamming_distance,
    is_neighbor,
)
from dpsynth.mechanism import (
    _SCAN_BLOCK,
    MechanismParams,
    _distance_matrix,
    _neighbor_gap,
    exact_log_pmf,
    log_pmf_all_outputs,
    sample_histograms,
    sample_rows,
    sample_synthetic,
    verify_dp,
)
from dpsynth.queries import generate_random_query

LN3_4 = -0.28768207245178093  # ln(3/4), frozen from a 30-digit evaluation


def db(l, rows):
    return Database(DataUniverse(l), np.asarray(rows, dtype=np.int64))


class TestParams:
    def test_derived_constants(self):
        p = MechanismParams(math.log(3.0), DataUniverse(1))
        assert p.g == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert p.keep_prob == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("l", [1, 2, 5])
    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0, 5.0, 700.0])
    def test_row_distribution_normalizes(self, l, eps):
        p = MechanismParams(eps, DataUniverse(l))
        card = 2**l
        assert 1.0 <= p.g <= card
        assert 2.0**-l <= p.keep_prob <= 1.0
        total = p.keep_prob + (card - 1) * p.flip_prob
        assert total == pytest.approx(1.0, abs=1e-12)
        # the mixture form: keep, or redraw uniformly over all codes
        assert 0.0 <= p.redraw_prob <= 1.0
        assert 1.0 - p.redraw_prob + p.redraw_prob / card == pytest.approx(p.keep_prob, abs=1e-12)
        assert p.redraw_prob / card == pytest.approx(p.flip_prob, abs=1e-12)

    @pytest.mark.parametrize("l", [1, 30])
    @pytest.mark.parametrize("eps", [700.0, 1e4])
    def test_identity_constants_are_exact(self, l, eps):
        # the one place the identity boundary is decided: no sampler,
        # debiasing map or bound branches on it
        p = MechanismParams(eps, DataUniverse(l))
        assert p.exp_neg_eps == 0.0 and p.is_identity
        assert (p.g, p.log_g, p.keep_prob, p.flip_prob, p.redraw_prob) == (1.0, 0.0, 1.0, 0.0, 0.0)
        assert (p.scale, p.shift) == (1.0, 0.0)
        below = MechanismParams(699.9, DataUniverse(l))
        assert below.exp_neg_eps == math.exp(-699.9) > 0.0 and not below.is_identity

    def test_epsilon_validated(self):
        with pytest.raises(Exception):
            MechanismParams(-0.5, DataUniverse(1))
        with pytest.raises(Exception):
            MechanismParams(float("nan"), DataUniverse(1))


class TestSampler:
    def test_identity_at_huge_epsilon(self):
        x = db(3, [0, 5, 7, 2, 2])
        y = sample_synthetic(x, MechanismParams(700.0, DataUniverse(3)), RandomSource(1))
        assert y == x
        rows = sample_rows(x.rows, MechanismParams(1e4, DataUniverse(3)), RandomSource(2).generator(), 4)
        assert (rows == x.rows).all()

    @pytest.mark.parametrize("l", [1, 30])
    def test_keep_prob_rounded_to_one_refused(self, l):
        # below the identity boundary, a keep probability of exactly 1.0
        # would publish the input at a finite nominal eps
        p = MechanismParams(699.9, DataUniverse(l))
        assert p.keep_prob == 1.0 and not p.is_identity
        with pytest.raises(ValidationError, match=f"epsilon=699.9 at l={l}"):
            sample_rows(np.zeros(4, dtype=np.int64), p, RandomSource(0).generator(), 1)

    def test_eps_just_below_rounding_still_samples(self):
        # l = 1: keep_prob rounds to 1.0 from about eps = 36.74; at 36.7 it
        # is below 1, and about one row in 10**16 flips
        x = db(1, [0, 1, 1, 0])
        p = MechanismParams(36.7, DataUniverse(1))
        assert p.keep_prob < 1.0
        assert sample_synthetic(x, p, RandomSource(3)) == x

    def test_release_rows_own_and_read_only(self):
        x = db(3, [0, 5, 7, 2, 2])
        y = sample_synthetic(x, MechanismParams(700.0, DataUniverse(3)), RandomSource(1))
        assert not y.rows.flags.writeable
        assert not np.shares_memory(y.rows, x.rows)

    def test_universe_mismatch(self):
        x = db(1, [0, 1])
        with pytest.raises(DimensionMismatchError):
            sample_synthetic(x, MechanismParams(1.0, DataUniverse(2)), RandomSource(0))

    def test_flip_rate_matches_keep_prob(self):
        # l=1, eps=ln 3: keep probability 3/4, so one flip in four rows
        n = 10**6
        x = db(1, np.zeros(n, dtype=np.int64))
        p = MechanismParams(math.log(3.0), DataUniverse(1))
        y = sample_synthetic(x, p, RandomSource(2718))
        rate = float(np.mean(y.rows != x.rows))
        assert abs(rate - 0.25) < 0.002

    def test_uniform_output_at_zero_epsilon(self):
        # eps=0, l=2: every code equally likely regardless of the input row
        n = 10**6
        x = db(2, np.full(n, 3, dtype=np.int64))
        y = sample_synthetic(x, MechanismParams(0.0, DataUniverse(2)), RandomSource(9))
        counts = np.bincount(y.rows, minlength=4) / n
        assert np.abs(counts - 0.25).max() < 0.002

    def test_replay_reproduces_rows(self):
        x = db(2, [0, 1, 2, 3] * 10)
        p = MechanismParams(0.5, DataUniverse(2))
        a = sample_synthetic(x, p, RandomSource(5, 3))
        b = sample_synthetic(x, p, RandomSource(5, 3))
        assert a == b

    def test_peak_memory_per_row(self):
        # l = 1: a bool keep mask and the result in the rows' own uint8, the
        # uniforms drawn in blocks of 2**16; no float64 or int64 per row
        n = 10**6
        rows = np.zeros(n, dtype=np.uint8)
        gen = RandomSource(3).generator()
        tracemalloc.start()
        try:
            out = sample_rows(rows, MechanismParams(1.0, DataUniverse(1)), gen, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, n) and out.dtype == np.uint8
        assert peak <= 3 * n

    @pytest.mark.parametrize("l,dtype", [(1, np.uint8), (1, np.int64), (3, np.int64)])
    def test_blocked_draw_matches_one_draw(self, l, dtype):
        # several 2**16 blocks of uniforms consume the stream exactly as one
        # draw of every uniform, then one of every alternative, would
        u = DataUniverse(l)
        p = MechanismParams(0.7, u)
        rows = RandomSource(8).generator().integers(0, u.cardinality, size=50_001).astype(dtype)
        gen, ref = RandomSource(9, l).generator(), RandomSource(9, l).generator()
        out = sample_rows(rows, p, gen, 3)
        keep = ref.random((3, rows.size)) < p.keep_prob
        alt = ref.integers(0, u.cardinality - 1, size=(3, rows.size), dtype=np.int64)
        alt += alt >= rows
        assert out.dtype == (dtype if l == 1 else np.int64)
        assert np.array_equal(out, np.where(keep, rows, alt))
        assert gen.random() == ref.random()

    def test_row_independence_chi_square(self):
        # empirical joint of (Y_1, Y_2) factorizes at significance 1e-3
        n_samples = 10**5
        x = db(1, [0, 1])
        p = MechanismParams(1.0, DataUniverse(1))
        gen = RandomSource(77).generator()
        from dpsynth.mechanism import sample_rows

        ys = sample_rows(x.rows, p, gen, n_samples)
        joint = np.zeros((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                joint[a, b] = np.count_nonzero((ys[:, 0] == a) & (ys[:, 1] == b))
        marg0 = joint.sum(axis=1) / n_samples
        marg1 = joint.sum(axis=0) / n_samples
        expected = np.outer(marg0, marg1) * n_samples
        stat = ((joint - expected) ** 2 / expected).sum()
        p_value = scipy.stats.chi2.sf(stat, df=1)
        assert p_value > 1e-3


class TestExactLogPmf:
    def test_zero_distance(self):
        x = db(2, [0, 1, 2])
        p = MechanismParams(1.3, DataUniverse(2))
        assert exact_log_pmf(x, x, p) == pytest.approx(-3 * p.log_g, abs=1e-14)

    def test_hand_value(self):
        x = db(1, [1])
        p = MechanismParams(math.log(3.0), DataUniverse(1))
        assert exact_log_pmf(x, x, p) == pytest.approx(LN3_4, abs=1e-14)

    @pytest.mark.parametrize("l,n", [(1, 2), (1, 6), (2, 3), (3, 2), (2, 6), (1, 12)])
    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0, 3.0])
    def test_normalization(self, l, n, eps):
        u = DataUniverse(l)
        gen = RandomSource(n * 100 + l).generator()
        x = Database(u, gen.integers(0, u.cardinality, size=n))
        p = MechanismParams(eps, u)
        total = float(np.exp(log_pmf_all_outputs(x, p)).sum())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_scalar_op(self):
        u = DataUniverse(2)
        x = db(2, [0, 3])
        p = MechanismParams(0.7, u)
        rows = all_databases_matrix(u, 2)
        vec = log_pmf_all_outputs(x, p)
        for code in (0, 5, 12, 15):
            y = Database(u, rows[code])
            assert vec[code] == pytest.approx(exact_log_pmf(x, y, p), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            exact_log_pmf(db(1, [0]), db(1, [0, 1]), MechanismParams(1.0, DataUniverse(1)))


class TestVerifyDp:
    def test_zero_epsilon(self):
        assert verify_dp(DataUniverse(1), 3, MechanismParams(0.0, DataUniverse(1))) == 0.0

    def test_known_values(self):
        assert verify_dp(DataUniverse(1), 2, MechanismParams(1.0, DataUniverse(1))) == pytest.approx(
            1.0, abs=1e-12
        )
        assert verify_dp(DataUniverse(2), 1, MechanismParams(0.5, DataUniverse(2))) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("l,n", [(1, 1), (1, 4), (2, 2), (3, 1), (2, 4), (4, 2), (6, 1)])
    @pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
    def test_budget_met_with_equality(self, l, n, eps):
        u = DataUniverse(l)
        ratio = verify_dp(u, n, MechanismParams(eps, u))
        assert abs(ratio - eps) <= 1e-12
        assert ratio <= eps + 1e-12

    def test_cap(self):
        u = DataUniverse(4)
        with pytest.raises(EnumerationTooLargeError):
            verify_dp(u, 4, MechanismParams(1.0, u))


SMALL_VERIFY_CASES = [(1, 1), (3, 1), (1, 3), (2, 2), (2, 3), (3, 2)]
VERIFY_SHAPES = [(n, l) for l in range(1, 13) for n in range(1, 12 // l + 1)]


def column_compare_distances(l, n):
    """The Hamming matrix as one comparison per row position over the
    enumerated databases: the plain reference for the block builder."""
    rows = all_databases_matrix(DataUniverse(l), n, bit_cap=12)
    dist = np.zeros((rows.shape[0], rows.shape[0]), dtype=np.int8)
    for col in rows.T:
        dist += col[:, None] != col[None, :]
    return dist


def one_shot_gap(dist, l, n):
    """The neighbour scan as one max and one min over each row position's
    whole clique view: the plain reference for the blocked scan."""
    m = dist.shape[0]
    card = 1 << l
    gap = 0
    for r in range(n):
        stride = 1 << (l * r)
        cliques = dist.reshape(m // (card * stride), card, stride, m)
        gap = max(gap, int((cliques.max(axis=1) - cliques.min(axis=1)).max()))
    return gap


def block_boundary_entries(l, n, r):
    """(row, column) of the first clique member at the two clique columns
    on either side of the first block boundary of row position r, or none
    when a single block covers the whole scan."""
    m = 1 << (n * l)
    card = 1 << l
    columns = m * m // card
    block = min(_SCAN_BLOCK, columns)
    if block == columns:
        return []
    inner = (1 << (l * r)) * m
    entries = []
    for col in (block - 1, block):
        a, t = divmod(col, inner)
        entries.append(divmod(a * card * inner + t, m))
    return entries


class TestVerifierScan:
    @pytest.mark.parametrize("n,l", VERIFY_SHAPES)
    def test_distance_matrix_matches_column_compare(self, n, l):
        dist = _distance_matrix(l, n)
        expected = column_compare_distances(l, n)
        assert dist.dtype == np.int8 and dist.shape == expected.shape
        assert dist.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,l", [(n, l) for n, l in VERIFY_SHAPES if n * l == 12])
    def test_distance_matrix_peak_memory(self, n, l):
        # the output plus the matrix one row position smaller
        tracemalloc.start()
        try:
            dist = _distance_matrix(l, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * dist.nbytes

    @pytest.mark.parametrize("n,l", [(13, 1), (1, 13)])
    def test_cap_checked_before_allocating(self, n, l):
        u = DataUniverse(l)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError):
                verify_dp(u, n, MechanismParams(1.0, u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n,l", [(1, 3), (3, 2)])
    def test_distance_matrix_writable_and_contiguous(self, n, l):
        # the tampered-matrix test writes into it; _neighbor_gap reshapes it
        # without copying
        dist = _distance_matrix(l, n)
        assert dist.flags.writeable and dist.flags.c_contiguous
        assert np.shares_memory(dist.reshape(-1, 1 << l, dist.shape[0]), dist)

    @pytest.mark.parametrize("n,l", SMALL_VERIFY_CASES)
    def test_distance_matrix_is_hamming(self, n, l):
        u = DataUniverse(l)
        dbs = list(enumerate_databases(u, n))
        expected = [[hamming_distance(x, y) for y in dbs] for x in dbs]
        assert np.array_equal(_distance_matrix(l, n), np.array(expected))

    @pytest.mark.parametrize("n,l", SMALL_VERIFY_CASES)
    def test_gap_matches_naive_triple_scan_on_tampered_matrix(self, n, l):
        # a skipped row position or clique would miss the tampered entry
        dbs = list(enumerate_databases(DataUniverse(l), n))
        pairs = [(i, j) for i, x in enumerate(dbs) for j, x2 in enumerate(dbs) if is_neighbor(x, x2)]
        gen = RandomSource(n * 10 + l).generator()
        for _ in range(10):
            dist = _distance_matrix(l, n)
            dist[gen.integers(dist.shape[0]), gen.integers(dist.shape[0])] += gen.integers(1, 3)
            naive = max(
                abs(int(dist[i, y]) - int(dist[j, y])) for i, j in pairs for y in range(len(dbs))
            )
            assert _neighbor_gap(dist, l, n) == naive

    @pytest.mark.parametrize("n,l", [(n, l) for n, l in VERIFY_SHAPES if n * l == 12])
    def test_blocked_gap_matches_one_shot_on_tampered_matrix(self, n, l):
        # a skipped block, or an off-by-one at a block's edge, would miss
        # one of these entries
        dist = _distance_matrix(l, n)
        m = dist.shape[0]
        entries = [(0, 0), (m - 1, m - 1)]
        entries += block_boundary_entries(l, n, 0) + block_boundary_entries(l, n, n - 1)
        if l <= 4:
            assert len(entries) == 6  # blocking splits the scan at these shapes
        for i, j in entries:
            # its clique mates' distances to j lie within 1 of the old
            # value, so the gap becomes at least 4 wherever the scan sees it
            dist[i, j] += 5
            assert _neighbor_gap(dist, l, n) == one_shot_gap(dist, l, n) >= 4, (i, j)
            # every row position sees the entry, so a block skipped at one
            # position alone can hide behind the others; n = 1 scans only
            # row position 0, where blocks span the most cliques
            assert _neighbor_gap(dist, l, 1) == one_shot_gap(dist, l, 1) >= 4, (i, j)
            dist[i, j] -= 5

    @pytest.mark.parametrize("n,l", [(n, l) for n, l in VERIFY_SHAPES if n * l == 12])
    def test_scan_peak_memory(self, n, l):
        # the two block buffers, not an m/2**l x m temporary per row position
        dist = _distance_matrix(l, n)
        tracemalloc.start()
        try:
            assert _neighbor_gap(dist, l, n) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestSamplerMatchesPmf:
    @pytest.mark.parametrize(
        "l,n,trials",
        [(1, 2, 10**6), (2, 2, 10**6), (3, 2, 2 * 10**6), (2, 4, 4 * 10**6)],
    )
    def test_total_variation(self, l, n, trials):
        u = DataUniverse(l)
        gen_x = RandomSource(l * 17 + n).generator()
        x = Database(u, gen_x.integers(0, u.cardinality, size=n))
        p = MechanismParams(1.0, u)
        from dpsynth.mechanism import sample_rows

        ys = sample_rows(x.rows, p, RandomSource(31, l).generator(), trials)
        codes = np.zeros(trials, dtype=np.int64)
        for i in range(n):
            codes |= ys[:, i] << (l * i)
        counts = np.bincount(codes, minlength=2 ** (n * l))
        exact = np.exp(log_pmf_all_outputs(x, p))
        tv = 0.5 * float(np.abs(counts / trials - exact).sum())
        assert tv <= 5e-3


class TestSampleHistograms:
    @pytest.mark.parametrize(
        "l,n,h,eps",
        [(1, 6, 2, 0.5), (1, 4, 1, 0.0), (2, 3, 3, 1.0), (2, 2, 1, 0.25), (3, 2, 2, 2.0), (6, 1, 1, 1.0)],
    )
    def test_matches_enumerated_histogram_distribution(self, l, n, h, eps):
        # exact probability of each histogram: the pmf of every output,
        # summed over the outputs with that histogram
        u = DataUniverse(l)
        q = generate_random_query(u, n, h, RandomSource(l, n).derive(h))
        x = Database(u, RandomSource(n, l).generator().integers(0, u.cardinality, size=n))
        params = MechanismParams(eps, u)
        rows = all_databases_matrix(u, n)
        probs = np.exp(log_pmf_all_outputs(x, params, rows_matrix=rows))
        support = q.histogram(rows).reshape(rows.shape[0], -1)
        trials = 20000
        drawn = sample_histograms(
            q.histogram(x.rows), params, RandomSource(61, l).derive(n).generator(), trials
        )
        keys, inverse = np.unique(
            np.concatenate([support, drawn.reshape(trials, -1)]), axis=0, return_inverse=True
        )
        inverse = inverse.ravel()
        exact = np.bincount(inverse[: support.shape[0]], weights=probs, minlength=keys.shape[0])
        counts = np.bincount(inverse[support.shape[0] :], minlength=keys.shape[0])
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)
        assert (counts[exact == 0] == 0).all()  # nothing outside the support
        # 6 sigma per outcome, sigma floored at one count so that a single
        # draw of an outcome expected less than once is not a failure
        sigma = np.maximum(np.sqrt(trials * exact * (1 - exact)), 1.0)
        assert (np.abs(counts - trials * exact) <= 6 * sigma).all()

    @pytest.mark.parametrize("eps", [700.0, 1e4])
    def test_identity_returns_input(self, eps):
        hist = np.array([[3, 0, 1, 2], [0, 5, 0, 0]])
        out = sample_histograms(hist, MechanismParams(eps, DataUniverse(2)), RandomSource(0).generator(), 3)
        assert out.shape == (3, 2, 4)
        assert (out == hist).all()

    def test_in_place_result_equals_formula(self):
        # the result is hist - redrawn + arrivals, built in the redrawn array
        u = DataUniverse(3)
        params = MechanismParams(0.7, u)
        hist = RandomSource(4).generator().integers(0, 9, size=(5, u.cardinality))
        gen = RandomSource(12).generator()
        redrawn = gen.binomial(hist, params.redraw_prob, size=(50,) + hist.shape)
        arrivals = gen.multinomial(redrawn.sum(axis=-1), np.full(u.cardinality, 1.0 / u.cardinality))
        expected = hist - redrawn + arrivals
        out = sample_histograms(hist, params, RandomSource(12).generator(), 50)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_peak_memory_near_output(self):
        # h = 64 tables at l = 3 and 4096 trials, as perfbench's
        # measure_distortion draws them: the binomial draw and the
        # arrivals, with the result written over the draw
        u = DataUniverse(3)
        hist = np.full((64, u.cardinality), 8, dtype=np.int64)
        gen = RandomSource(2).generator()
        tracemalloc.start()
        try:
            out = sample_histograms(hist, MechanismParams(1.0, u), gen, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4096, 64, u.cardinality)
        assert peak <= 2.25 * out.nbytes

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sample_histograms(
                np.ones((2, 4), dtype=np.int64),
                MechanismParams(1.0, DataUniverse(1)),
                RandomSource(0).generator(),
                2,
            )
