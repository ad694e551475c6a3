"""Comparison-count recurrences, exact small-n laws, and the seeded sampler."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qslimit.cli import main
from qslimit.core_numerics import Grid
from qslimit.moments import VARIANCE
from qslimit.report import build_artifacts
from qslimit.quicksort_sim import (
    _BUCKET_SHIFT,
    SimulationSummary,
    _chi2_tail,
    _leaf_draw,
    _leaf_guide,
    _leaf_table,
    check_seed,
    chi_square_vs_exact,
    exact_distribution,
    exact_mean,
    exact_variance,
    ks_distance,
    sample_many,
    simulate,
    standardize,
)


def _normal_cdf_grid() -> Grid:
    xs = np.linspace(-8.0, 8.0, 4001)
    return Grid(-8.0, float(xs[1] - xs[0]), stats.norm.cdf(xs))


def test_exact_mean_small_cases():
    assert exact_mean(0) == 0.0
    assert exact_mean(1) == 0.0
    assert exact_mean(2) == 1.0
    assert exact_mean(3) == float(Fraction(8, 3))  # exactly 8/3


def test_exact_mean_matches_harmonic_closed_form():
    # E X_n = 2(n+1) H_n - 4n
    for n in (10, 100, 1000, 10_000):
        h = float(np.sum(1.0 / np.arange(1, n + 1)))
        assert exact_mean(n) == pytest.approx(2.0 * (n + 1) * h - 4.0 * n,
                                              rel=1e-9)


def test_exact_variance_small_cases():
    assert exact_variance(0) == 0.0
    assert exact_variance(1) == 0.0
    assert exact_variance(2) == 0.0  # two keys always take one comparison
    assert exact_variance(3) == float(Fraction(2, 9))  # exactly 2/9


def _variance_table_reference(n_max: int) -> np.ndarray:
    # the one-pass recurrence for E X_n and E X_n^2, in floats
    a = np.zeros(n_max + 1)
    s = np.zeros(n_max + 1)
    sum_a = sum_s = 0.0
    for n in range(1, n_max + 1):
        a[n] = (n - 1) + 2.0 * sum_a / n
        cross = float(np.dot(a[:n], a[n - 1::-1]))
        s[n] = (2.0 * sum_s + 2.0 * cross + 4.0 * (n - 1) * sum_a) / n + float(n - 1) ** 2
        sum_a += a[n]
        sum_s += s[n]
    return s - a * a


def test_variance_recurrence_matches_closed_form():
    reference = _variance_table_reference(2000)
    for n in (5, 16, 17, 50, 317, 2000):
        assert exact_variance(n) == pytest.approx(reference[n], rel=1e-10)


def test_moments_are_the_rounded_rational_recurrence():
    # the same one-pass recurrence in exact arithmetic: both closed forms
    # must be its correctly rounded value for every n <= 64
    a, s = [Fraction(0)], [Fraction(0)]
    for n in range(1, 65):
        a.append(n - 1 + 2 * sum(a) / n)
        cross = sum(a[i] * a[n - 1 - i] for i in range(n))
        s.append((2 * sum(s) + 2 * cross + 4 * (n - 1) * sum(a[:n])) / n + (n - 1) ** 2)
    for n in range(65):
        assert exact_mean(n) == float(a[n]), n
        assert exact_variance(n) == float(s[n] - a[n] ** 2), n


def test_variance_ratio_converges_slowly():
    # var(X_n)/n^2 approaches 7 - 2 pi^2/3 ~ 0.42026 from below, and the
    # approach is slow: at n = 2000 the ratio is still 1.5% short, and only
    # around n = 10^5 does it close to within 1%.
    r2000 = exact_variance(2000) / 2000**2
    assert r2000 == pytest.approx(0.41400139420126436, rel=1e-10)
    assert abs(r2000 - VARIANCE) / VARIANCE > 0.01
    r1e5 = exact_variance(100_000) / 100_000**2
    assert abs(r1e5 - VARIANCE) / VARIANCE < 0.01


def test_negative_or_fractional_n_rejected():
    with pytest.raises(ValueError):
        exact_mean(-1)
    with pytest.raises(ValueError):
        exact_variance(-3)


def test_exact_distribution_three_keys():
    # of the 6 orderings, the 2 with the middle key first take 2 comparisons
    assert exact_distribution(3).tolist() == [0, 0, 2, 4]


def _quicksort_comparisons(keys) -> int:
    if len(keys) <= 1:
        return 0
    pivot, rest = keys[0], keys[1:]
    return (len(rest) + _quicksort_comparisons([k for k in rest if k < pivot])
            + _quicksort_comparisons([k for k in rest if k > pivot]))


@pytest.mark.parametrize("n", range(8))
def test_exact_distribution_counts_quicksort_on_every_permutation(n):
    costs = [_quicksort_comparisons(list(p)) for p in itertools.permutations(range(n))]
    expected = np.bincount(costs, minlength=n * (n - 1) // 2 + 1)
    assert exact_distribution(n).tolist() == expected.tolist()


def test_exact_distribution_moments_match_recurrences():
    for n in range(21):
        counts, total = exact_distribution(n), math.factorial(n)
        assert counts.dtype == np.int64 and not counts.flags.writeable
        assert counts.size == n * (n - 1) // 2 + 1
        assert counts.sum() == total
        # the worst case: every pivot is the least or greatest key left
        assert counts[n * (n - 1) // 2] == 2 ** max(n - 1, 0)
        mean = sum(Fraction(k * c, total) for k, c in enumerate(counts.tolist()))
        second = sum(Fraction(k * k * c, total) for k, c in enumerate(counts.tolist()))
        assert exact_mean(n) == float(mean)
        assert exact_variance(n) == float(second - mean**2)


def test_exact_distribution_caps_at_twenty():
    assert exact_distribution(20).sum() == math.factorial(20)
    with pytest.raises(ValueError, match="n <= 20"):
        exact_distribution(21)


def _leaf_row(s: int) -> np.ndarray:
    cdf, starts = _leaf_table()
    return cdf[starts[s]:starts[s + 1]] - (s << 53)


def test_leaf_table_matches_the_integer_law():
    for s in range(65):
        row = _leaf_row(s)
        assert row.size == s * (s - 1) // 2 + 1
        assert row[-1] == 2**53 and np.all(np.diff(row) >= 0)
        probs = np.diff(row, prepend=0) / 2.0**53
        if s <= 20:
            counts = exact_distribution(s)
            exact_cdf = np.cumsum(counts) / math.factorial(s)
            assert np.max(np.abs(row / 2.0**53 - exact_cdf)) <= 4e-15
            assert np.array_equal(probs > 0, counts > 0)
        if s >= 2:
            k = np.arange(row.size)
            mean = float(probs @ k)
            assert mean == pytest.approx(exact_mean(s), rel=1e-12)
            assert float(probs @ (k - mean) ** 2) == pytest.approx(exact_variance(s),
                                                                   rel=1e-12, abs=1e-12)


class _FixedUniforms:
    """A stand-in generator whose integers() hands out the given 53-bit uniforms."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def integers(self, low, high, size, dtype):
        assert (low, high, size, dtype) == (0, 1 << 53, self.u.size, np.int64)
        return self.u.copy()


def test_guided_leaf_draws_equal_searchsorted():
    # on every row: both ends of u, every bucket edge and every CDF entry, each
    # with its neighbours, then random keys of mixed sizes
    cdf, starts = _leaf_table()
    top = (1 << 53) - 1
    edges = np.arange(0, 1 << 53, 1 << _BUCKET_SHIFT, dtype=np.int64)
    sizes, us = [], []
    for s in range(65):
        row = _leaf_row(s)
        u = np.concatenate([[0, top], edges - 1, edges, edges + 1, row - 1, row, row + 1])
        u = np.unique(np.clip(u, 0, top))
        sizes.append(np.full(u.size, s))
        us.append(u)
    rng = np.random.Generator(np.random.PCG64(2024))
    sizes.append(rng.integers(0, 65, size=2_000_000))
    us.append(rng.integers(0, 1 << 53, size=2_000_000))
    sizes, u = np.concatenate(sizes), np.concatenate(us)
    key = u + (sizes << 53)
    # both the one-compare path and the searchsorted fallback are taken
    crowded = _leaf_guide()[key >> _BUCKET_SHIFT] < 0
    assert crowded.any() and not crowded.all()
    expected = np.searchsorted(cdf, key, side="right") - starts[sizes]
    assert np.array_equal(_leaf_draw(sizes, _FixedUniforms(u)), expected)


def test_guide_flags_exactly_the_crowded_buckets():
    # bucket b holds the CDF entries in (b << 41, (b + 1) << 41]; it is flagged
    # (sign bit set) exactly when there is more than one, and either way it
    # keeps the index searchsorted gives at its lower edge
    cdf, _ = _leaf_table()
    guide = _leaf_guide()
    assert guide.dtype == np.int32 and not guide.flags.writeable
    edges = np.arange(guide.size + 1, dtype=np.int64) << _BUCKET_SHIFT
    first = np.searchsorted(cdf, edges, side="right")
    crowded = np.diff(first) > 1
    assert np.array_equal(guide < 0, crowded)
    assert np.array_equal(np.where(crowded, ~guide, guide), first[:-1])
    assert 0 < crowded.mean() < 0.01


# sha256 of sample_many(n, m, PCG64(n)) as little-endian int64, as the leaf
# draws by plain searchsorted gave it: a fixed seed gives the same bytes
_PINNED_DRAWS = {
    7: (1_000_000, "877ec7b9c8d344561b81f8f74a8f4d29a26a2a8fc11d8980b253c3b78b591740"),
    64: (100_000, "dd6e95f7f0dc1de6039be18837eb223fc7b225c74dc0108b05b9c0a53d46545d"),
    65: (50_000, "9afdc384167f65d062a9ca854fc9d0bc608aab3b1d71c6ed5470c2cf3bee1807"),
    1000: (20_000, "0ceb61a388f86d75cac1ecd552028d5742720eaf5dd978f35bbace0b3d5014bd"),
    10_000: (2_000, "bb7ba3fe9c1947e31bb14ff8ba2b0323778f741bc23d5976afe8735de9d506e3"),
}
# the generator's next integers(0, 2**63) after each of those calls: the
# sampler consumes the same random stream, not only gives the same draws
_PINNED_NEXT = {
    7: 4228604352388240598,
    64: 1376097910231505503,
    65: 3331807500034967043,
    1000: 4649682150703466896,
    10_000: 6759885218055711829,
}


@pytest.mark.parametrize("n", sorted(_PINNED_DRAWS))
def test_sampler_output_is_pinned_at_fixed_seeds(n):
    m, digest = _PINNED_DRAWS[n]
    rng = np.random.Generator(np.random.PCG64(n))
    xs = sample_many(n, m, rng)
    assert hashlib.sha256(xs.astype("<i8").tobytes()).hexdigest() == digest
    assert int(rng.integers(0, 2**63)) == _PINNED_NEXT[n]


def test_report_sampler_setting_is_pinned():
    # the draws of the report's simulation gate: n = 1000, 200_000 runs, seed 42
    rng = np.random.Generator(np.random.PCG64(42))
    xs = sample_many(1000, 200_000, rng)
    digest = hashlib.sha256(xs.astype("<i8").tobytes()).hexdigest()
    assert digest == "5ffc44348589cfbab2bcad50c825f91f870f220e78eb4a39f18362953d2bedeb"
    assert int(rng.integers(0, 2**63)) == 3751117759604400783


def test_leaf_only_draws_do_not_depend_on_chunking():
    # 25_000 runs at n = 7 span three chunks of sample_many, one _leaf_draw here
    xs = sample_many(7, 25_000, np.random.Generator(np.random.PCG64(77)))
    whole = _leaf_draw(np.full(25_000, 7), np.random.Generator(np.random.PCG64(77)))
    assert np.array_equal(xs, whole)


def test_sampler_at_64_fits_the_leaf_law():
    # n = 64 is one draw from row 64 per run, the row whose keys most often
    # fall back to searchsorted; chi-square with cells under 5 expected pooled,
    # and KS on the integer support (conservative for a discrete law)
    m = 1_000_000
    xs = sample_many(64, m, np.random.Generator(np.random.PCG64(6464)))
    row = _leaf_row(64)
    probs = np.diff(row, prepend=0) / 2.0**53
    assert 0 <= xs.min() and xs.max() < row.size
    observed = np.bincount(xs, minlength=row.size)
    assert not observed[probs == 0].any()
    expected = m * probs
    small = expected < 5.0
    pooled_obs = np.append(observed[~small], observed[small].sum())
    pooled_exp = np.append(expected[~small], expected[small].sum())
    stat = float(((pooled_obs - pooled_exp) ** 2 / pooled_exp).sum())
    assert stats.chi2.sf(stat, pooled_exp.size - 1) > 0.001
    d = float(np.max(np.abs(np.cumsum(observed) / m - row / 2.0**53)))
    assert stats.kstwo.sf(d, m) > 0.001


def _min_cost(n: int) -> int:
    low = [0, 0]
    for k in range(2, n + 1):
        low.append(k - 1 + min(low[i - 1] + low[k - i] for i in range(1, k + 1)))
    return low[n]


@pytest.mark.parametrize("n", [65, 100, 129])
def test_sampler_seam_between_splitting_and_leaf_draws(n):
    # the loop makes the first split (and a few more at 129), leaf draws do
    # the rest: a lost or doubled toll at the seam moves the mean by dozens
    # of standard errors
    m = 20_000
    xs = sample_many(n, m, np.random.Generator(np.random.PCG64(n)))
    assert _min_cost(n) <= xs.min() and xs.max() <= n * (n - 1) // 2
    se = math.sqrt(exact_variance(n) / m)
    assert abs(float(xs.mean()) - exact_mean(n)) < 3.0 * se
    again = sample_many(n, m, np.random.Generator(np.random.PCG64(n)))
    assert np.array_equal(xs, again)


def test_sampler_memory_is_bounded_in_n():
    # a chunk holds at most 10^8 keys: 500 runs of the 2000 at n = 2e5, and
    # at n = 10^4 the full 10^4-run chunk, the largest
    for n, m in ((200_000, 2000), (10_000, 10_000)):
        tracemalloc.start()
        try:
            xs = sample_many(n, m, np.random.Generator(np.random.PCG64(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, n
        se = math.sqrt(exact_variance(n) / m)
        assert abs(float(xs.mean()) - exact_mean(n)) < 6.0 * se, n


def test_sampler_degenerate_cases():
    rng = np.random.Generator(np.random.PCG64(0))
    for n, count in ((0, 0), (1, 0), (2, 1)):
        state = rng.bit_generator.state
        assert np.array_equal(sample_many(n, 5, rng), np.full(5, count))
        # n <= 1 needs no randomness and takes none from the stream
        assert (rng.bit_generator.state == state) == (n <= 1)


@pytest.mark.parametrize("m", [1e3, 2.5, True, 0, 2**26 + 1, "5"])
def test_sampler_rejects_a_bad_run_count(m):
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError, match=r"^m must be an integer in \[1, 67108864\], got "):
        sample_many(7, m, rng)


@pytest.mark.parametrize("bad", [
    lambda: check_seed(True),
    lambda: simulate(7, 3, seed=True),
    lambda: build_artifacts(seed=False),  # refused before either fixed point is solved
], ids=["check_seed", "simulate", "build_artifacts"])
def test_a_bool_seed_is_refused(bad):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
        bad()


def test_a_numpy_integer_seed_is_accepted():
    seed = check_seed(np.int64(42))
    assert seed == 42 and type(seed) is int


def test_sampler_is_seed_deterministic():
    a = sample_many(50, 1000, np.random.Generator(np.random.PCG64(7)))
    b = sample_many(50, np.int64(1000), np.random.Generator(np.random.PCG64(7)))
    assert np.array_equal(a, b)


def test_sample_mean_in_the_clt_band():
    rng = np.random.Generator(np.random.PCG64(11))
    xs = sample_many(100, 20_000, rng)
    se = math.sqrt(exact_variance(100) / 20_000)
    assert abs(float(xs.mean()) - exact_mean(100)) < 3.0 * se


def test_sample_variance_near_the_limit():
    rng = np.random.Generator(np.random.PCG64(123))
    ys = standardize(sample_many(2000, 100_000, rng), 2000)
    assert abs(float(ys.var()) - VARIANCE) / VARIANCE < 0.03


def test_standardize():
    n = 5
    ys = standardize(np.full(4, exact_mean(n)), n)
    assert np.array_equal(ys, np.zeros(4))
    with pytest.raises(ValueError):
        standardize(np.array([1.0]), 0)


def test_ks_distance_against_its_own_law():
    rng = np.random.Generator(np.random.PCG64(99))
    grid = _normal_cdf_grid()
    d = ks_distance(rng.standard_normal(100_000), grid)
    assert d < 0.0052
    assert 0.0 <= d <= 1.0


def test_ks_distance_of_a_point_mass():
    assert ks_distance(np.zeros(10), _normal_cdf_grid()) >= 0.5


def test_chi_square_against_exact_law():
    for n, seed in ((5, 5), (7, 43), (20, 20)):
        rng = np.random.Generator(np.random.PCG64(seed))
        stat, dof, p = chi_square_vs_exact(sample_many(n, 20_000, rng), n)
        assert dof >= 1
        assert p > 0.001
        assert p == pytest.approx(stats.chi2.sf(stat, dof), rel=1e-12)
    # the closed-form tail against scipy's, from far below the mean to far above it
    xs = np.geomspace(1e-3, 600.0, 25)
    for dof in range(1, 201):
        got = [_chi2_tail(dof, float(x)) for x in xs]
        assert got == pytest.approx(list(stats.chi2.sf(xs, dof)), rel=1e-12), dof


def test_chi_square_tail_identities():
    # dof 2 is the exponential law and dof 1 the square of a normal: one term each
    for x in (1e-300, 1e-3, 0.7, 3.0, 41.5, 600.0, 1400.0, 2000.0):
        assert _chi2_tail(2, x) == math.exp(-x / 2.0)
        assert _chi2_tail(1, x) == math.erfc(math.sqrt(x / 2.0))
    assert _chi2_tail(7, 0.0) == 1.0


def test_chi_square_rejects_impossible_counts():
    with pytest.raises(ValueError):
        chi_square_vs_exact(np.array([0, 2, 3]), 3)  # 0 is outside the support
    with pytest.raises(ValueError, match="0..3"):
        chi_square_vs_exact(np.array([2, 3, 4]), 3)  # no run of 3 keys costs 4
    with pytest.raises(ValueError, match="0..3"):
        chi_square_vs_exact(np.array([-1, 2, 3]), 3)


def test_summary_validation():
    with pytest.raises(ValueError):
        SimulationSummary(n=3, m=0, seed=0, mean_raw=0.0, var_raw=0.0,
                          mean_std=0.0, var_std=0.0, exact_mean=0.0,
                          exact_var_std=0.0, min_std=0.0, max_std=0.0,
                          hist_edges=(0.0, 1.0), hist_counts=(0,))
    with pytest.raises(ValueError, match="sum"):
        SimulationSummary(n=3, m=5, seed=0, mean_raw=0.0, var_raw=0.0,
                          mean_std=0.0, var_std=0.0, exact_mean=0.0,
                          exact_var_std=0.0, min_std=0.0, max_std=0.0,
                          hist_edges=(0.0, 1.0), hist_counts=(4,))
    with pytest.raises(ValueError, match="ks"):
        SimulationSummary(n=3, m=5, seed=0, mean_raw=0.0, var_raw=0.0,
                          mean_std=0.0, var_std=0.0, exact_mean=0.0,
                          exact_var_std=0.0, min_std=0.0, max_std=0.0,
                          hist_edges=(0.0, 1.0), hist_counts=(5,), ks=1.5)


def test_simulate_summary_contents():
    summary, ys = simulate(50, 2000, seed=3)
    assert (summary.n, summary.m, summary.seed) == (50, 2000, 3)
    assert ys.shape == (2000,)
    assert sum(summary.hist_counts) == 2000
    assert len(summary.hist_edges) == len(summary.hist_counts) + 1
    assert summary.ks is None
    assert summary.mean_std == pytest.approx(float(ys.mean()))
    again, _ = simulate(50, 2000, seed=3)
    assert again.to_json() == summary.to_json()


def test_simulate_with_reference_cdf():
    summary, _ = simulate(200, 5000, seed=8, reference_cdf=_normal_cdf_grid())
    assert summary.ks is not None
    assert 0.0 <= summary.ks <= 1.0


def test_histogram_csv(tmp_path, capsys):
    hist_path = tmp_path / "hist.csv"
    rc = main(["simulate", "--n", "50", "--samples", "2000", "--seed", "3",
               "--histogram", str(hist_path)])
    capsys.readouterr()
    assert rc == 0
    lines = hist_path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 1 + 40
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 2000
