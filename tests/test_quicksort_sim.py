"""Comparison-count recurrences, exact small-n laws, and the seeded sampler."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qslimit.cli import main
from qslimit.core_numerics import Grid
from qslimit.moments import VARIANCE
from qslimit.quicksort_sim import (
    SimulationSummary,
    chi_square_vs_exact,
    exact_distribution,
    exact_mean,
    exact_variance,
    ks_distance,
    sample_many,
    simulate,
    standardize,
    variance_closed_form,
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


def test_variance_recurrence_matches_closed_form():
    for n in (5, 16, 17, 50, 317, 2000):
        assert exact_variance(n) == pytest.approx(variance_closed_form(n),
                                                  rel=1e-10)


def test_variance_ratio_converges_slowly():
    # var(X_n)/n^2 approaches 7 - 2 pi^2/3 ~ 0.42026 from below, and the
    # approach is slow: at n = 2000 the ratio is still 1.5% short, and only
    # around n = 10^5 does it close to within 1%.
    r2000 = variance_closed_form(2000) / 2000**2
    assert r2000 == pytest.approx(0.41400139420126436, rel=1e-10)
    assert abs(r2000 - VARIANCE) / VARIANCE > 0.01
    r1e5 = variance_closed_form(100_000) / 100_000**2
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


def test_sampler_degenerate_cases():
    rng = np.random.Generator(np.random.PCG64(0))
    for n, count in ((0, 0), (1, 0), (2, 1)):
        assert np.array_equal(sample_many(n, 5, rng), np.full(5, count))


def test_sampler_is_seed_deterministic():
    a = sample_many(50, 1000, np.random.Generator(np.random.PCG64(7)))
    b = sample_many(50, 1000, np.random.Generator(np.random.PCG64(7)))
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
    rng = np.random.Generator(np.random.PCG64(5))
    stat, dof, p = chi_square_vs_exact(sample_many(5, 20_000, rng), 5)
    assert dof >= 1
    assert p > 0.001
    rng = np.random.Generator(np.random.PCG64(43))
    _, _, p7 = chi_square_vs_exact(sample_many(7, 20_000, rng), 7)
    assert p7 > 0.001
    rng = np.random.Generator(np.random.PCG64(20))
    _, dof20, p20 = chi_square_vs_exact(sample_many(20, 20_000, rng), 20)
    assert dof20 >= 1
    assert p20 > 0.001


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
