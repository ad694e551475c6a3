"""Comparison counts of randomized quicksort: exact recurrences and sampling.

Everything here works with the key-comparison count X_n of quicksort on a
uniformly random permutation of n distinct keys (pivot = first element, the
two sublists recursed on independently).  Conditioning on the pivot rank i
gives X_n = n - 1 + X_{i-1} + X'_{n-i} with i uniform on {1..n}, which is all
we ever use: means, second moments, full small-n distributions, and samples
are each generated straight from that decomposition, never by sorting.

Float recurrences accumulate rounding at the ulp level (e.g. the n=3 variance
2/9 comes out a few ulps off), so small n are computed in exact rational
arithmetic and converted, with floats taking over where the rationals get
heavy.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import stats

from .core_numerics import Grid

__all__ = [
    "exact_mean",
    "exact_variance",
    "variance_closed_form",
    "exact_distribution",
    "sample_many",
    "standardize",
    "ks_distance",
    "chi_square_vs_exact",
    "SimulationSummary",
    "simulate",
]

_EXACT_MEAN_MAX = 64     # rational closed form below this, float fsum above
_EXACT_VAR_MAX = 16      # rational recurrence below this, float vectors above


@lru_cache(maxsize=None)
def _harmonic_fraction(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def _check_n(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    return int(n)


def exact_mean(n: int) -> float:
    """E X_n = 2(n+1)H_n - 4n, correctly rounded."""
    n = _check_n(n)
    if n <= 1:
        return 0.0
    if n <= _EXACT_MEAN_MAX:
        return float(2 * (n + 1) * _harmonic_fraction(n) - 4 * n)
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    return 2.0 * (n + 1) * h - 4.0 * n


@lru_cache(maxsize=None)
def _rational_var_tables(n_max: int):
    """Exact (mean, second moment) tables from the pivot decomposition."""
    a = [Fraction(0)] * (n_max + 1)
    s = [Fraction(0)] * (n_max + 1)
    for n in range(2, n_max + 1):
        a[n] = Fraction(n - 1) + Fraction(2, n) * sum(a[:n], Fraction(0))
        cross = sum((a[k] * a[n - 1 - k] for k in range(n)), Fraction(0))
        s[n] = (Fraction(2, n) * sum(s[:n], Fraction(0))
                + Fraction(2, n) * cross
                + Fraction(4 * (n - 1), n) * sum(a[:n], Fraction(0))
                + Fraction((n - 1) ** 2))
    return a, s


@lru_cache(maxsize=None)
def _float_var_table(n_max: int) -> np.ndarray:
    a = np.zeros(n_max + 1)
    s = np.zeros(n_max + 1)
    sum_a = 0.0
    sum_s = 0.0
    for n in range(1, n_max + 1):
        a[n] = (n - 1) + 2.0 * sum_a / n
        cross = float(np.dot(a[:n], a[n - 1::-1]))
        s[n] = (2.0 * sum_s + 2.0 * cross + 4.0 * (n - 1) * sum_a) / n + float(n - 1) ** 2
        sum_a += a[n]
        sum_s += s[n]
    return s - a * a


def exact_variance(n: int) -> float:
    """Var X_n from the second-moment recurrence (exact rationals for small n)."""
    n = _check_n(n)
    if n <= 1:
        return 0.0
    if n <= _EXACT_VAR_MAX:
        a, s = _rational_var_tables(_EXACT_VAR_MAX)
        return float(s[n] - a[n] * a[n])
    return float(_float_var_table(n)[n])


def variance_closed_form(n: int) -> float:
    """Independent check: Var X_n = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1)H_n + 13n."""
    n = _check_n(n)
    if n <= 1:
        return 0.0
    h1 = math.fsum(1.0 / k for k in range(1, n + 1))
    h2 = math.fsum(1.0 / (k * k) for k in range(1, n + 1))
    return 7.0 * n * n - 4.0 * (n + 1) ** 2 * h2 - 2.0 * (n + 1) * h1 + 13.0 * n


@lru_cache(maxsize=None)
def exact_distribution(n: int):
    """Full law of X_n for small n as {count: Fraction probability}.

    Cost explodes with the support, so this is capped at n = 7; larger n
    should be sampled instead.
    """
    n = _check_n(n)
    if n > 7:
        raise ValueError(f"exact_distribution is limited to n <= 7, got {n}")
    if n <= 1:
        return {0: Fraction(1)}
    dist = defaultdict(Fraction)
    for i in range(1, n + 1):
        left = exact_distribution(i - 1)
        right = exact_distribution(n - i)
        for cl, pl in left.items():
            for cr, pr in right.items():
                dist[n - 1 + cl + cr] += pl * pr / n
    return dict(sorted(dist.items()))


def sample_many(n: int, m: int, rng: np.random.Generator,
                chunk: int = 10_000) -> np.ndarray:
    """m independent draws of X_n, vectorized over runs.

    Runs are processed in chunks; within a chunk all pending subproblems of
    all runs are split at once (one integers() call per level), and each
    split charges size-1 comparisons to its run via bincount.
    """
    n = _check_n(n)
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, chunk):
        width = min(chunk, m - start)
        totals = np.zeros(width)
        sizes = np.full(width, n, dtype=np.int64)
        owners = np.arange(width)
        while sizes.size:
            active = sizes > 1
            sizes = sizes[active]
            owners = owners[active]
            if not sizes.size:
                break
            totals += np.bincount(owners, weights=sizes - 1, minlength=width)
            pivots = rng.integers(1, sizes + 1)
            sizes = np.concatenate([pivots - 1, sizes - pivots])
            owners = np.concatenate([owners, owners])
        out[start:start + width] = totals.astype(np.int64)
    return out


def standardize(xs, n: int) -> np.ndarray:
    """Map raw counts to (X_n - E X_n)/n, the scale on which the limit lives."""
    n = _check_n(n)
    if n == 0:
        raise ValueError("standardize needs n >= 1")
    return (np.asarray(xs, dtype=np.float64) - exact_mean(n)) / n


def ks_distance(sample: np.ndarray, cdf_grid: Grid) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a gridded CDF."""
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    m = xs.size
    if m == 0:
        raise ValueError("ks_distance needs a nonempty sample")
    F = np.interp(xs, cdf_grid.xs, cdf_grid.values, left=0.0, right=1.0)
    i = np.arange(1, m + 1)
    return float(max((i / m - F).max(), (F - (i - 1) / m).max()))


def chi_square_vs_exact(samples: np.ndarray, n: int):
    """Chi-square goodness of fit of integer samples against exact_distribution(n).

    Cells with expected count below 5 are pooled into a single cell before
    the statistic is formed.  Returns (statistic, dof, p_value).
    """
    dist = exact_distribution(n)
    samples = np.asarray(samples)
    m = samples.size
    support = np.array(sorted(dist.keys()))
    probs = np.array([float(dist[k]) for k in support])
    observed = np.array([(samples == k).sum() for k in support], dtype=np.float64)
    stray = m - observed.sum()
    if stray:
        raise ValueError(f"{int(stray)} samples fall outside the exact support")
    expected = m * probs
    small = expected < 5.0
    if small.any():
        observed = np.concatenate([observed[~small], [observed[small].sum()]])
        expected = np.concatenate([expected[~small], [expected[small].sum()]])
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = expected.size - 1
    return stat, dof, float(stats.chi2.sf(stat, dof))


@dataclass(frozen=True)
class SimulationSummary:
    n: int
    m: int
    seed: int
    mean_raw: float
    var_raw: float
    mean_std: float
    var_std: float
    exact_mean: float
    exact_var_std: float
    min_std: float
    max_std: float
    hist_edges: tuple
    hist_counts: tuple
    ks: float = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("a summary needs at least one sample")
        if sum(self.hist_counts) != self.m:
            raise ValueError("histogram counts must sum to the sample count")
        if self.ks is not None and not 0.0 <= self.ks <= 1.0:
            raise ValueError(f"ks distance must lie in [0, 1], got {self.ks}")

    def to_json(self) -> dict:
        out = asdict(self)
        out["hist_edges"] = list(self.hist_edges)
        out["hist_counts"] = list(self.hist_counts)
        return out


def simulate(n: int, m: int, seed: int = 0, reference_cdf: Grid = None,
             bins: int = 40) -> tuple:
    """Draw m runs at size n and summarize on both the raw and limit scales.

    The histogram is taken on the standardized scale.  When a reference CDF
    grid is supplied the summary also carries the KS distance against it.
    Returns (summary, standardized_sample).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = sample_many(n, m, rng)
    ys = standardize(raw, n)
    counts, edges = np.histogram(ys, bins=bins)
    summary = SimulationSummary(
        n=n, m=m, seed=seed,
        mean_raw=float(raw.mean()),
        var_raw=float(raw.var(ddof=1)),
        mean_std=float(ys.mean()),
        var_std=float(ys.var(ddof=1)),
        exact_mean=exact_mean(n),
        exact_var_std=exact_variance(n) / n ** 2,
        min_std=float(ys.min()),
        max_std=float(ys.max()),
        hist_edges=tuple(float(x) for x in edges),
        hist_counts=tuple(int(c) for c in counts),
        ks=None if reference_cdf is None else ks_distance(ys, reference_cdf),
    )
    return summary, ys
