"""Comparison counts of randomized quicksort: exact recurrences and sampling.

Everything here works with the key-comparison count X_n of quicksort on a
uniformly random permutation of n distinct keys (pivot = first element, the
two sublists recursed on independently).  Conditioning on the pivot rank i
gives X_n = n - 1 + X_{i-1} + X'_{n-i} with i uniform on {1..n}, which is all
we ever use: means, second moments, full small-n distributions, and samples
are each generated straight from that decomposition, never by sorting.  The
sampler splits subproblems down to size 64 and draws each smaller one whole,
by inverse CDF, from a table of the laws of X_s for s <= 64 that the same
decomposition builds in floats.

Float recurrences accumulate rounding at the ulp level (e.g. the n=3 variance
2/9 comes out a few ulps off), so for n <= 20 the variance is read off the
exact law, an int64 table of permutation counts (20! < 2**63), with a float
recurrence taking over above.
"""

from __future__ import annotations

import math
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
_EXACT_LAW_MAX = 20      # 20! < 2**63: the int64 law table is exact up to here
_LEAF_MAX = 64           # sample_many draws subproblems up to this size from _leaf_table
_SAMPLE_CHUNK = 10_000   # runs split together by sample_many


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


class _VarianceRecurrence:
    """Var X_n for n above the exact table, by the forward recurrence for E X_n, E X_n^2.

    One table serves every n: a larger n extends it from the stored running
    sums, so each entry is computed once and equals a fresh build to the bit.
    """

    def __init__(self):
        self.a = np.zeros(1)   # E X_k
        self.s = np.zeros(1)   # E X_k^2
        self.sum_a = 0.0
        self.sum_s = 0.0

    def __call__(self, n: int) -> float:
        done = self.a.size - 1
        if n > done:
            self.a = np.concatenate([self.a, np.zeros(n - done)])
            self.s = np.concatenate([self.s, np.zeros(n - done)])
            a, s = self.a, self.s
            for k in range(done + 1, n + 1):
                a[k] = (k - 1) + 2.0 * self.sum_a / k
                cross = float(np.dot(a[:k], a[k - 1::-1]))
                s[k] = ((2.0 * self.sum_s + 2.0 * cross + 4.0 * (k - 1) * self.sum_a) / k
                        + float(k - 1) ** 2)
                self.sum_a += a[k]
                self.sum_s += s[k]
        return float(self.s[n] - self.a[n] * self.a[n])


_float_variance = _VarianceRecurrence()


def exact_variance(n: int) -> float:
    """Var X_n: correctly rounded from the exact law for n <= 20, float recurrence above."""
    n = _check_n(n)
    if n <= 1:
        return 0.0
    if n <= _EXACT_LAW_MAX:
        counts, total = exact_distribution(n).tolist(), math.factorial(n)
        s1 = sum(k * c for k, c in enumerate(counts))
        s2 = sum(k * k * c for k, c in enumerate(counts))
        return (total * s2 - s1 * s1) / (total * total)
    return _float_variance(n)


def variance_closed_form(n: int) -> float:
    """Independent check: Var X_n = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1)H_n + 13n."""
    n = _check_n(n)
    if n <= 1:
        return 0.0
    h1 = math.fsum(1.0 / k for k in range(1, n + 1))
    h2 = math.fsum(1.0 / (k * k) for k in range(1, n + 1))
    return 7.0 * n * n - 4.0 * (n + 1) ** 2 * h2 - 2.0 * (n + 1) * h1 + 13.0 * n


@lru_cache(maxsize=None)
def exact_distribution(n: int) -> np.ndarray:
    """Law of X_n for n <= 20 as read-only int64 counts C_n, indexed 0..n(n-1)/2.

    C_n[k] is the number of the n! orderings of n keys that cost k
    comparisons.  Pivot rank i interleaves its two sublists in binom(n-1, i-1)
    ways, so C_n[k] = sum_i binom(n-1, i-1) (C_{i-1} * C_{n-i})[k - (n-1)]
    with * the convolution.
    """
    n = _check_n(n)
    if n > _EXACT_LAW_MAX:
        raise ValueError(f"exact_distribution is limited to n <= {_EXACT_LAW_MAX}, got {n}")
    counts = np.zeros(n * (n - 1) // 2 + 1, dtype=np.int64)
    if n == 0:
        counts[0] = 1
    for i in range(1, n + 1):
        split = math.comb(n - 1, i - 1) * np.convolve(exact_distribution(i - 1),
                                                      exact_distribution(n - i))
        counts[n - 1:n - 1 + split.size] += split
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=None)
def _leaf_table() -> tuple:
    """Stacked integer CDFs of X_s for s <= 64, for inverse-CDF leaf draws.

    The float laws come from P_s = (1/s) sum_i shift_{s-1}(P_{i-1} * P_{s-i}),
    the decomposition behind exact_distribution.  Row s holds ceil(F_s * 2^53),
    F_s divided by its own last entry so that the rounding of the sums is
    spread over the row, not dumped on the far tail, and the row ends at
    exactly 2^53.  Row s is offset by s * 2^53: the rows form one nondecreasing
    int64 array (64 * 2^53 < 2^63) and every row keeps all 53 bits of the
    uniform, where a float offset u + s would round the CDF near s = 64 to
    ~1e-14.  Returns (cdf, starts), row s being cdf[starts[s]:starts[s + 1]].
    """
    laws = [np.ones(1)]
    for s in range(1, _LEAF_MAX + 1):
        law = np.zeros(s * (s - 1) // 2 + 1)
        for i in range(1, s + 1):
            split = np.convolve(laws[i - 1], laws[s - i])
            law[s - 1:s - 1 + split.size] += split
        laws.append(law / s)
    rows = []
    for s, law in enumerate(laws):
        cum = np.cumsum(law)
        rows.append(np.ceil(cum / cum[-1] * 2.0**53).astype(np.int64) + (s << 53))
    starts = np.cumsum([0] + [row.size for row in rows])
    cdf = np.concatenate(rows)
    cdf.flags.writeable = False
    starts.flags.writeable = False
    return cdf, starts


def _leaf_draw(sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw of X_s for each size s <= 64 in sizes, by inverse CDF on _leaf_table."""
    cdf, starts = _leaf_table()
    u = rng.integers(0, 1 << 53, size=sizes.size, dtype=np.int64)
    return np.searchsorted(cdf, u + (sizes << 53), side="right") - starts[sizes]


def sample_many(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent draws of X_n, vectorized over runs.

    Runs are processed in chunks; within a chunk all pending subproblems of
    all runs above size 64 are split at once (one integers() call per level),
    and each split charges size-1 comparisons to its run via bincount.  Every
    subproblem of size 2..64 is instead drawn whole, by inverse CDF, from the
    table of the laws of X_s for s <= 64, so n <= 64 is one table lookup per
    chunk.
    """
    n = _check_n(n)
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, _SAMPLE_CHUNK):
        width = min(_SAMPLE_CHUNK, m - start)
        totals = np.zeros(width)
        sizes = np.full(width, n, dtype=np.int64)
        owners = np.arange(width)
        while True:
            leaf = (sizes > 1) & (sizes <= _LEAF_MAX)
            totals += np.bincount(owners[leaf], weights=_leaf_draw(sizes[leaf], rng),
                                  minlength=width)
            split = sizes > _LEAF_MAX
            sizes = sizes[split]
            owners = owners[split]
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
    counts = exact_distribution(n)
    samples = np.asarray(samples)
    m = samples.size
    support = counts > 0
    probs = counts[support] / math.factorial(n)
    if m and not 0 <= samples.min() <= samples.max() < counts.size:
        raise ValueError(f"samples must lie in 0..{counts.size - 1}, the range of X_{n}")
    observed = np.bincount(samples, minlength=counts.size)
    stray = observed[~support].sum()
    if stray:
        raise ValueError(f"{stray} samples fall outside the exact support")
    observed = observed[support].astype(np.float64)
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


def simulate(n: int, m: int, seed: int = 0, reference_cdf: Grid = None) -> tuple:
    """Draw m runs at size n and summarize on both the raw and limit scales.

    The histogram is taken on the standardized scale.  When a reference CDF
    grid is supplied the summary also carries the KS distance against it.
    Returns (summary, standardized_sample).
    """
    if m < 2:
        raise ValueError(f"simulate needs at least 2 samples for the sample variance, got {m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = sample_many(n, m, rng)
    ys = standardize(raw, n)
    counts, edges = np.histogram(ys, bins=40)
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
