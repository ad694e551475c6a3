"""Comparison counts of randomized quicksort: exact moments and laws, and sampling.

Everything here works with the key-comparison count X_n of quicksort on a
uniformly random permutation of n distinct keys (pivot = first element, the
two sublists recursed on independently).  Conditioning on the pivot rank i
gives X_n = n - 1 + X_{i-1} + X'_{n-i} with i uniform on {1..n}, which is all
we ever use: the moments solve its recurrences, and small-n distributions and
samples are generated straight from it, never by sorting.  The sampler
splits subproblems down to size 64, each pending one packed into one int64
as run << 32 | size, and draws each smaller one whole, by inverse CDF, from
a table of the laws of X_s for s <= 64 that the same decomposition builds
in floats; for n <= 64 that one draw is all.  A guide table on that CDF
table (Chen & Asau 1974), whose sign bit flags the few buckets that hold
more than one CDF entry, makes each draw one gather and one compare.

The moments are the classical closed forms of those recurrences in the
harmonic numbers H_n^(p) = sum_{k<=n} 1/k^p (Knuth, TAOCP Vol. 3, 5.2.2).
Up to n = 64 the harmonic sums are exact Fractions, so both moments are
correctly rounded; above, they are math.fsum floats, and the variance stays
within 3e-15 relative of the exact value for n <= 2000.  The law itself is
exact up to n = 20, an int64 table of permutation counts (20! < 2**63): a
second route to the same moments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core_numerics import Grid

__all__ = [
    "exact_mean",
    "exact_variance",
    "exact_distribution",
    "sample_many",
    "standardize",
    "ks_distance",
    "chi_square_vs_exact",
    "SimulationSummary",
    "check_seed",
    "simulate",
]

_EXACT_MOMENT_MAX = 64   # harmonic sums are exact Fractions up to here, fsum floats above
_EXACT_LAW_MAX = 20      # 20! < 2**63: the int64 law table is exact up to here
_LEAF_MAX = 64           # sample_many draws subproblems up to this size from _leaf_table
_GUIDE_BITS = 12         # _leaf_guide cuts each row of _leaf_table into 2^12 buckets
_BUCKET_SHIFT = 53 - _GUIDE_BITS  # a key's bucket is its top 12 of 53 bits
_SAMPLE_CHUNK = 10_000   # runs split together by sample_many, at most
_SAMPLE_KEYS = 10**8     # keys (runs x n) split together by sample_many, at most
_MAX_N = 10**8           # exact moments cost O(n) fsum terms; a draw holds O(n) subproblems
_MAX_SAMPLES = 2**26     # sample_many's output array: 512 MiB of int64


def _check_n(n: int) -> int:
    if n != int(n) or not 0 <= n <= _MAX_N:
        raise ValueError(f"n must be an integer in [0, {_MAX_N}], got {n}")
    return int(n)


def check_seed(seed: int) -> int:
    """seed as a PCG64 seed, a non-negative int (not a bool), or ValueError naming it."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _harmonic(n: int, p: int):
    """H_n^(p) = sum_{k<=n} 1/k^p: an exact Fraction for n <= 64, a math.fsum float above."""
    if n <= _EXACT_MOMENT_MAX:
        return sum((Fraction(1, k**p) for k in range(1, n + 1)), Fraction(0))
    return math.fsum(1.0 / k**p for k in range(1, n + 1))


def exact_mean(n: int) -> float:
    """E X_n = 2(n+1)H_n - 4n, correctly rounded for n <= 64."""
    n = _check_n(n)
    return float(2 * (n + 1) * _harmonic(n, 1) - 4 * n)


def exact_variance(n: int) -> float:
    """Var X_n = 7n^2 - 4(n+1)^2 H_n^(2) - 2(n+1)H_n + 13n, correctly rounded for n <= 64."""
    n = _check_n(n)
    return float(7 * n * n - 4 * (n + 1) ** 2 * _harmonic(n, 2)
                 - 2 * (n + 1) * _harmonic(n, 1) + 13 * n)


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
    _leaf_guide indexes this array by the keys' top bits.
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
    # int32 like the guide, so that _leaf_draw subtracts them without a cast
    starts = np.cumsum([0] + [row.size for row in rows], dtype=np.int32)
    cdf = np.concatenate(rows)
    cdf.flags.writeable = False
    starts.flags.writeable = False
    return cdf, starts


@lru_cache(maxsize=None)
def _leaf_guide() -> np.ndarray:
    """Guide table on _leaf_table (Chen & Asau 1974): where each bucket of keys starts.

    Every row's 2^53 keys are cut into 2^12 buckets by their top 12 bits, so
    key k lies in bucket k >> 41 of one flat range over all rows.  With
    first[b] = searchsorted(cdf, b << 41, side="right"), the answer for a key
    in bucket b lies in [first[b], first[b + 1]]; row s's last bucket ends
    where row s + 1's first begins, so no row needs a sentinel.  The bucket
    is crowded when first[b + 1] - first[b] > 1, that is when it holds more
    than one CDF entry (0.2% of the buckets).  guide[b] is first[b], with its
    sign bit flipped (~first[b]) where the bucket is crowded.
    Read-only int32, (_LEAF_MAX + 1) * 2^12 entries.
    """
    cdf, _ = _leaf_table()
    edges = np.arange(((_LEAF_MAX + 1) << _GUIDE_BITS) + 1, dtype=np.int64) << _BUCKET_SHIFT
    first = np.searchsorted(cdf, edges, side="right")
    crowded = np.flatnonzero(np.diff(first) > 1)
    # crowded is found before the int32 table exists: temporaries freed below
    # a live table stay resident in the heap, 1.4 MiB more peak RSS in sampling
    guide = first[:-1].astype(np.int32)
    guide[crowded] = ~guide[crowded]
    guide.flags.writeable = False
    return guide


def _leaf_draw(sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw of X_s for each size s <= 64 in sizes, by inverse CDF on _leaf_table.

    The index is searchsorted(cdf, key, side="right") for key = u + (s << 53),
    u the 53-bit uniform, found through the guide table _leaf_guide: one
    gather and one compare where the key's bucket is not flagged crowded,
    and searchsorted on the keys whose bucket is.  The draws are those of
    searchsorted alone, bit for bit.  Each u takes exactly one 64-bit output
    of the generator, so drawing a batch in pieces consumes the same stream.
    Returns int32.  The gathers use take, which here runs at about twice
    the speed of fancy indexing.
    """
    cdf, starts = _leaf_table()
    key = rng.integers(0, 1 << 53, size=sizes.size, dtype=np.int64)
    key += sizes << 53
    idx = _leaf_guide().take(key >> _BUCKET_SHIFT)
    crowded = np.flatnonzero(idx < 0)
    idx += cdf.take(idx, mode="clip") <= key  # crowded: clipped to cdf[0], overwritten next
    idx[crowded] = np.searchsorted(cdf, key[crowded], side="right")
    idx -= starts.take(sizes)
    return idx


def sample_many(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent draws of X_n, vectorized over runs.

    Runs are processed in chunks of at most 10^4 runs and 10^8 keys (runs x n),
    which holds the traced peak memory at 15-27 MiB for any n from 10^4 up,
    the most at n = 10^4, where a chunk is the full 10^4 runs.  For n <= 64
    each chunk is one call of _leaf_draw, which draws X_n whole, by inverse
    CDF, from the table of the laws of X_s for s <= 64.  Above, a chunk keeps
    its pending subproblems as one int64 array of run << 32 | size (run
    < 10^4 and size <= 10^8 < 2^32), and splits all of those above size 64 at once (one integers() call per
    level), charging size - 1 comparisons to each one's run via bincount;
    every subproblem of size 2..64 is drawn whole by _leaf_draw.
    """
    n = _check_n(n)
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or not 0 < m <= _MAX_SAMPLES:
        raise ValueError(f"m must be an integer in [1, {_MAX_SAMPLES}], got {m}")
    if n <= 1:
        return np.zeros(m, dtype=np.int64)
    out = np.empty(m, dtype=np.int64)
    chunk = min(_SAMPLE_CHUNK, _SAMPLE_KEYS // n)
    if n <= _LEAF_MAX:
        sizes = np.full(min(chunk, m), n)
        for start in range(0, m, chunk):
            width = min(chunk, m - start)
            out[start:start + width] = _leaf_draw(sizes[:width], rng)
        return out
    low = (1 << 32) - 1
    for start in range(0, m, chunk):
        width = min(chunk, m - start)
        totals = np.zeros(width)
        nodes = (np.arange(width, dtype=np.int64) << 32) + n
        while True:
            sizes = nodes & low
            # compress, not a boolean index, which mispredicts on masks this
            # random and ran about 4x slower
            leaf = nodes.compress((sizes > 1) & (sizes <= _LEAF_MAX))
            nodes = nodes.compress(sizes > _LEAF_MAX)
            sizes = nodes & low
            runs = leaf >> 32
            leaf &= low
            totals += np.bincount(runs, weights=_leaf_draw(leaf, rng), minlength=width)
            if not nodes.size:
                break
            # pivot - 1 for a uniform pivot rank in 1..size: integers(1, sizes + 1)
            # draws from ranges of the same widths, so it takes the same stream
            left = rng.integers(0, sizes)
            totals += np.bincount(nodes >> 32, weights=sizes - 1, minlength=width)
            # run << 32 | size has the children run << 32 | left and
            # run << 32 | (size - 1 - left), with no borrow as left <= size - 1
            nodes = np.concatenate([nodes - sizes + left, nodes - 1 - left])
        out[start:start + width] = totals
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


def _chi2_tail(dof: int, x: float) -> float:
    """P(chi-square with `dof` degrees of freedom > x), for an integer dof >= 1.

    For integer dof the tail is closed-form: with y = x / 2,
    Q = erfc(sqrt(y)) [odd dof only] + sum over a = dof/2 - 1, dof/2 - 2, ... > -1
    of y^a e^-y / Gamma(a + 1).  Each term is one math.exp of its logarithm,
    so none overflows or underflows before the whole term does.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    head = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    log_y = math.log(y)
    return head + math.fsum(math.exp(a * log_y - y - math.lgamma(a + 1.0))
                            for a in (0.5 * dof - 1.0 - j for j in range(dof // 2)))


def chi_square_vs_exact(samples: np.ndarray, n: int):
    """Chi-square goodness of fit of integer samples against exact_distribution(n).

    Cells with expected count below 5 are pooled into a single cell before
    the statistic is formed.  Returns (statistic, dof, p_value); the p-value
    is the chi-square tail at the statistic, summed in closed form by
    `_chi2_tail`.
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
    return stat, dof, _chi2_tail(dof, stat)


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
    seed = check_seed(seed)
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
