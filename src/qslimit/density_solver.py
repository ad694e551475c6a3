"""Direct density route: successive substitution on the integral equation.

The limit density is the unique fixed point of

    (T f)(x) = int_0^1 f_u(x) du,
    f_u(x)   = (1/u) int f(y) f((x - g(u) - (1-u) y)/u) dy,

i.e. f_u is the density of u Y + (1-u) Z + g(u) with Y, Z independent copies.
Symmetry f_u = f_{1-u} lets the u-average run over (0, 1/2] with doubled
weights (Gauss-Legendre nodes).

For each node the inner integral is a convolution of two rescaled copies of
f.  The narrow copy (scale u) can be far thinner than the grid spacing, so it
enters as lattice masses deposited with the first-moment-preserving hat
scheme (each mass element split linearly between its two neighboring grid
points), computed in closed form from the antiderivative of the CDF of the
piecewise-linear interpolant; plain nearest-cell binning would place the
thinnest kernels up to half a cell off.  The wide copy (scale 1-u) stays
smooth on the grid and is sampled by linear interpolation with value 0
outside; lattice sums of smooth decaying samples carry no comparable mean
bias.

The map preserves the mean, so the limit law is its unique fixed point only
among mean-zero laws: translation is a neutral direction, along which neither
a start's mean nor a placement error would contract.  Each sweep therefore
deposits the narrow copy shifted by the input's mean m, which makes f_u the
density of u Y + (1-u) Z + g(u) - m: the image has mean 0 up to the grid's
own bias, whatever the input's mean, and every start converges on the
mean-zero fixed point.  Each sweep renormalizes the mass to 1; a
pre-normalization mass outside [0.9, 1.1] aborts: the sweep lost probability
past the window, or gained it from a start narrower than the grid spacing.
Nothing is clipped; f_u <= sup f / max(u, 1-u) <= 2 sup f by construction.

A deposit of at most a few hundred masses, as at the u-nodes near 0, is
convolved directly.  A wider one runs by real FFT, one power-of-two length
per sweep, with the outputs below the FFT's round-off scale summed directly.
A plain FFT would not do: its round-off, about 5e-16 of the largest possible
output, would replace every value below f(-2.3) ~ 1e-16 with noise of either
sign, while the fixed point stays positive and representable down to f(-3.9)
~ 1e-288, which the acceptance gate asserts.  Summing those tail outputs as
direct sums of nonnegative products keeps them to full relative precision and
keeps exact zeros exact; every output taken from the FFT lies at least 2000
times above its round-off, so it is positive without a clamp.

Most products in those tail sums, and in the narrow deposits' direct sums,
would be subnormal (the fixed point has 27 subnormal cells at dx = 0.001),
and a CPU may take a slow path for each.  So each sweep scales its input
by one power of two, 2^480, before it builds the copies, and reads its
output's mass at 2^-960: a power of two commutes with every rounding in
the normal range, so only the values that passed through the subnormals
change, and they come out more precise.  That halves a dx = 0.001 sweep on
a 2-core Xeon.
At dx = 0.001 (10,001 points) a sweep costs about a third of the direct
convolution's.

Every grid is solved by nested iteration: below it lies a ladder of
coarser levels, each at twice the spacing of the one above, down to the
coarsest spacing <= 0.02 (0.02 and 0.01 under the default 0.005).  The
start is restricted to the coarsest level by full weighting, which keeps
its mass; each finer level starts from exp of the cubic interpolant of ln f
of the solve below, extrapolated in dx^2 with the one below that.  The
left tail decays faster than any power, f(-3.9) ~ 1e-288, so ln f is
smooth where f is not: interpolated and extrapolated as f, the tail would
go negative, and the finest level would spend most of its sweeps
rebuilding it.  The coarse levels run Anderson-mixed at half the
u-nodes, each mix clamped at 0 and renormalized, and move most sweeps onto
grids 4-16 times cheaper: at the default grid the solve takes 10, 5 and 6
sweeps, about 0.2 s against 0.3 s for 17 plain ones, and at dx = 0.001 a
uniform start takes 19-21, one of them on the finest grid.  The finest
level runs plain sweeps, so its history is the map's own contraction,
which `geometric_tail` reads, and it stops only once its left tail has
settled as well.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core_numerics import MAX_GRID_POINTS, Grid, IterationError, fixed_point, g_values
from .moments import VARIANCE

__all__ = [
    "DensityGrid",
    "DENSITY_MAX_ITER",
    "DENSITY_TOL",
    "DENSITY_U_NODES",
    "DENSITY_X_MIN",
    "DENSITY_X_MAX",
    "DENSITY_DX",
    "DENSITY_POSITIVE_X",
    "gaussian_density",
    "uniform_density",
    "apply_T",
    "iterate_density",
    "geometric_tail",
    "cdf",
    "convergence_report",
]

# default sweep budget and sup-norm tolerance of iterate_density
DENSITY_MAX_ITER = 60
DENSITY_TOL = 1e-6
# default number of Gauss-Legendre u-nodes of one apply_T sweep
DENSITY_U_NODES = 64
# default window, [-4, 6] in steps of 0.005: the starting densities' grid,
# and the nodes invert_cf puts the CF route's density on
DENSITY_X_MIN = -4.0
DENSITY_X_MAX = 6.0
DENSITY_DX = 0.005

# the fixed point is positive in floats on x >= -3.9 (below about -3.97 it
# underflows the least subnormal): check_density_fixed_point asserts that,
# and iterate_density's finest level stops only once its tail there settles
DENSITY_POSITIVE_X = -3.9
# cap on the grid points of one sweep: a sweep's cost grows about as n^1.7,
# 0.08 s at 10k points and 3.3 s at 80k on a 2-core Xeon, so at 2^17 it
# takes about 8 s, and at the 1M points a Grid allows about 5 minutes
_MAX_SWEEP_POINTS = 2**17

# FFT convolution round-off is at most 5e-16 * sum(wide) * max(masses)
# (measured on converged and compact-support iterates); outputs below this
# fraction of that scale, 2000 times the round-off, are summed directly
_FFT_TAIL = 1e-12
# apply_T scales its input by 2^_SCALE, so each wide copy and deposit carries
# that factor and the sweep's output its square: the tails' products stay out
# of the subnormals.  Nothing overflows: a DensityGrid has mass within 1% on a
# window at least 6 wide and _check_sweep caps it at 2^17 points, so unscaled
# sum(wide) < 2^34 and sum(masses) < 2, whose product bounds every output,
# product and spectral product; the irfft's unnormalized sums over at most
# 2^18 terms add 18 bits, so every value stays below 2^(35 + 18 + 960)
_SCALE = 480
# ln f of a zero cell when a nested start is built in log space: below ln of
# the least subnormal, about -744.4, so np.exp gives the cell back as 0
_LOG_ZERO = -800.0
# deposits of at most this many masses (zeros trimmed) convolve directly: at
# dx = 0.001-0.005 np.convolve beats the FFT path up to 500-1000 masses
_DIRECT_MASSES = 600


class DensityGrid(Grid):
    """A Grid of a density: nonnegative, covering [-2, 4], of mass 1 within 1%."""

    def __post_init__(self):
        super().__post_init__()
        if float(self.values.min()) < 0.0:
            raise ValueError("density values must be nonnegative")
        if self.x0 > -2.0 or self.x_max < 4.0:
            raise ValueError(f"density grid [{self.x0}, {self.x_max}] must cover [-2, 4]")
        m = self.mass()
        if not 0.99 <= m <= 1.01:
            raise ValueError(f"density mass {m} strays from 1 by more than 1%")

    @property
    def grid(self) -> Grid:
        # The benchmark's route_gap (perfbench/workloads.py) still reads
        # dens.grid.x0; drop this with the next change to the benchmark.
        return self

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def mean(self) -> float:
        return float(np.trapezoid(self.xs * self.values, dx=self.dx))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.trapezoid((self.xs - mu) ** 2 * self.values, dx=self.dx))


def _normalized(x0: float, dx: float, values: np.ndarray) -> DensityGrid:
    mass = np.trapezoid(values, dx=dx)
    return DensityGrid(x0, dx, values / mass)


def gaussian_density(x_min: float = DENSITY_X_MIN, x_max: float = DENSITY_X_MAX,
                     dx: float = DENSITY_DX) -> DensityGrid:
    """Mean-zero Gaussian seed with the limit law's variance 7 - 2 pi^2/3."""
    xs = Grid.domain(x_min, x_max, dx).xs
    vals = np.exp(-0.5 * xs**2 / VARIANCE) / math.sqrt(2.0 * math.pi * VARIANCE)
    return _normalized(x_min, dx, vals)


def uniform_density(a: float = -1.0, b: float = 1.0,
                    x_min: float = DENSITY_X_MIN, x_max: float = DENSITY_X_MAX,
                    dx: float = DENSITY_DX) -> DensityGrid:
    """Uniform seed on [a, b]; an alternative start for route-independence runs.

    The support is the node index range ceil((a - x_min)/dx) to
    floor((b - x_min)/dx), each taken with a 1e-9 allowance, so an endpoint
    that lies on the grid up to float rounding is included at either end and
    a symmetric interval gives a symmetric seed.
    """
    if not a < b:
        raise ValueError("uniform_density needs a < b")
    vals = np.zeros(Grid.domain(x_min, x_max, dx).n)
    lo = max(math.ceil((a - x_min) / dx - 1e-9), 0)
    hi = max(math.floor((b - x_min) / dx + 1e-9) + 1, 0)
    vals[lo:hi] = 1.0 / (b - a)
    return _normalized(x_min, dx, vals)


@functools.lru_cache(maxsize=8)
def _u_quadrature(u_nodes: int):
    """Gauss-Legendre nodes on (0, 1/2] with symmetry-doubled weights, read-only
    (every sweep shares them)."""
    x, w = leggauss(u_nodes)
    us, ws = 0.25 * (x + 1.0), 0.5 * w  # sum of folded weights = 1
    us.flags.writeable = ws.flags.writeable = False
    return us, ws


def _cdf_antiderivative(vals: np.ndarray, dx: float):
    """CDF F and its antiderivative Phi of the piecewise-linear density, on-grid."""
    avg = 0.5 * (vals[1:] + vals[:-1])
    F = np.concatenate([[0.0], np.cumsum(avg * dx)])
    inc = dx * F[:-1] + dx * dx * (2.0 * vals[:-1] + vals[1:]) / 6.0
    Phi = np.concatenate([[0.0], np.cumsum(inc)])
    return F, Phi


def _eval_antiderivative(q: np.ndarray, x0: float, dx: float,
                         vals: np.ndarray, F: np.ndarray, Phi: np.ndarray):
    """Phi(q) anywhere: piecewise cubic inside the grid, linear beyond it."""
    n = vals.size
    pos = (q - x0) / dx
    j = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
    th = pos - j
    v0 = vals[j]
    dv = vals[j + 1] - v0
    out = Phi[j] + dx * (F[j] * th + dx * (0.5 * v0 * th**2 + dv * th**3 / 6.0))
    out = np.where(pos <= 0.0, 0.0, out)
    return np.where(pos >= n - 1,
                    Phi[n - 1] + (q - (x0 + (n - 1) * dx)) * F[n - 1], out)


def _hat_deposit(u: float, gu: float, x0: float, dx: float, n: int,
                 vals: np.ndarray, F: np.ndarray, Phi: np.ndarray):
    """Lattice masses of u*Y + g(u), mean-exact (hat-function deposition).

    Returns (k_lo, masses) with masses[j] attached to lattice point
    (k_lo + j) * dx.  The deposit is the exact convolution of the kernel with
    a unit hat, evaluated via second differences of its doubly-integrated
    CDF, so total mass and first moment are reproduced exactly.
    """
    x_last = x0 + (n - 1) * dx
    k_lo = math.floor((u * x0 + gu) / dx) - 1
    k_hi = math.ceil((u * x_last + gu) / dx) + 1
    ys = dx * np.arange(k_lo - 1, k_hi + 2)
    W2 = u * _eval_antiderivative((ys - gu) / u, x0, dx, vals, F, Phi)
    dep = (W2[2:] - 2.0 * W2[1:-1] + W2[:-2]) / dx
    return k_lo, np.maximum(dep, 0.0)


def _padded(v: np.ndarray, a: int, b: int) -> np.ndarray:
    """v[a:b], with zeros at the indices outside [0, v.size)."""
    out = np.zeros(b - a)
    lo, hi = max(a, 0), min(b, v.size)
    if lo < hi:
        out[lo - a:hi - a] = v[lo:hi]
    return out


def _convolve(wide: np.ndarray, masses: np.ndarray, start: int, work) -> np.ndarray:
    """Outputs start .. start + wide.size - 1 of wide * masses, zero off its support.

    Both factors are nonnegative; an all-zero one gives zeros.  A deposit of
    at most _DIRECT_MASSES masses is convolved directly, every output a sum
    of nonnegative products.  For a longer one the bulk comes from a real FFT
    of length nfft >= wide.size + masses.size - 1, computed in the sweep's
    buffers `work`: the two spectra, shape (2, nfft // 2 + 1), and the nfft
    real outputs.  Every output below _FFT_TAIL times the round-off scale is
    then recomputed as a direct sum of nonnegative products: it keeps full
    relative precision and an exact zero stays zero, while each output kept
    from the FFT lies far above its round-off and so is positive.  For
    unimodal factors the recomputed outputs are the two tails.

    The caller scales both factors out of the subnormals (see apply_T); the
    threshold is relative, so the same outputs are recomputed at any
    power-of-two scale.  Neither factor is written to.
    """
    n = wide.size
    nz_w, nz_m = np.flatnonzero(wide), np.flatnonzero(masses)
    if nz_w.size == 0 or nz_m.size == 0:
        return np.zeros(n)
    # trimming leading and trailing zeros shortens the direct sums; the
    # transforms keep the sweep's fixed length nfft
    wide = wide[nz_w[0]:nz_w[-1] + 1]
    masses = masses[nz_m[0]:nz_m[-1] + 1]
    start -= int(nz_w[0] + nz_m[0])
    if masses.size <= _DIRECT_MASSES:
        return _padded(np.convolve(wide, masses), start, start + n)
    spec, full = work
    nfft = full.size
    np.fft.rfft(wide, nfft, out=spec[0])
    np.fft.rfft(masses, nfft, out=spec[1])
    spec[0] *= spec[1]
    np.fft.irfft(spec[0], nfft, out=full)
    out = _padded(full[:wide.size + masses.size - 1], start, start + n)
    small = out < _FFT_TAIL * float(wide.sum()) * float(masses.max())
    runs = np.concatenate(([False], small, [False]))
    edges = np.flatnonzero(runs[1:] != runs[:-1])
    for a, b in zip(edges[::2] + start, edges[1::2] + start):
        # masses[j] meets wide[p - j] inside wide's range only for ja <= j < jb
        ja, jb = max(0, a - wide.size + 1), min(masses.size, b)
        out[a - start:b - start] = (
            np.convolve(_padded(wide, a - jb + 1, b - ja), masses[ja:jb], mode="valid")
            if ja < jb else 0.0)
    return out


def apply_T(f: DensityGrid, u_nodes: int = DENSITY_U_NODES) -> DensityGrid:
    """One sweep of the integral-equation map, re-centred and renormalized.

    The narrow copy is deposited shifted by f's mean, so the output has unit
    mass and mean 0 up to the grid's bias.  Each u-node's convolution is a
    direct one for a narrow deposit, else an FFT bulk plus direct sums for the
    outputs below the round-off threshold (the two tails of these unimodal
    iterates), so the sweep's tails keep full relative precision; see
    `_convolve`.  Nothing is clipped; a mass outside [0.9, 1.1] before the
    renormalization raises ValueError.
    """
    _check_sweep(f.n, u_nodes)
    xs, dx = f.xs, f.dx
    vals = np.ldexp(f.values, _SCALE)
    n = vals.size
    mu = f.mean()
    F, Phi = _cdf_antiderivative(vals, dx)
    us, ws = _u_quadrature(u_nodes)
    # the least power of two >= n + n // 2 + 8: u < 1/2 keeps a deposit to (n - 1)/2 + 5 masses
    nfft = 1 << (n + n // 2 + 7).bit_length()
    # one set of FFT buffers serves every u-node: at dx = 0.001, allocating them
    # afresh per node (about 120 KiB each) had glibc trim and regrow the heap,
    # about 3400 page faults and 40 ms of a 0.15-0.28 s sweep
    work = np.empty((2, nfft // 2 + 1), dtype=np.complex128), np.empty(nfft)
    out = np.zeros(n)
    for u, wu, gu in zip(us, ws, g_values(us)):
        one_m = 1.0 - u
        wide = np.interp(xs / one_m, xs, vals, left=0.0, right=0.0) / one_m
        k_lo, masses = _hat_deposit(float(u), gu - mu, f.x0, dx, n, vals, F, Phi)
        out += wu * _convolve(wide, masses, -k_lo, work)
    scaled_mass = float(np.trapezoid(out, dx=dx))
    pre_mass = math.ldexp(scaled_mass, -2 * _SCALE)
    if not 0.9 <= pre_mass <= 1.1:
        raise ValueError(
            f"mass {pre_mass:.6f} before renormalization is outside [0.9, 1.1]: the "
            f"sweep is {'gaining' if pre_mass > 1.0 else 'losing'} probability, as a "
            f"start narrower than the grid spacing or mass past the window can make it"
        )
    return DensityGrid(f.x0, dx, out / scaled_mass)


def iterate_density(f0: DensityGrid, max_iter: int = DENSITY_MAX_ITER,
                    tol: float = DENSITY_TOL, u_nodes: int = DENSITY_U_NODES):
    """Iterate the map to its fixed point in the sup norm, by nested iteration.

    Returns (fixed_point, iterations, diff_history).  Below f0's grid lies a
    ladder of coarser levels, each at twice the spacing of the one above,
    down to the coarsest spacing <= 4 * DENSITY_DX = 0.02: at the default
    dx = 0.005 the levels are 0.02, 0.01 and 0.005, at dx = 0.001 they run
    0.016, 0.008, ..., 0.001, and a grid coarser than 0.01 is its own only
    level.  The coarsest level starts from f0 restricted by full weighting,
    which keeps its trapezoid mass however narrow f0 is.  Each finer level
    starts from the 4-point cubic interpolant p1 of ln f of the solve below
    it, a zero cell taken as _LOG_ZERO; from the third level on,
    p1 + (p1 - p2) / 4, with p2 that of the solve two levels below
    interpolated twice, cancels the O(dx^2) error of the grid (Brandt,
    Math. Comp. 31, 1977).  The start is exp of that, renormalized: it is
    positive wherever the solve below is, needs no clamp, and keeps the
    left tail that an interpolant of f itself would take negative.
    `iterations` counts the sweeps of every level, which share the
    `max_iter` budget; `diff_history` is the finest level's.

    The coarse levels run Anderson(5)-mixed (the CF route's mode), each mix
    clamped at 0 and renormalized; with the mean pinned, the clamped mix does
    not drift to a translate.  They solve to tol / 4 with u_nodes // 2
    u-nodes: a coarse level only supplies a start, and its u-rule error
    (a sweep at 32 nodes lies about 1e-6 from one at 256 on the 0.02 and
    0.01 grids) lies far below its O(dx^2) distance to the finest grid,
    while a coarse sweep costs mostly per u-node.  The finest level runs
    plain sweeps with `u_nodes`, so the returned grid and history are the
    map's own and the warning and `geometric_tail` read the map's
    contraction.  It stops only once its residual is below `tol` and its
    last sweep changed no cell on x >= DENSITY_POSITIVE_X by more than a
    factor of 2: the residual is set by the bulk and says nothing of the
    tail.  From a uniform start at dx = 0.001 one sweep does both; from a
    Gaussian one, whose fat tail the mixed coarse levels never rebuild,
    4-6 do.

    The differences should eventually contract geometrically; if
    `geometric_tail` finds otherwise, a warning is attached rather than an
    error, since the sweep may simply be approaching its discretization
    floor.  A finest level of fewer than 5 sweeps leaves the rate
    unobserved and warns of nothing.  A run that stalls there for 5 sweeps,
    or whose residual falls too slowly for the sweeps left to reach `tol`,
    raises IterationError, as any fixed_point run does.  A tol that is not
    positive and finite, a grid of more than _MAX_SWEEP_POINTS points, or a
    u_nodes that apply_T refuses, raises ValueError before any sweep.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite float, got {tol}")
    _check_sweep(f0.n, u_nodes)
    # f0 restricted down the ladder; the coarsest restriction is the first start
    levels = [f0]
    while 2.0 * levels[-1].dx <= 4.0 * DENSITY_DX:
        levels.append(_restricted(levels[-1]))
    cur, sweeps, p1 = levels[-1], 0, None
    for level in reversed(levels):
        if level is not levels[-1]:  # ln of the solve below, interpolated and extrapolated
            log_f = np.log(cur.values, out=np.full(cur.n, _LOG_ZERO), where=cur.values > 0.0)
            p2, p1 = p1, _interpolated(log_f, level.n)
            start = p1 if p2 is None else p1 + (p1 - _interpolated(p2, level.n)) / 4.0
            cur = _normalized(level.x0, level.dx, np.exp(start))
        if level is f0:
            break
        cur, it, history = fixed_point(
            lambda f: apply_T(f, u_nodes=max(u_nodes // 2, 2)), cur, max_iter - sweeps,
            tol / 4.0, f"density (dx = {level.dx:g} start)",
            project=functools.partial(_clamped, level))
        sweeps += it
        if sweeps == max_iter:
            raise IterationError(
                f"density iteration spent its {max_iter} sweeps on the grids "
                f"coarser than dx = {f0.dx:g}", history)
    # fixed_point stops on the residual alone, so the finest level goes on,
    # one sweep per call, while its last sweep still moved the left tail
    settled = True

    def sweep(f):
        nonlocal settled
        nxt = apply_T(f, u_nodes=u_nodes)
        settled = _tail_settled(f, nxt)
        return nxt

    history = []
    while True:
        cur, it, tail = fixed_point(sweep, cur, max_iter - sweeps, tol, "density")
        sweeps += it
        history += tail
        if settled:
            break
        if sweeps == max_iter:
            raise IterationError(
                f"density iteration reached tol={tol}, but its left tail still "
                f"moved by more than a factor of 2 in sweep {max_iter}", history)
    ratios, geometric = geometric_tail(history)
    if geometric is False:
        warnings.warn(
            f"density iteration converged but the last diff ratios "
            f"{[round(r, 3) for r in ratios]} are not uniformly geometric",
            RuntimeWarning)
    return cur, sweeps, history


def _check_sweep(n: int, u_nodes: int) -> None:
    """Refuse a sweep of `u_nodes` u-nodes over n points that could not run or
    would run for minutes."""
    # leggauss builds a dense u_nodes x u_nodes matrix: cap it like a grid
    if not 2 <= u_nodes <= math.isqrt(MAX_GRID_POINTS):
        raise ValueError(f"u_nodes must be in [2, {math.isqrt(MAX_GRID_POINTS)}], "
                         f"got {u_nodes}")
    if n > _MAX_SWEEP_POINTS:
        raise ValueError(f"a density sweep over {n} grid points would run for minutes; "
                         f"the cap is {_MAX_SWEEP_POINTS} points")


def _tail_settled(f: DensityGrid, nxt: DensityGrid) -> bool:
    """Whether no cell at x >= DENSITY_POSITIVE_X changed by more than a factor of 2."""
    i = max(0, int(round((DENSITY_POSITIVE_X - f.x0) / f.dx)))
    a, b = f.values[i:], nxt.values[i:]
    return bool(np.all(a <= 2.0 * b) and np.all(b <= 2.0 * a))


def _clamped(grid: Grid, mixed: np.ndarray) -> DensityGrid:
    """Values on `grid` made a density: clamped at 0, mass 1."""
    return _normalized(grid.x0, grid.dx, np.maximum(mixed, 0.0))


def _restricted(f: DensityGrid) -> DensityGrid:
    """f by full weighting on the grid of twice its spacing, n // 2 + 1 nodes.

    Each node's trapezoid mass goes to the coarse nodes, an even node's
    whole to its own, an odd node's half to each neighbour, and each coarse
    value is its mass over its trapezoid weight.  Inside, that is the
    (1, 2, 1) / 4 stencil; the trapezoid mass and first moment are kept
    exactly, up to rounding, and so are nonnegativity and the window.
    """
    m = f.values * f.dx
    m[[0, -1]] *= 0.5
    m = np.append(m, 0.0) if f.n % 2 == 0 else m
    coarse = m[::2].copy()
    coarse[:-1] += 0.5 * m[1::2]
    coarse[1:] += 0.5 * m[1::2]
    coarse /= 2.0 * f.dx
    coarse[[0, -1]] *= 2.0
    return DensityGrid(f.x0, 2.0 * f.dx, coarse)


def _interpolated(values: np.ndarray, n: int) -> np.ndarray:
    """The 4-point cubic interpolant of `values` on the first n nodes of the
    grid of half their spacing.

    Past each end the stencil reads the odd reflection 2 v[0] - v[1] (and
    likewise at the right), which continues `values` linearly: the
    interpolant is exact on linear data at every node, the two end
    midpoints included.  A zero pad would not do for the log of a density,
    where it means f = 1 past the window.
    """
    out = np.empty(2 * values.size - 1)
    out[::2] = values
    pad = np.pad(values, 1, mode="reflect", reflect_type="odd")
    out[1::2] = (9.0 * (values[:-1] + values[1:]) - pad[:-3] - pad[3:]) / 16.0
    return out[:n]


def geometric_tail(history) -> tuple:
    """(ratios, geometric): the last 4 diff ratios and whether all are < 0.95; None if fewer."""
    tail = history[-5:]
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    return ratios, all(r < 0.95 for r in ratios) if len(ratios) == 4 else None


def cdf(f: DensityGrid) -> Grid:
    """Trapezoid CDF of the density (apply_T's F) on its nodes, clamped to [0, 1]."""
    F, _ = _cdf_antiderivative(f.values, f.dx)
    return Grid(f.x0, f.dx, np.clip(F, 0.0, 1.0))


def convergence_report(f: DensityGrid, iterations: int, history) -> dict:
    """The solve's sweeps (every level's), the finest level's diffs, and moments."""
    return {
        "iterations": iterations,
        "diff_history": list(history),
        "mean": f.mean(),
        "variance": f.variance(),
        "max_f": float(f.values.max()),
        "min_f": float(f.values.min()),
    }
