"""Characteristic-function route to the limit density.

The limit law's characteristic function is the unique fixed point (among
mean-zero, finite-variance laws) of

    (M phi)(t) = int_0^1 phi(u t) phi((1-u) t) exp(i t g(u)) du.

We iterate M on a uniform grid over [0, T]; conjugate symmetry makes the
negative axis redundant, and since u t and (1-u) t both stay inside [0, t],
the map never needs values beyond the grid.  Off-grid reads use a piecewise
degree-7 interpolant built on a short conjugate-symmetric extension through
t = 0, which keeps the interpolant's curvature at the origin consistent with
the sampled values (a one-sided boundary fit there feeds curvature noise
back through the map).  On each knot interval it is the Lagrange polynomial
through the 4 nearest knots on either side, its coefficients one fixed 8x8
matrix times the knot values, and each point's interval is found by
arithmetic, not by search.  The limit law has moments of every order, so
phi is smooth, and it decays faster than any power (Fill & Janson); the
interpolation error falls about 250x per halving of the spacing, where a
cubic spline's falls 16x.  Densities
and their derivatives come out by the folded inversion formula

    f^(k)(x) = (1/pi) Re int_0^T (-i t)^k e^{-i t x} phi(t) dt.

The u-integral is evaluated with `core_numerics.panel_rule`, a composite
Gauss-Legendre rule built from a count of panels per interval of the octaves
from 1/64 to 1/2 and of [0, 1/64], whose nodes `core_numerics.cubic_end` bends
toward u = 0, where g has its u ln u singularity; the counts, set here, cut
each interval so that no panel carries more than 4 pi of the integrand's phase
at its block's t.  The grid points with t in (25(k-1), 25k] share the rule
sized for t = 25k (t = 0
joins the first block), so the rule at t depends on t alone, not on the
grid's T.  Along a block the phase exp(i t g(u)) is stepped from one grid
point to the next by the factor exp(i dt g(u)), with np.exp called afresh at
the start of each chunk of work.  Each run of grid points makes one
chunk-sized product buffer that every chunk writes into, a block of about
2^14 interpolant pairs at a time, so the other arrays of the integrand stay
small and in cache.  Every sweep is cross-validated against each block's
doubled rule at a spread of grid points and at the last t of every block,
where its rule is coarsest, so a too-coarse rule raises instead of silently
converging to the wrong fixed point; the check evaluates its t's one at a
time, with the phase from np.exp, so it shares no step of the recurrence.

The fixed point is solved by Anderson(5) mixing in the shared driver
`core_numerics.fixed_point`: real coefficients summing to 1 combine the last
map values, and the mix is put back on the unit disk with phi(0) = 1.  At
the default grid (513 points on [0, 50.01], dt = 400/4095) this takes 11
map evaluations where plain iteration takes 23, and lands 9.4e-9 from the
plain iterate.  Its last residual, 3.2e-9, is not its error: it lies 1.6e-8
from the solve at half the spacing.  Every grid has a discretization floor
on the residual (about 4.6e-8 at dt ~ 0.2, T = 50 with 257 points); a
tolerance below it stops with an IterationError that names the floor, after
5 sweeps without progress.

The default grid stops where phi reaches the float floor: the fixed point's
|phi| is at most 2.7e-9 on [25, 50] and 1.2e-18 on [50, 75].  Since (M phi)(t)
reads phi only on [0, t], and the interpolant there only knots within 4 steps,
the solve on [0, 200] at the same dt agrees with it bit for bit on the shared
nodes but the last 6, where the end windows differ: by 2.9e-28 there, where
|phi| is below 3e-18.  A longer grid (`t_max`) buys inversion of higher
derivative orders, whose truncation tail t^k |phi| decays more slowly.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core_numerics import (
    MAX_GRID_POINTS,
    Grid,
    QuadratureError,
    cubic_end,
    fixed_point,
    g_values,
    panel_rule,
)
from .density_solver import DENSITY_DX, DENSITY_X_MAX, DENSITY_X_MIN
from .moments import VARIANCE

__all__ = [
    "CF_MAX_ITER",
    "CF_TOL",
    "CF_T_MAX",
    "CF_GRID_SIZE",
    "CfGrid",
    "init_gaussian_cf",
    "cf_map",
    "iterate_cf",
    "invert_cf",
]

# sweep budget and default sup-norm tolerance of iterate_cf
CF_MAX_ITER = 200
CF_TOL = 1e-8
# default grid of init_gaussian_cf: 513 points at dt = 400/4095, so T = 50.01;
# twice the dt of a 4096-point grid on [0, 200] (512 is a power of two)
CF_GRID_SIZE = 513
CF_T_MAX = (CF_GRID_SIZE - 1) * (400.0 / 4095)

# quadrature contract for one application of the map: the doubled-rule
# cross-check must agree to this absolute tolerance
CF_ABS_TOL = 1e-9

# cap on the spline-pair evaluations of one sweep (u-nodes x t-points, summed
# over the blocks): 190x the default grid's 86k, 10x the 1.6M of 4096 points
# on [0, 200]; past it a single sweep would run for minutes (`phi --t-max
# 50000` needs 39M).  It refuses every size that the rules graded by 4 toward
# u = 0 at 2 pi per panel refused at 2**26 pairs: their blocks had at most
# 2.4 times these rules' nodes (304 against 128 at t <= 25)
_MAX_SWEEP_PAIRS = 2**24
# complex entries per chunk of _quad_values (spline pairs) and of invert_cf
# (kernel entries): a 4 MiB complex array each
_CHUNK_PAIRS = 2**18
# spline pairs per block of rows in _quad_values, so that the interpolant's
# two dozen array passes run in cache: on a 2-core Xeon (4 MiB L2) 2^18
# points took 12.6 ms in one block and 5.7 ms in blocks of 2^14
_SPLINE_BLOCK = 2**14


class CfGrid(Grid):
    """A Grid of phi on t = 0, dx, ..., x_max: 5+ points, phi(0) == 1, |phi| <= 1 + 1e-9,
    and a spacing dx that is a normal float."""

    def __post_init__(self):
        super().__post_init__()
        if self.x0 != 0.0:
            raise ValueError("CfGrid must start at t = 0")
        v = self.values
        if v.size < 5:  # the fewest that reflect to the interpolant's 8 knots
            raise ValueError(f"a CF grid needs at least 5 points, got {v.size}")
        # the interpolant finds a point's interval by t/dx: a subnormal dx has too few bits
        if not self.dx >= sys.float_info.min:
            raise ValueError(f"t_max={self.x_max:.3g} over {v.size} grid points gives a spacing "
                             f"of {self.dx:.3g}, below the smallest normal float")
        if v[0] != 1.0 + 0.0j:
            raise ValueError(f"phi(0) must be exactly 1, got {v[0]}")
        if float(np.abs(v).max()) > 1.0 + 1e-9:
            raise ValueError("characteristic function modulus exceeds 1 + 1e-9")


def init_gaussian_cf(t_max: float = CF_T_MAX, n: int = CF_GRID_SIZE) -> CfGrid:
    """Mean-zero Gaussian seed with the limit law's variance 7 - 2 pi^2/3."""
    if not 5 <= n <= MAX_GRID_POINTS:
        raise ValueError(f"a CF grid needs 5 to {MAX_GRID_POINTS} points, got {n}")
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"a CF grid needs a finite t_max > 0, got {t_max}")
    ts = np.linspace(0.0, t_max, n)
    with np.errstate(over="ignore"):  # t**2 is inf past 1.3e154, where exp gives 0 anyway
        return CfGrid(0.0, t_max / (n - 1), np.exp(-0.5 * VARIANCE * ts**2) + 0.0j)


# grid points reflected through t = 0 (conjugate symmetry), the 3 that the
# interpolant's stencil reads left of t = 0; an unsymmetric boundary fit at
# t = 0 turns value noise into a curvature error that the map recycles at
# small t instead of contracting
_REFLECT = 3

# Break points of the folded map's u-rule on [0, 1/2]: 0, then octaves from
# 1/64 to 1/2.  g' is log-singular at 0, so the rule's nodes on [0, 1/64] are
# bent toward 0 by cubic_end: with u = r^3 / 64 there, 2u ln u du becomes
# 6 r^5 (3 ln r - ln 64) dr / 64^2, which 16-point Gauss-Legendre resolves on
# one panel (2u ln u over [0, 1/2], one panel per interval, is off by 3e-16).
# The error of a sweep is then set by the interpolant's kinks more than by the
# phase: at 2 pi per panel the doubled rule moves the converged map by at most
# 2.2e-13 on the default grid and on 2048 points on [0, 200], at 4 pi by 8.1e-13,
# and on 4096 points on [0, 200] by 1.3e-14, all far below CF_ABS_TOL.
_U_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-6.0, 0.0)])
# per unit of t, interval i carries the toll's phase |dg| plus a phase of du for
# each of the two interpolated factors, and every panel at most 4 pi of their sum
_U_PHASE = np.abs(np.diff(g_values(_U_EDGES))) + 2.0 * np.diff(_U_EDGES)
_U_BUDGET = 4.0 * math.pi
# the largest t a u-rule is built for: the fixed point's |phi| is below 1.2e-18
# past t = 50, so no grid needs it.  The rule for 2**16 has 398k nodes in its
# doubled rule, within MAX_GRID_POINTS, which the rules graded by 4 reached
# from t = 86,275 on
_U_T_MAX = 2.0**16
# t-blocks of this width share the rule for their right end; below t = 25 the
# interpolant's pieces in phi's bulk, not the phase, set the error (at T = 50
# with 513 points the rule for t = 6.25 misses the fixed point's map by 4e-12)
_T_BLOCK = 25.0


def _cf_spline(ts: np.ndarray, values: np.ndarray):
    """The degree-7 interpolant of phi on the grid reflected through t = 0, as a callable.

    Window j of the reflected knots holds the grid points j-3 ... j+4, and its
    Lagrange polynomial in theta = t/dt - j has the power-basis coefficients
    inv(V) @ window, V the Vandermonde matrix on the nodes -3 ... 4.  A point
    takes window j = clip(floor(t/dt), 0, last), so the last three intervals
    reuse the last window with theta up to 4, and is evaluated by Horner on
    coefficients gathered with `take`.  The caller blocks its points so that
    these passes run in cache.
    """
    ext = np.concatenate([np.conj(values[_REFLECT:0:-1]), values])
    h = float(ts[1] - ts[0])
    # one 8x8 inverse per call: built at import, it cost the report 0.2-0.4 MiB of peak RSS
    inv = np.linalg.inv(np.vander(np.arange(-3.0, 5.0), increasing=True))
    coef = inv @ np.lib.stride_tricks.sliding_window_view(ext, 8).T
    last = coef.shape[1] - 1

    def spline(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The interpolant at x, of any shape, written to `out` if given."""
        theta = x / h
        i = np.floor(theta)
        np.clip(i, 0, last, out=i)
        theta -= i
        i = i.astype(np.intp)
        out = coef[7].take(i, out=out, mode="clip")  # i is in range; "clip" writes out unbuffered
        for c in coef[6::-1]:
            out *= theta
            out += c.take(i)
        return out

    return spline


def _u_panels(t_top: float) -> np.ndarray:
    """Panels of the u-rule for every t <= t_top on each interval of _U_EDGES,
    max(1, ceil(t_top _U_PHASE / _U_BUDGET)), so that none carries more than
    _U_BUDGET radians.  Raises ValueError past _U_T_MAX."""
    if not t_top <= _U_T_MAX:  # NaN and inf fail too
        raise ValueError(f"the u-rule for t={t_top:.3g} is past t={_U_T_MAX:g}, the "
                         f"largest t a u-rule is built for")
    return np.maximum(1.0, np.ceil(t_top * _U_PHASE / _U_BUDGET)).astype(np.int64)


def _u_rules(t_top: float):
    """The folded u-rule for every t <= t_top and its doubled rule, their nodes
    on [0, 1/64] cubed toward 0, weights doubled: the integrand is u <-> 1-u
    symmetric."""
    per = _u_panels(t_top)
    rules = []
    for refine, (u, w) in enumerate(panel_rule([_U_EDGES], per), start=1):
        end = 16 * refine * per[0]  # the nodes on [0, 1/64] come first
        u[:end], w[:end] = cubic_end(u[:end], w[:end], 0.0, _U_EDGES[1])
        rules.append((u, 2.0 * w))
    return rules


def _quad_values(spline, t_sel: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the u-rule at evenly spaced t values (a run of grid points).

    Works in chunks of at most _CHUNK_PAIRS spline pairs.  Along a chunk the
    phase is stepped by the factor exp(i g(u) dt) from np.exp's value at the
    chunk's first t, so a single t gets np.exp's phase alone.
    """
    gu = g_values(u)
    dt = (t_sel[-1] - t_sel[0]) / max(t_sel.size - 1, 1)
    step = np.exp(1j * gu * dt)[:, None]
    out = np.empty(t_sel.size, dtype=np.complex128)
    chunk = max(1, _CHUNK_PAIRS // u.size)
    # One product buffer per call, chunk-sized, which every chunk fills (the
    # last through a view of its leading part) a block of rows of u at a time:
    # a block's phase table, argument grid and second spline factor hold about
    # _SPLINE_BLOCK pairs, so their passes run in cache and glibc serves them
    # from its heap.  A default iterate_cf takes about 12,000 minor page faults,
    # where chunk-sized arrays made afresh took 76,000 with rules twice as large.
    prod = np.empty(u.size * min(chunk, t_sel.size), dtype=np.complex128)
    for i in range(0, t_sel.size, chunk):
        t = t_sel[i:i + chunk]
        a = prod[:u.size * t.size].reshape(u.size, t.size)
        rows = max(1, _SPLINE_BLOCK // t.size)
        for r in range(0, u.size, rows):
            rs = slice(r, r + rows)
            phase = np.empty(a[rs].shape, dtype=np.complex128)
            phase[:, 0] = np.exp(1j * gu[rs] * t[0])
            phase[:, 1:] = step[rs]
            np.multiply.accumulate(phase, axis=1, out=phase)
            part = spline(u[rs, None] * t, out=a[rs])
            part *= spline((1.0 - u[rs])[:, None] * t)
            part *= phase
        out[i:i + chunk] = w @ a
    return out


def _onto_disk(values: np.ndarray) -> np.ndarray:
    """Pin the value at t = 0 to 1 and clamp moduli above 1 onto the unit circle."""
    out = np.array(values, dtype=np.complex128)
    out[0] = 1.0 + 0.0j
    mod = np.abs(out)
    hot = mod > 1.0
    out[hot] /= mod[hot]
    return out


def cf_map(phi: CfGrid) -> CfGrid:
    """One application of the fixed-point map M on the grid.

    The grid points with t in (25(k-1), 25k] share the u-rule sized for
    t = 25k (t = 0 joins the first block).  The value at t = 0 is pinned to 1
    exactly.  The u-rule's weights are positive and sum to 1, so a modulus
    overshoots 1 only where the iterate's interpolant bulges past the unit
    circle; anything above 1e-9 is an error, smaller overshoots are clamped
    back to the unit disk.  The interpolant is only C^0 at the knots, so on
    grids with dt >= 0.67 or so its kinks trip the doubled-rule check, a
    QuadratureError; on such grids phi is sampled too coarsely to mean
    anything.  Raises ValueError, before any rule is built, if a block's
    t is past _U_T_MAX or the sweep needs more than _MAX_SWEEP_PAIRS spline
    pairs.
    """
    ts = phi.xs
    blocks = np.maximum(np.ceil(ts / _T_BLOCK), 1.0)
    ends = np.concatenate([[0], np.flatnonzero(np.diff(blocks)) + 1, [ts.size]])
    tops = _T_BLOCK * blocks[ends[1:] - 1]
    # every block is sized, so checked against both caps, before a rule is built; largest first
    nodes = [16 * int(_u_panels(top).sum()) for top in tops[::-1]]
    pairs = int(np.dot(nodes, np.diff(ends)[::-1]))
    if pairs > _MAX_SWEEP_PAIRS:
        raise ValueError(f"the u-rules for t_max={phi.x_max} need {pairs} spline pairs "
                         f"per sweep, over the cap of {_MAX_SWEEP_PAIRS}")
    # a spread of grid points and the last t of every block, where its rule is
    # coarsest, re-evaluated with the block's doubled rule; disagreement means
    # the panel budget was too coarse for this iterate
    check = np.union1d(np.linspace(1, ts.size - 1, 9).astype(int), ends[1:] - 1)
    check = check[check > 0]
    spline = _cf_spline(ts, phi.values)
    out = np.empty(ts.size, dtype=np.complex128)
    ref = np.empty(check.size, dtype=np.complex128)
    for lo, hi, top in zip(ends, ends[1:], tops):
        rule, fine = _u_rules(top)
        out[lo:hi] = _quad_values(spline, ts[lo:hi], *rule)
        # one t per call, so the check's phase is np.exp's, not the recurrence's
        for j in np.flatnonzero((check >= lo) & (check < hi)):
            ref[j] = _quad_values(spline, ts[check[j]:check[j] + 1], *fine)[0]
    overshoot = float(np.abs(out).max()) - 1.0
    if overshoot > 1e-9:
        raise QuadratureError(
            f"cf_map overshot the unit disk by {overshoot:.3e}; the iterate's degree-7 "
            f"interpolant bulges past the unit circle between grid points"
        )
    out = _onto_disk(out)
    err = float(np.abs(out[check] - ref).max())
    if err > CF_ABS_TOL:
        raise QuadratureError(
            f"u-quadrature self-check failed: doubled rule moved values by "
            f"{err:.3e} > abs_tol={CF_ABS_TOL}"
        )
    return CfGrid(0.0, phi.dx, out)


def iterate_cf(init: CfGrid, tol: float = CF_TOL):
    """Solve phi = M phi in the sup norm by Anderson-mixed iteration.

    Mixed values are put back on the unit disk with phi(0) = 1 before the
    next sweep.  Returns (fixed_point, map_evaluations, residual_history);
    the fixed point is a map value whose residual is below `tol`.  Raises
    IterationError with the history if the CF_MAX_ITER sweeps run out, the
    residual stalls at the grid's discretization floor, or it falls too
    slowly for the budget.
    """
    return fixed_point(cf_map, init, CF_MAX_ITER, tol, "cf",
                       project=lambda v: CfGrid(0.0, init.dx, _onto_disk(v)))


def _tail_estimate(phi: CfGrid, k: int) -> float:
    """Estimated contribution of t > T to (1/pi) int t^k |phi|.

    The certified power envelope is far too pessimistic here (its tail mass
    at T = 200 is of order 1), so the estimate extrapolates the computed
    modulus: the decay exponent is fitted on the last stretch of the grid and
    floored at 9/2, the deepest certified rung we build by default.
    """
    ts, mod = phi.xs, np.abs(phi.values)
    t_max = phi.x_max
    window = ts >= 0.75 * t_max
    m_tail = float(mod[window].max())
    if m_tail <= 0.0:
        return 0.0
    q = 4.5
    fit_mask = window & (mod > m_tail * 1e-6) & (ts > 0.0) & (mod > 0.0)
    if fit_mask.sum() >= 8:
        slope = np.polyfit(np.log(ts[fit_mask]), np.log(mod[fit_mask]), 1)[0]
        q = min(max(4.5, -slope), 400.0)
    if q <= k + 1.5:
        q = k + 1.5
    # in logs: t_max ** (k + 1) overflows a float from k = 133 at T = 200
    log_tail = (k + 1) * math.log(t_max) + math.log(m_tail / ((q - k - 1.0) * math.pi))
    return math.exp(log_tail) if log_tail < 709.0 else math.inf


def invert_cf(phi: CfGrid, k: int = 0, xs: Grid = None) -> Grid:
    """Fourier-invert the grid to the k-th derivative of the density on xs.

    `xs` is any Grid, a DensityGrid included, whose nodes are wanted; the
    default is the density window, [-4, 6] in steps of 0.005.  Returns a
    plain Grid on those nodes.  Trapezoid rule in t.  Before inverting, the
    discarded tail t > T is estimated from the computed decay of |phi|; if it
    could move the result by 1e-6 or more the truncation is refused and a
    larger T is required.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    if xs is None:
        xs = Grid.domain(DENSITY_X_MIN, DENSITY_X_MAX, DENSITY_DX)
    tail = _tail_estimate(phi, k)
    if tail >= 1e-6:
        raise ValueError(
            f"truncation tail estimate {tail:.3e} at T={phi.x_max} exceeds 1e-6 "
            f"for k={k}; rebuild the fixed point with a larger T"
        )
    ts = phi.xs
    wt = np.full(ts.size, phi.dx)
    wt[0] = wt[-1] = 0.5 * phi.dx
    coef = wt * (-1j * ts) ** k * phi.values
    x, mts = xs.xs, -1j * ts
    out = np.empty(x.size)
    chunk = max(1, _CHUNK_PAIRS // ts.size)
    # one kernel buffer serves every chunk, exp(-i x t) made in it in place
    buf = np.empty((min(chunk, x.size), ts.size), dtype=np.complex128)
    for i in range(0, x.size, chunk):
        rows = x[i:i + chunk]
        kernel = buf[:rows.size]
        np.multiply.outer(rows, mts, out=kernel)
        np.exp(kernel, out=kernel)
        out[i:i + chunk] = (kernel @ coef).real / math.pi
    return Grid(xs.x0, xs.dx, out)
