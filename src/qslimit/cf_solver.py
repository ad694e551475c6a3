"""Characteristic-function route to the limit density.

The limit law's characteristic function is the unique fixed point (among
mean-zero, finite-variance laws) of

    (M phi)(t) = int_0^1 phi(u t) phi((1-u) t) exp(i t g(u)) du.

We iterate M on a uniform grid over [0, T]; conjugate symmetry makes the
negative axis redundant, and since u t and (1-u) t both stay inside [0, t],
the map never needs values beyond the grid.  Off-grid reads use a cubic
spline built on a short conjugate-symmetric extension through t = 0, which
keeps the interpolant's curvature at the origin consistent with the sampled
values (a one-sided boundary fit there feeds curvature noise back through
the map).  The spline is the not-a-knot one of scipy's CubicSpline, in
numpy on the extension's uniform knots: one Thomas sweep gives its slopes,
and each point's interval is found by arithmetic, not by search.  Densities
and their derivatives come out by the folded inversion formula

    f^(k)(x) = (1/pi) Re int_0^T (-i t)^k e^{-i t x} phi(t) dt.

The u-integral is evaluated with `core_numerics.panel_rule`, a composite
Gauss-Legendre rule whose panels follow the oscillation budget of the phase
t g(u) (graded by 4 toward u = 0, phase-equidistributed in the middle).  The
grid points with t in (25(k-1), 25k] share the rule sized for t = 25k (t = 0
joins the first block), so the rule at t depends on t alone, not on the
grid's T.  Along a block the phase exp(i t g(u)) is stepped from one grid
point to the next by the factor exp(i dt g(u)), with np.exp called afresh at
the start of each chunk of work.  Every sweep is cross-validated against each
block's doubled rule at a spread of grid points and at the last t of every
block, where its rule is coarsest, so a too-coarse rule raises instead of
silently converging to the wrong fixed point; the check evaluates its t's one
at a time, with the phase from np.exp, so it shares no step of the recurrence.

The fixed point is solved by Anderson(5) mixing in the shared driver
`core_numerics.fixed_point`: real coefficients summing to 1 combine the last
map values, and the mix is put back on the unit disk with phi(0) = 1.  At
the default grid (1025 points on [0, 50.01], dt = 200/4095) this takes 13
map evaluations where plain iteration takes 25, and lands 5e-8 from the
plain iterate.  Every grid has a discretization floor on the residual (about
5e-8 at dt ~ 0.1, T = 50 with 512 points); a tolerance below it stops with
an IterationError that names the floor, after 5 sweeps without progress.

The default grid stops where phi reaches the float floor: the fixed point's
|phi| is at most 2.7e-9 on [25, 50] and 1.2e-18 on [50, 75].  Since (M phi)(t)
reads phi only on [0, t], the solve on [0, 200] at the same dt agrees with it
to 2.3e-16 on the shared nodes.  A longer grid (`t_max`) buys inversion of
higher derivative orders, whose truncation tail t^k |phi| decays more slowly.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core_numerics import (
    DYADIC_EDGES,
    MAX_GRID_POINTS,
    Grid,
    QuadratureError,
    fixed_point,
    g_values,
    panel_nodes,
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
# default grid of init_gaussian_cf: 1025 points at dt = 200/4095, so T = 50.01;
# the dt of a 4096-point grid on [0, 200], exactly (1024 is a power of two)
CF_GRID_SIZE = 1025
CF_T_MAX = (CF_GRID_SIZE - 1) * (200.0 / 4095)

# quadrature contract for one application of the map: the doubled-rule
# cross-check must agree to this absolute tolerance
CF_ABS_TOL = 1e-9

# cap on the spline-pair evaluations of one sweep (u-nodes x t-points, summed
# over the blocks): 170x the default grid's 0.39M, 20x the 3.4M of 4096 points
# on [0, 200]; past it a single sweep would run for minutes
_MAX_SWEEP_PAIRS = 2**26
# complex entries per chunk of _quad_values (spline pairs) and of invert_cf
# (kernel entries): a 4 MiB complex array each
_CHUNK_PAIRS = 2**18
# points per block of spline evaluation, so that its dozen array passes run in
# cache: on a 2-core Xeon (4 MiB L2) 2^18 points took 12.7 ms in one block and
# 5.2 ms in blocks of 2^14, where scipy's CubicSpline took 9.7 ms
_SPLINE_BLOCK = 2**14


class CfGrid(Grid):
    """A Grid of phi on t = 0, dx, ..., x_max: 2+ points, phi(0) == 1, |phi| <= 1 + 1e-9,
    and a spacing dx that is a normal float."""

    def __post_init__(self):
        super().__post_init__()
        if self.x0 != 0.0:
            raise ValueError("CfGrid must start at t = 0")
        v = self.values
        if v.size < 2:
            raise ValueError(f"a CF grid needs at least 2 points, got {v.size}")
        # the spline divides by dx: 1/dx overflows for a subnormal dx, not for a normal one
        if not self.dx >= sys.float_info.min:
            raise ValueError(f"t_max={self.x_max:.3g} over {v.size} grid points gives a spacing "
                             f"of {self.dx:.3g}, below the smallest normal float")
        if v[0] != 1.0 + 0.0j:
            raise ValueError(f"phi(0) must be exactly 1, got {v[0]}")
        if float(np.abs(v).max()) > 1.0 + 1e-9:
            raise ValueError("characteristic function modulus exceeds 1 + 1e-9")


def init_gaussian_cf(t_max: float = CF_T_MAX, n: int = CF_GRID_SIZE) -> CfGrid:
    """Mean-zero Gaussian seed with the limit law's variance 7 - 2 pi^2/3."""
    if not 2 <= n <= MAX_GRID_POINTS:
        raise ValueError(f"a CF grid needs 2 to {MAX_GRID_POINTS} points, got {n}")
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"a CF grid needs a finite t_max > 0, got {t_max}")
    ts = np.linspace(0.0, t_max, n)
    with np.errstate(over="ignore"):  # t**2 is inf past 1.3e154, where exp gives 0 anyway
        return CfGrid(0.0, t_max / (n - 1), np.exp(-0.5 * VARIANCE * ts**2) + 0.0j)


# grid points reflected through t = 0 (conjugate symmetry) before splining;
# an unsymmetric boundary fit at t = 0 turns value noise into a curvature
# error that the map recycles at small t instead of contracting
_REFLECT = 8

# The u-rule of the folded map on [0, 1/2]: per unit of t, interval i
# carries the toll's phase |dg| plus a phase of du for each of the two
# interpolated factors, and every panel at most 2 pi of their sum.
_U_PHASE = np.abs(np.diff(g_values(DYADIC_EDGES))) + 2.0 * np.diff(DYADIC_EDGES)
_U_BUDGET = 2.0 * math.pi
# t-blocks of this width share the rule for their right end; below t = 25 the
# spline pieces of phi's bulk, not the phase, set the error (at T = 50 with
# 1024 points the rule for t = 6.25 misses the fixed point's map by 9e-10)
_T_BLOCK = 25.0


def _not_a_knot_slopes(m: np.ndarray) -> np.ndarray:
    """The knot slopes of the not-a-knot cubic spline on uniform knots.

    `m` holds the secant slopes between neighbouring knots.  The equations
    are scipy's CubicSpline's, divided by the spacing: two knots give the
    line and three the parabola through them; from four on, one Thomas
    sweep solves the tridiagonal system whose end rows make the third
    derivative continuous at the second and the last-but-one knot.
    """
    n = m.size + 1
    if n == 2:
        return np.array([m[0], m[0]])
    if n == 3:
        return np.array([1.5 * m[0] - 0.5 * m[1], 0.5 * (m[0] + m[1]), 1.5 * m[1] - 0.5 * m[0]])
    rhs = np.empty(n, dtype=m.dtype)
    rhs[0] = 0.5 * (5.0 * m[0] + m[1])
    rhs[1:-1] = 3.0 * (m[:-1] + m[1:])
    rhs[-1] = 0.5 * (m[-2] + 5.0 * m[-1])
    d = rhs.tolist()
    # forward sweep: rows (1, 2), (1, 4, 1) ..., (2, 1) with the super-diagonal
    # normalized to c[i] after elimination
    c = [2.0] + [0.0] * (n - 1)
    for i in range(1, n - 1):
        w = 4.0 - c[i - 1]
        c[i] = 1.0 / w
        d[i] = (d[i] - d[i - 1]) / w
    d[-1] = (d[-1] - 2.0 * d[-2]) / (1.0 - 2.0 * c[-2])
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def _cf_spline(ts: np.ndarray, values: np.ndarray):
    """The cubic spline of phi on the grid reflected through t = 0, as a callable.

    The knots are uniform, so a point's interval is floor((x - x0) / h),
    clipped to the last interval (which also takes any x past the end), and
    its cubic is evaluated by Horner on coefficients gathered with `take`,
    _SPLINE_BLOCK points at a time.
    """
    ext_t = np.concatenate([-ts[_REFLECT:0:-1], ts])
    ext_v = np.concatenate([np.conj(values[_REFLECT:0:-1]), values])
    h = float(ts[1] - ts[0])
    x0, last = float(ext_t[0]), ext_t.size - 2
    m = np.diff(ext_v) / h
    s = _not_a_knot_slopes(m)
    c3 = (s[:-1] + s[1:] - 2.0 * m) / h / h  # h**2 underflows for h below 1.5e-154
    c2 = (3.0 * m - 2.0 * s[:-1] - s[1:]) / h
    c1, c0 = s[:-1], ext_v[:-1]

    def block(x: np.ndarray) -> np.ndarray:
        i = np.floor((x - x0) / h)
        np.clip(i, 0, last, out=i)
        i = i.astype(np.intp)
        d = x - ext_t.take(i)
        out = c3.take(i)
        for c in (c2, c1, c0):
            out *= d
            out += c.take(i)
        return out

    def spline(x: np.ndarray) -> np.ndarray:
        flat = x.ravel()
        out = np.empty(flat.size, dtype=np.complex128)
        for k in range(0, flat.size, _SPLINE_BLOCK):
            out[k:k + _SPLINE_BLOCK] = block(flat[k:k + _SPLINE_BLOCK])
        return out.reshape(x.shape)

    return spline


def _u_rules(t_top: float):
    """The folded u-rule for every t <= t_top and its doubled rule, weights
    doubled: the integrand is u <-> 1-u symmetric."""
    return [(u, 2.0 * w) for u, w in panel_rule(DYADIC_EDGES, t_top * _U_PHASE, _U_BUDGET)]


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
    for i in range(0, t_sel.size, chunk):
        t = t_sel[i:i + chunk]
        phase = np.empty((u.size, t.size), dtype=np.complex128)
        phase[:, 0] = np.exp(1j * gu * t[0])
        phase[:, 1:] = step
        np.multiply.accumulate(phase, axis=1, out=phase)
        a = spline(u[:, None] * t)
        a *= spline((1.0 - u)[:, None] * t)
        a *= phase
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
    overshoots 1 only where the iterate's spline bulges past the unit
    circle; anything above 1e-9 is an error, smaller overshoots are clamped
    back to the unit disk.  Raises ValueError, before any rule is built, if a
    block's doubled rule would need more than MAX_GRID_POINTS nodes or the
    sweep more than _MAX_SWEEP_PAIRS spline pairs.
    """
    ts = phi.xs
    blocks = np.maximum(np.ceil(ts / _T_BLOCK), 1.0)
    ends = np.concatenate([[0], np.flatnonzero(np.diff(blocks)) + 1, [ts.size]])
    tops = _T_BLOCK * blocks[ends[1:] - 1]
    # every block is sized, so checked against both caps, before a rule is built; largest first
    nodes = [int(panel_nodes(top * _U_PHASE, _U_BUDGET).sum()) for top in tops[::-1]]
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
            f"cf_map overshot the unit disk by {overshoot:.3e}; the iterate's cubic "
            f"spline bulges past the unit circle between grid points"
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
    x = xs.xs
    out = np.empty(x.size)
    chunk = max(1, _CHUNK_PAIRS // ts.size)
    for i in range(0, x.size, chunk):
        kernel = np.exp(-1j * np.outer(x[i:i + chunk], ts))
        out[i:i + chunk] = (kernel @ coef).real / math.pi
    return Grid(xs.x0, xs.dx, out)
