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
the map).  Densities and their derivatives come out by the folded inversion
formula

    f^(k)(x) = (1/pi) Re int_0^T (-i t)^k e^{-i t x} phi(t) dt.

The u-integral is evaluated with a composite Gauss-Legendre rule whose panels
follow the oscillation budget of the phase t g(u) (dyadic toward the endpoint,
phase-equidistributed in the middle); every sweep is cross-validated against a
doubled rule on a subsample of grid points, so a too-coarse rule raises
instead of silently converging to the wrong fixed point.

The fixed point is solved by Anderson(5) mixing in the shared driver
`core_numerics.fixed_point`: real coefficients summing to 1 combine the last
map values, and the mix is put back on the unit disk with phi(0) = 1.  At
the default grid (T = 200, 4096 points) this takes 13 map evaluations where
plain iteration takes 25, and lands 5e-8 from the plain iterate.  Every
grid has a discretization floor on the residual (about 5e-8 at dt ~ 0.1,
T = 50 with 512 points); a tolerance below it stops with an IterationError
that names the floor, after 5 sweeps without progress.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from .core_numerics import (
    ENDPOINT_EPS,
    MAX_GRID_POINTS,
    Grid,
    QuadratureError,
    fixed_point,
    g_values,
)
from .moments import VARIANCE

__all__ = [
    "CF_MAX_ITER",
    "CF_TOL",
    "CfGrid",
    "init_gaussian_cf",
    "cf_map",
    "iterate_cf",
    "invert_cf",
]

# default sweep budget and sup-norm tolerance of iterate_cf
CF_MAX_ITER = 200
CF_TOL = 1e-8

# quadrature contract for one application of the map: the doubled-rule
# cross-check must agree to this absolute tolerance
CF_ABS_TOL = 1e-9

# cap on the spline-pair evaluations of one sweep (u-nodes x t-points), about
# 9x the default 1760 x 4096; past it a single sweep would run for minutes
_MAX_SWEEP_PAIRS = 2**26


class CfGrid(Grid):
    """A Grid of phi on t = 0, dx, ..., x_max: 2+ points, phi(0) == 1, |phi| <= 1 + 1e-9."""

    def __post_init__(self):
        super().__post_init__()
        if self.x0 != 0.0:
            raise ValueError("CfGrid must start at t = 0")
        v = self.values
        if v.size < 2:
            raise ValueError(f"a CF grid needs at least 2 points, got {v.size}")
        if v[0] != 1.0 + 0.0j:
            raise ValueError(f"phi(0) must be exactly 1, got {v[0]}")
        if float(np.abs(v).max()) > 1.0 + 1e-9:
            raise ValueError("characteristic function modulus exceeds 1 + 1e-9")


def init_gaussian_cf(t_max: float = 200.0, n: int = 4096) -> CfGrid:
    """Mean-zero Gaussian seed with the limit law's variance 7 - 2 pi^2/3."""
    if not 2 <= n <= MAX_GRID_POINTS:
        raise ValueError(f"a CF grid needs 2 to {MAX_GRID_POINTS} points, got {n}")
    ts = np.linspace(0.0, t_max, n)
    return CfGrid(0.0, t_max / (n - 1), np.exp(-0.5 * VARIANCE * ts**2) + 0.0j)


_GL_NODES, _GL_WEIGHTS = leggauss(16)
_DYADIC_TOP = 1.0 / 32.0
# grid points reflected through t = 0 (conjugate symmetry) before splining;
# an unsymmetric boundary fit at t = 0 turns value noise into a curvature
# error that the map recycles at small t instead of contracting
_REFLECT = 8


def _cf_spline(ts: np.ndarray, values: np.ndarray) -> CubicSpline:
    ext_t = np.concatenate([-ts[_REFLECT:0:-1], ts])
    ext_v = np.concatenate([np.conj(values[_REFLECT:0:-1]), values])
    return CubicSpline(ext_t, ext_v)


def _u_rule(t_max: float, n_t: int, refine: int = 1):
    """Composite Gauss-Legendre nodes/weights on (eps, 1/2], symmetry-folded.

    Panels are dyadic toward 0 (the toll's log-singular derivative) and are
    subdivided so each carries at most ~2 pi of oscillation budget at the
    largest t, counting both the toll phase and the slowly varying phases of
    the two interpolated factors.  Raises ValueError, before building any
    array, if the rule would need more than MAX_GRID_POINTS nodes, or more
    than _MAX_SWEEP_PAIRS spline pairs to be applied at `n_t` values of t.
    """
    edges = [ENDPOINT_EPS]
    while edges[-1] * 2.0 < _DYADIC_TOP:
        edges.append(edges[-1] * 2.0)
    edges.extend([_DYADIC_TOP, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0])
    panels = []
    for a, b, dg in zip(edges, edges[1:], np.abs(np.diff(g_values(edges)))):
        budget = t_max * (dg + 2.0 * (b - a))
        panels.append((a, b, max(1, math.ceil(refine * budget / (2.0 * math.pi)))))
    total = _GL_NODES.size * sum(n_sub for _, _, n_sub in panels)
    if total > MAX_GRID_POINTS or total * n_t > _MAX_SWEEP_PAIRS:
        raise ValueError(f"the u-rule for t_max={t_max} needs {total} nodes x {n_t} t-points, "
                         f"over the caps of {MAX_GRID_POINTS} nodes, {_MAX_SWEEP_PAIRS} pairs")
    nodes, weights = [], []
    for a, b, n_sub in panels:
        sub = np.linspace(a, b, n_sub + 1)
        centers = 0.5 * (sub[:-1] + sub[1:])
        halves = 0.5 * (sub[1:] - sub[:-1])
        nodes.append((centers[:, None] + halves[:, None] * _GL_NODES[None, :]).ravel())
        weights.append((halves[:, None] * _GL_WEIGHTS[None, :]).ravel())
    u = np.concatenate(nodes)
    w = 2.0 * np.concatenate(weights)  # fold: the integrand is u <-> 1-u symmetric
    return u, w


def _quad_values(spline, t_sel: np.ndarray, u: np.ndarray, w: np.ndarray,
                 gu: np.ndarray) -> np.ndarray:
    """Apply the u-rule at the selected t values (vectorized, chunked)."""
    out = np.empty(t_sel.size, dtype=np.complex128)
    chunk = max(1, int(1_500_000 // max(u.size, 1)))
    for i in range(0, t_sel.size, chunk):
        t = t_sel[i:i + chunk]
        a = spline(u[:, None] * t[None, :])
        b = spline((1.0 - u)[:, None] * t[None, :])
        phase = np.exp(1j * gu[:, None] * t[None, :])
        out[i:i + chunk] = np.einsum("u,ut->t", w, a * b * phase)
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

    The value at t = 0 is pinned to 1 exactly.  Moduli may overshoot 1 by at
    most the quadrature tolerance; anything above 1e-9 is an error, smaller
    overshoots are clamped back to the unit disk.
    """
    ts = phi.xs
    # a spread of grid points re-evaluated with a doubled rule; disagreement
    # means the panel budget was too coarse for this iterate
    idx = np.unique(np.linspace(1, ts.size - 1, 9).astype(int))
    # both rules are built, and so checked against the caps, before any quadrature
    u, w = _u_rule(phi.x_max, ts.size)
    u2, w2 = _u_rule(phi.x_max, idx.size, refine=2)
    spline = _cf_spline(ts, phi.values)
    gu = g_values(u)
    out = _quad_values(spline, ts, u, w, gu)
    overshoot = float(np.abs(out).max()) - 1.0
    if overshoot > 1e-9:
        raise QuadratureError(
            f"cf_map overshot the unit disk by {overshoot:.3e}; "
            f"the u-quadrature did not converge"
        )
    out = _onto_disk(out)

    ref = _quad_values(spline, ts[idx], u2, w2, g_values(u2))
    err = float(np.abs(out[idx] - ref).max())
    if err > CF_ABS_TOL:
        raise QuadratureError(
            f"u-quadrature self-check failed: doubled rule moved values by "
            f"{err:.3e} > abs_tol={CF_ABS_TOL}"
        )
    return CfGrid(0.0, phi.dx, out)


def iterate_cf(init: CfGrid, max_iter: int = CF_MAX_ITER, tol: float = CF_TOL):
    """Solve phi = M phi in the sup norm by Anderson-mixed iteration.

    Mixed values are put back on the unit disk with phi(0) = 1 before the
    next sweep.  Returns (fixed_point, map_evaluations, residual_history);
    the fixed point is a map value whose residual is below `tol`.  Raises
    IterationError with the history if the budget runs out or the residual
    stalls at the grid's discretization floor.
    """
    return fixed_point(cf_map, init, max_iter, tol, "cf",
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
    default is [-4, 6] in steps of 0.005.  Returns a plain Grid on those
    nodes.  Trapezoid rule in t.  Before inverting, the discarded tail t > T is
    estimated from the computed decay of |phi|; if it could move the result
    by 1e-6 or more the truncation is refused and a larger T is required.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    if xs is None:
        xs = Grid.domain(-4.0, 6.0, 0.005)
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
    chunk = max(1, int(2_000_000 // ts.size))
    for i in range(0, x.size, chunk):
        kernel = np.exp(-1j * np.outer(x[i:i + chunk], ts))
        out[i:i + chunk] = (kernel @ coef).real / math.pi
    return Grid(xs.x0, xs.dx, out)
