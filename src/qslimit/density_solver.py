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
piecewise-linear interpolant.  Plain nearest-cell binning places the thinnest
kernels up to half a cell off; translation is a neutral direction of the map
(it preserves the mean), so that placement error does not contract -- it
accumulates as a linear drift of the iterate and the iteration never reaches
its tolerance.  The wide copy (scale 1-u) stays smooth on the grid and is
sampled by linear interpolation with value 0 outside; lattice sums of smooth
decaying samples carry no comparable mean bias.  Each sweep renormalizes the
mass to 1; a pre-normalization mass outside [0.9, 1.1] aborts, since it means
the grid is truncating real probability.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core_numerics import MAX_GRID_POINTS, Grid, fixed_point, g_values
from .moments import VARIANCE

__all__ = [
    "DensityGrid",
    "F_U_CAP",
    "gaussian_density",
    "uniform_density",
    "apply_T",
    "iterate_density",
    "geometric_tail",
    "cdf",
    "convergence_report",
]

# pointwise cap for the conditional densities: f_u <= 16/max(u, 1-u) <= 32,
# held with a small float allowance; exceedances are flagged, not silently kept
F_U_CAP = 32.0 * (1.0 + 1e-6)


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


def gaussian_density(var: float = VARIANCE, x_min: float = -4.0,
                     x_max: float = 6.0, dx: float = 0.005) -> DensityGrid:
    """Mean-zero Gaussian seed; the default variance is the limit law's."""
    xs = Grid.domain(x_min, x_max, dx).xs
    vals = np.exp(-0.5 * xs**2 / var) / math.sqrt(2.0 * math.pi * var)
    return _normalized(x_min, dx, vals)


def uniform_density(a: float = -1.0, b: float = 1.0,
                    x_min: float = -4.0, x_max: float = 6.0,
                    dx: float = 0.005) -> DensityGrid:
    """Uniform seed on [a, b]; an alternative start for route-independence runs."""
    if not a < b:
        raise ValueError("uniform_density needs a < b")
    xs = Grid.domain(x_min, x_max, dx).xs
    vals = np.where((xs >= a) & (xs <= b), 1.0 / (b - a), 0.0)
    return _normalized(x_min, dx, vals)


def _u_quadrature(u_nodes: int):
    """Gauss-Legendre nodes on (0, 1/2] with symmetry-doubled weights."""
    x, w = leggauss(u_nodes)
    return 0.25 * (x + 1.0), 0.5 * w  # sum of folded weights = 1


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


def apply_T(f: DensityGrid, u_nodes: int = 64) -> DensityGrid:
    """One sweep of the integral-equation map, renormalized to unit mass."""
    # leggauss builds a dense u_nodes x u_nodes matrix: cap it like a grid
    if not 2 <= u_nodes <= math.isqrt(MAX_GRID_POINTS):
        raise ValueError(f"u_nodes must be in [2, {math.isqrt(MAX_GRID_POINTS)}], "
                         f"got {u_nodes}")
    xs, vals, dx = f.xs, f.values, f.dx
    n = vals.size
    F, Phi = _cdf_antiderivative(vals, dx)
    us, ws = _u_quadrature(u_nodes)
    out = np.zeros(n)
    clipped = False
    for u, wu, gu in zip(us, ws, g_values(us)):
        one_m = 1.0 - u
        wide = np.interp(xs / one_m, xs, vals, left=0.0, right=0.0) / one_m
        k_lo, masses = _hat_deposit(float(u), gu, f.x0, dx, n, vals, F, Phi)
        f_u = np.convolve(wide, masses)
        pos = np.arange(n) - k_lo
        valid = (pos >= 0) & (pos < f_u.size)
        contrib = np.zeros(n)
        contrib[valid] = f_u[pos[valid]]
        if float(contrib.max()) > F_U_CAP:
            clipped = True
            np.minimum(contrib, F_U_CAP, out=contrib)
        out += wu * contrib
    if clipped:
        warnings.warn("apply_T clipped a conditional density above the 32 cap",
                      RuntimeWarning)
    pre_mass = float(np.trapezoid(out, dx=dx))
    if not 0.9 <= pre_mass <= 1.1:
        raise ValueError(
            f"mass {pre_mass:.6f} before renormalization is outside [0.9, 1.1]; "
            f"the grid is losing probability"
        )
    return DensityGrid(f.x0, dx, out / pre_mass)


def iterate_density(f0: DensityGrid, max_iter: int = 60, tol: float = 1e-6,
                    u_nodes: int = 64):
    """Iterate the map to its fixed point in the sup norm.

    Returns (fixed_point, iterations, diff_history).  The differences should
    eventually contract geometrically; if `geometric_tail` finds otherwise, a
    warning is attached rather than an error, since the sweep may simply be
    approaching its discretization floor.  A run that stalls there for 5
    sweeps raises IterationError, as any fixed_point run does.

    This route stays on plain iteration.  Anderson mixing (the CF route's
    mode) pushes density values below zero, to -6e-4 at dx = 0.005, and
    clamping them back breaks the translation-neutral direction of the map:
    the mixed run converged on a translated fixed point with mean -5.7e-4
    (against -5.3e-6), 5.8e-4 in the sup norm from the plain result.
    Mixing here needs a re-centering step first.
    """
    cur, it, history = fixed_point(lambda f: apply_T(f, u_nodes=u_nodes), f0,
                                   max_iter, tol, "density")
    ratios, geometric = geometric_tail(history)
    if len(ratios) == 4 and not geometric:
        warnings.warn(
            f"density iteration converged but the last diff ratios "
            f"{[round(r, 3) for r in ratios]} are not uniformly geometric",
            RuntimeWarning)
    return cur, it, history


def geometric_tail(history) -> tuple:
    """(ratios, geometric): the last 4 diff ratios, and whether there are 4, all < 0.95."""
    tail = history[-5:]
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    return ratios, len(ratios) == 4 and all(r < 0.95 for r in ratios)


def cdf(f: DensityGrid) -> Grid:
    """Trapezoid CDF of the density (apply_T's F) on its nodes, clamped to [0, 1]."""
    F, _ = _cdf_antiderivative(f.values, f.dx)
    return Grid(f.x0, f.dx, np.clip(F, 0.0, 1.0))


def convergence_report(f: DensityGrid, history) -> dict:
    return {
        "iterations": len(history),
        "diff_history": list(history),
        "mean": f.mean(),
        "variance": f.variance(),
        "max_f": float(f.values.max()),
        "min_f": float(f.values.min()),
    }
