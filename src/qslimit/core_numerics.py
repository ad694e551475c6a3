"""Shared numeric substrate for the quicksort limit-law toolkit.

Provides the sampled-grid container used throughout (real or complex
values), the one fixed-point driver both solvers run on, a deterministic
adaptive Gauss-Kronrod integrator, the composite Gauss-Legendre rule built
from a count of panels per interval (on real intervals for the CF map's
u-integral, along polygons in the complex plane for the van der Corput
integral; each caller sets its own counts), together with its doubled rule,
against which each caller checks it, the cubic map that bends such a rule's
nodes toward a path's end where the integrand has a u ln u singularity, and
the entropy-like toll function

    g(u) = 2 u ln u + 2 (1-u) ln(1-u) + 1,      0 <= u <= 1,

with its tilted form h(s, u) = u s + g(u) continued to complex u with
principal-branch logarithms (`h_complex`).  The toll function is the
additive cost term of the divide-and-conquer fixed point; z + h(y - z, u)
is the phase that drives every oscillatory integral in the bound ladder.

All arithmetic is 64-bit; nothing here draws random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Grid",
    "QuadratureError",
    "IterationError",
    "fixed_point",
    "MAX_GRID_POINTS",
    "integrate",
    "panel_rule",
    "cubic_end",
    "g_values",
    "h_complex",
]

# Cap on the points of a grid built from user sizes; the defaults need <= 10,001.
MAX_GRID_POINTS = 2**20


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails its accuracy check: `integrate` cannot reach
    its tolerance, or a fixed rule's doubled rule moves its value too far
    (`cf_bounds.vdc_cf`, `cf_solver.cf_map`); `cf_map` also raises it when its
    values overshoot the unit disk."""


class IterationError(RuntimeError):
    """A fixed-point iteration ran out of its budget or stalled at its floor.

    Carries the residual history so the caller can see whether the run was
    diverging, merely slow, or stuck at the discretization floor.
    """

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class Grid:
    """Uniformly sampled function: values[j] at x0 + j*dx, dx > 0, every node finite.

    The values keep their kind: complex input is stored as complex128,
    anything else as float64.  Storage is read-only.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.dx > 0.0 and math.isfinite(self.dx) and math.isfinite(self.x0)):
            raise ValueError(f"Grid needs finite x0 and dx > 0, got x0={self.x0}, dx={self.dx}")
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        arr = np.array(self.values, dtype=dtype)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("grid values must be a non-empty 1-d array")
        if not math.isfinite(self.x0 + self.dx * (arr.size - 1)):
            raise ValueError(f"the grid's last node x0 + dx*(n-1) is not finite: x0={self.x0}, "
                             f"dx={self.dx}, n={arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def domain(cls, x_min: float, x_max: float, dx: float) -> "Grid":
        """A zero-valued grid from x_min stepping dx to (about) x_max."""
        if not (dx > 0.0 and math.isfinite(dx) and math.isfinite(x_min)
                and math.isfinite(x_max) and x_min < x_max
                and (x_max - x_min) / dx <= MAX_GRID_POINTS - 1):
            raise ValueError(f"grid window needs finite x_min < x_max, dx > 0 and at "
                             f"most {MAX_GRID_POINTS} points, got [{x_min}, {x_max}] "
                             f"step {dx}")
        return cls(x_min, dx, np.zeros(int(round((x_max - x_min) / dx)) + 1))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_max(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


# Anderson window: the last _ANDERSON_DEPTH residual differences are mixed
_ANDERSON_DEPTH = 5
# sweeps without a new best residual after which the run is at its floor
_FLOOR_SWEEPS = 5


def _real_view(v: np.ndarray) -> np.ndarray:
    """A complex array as its interleaved (Re, Im) float64 pairs."""
    return v.view(np.float64) if np.iscomplexobj(v) else v


def fixed_point(step, x0, max_iter: int, tol: float, name: str, project=None):
    """Solve x = step(x) in the sup norm, by plain or Anderson iteration.

    Iterates carry their samples in `.values`.  Each sweep evaluates the
    map once, y = step(x), and records the residual |y - x|_inf.  The run
    stops at the first sweep with a residual below `tol` and returns
    (y, iterations, residual_history), where `iterations` counts the map
    evaluations.

    Plain mode (`project` is None) takes x <- y.  Passing `project`, a
    function that turns a mixed value array back into a valid iterate,
    selects Anderson(5) mixing (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011): the next x is the affine combination of the last six map values
    whose residuals have the least 2-norm, with real coefficients that sum
    to 1 fitted on the (Re, Im) components, so every affine constraint the
    map values share (a pinned value, a zero mean) holds for the mix.

    Raises IterationError, carrying the residual history, if `max_iter`
    sweeps do not reach `tol`, or earlier in two cases.  If the best
    residual has not improved for 5 sweeps, the iteration has reached the
    floor set by the discretization of the map, below which neither mode
    makes progress (and past which Anderson mixing amplifies the noise).  If
    the residual r fell at each of the last 5 sweeps, but at a rate
    rho = (r_k / r_(k-5))^(1/5) per sweep at which the sweeps left end at or
    above `tol`, the budget cannot reach `tol`, and the error names rho.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite float, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    cur = x0
    history = []
    best = 0
    prev_f = prev_y = None
    d_f, d_y = [], []
    for it in range(1, max_iter + 1):
        nxt = step(cur)
        f = nxt.values - cur.values
        history.append(float(np.abs(f).max()))
        if history[-1] < tol:
            return nxt, it, history
        if history[-1] < history[best]:
            best = it - 1
        elif it - 1 - best >= _FLOOR_SWEEPS:
            raise IterationError(
                f"{name} iteration reached its discretization floor: the best "
                f"residual {history[best]:.3e} (sweep {best + 1}) did not improve "
                f"in {_FLOOR_SWEEPS} sweeps, above tol={tol}; refine the grid "
                f"or loosen tol", history)
        tail, left = history[-_FLOOR_SWEEPS - 1:], max_iter - it
        if left and len(tail) > _FLOOR_SWEEPS and all(np.diff(tail) < 0.0):
            rate = (tail[-1] / tail[0]) ** (1.0 / _FLOOR_SWEEPS)
            if tail[-1] * rate**left >= tol:
                raise IterationError(
                    f"{name} iteration contracts too slowly: the residual {tail[-1]:.3e} "
                    f"(sweep {it}) fell by a factor of {rate:.4g} per sweep over the last "
                    f"{_FLOOR_SWEEPS}, at which the {left} sweeps left cannot reach "
                    f"tol={tol}; use a finer grid or loosen tol", history)
        if project is None:
            cur = nxt
            continue
        if prev_f is not None:
            d_f.append(_real_view(f - prev_f))
            d_y.append(nxt.values - prev_y)
            del d_f[:-_ANDERSON_DEPTH], d_y[:-_ANDERSON_DEPTH]
        prev_f, prev_y = f, nxt.values
        mixed = nxt.values
        if d_f:
            gamma = np.linalg.lstsq(np.column_stack(d_f), _real_view(f), rcond=None)[0]
            mixed = mixed - np.column_stack(d_y) @ gamma
        cur = project(mixed)
    raise IterationError(
        f"{name} iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(last diff {history[-1]:.3e})", history)


# ---------------------------------------------------------------------------
# Adaptive quadrature: 15-point Kronrod extension of 7-point Gauss per panel,
# global bisection cascade.  Panels whose error estimate exceeds their share
# of the budget (proportional to length) are split; everything is vectorized
# across panels so oscillatory integrands with thousands of panels stay cheap.

_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# stops an integrand that cannot meet its tolerance (a NaN, a singularity)
_MAX_PANELS = 200_000


def integrate(f, a: float, b: float, abs_tol: float = 1e-10):
    """Integrate a real- or complex-valued vectorized callable over [a, b].

    `f` must accept a numpy array and return values of the same shape.  A
    complex integrand is one pass with a complex result; a real one gives a
    float.  Panels are bisected where the Gauss/Kronrod discrepancy (its
    modulus) exceeds their length-proportional share of the absolute
    tolerance `abs_tol`.  If more than 200,000 panels would be needed, a
    QuadratureError is raised rather than a silently inaccurate value.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
        raise ValueError(f"abs_tol must be a positive finite float, got {abs_tol}")
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    total = 0.0
    panels_used = 1
    while lo.size:
        centers = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = centers[:, None] + half[:, None] * _KRONROD_NODES[None, :]
        fx = np.asarray(f(nodes))
        k15 = half * (fx @ _KRONROD_WEIGHTS)
        g7 = half * (fx[:, _GAUSS_IDX] @ _GAUSS_WEIGHTS)
        err = np.abs(k15 - g7)
        budget = abs_tol * (hi - lo) / span
        done = err <= budget
        # NaN panels compare False and keep subdividing until the cap trips.
        total += k15[done].sum()
        lo, hi = lo[~done], hi[~done]
        panels_used += 2 * lo.size
        if panels_used > _MAX_PANELS:
            raise QuadratureError(
                f"integral on [{a}, {b}] did not reach abs_tol={abs_tol} "
                f"within {_MAX_PANELS} panels "
                f"({lo.size} panels still above budget, worst error {err[~done].max():.3e})"
            )
        mids = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mids])
        hi = np.concatenate([mids, hi])
    return complex(total) if np.iscomplexobj(k15) else float(total)


# ---------------------------------------------------------------------------
# Fixed composite rules for oscillatory integrands: one rule serves many
# integrands (every t of a block), where bisection would re-split each anew.

_PANEL_ORDER = 16
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(_PANEL_ORDER)


def panel_rule(paths, per):
    """A composite 16-point Gauss-Legendre rule along each of `paths` in turn and
    its doubled rule, the rule of its self-check: the pair
    ((nodes, weights), (nodes, weights)), nodes in the order of the paths.

    `paths` is a list of 1-d arrays of break points, real or complex; complex
    break points are the corners of a polygonal path, and the weights are then
    complex, so that the rule sums f(u) du along the path.  `per` holds an int
    count of equal panels for each interval of every path in turn; the doubled
    rule halves every panel.  Both rules of all the paths are built in one
    vectorized pass.  Raises ValueError, before any node is made, if the
    doubled rule would need more than MAX_GRID_POINTS nodes.
    """
    per = np.asarray(per)
    m = _PANEL_ORDER * int(per.sum())  # nodes of the rule; the doubled rule has 2m
    if 2 * m > MAX_GRID_POINTS:
        raise ValueError(f"a composite rule would need {2 * m:.3g} nodes, over the cap "
                         f"of {MAX_GRID_POINTS}")
    paths = [np.asarray(e) for e in paths]
    dtype = np.result_type(*paths, np.float64)  # complex edges stay complex
    lefts = np.concatenate([e[:-1] for e in paths]).astype(dtype)
    rights = np.concatenate([e[1:] for e in paths]).astype(dtype)
    # both rules in one pass: the rule's panels, then the doubled rule's
    counts = np.concatenate([per, 2 * per])
    a = np.repeat(np.concatenate([lefts, lefts]), counts)
    b = np.repeat(np.concatenate([rights, rights]), counts)
    n = np.repeat(counts, counts)
    step = (b - a) / n
    k = np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # panel edges where np.linspace(a, b, n + 1) puts them, the last one exactly b
    lo = a + k * step
    hi = np.where(k + 1 == n, b, a + (k + 1) * step)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (center[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    weights = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return [(nodes[:m], weights[:m]), (nodes[m:], weights[m:])]


def cubic_end(nodes, weights, end, far):
    """A rule's nodes and weights on the stretch between `end` and `far` of a
    path, mapped by p -> end + (p - end)^3 / (far - end)^2.

    The map fixes both ends of the stretch and crowds the nodes toward `end`;
    the weights take its derivative, 3 ((p - end) / (far - end))^2.  A
    function like (p - end) ln(p - end) becomes r^5 ln r in the stretch's
    coordinate r, smooth enough for one Gauss-Legendre panel or two, where on
    the straight stretch it needs panels graded toward `end` (Deaño, Huybrechs
    & Iserles, Computing Highly Oscillatory Integrals, SIAM 2018).  The
    stretch may be real or complex, and it may leave `end` or arrive there;
    `end` and `far` broadcast against the nodes, one stretch per row say.
    Returns new arrays (nodes, weights).
    """
    # a node is end + r (far - end) with r in [0, 1]; on a complex stretch
    # the division leaves r real up to rounding
    r = ((nodes - end) / (far - end)).real
    return end + r**3 * (far - end), 3.0 * r**2 * weights


# ---------------------------------------------------------------------------
# Toll function and tilted phase.


def g_values(u: np.ndarray) -> np.ndarray:
    """Toll function 2u ln u + 2(1-u) ln(1-u) + 1, vectorized over u in [0, 1].

    The smaller coordinate is clamped to at least 1e-300, so g(0) = g(1) = 1
    exactly, and on (0, 1) the clamp changes no bit: below 1e-300 the term
    2u ln u is far under half an ulp of 1.  The two entropy terms are
    evaluated with the smaller coordinate first, so g(u) and g(1-u) run the
    identical float program and agree bitwise whenever u and 1-u are exact
    complements.
    """
    u = np.asarray(u, dtype=np.float64)
    v = 1.0 - u
    a = np.maximum(np.minimum(u, v), 1e-300)
    b = np.maximum(u, v)
    return 2.0 * a * np.log(a) + 2.0 * b * np.log(b) + 1.0


def _xlogx(a: np.ndarray, b: np.ndarray):
    """Real and imaginary parts of p ln p at p = a + ib, principal branch,
    with 0 ln 0 = 0.  Real arithmetic: several times cheaper than numpy's
    complex log."""
    a = a + ((a == 0.0) & (b == 0.0))  # p = 0 becomes 1, whose log is 0
    log_r = np.log(np.hypot(a, b))
    arg = np.arctan2(b, a)
    return a * log_r - b * arg, a * arg + b * log_r


def h_complex(s, p) -> np.ndarray:
    """h(s, p) = p s + 2 p ln p + 2 (1-p) ln(1-p) + 1 at complex p.

    `s` is a float or an array that broadcasts with p, one s per node.

    The logarithms take their principal branch, so h is analytic off
    (-inf, 0] and [1, inf), and h(s, conj p) = conj h(s, p) bit for bit.
    Both entropy terms vanish at their zero, so h(s, 0) = 1 and
    h(s, 1) = s + 1 exactly, with no warning.  On (0, 1) it is
    u s + g_values(u) up to rounding.
    """
    p = np.asarray(p, dtype=np.complex128)
    a, b = p.real, p.imag
    re_p, im_p = _xlogx(a, b)
    re_q, im_q = _xlogx(1.0 - a, -b)
    real = a * s + 2.0 * (re_p + re_q) + 1.0
    return real + 1j * (b * s + 2.0 * (im_p + im_q))
