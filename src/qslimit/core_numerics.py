"""Shared numeric substrate for the quicksort limit-law toolkit.

Provides the sampled-grid container used throughout (real or complex
values), the one fixed-point driver both solvers run on, a deterministic
adaptive Gauss-Kronrod integrator, and the entropy-like toll function

    g(u) = 2 u ln u + 2 (1-u) ln(1-u) + 1,      0 <= u <= 1,

together with its tilted form h(y, z, u) = u y + (1-u) z + g(u).  The toll
function is the additive cost term of the divide-and-conquer fixed point;
h is the phase that drives every oscillatory integral in the bound ladder.

All arithmetic is 64-bit; nothing here draws random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "QuadratureSpec",
    "QuadratureError",
    "IterationError",
    "fixed_point",
    "DEFAULT_QUADRATURE",
    "ENDPOINT_EPS",
    "MAX_GRID_POINTS",
    "integrate",
    "g_func",
    "g_values",
    "h_values",
]

# Integrands built on g or on negative powers of u are integrated on
# [eps, 1-eps]; the discarded slivers are bounded analytically by the
# callers (for a bounded integrand the loss is <= 2e-12).
ENDPOINT_EPS = 1e-12

# Cap on the points of a grid built from user sizes; the defaults need <= 10,001.
MAX_GRID_POINTS = 2**20


class QuadratureError(RuntimeError):
    """Raised when adaptive integration cannot reach the requested tolerance."""


class IterationError(RuntimeError):
    """A fixed-point iteration ran out of its iteration budget.

    Carries the successive-difference history so the caller can see whether
    the run was diverging or merely slow.
    """

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute-error budget and subdivision cap for `integrate`."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 200_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be a positive finite float, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class Grid:
    """Uniformly sampled function: values[j] at x0 + j*dx.

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


def fixed_point(step, x0, max_iter: int, tol: float, name: str):
    """Iterate x <- step(x) until successive iterates agree to `tol`.

    Iterates carry their samples in `.values`; the distance is the sup norm
    of the difference.  Returns (x, iterations, diff_history).  Raises
    IterationError with the history if `max_iter` sweeps do not get there.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite float, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    cur = x0
    history = []
    for it in range(1, max_iter + 1):
        nxt = step(cur)
        history.append(float(np.abs(nxt.values - cur.values).max()))
        cur = nxt
        if history[-1] < tol:
            return cur, it, history
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


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Integrate a real- or complex-valued vectorized callable over [a, b].

    `f` must accept a numpy array and return values of the same shape.  A
    complex integrand is one pass with a complex result; a real one gives a
    float.  The panel budget is spent where the Gauss/Kronrod discrepancy
    (its modulus) says the integrand is hard; if the budget runs out before
    every panel meets its proportional share of `spec.abs_tol`, a
    QuadratureError is raised rather than a silently inaccurate value.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
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
        budget = spec.abs_tol * (hi - lo) / span
        done = err <= budget
        # NaN panels compare False and keep subdividing until the cap trips.
        total += k15[done].sum()
        lo, hi = lo[~done], hi[~done]
        panels_used += 2 * lo.size
        if panels_used > spec.max_subdivisions:
            raise QuadratureError(
                f"integral on [{a}, {b}] did not reach abs_tol={spec.abs_tol} "
                f"within {spec.max_subdivisions} panels "
                f"({lo.size} panels still above budget, worst error {err[~done].max():.3e})"
            )
        mids = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mids])
        hi = np.concatenate([mids, hi])
    return complex(total) if np.iscomplexobj(k15) else float(total)


# ---------------------------------------------------------------------------
# Toll function and tilted phase.


def g_func(u: float) -> float:
    """Toll function 2u ln u + 2(1-u) ln(1-u) + 1 on [0, 1].

    Endpoints take their limit value 1.  The two entropy terms are evaluated
    with the smaller coordinate first, so g_func(u) and g_func(1-u) run the
    identical float program and agree bitwise whenever u and 1-u are exact
    complements.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"g_func requires 0 <= u <= 1, got {u}")
    a = min(u, 1.0 - u)
    b = max(u, 1.0 - u)
    if a == 0.0:
        return 1.0
    return 2.0 * a * math.log(a) + 2.0 * b * math.log(b) + 1.0


def g_values(u: np.ndarray) -> np.ndarray:
    """Vectorized toll function on (0, 1); no endpoint or domain handling."""
    u = np.asarray(u, dtype=np.float64)
    v = 1.0 - u
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    return 2.0 * a * np.log(a) + 2.0 * b * np.log(b) + 1.0


def h_values(y: float, z: float, u: np.ndarray) -> np.ndarray:
    """Tilted toll u*y + (1-u)*z + g(u), vectorized over u in (0, 1).

    Strictly convex in u (h'' = 2/(u(1-u)) >= 8), the curvature the van der
    Corput rung rests on.
    """
    u = np.asarray(u, dtype=np.float64)
    return u * y + (1.0 - u) * z + g_values(u)
