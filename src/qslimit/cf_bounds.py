"""Certified polynomial decay bounds for the limit law's characteristic function.

The modulus of the fixed-point characteristic function phi admits a ladder of
bounds |phi(t)| <= c_p |t|^{-p} built from four elementary mechanisms:

  * `c_half`   - stationary-phase (van der Corput) estimate, p = 1/2, c = 2;
  * `c_interp` - geometric interpolation between p = 1/2 and p = 1,
                 c_p = 2^{2p} pi^{2p-1} (recovers c_1 = 4 pi);
  * `c_double` - squaring the functional equation doubles the exponent,
                 c_{2p} = Gamma(1-p)^2 / Gamma(2-2p) * c_p^2 for 0 < p < 1;
  * `c_step`   - for p > 1 the exponent climbs by whole steps,
                 c_{p+1} = 2^{p+1} c_p^{1+1/p} p/(p-1).

Chains of such bounds combine into a piecewise power-law envelope (pointwise
minimum).  A separate logarithmic refinement 32 pi^2 t^{-2} (ln(t/(4 pi)) + 2),
valid for t >= 1.72, undercuts the pure powers on a middle window of t and is
spliced in on request; the window endpoints are recomputed by bisection, not
hard-coded.

Constants are propagated unrounded: rounding up mid-chain would blow the
later rungs past their integer display ceilings (187, 103215, 197102280).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_numerics import DYADIC_EDGES, QuadratureError, h_values, panel_rule
# not called here: perfbench's tracer expects to rebind `integrate` in this namespace
from .core_numerics import integrate  # noqa: F401

__all__ = [
    "DecayBound",
    "BoundChain",
    "PiecewiseEnvelope",
    "c_half",
    "c_interp",
    "c_double",
    "c_step",
    "LOG_BOUND",
    "LOG_BOUND_T_MIN",
    "build_chain",
    "display_ceiling",
    "crossing",
    "make_envelope",
    "vdc_cf",
]

PURE_POWER = "pure_power"
POWER_LOG = "power_log"

# the logarithmic bound is certified from here on; below this point it dips
# under 1 nowhere, so nothing is lost
LOG_BOUND_T_MIN = 1.72
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class DecayBound:
    """A bound c*t^-p or c*t^-2*(ln(t/4pi)+2) on |phi|, and the lemma behind it."""

    p: float
    c: float
    form: str = PURE_POWER
    provenance: str = ""

    def __post_init__(self):
        if self.form not in (PURE_POWER, POWER_LOG):
            raise ValueError(f"unknown bound form {self.form!r}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"bound constant must be positive and finite, got {self.c}")
        if self.p < 0.0:
            raise ValueError(f"decay exponent must be >= 0, got {self.p}")

    def evaluate(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0.0):
            raise ValueError("decay bounds are evaluated at t > 0")
        if self.form == PURE_POWER:
            return self.c * t ** (-self.p)
        return self.c * t ** (-2.0) * (np.log(t / FOUR_PI) + 2.0)


@dataclass(frozen=True)
class BoundChain:
    """A finite ladder of pure-power DecayBounds with strictly increasing exponents."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("a bound chain needs at least one entry")
        ps = [e.p for e in entries]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("chain exponents must be strictly increasing")
        for e in entries:
            if e.p == 0.0 and e.c != 1.0:
                raise ValueError("the p = 0 rung must carry c = 1 (a cf modulus is <= 1)")
        # consistency: c_p^(1/p) nondecreasing in p, else the weaker bound
        # would contradict the stronger one at large t
        roots = [(e.p, e.c ** (1.0 / e.p)) for e in entries if e.p > 0.0]
        for (p1, r1), (p2, r2) in zip(roots, roots[1:]):
            if r1 > r2 * (1.0 + 1e-12):
                raise ValueError(
                    f"inconsistent chain: c^(1/p) decreases from p={p1} to p={p2}"
                )
        object.__setattr__(self, "entries", entries)

    def constant_at(self, p: float) -> float:
        for e in self.entries:
            if abs(e.p - p) <= 1e-9:
                return e.c
        raise KeyError(f"chain has no rung at exponent p={p}; available: "
                       f"{[e.p for e in self.entries]}")

    def to_json(self):
        return [
            {
                "p": e.p,
                "c": e.c,
                "ceiling": display_ceiling(e),
                "provenance": e.provenance,
            }
            for e in self.entries
        ]


def c_half() -> DecayBound:
    """Van der Corput estimate: |phi(t)| <= 2 |t|^{-1/2}."""
    return DecayBound(0.5, 2.0, provenance="van_der_corput")


def c_interp(p: float) -> DecayBound:
    """Geometric interpolation on 1/2 <= p <= 1: c_p = 2^{2p} pi^{2p-1}."""
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"c_interp is only valid for 1/2 <= p <= 1, got {p}")
    return DecayBound(p, 2.0 ** (2.0 * p) * math.pi ** (2.0 * p - 1.0),
                      provenance="geometric_interpolation")


def c_double(p: float, cp: float) -> DecayBound:
    """Exponent doubling via the squared fixed-point equation (0 < p < 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"c_double needs 0 < p < 1 (beta integral), got {p}")
    const = math.gamma(1.0 - p) ** 2 / math.gamma(2.0 - 2.0 * p) * cp**2
    return DecayBound(2.0 * p, const, provenance="exponent_doubling")


def c_step(p: float, cp: float) -> DecayBound:
    """Exponent step p -> p + 1 for p > 1: c = 2^{p+1} cp^{1+1/p} p/(p-1)."""
    if not p > 1.0:
        raise ValueError(f"c_step needs p > 1, got {p}")
    const = 2.0 ** (p + 1.0) * cp ** (1.0 + 1.0 / p) * p / (p - 1.0)
    return DecayBound(p + 1.0, const, provenance="unit_step")


# logarithmic refinement 32 pi^2 t^{-2} (ln(t/(4 pi)) + 2), certified for t >= 1.72
LOG_BOUND = DecayBound(2.0, 32.0 * math.pi**2, POWER_LOG, "logarithmic_refinement")

# the four base rungs; build_chain doubles the 3/4 rung and steps on from there
_BASE_RUNGS = (DecayBound(0.0, 1.0, provenance="modulus_at_most_one"),
               c_half(), c_interp(0.75), c_interp(1.0))
_MAX_LADDER_P = 29.5  # deepest rung whose constant fits a float: c_{30.5} overflows


def build_chain(p_max: float) -> BoundChain:
    """Assemble the bound ladder of every reachable rung up to exponent p_max.

    The rungs are c_0 = 1, c_{1/2} = 2, c_{3/4} = sqrt(8 pi), c_1 = 4 pi,
    then c_{3/2} by doubling from 3/4 and unit steps beyond, up to 29.5;
    p_max must be one of them (within 1e-12).
    """
    p_max = float(p_max)
    unreachable = ValueError(
        f"no lemma chain reaches exponent p={p_max}; reachable exponents are "
        f"0, 1/2, 3/4, 1, and 3/2 + k for integer k >= 0 up to {_MAX_LADDER_P}"
    )
    if not 0.0 <= p_max <= _MAX_LADDER_P:
        raise unreachable
    top = p_max + 1e-12
    entries = [b for b in _BASE_RUNGS if b.p <= top]
    if top >= 1.5:
        entries.append(c_double(0.75, _BASE_RUNGS[2].c))
    while entries[-1].p + 1.0 <= top:
        entries.append(c_step(entries[-1].p, entries[-1].c))
    if abs(entries[-1].p - p_max) > 1e-12:
        raise unreachable
    return BoundChain(tuple(entries))


def display_ceiling(entry: DecayBound):
    """Presentation constant: exact value for p <= 1, next integer above it
    for the assembled rungs (descriptions quote 187, 103215, 197102280)."""
    if entry.p <= 1.0:
        return entry.c
    return float(math.ceil(entry.c))


def crossing(b1: DecayBound, b2: DecayBound) -> float:
    """Where two pure power bounds exchange dominance: t = (c2/c1)^{1/(p2-p1)}."""
    if b1.form != PURE_POWER or b2.form != PURE_POWER:
        raise ValueError("crossing is defined for pure power bounds")
    if b2.p <= b1.p:
        raise ValueError("crossing expects exponents in increasing order")
    return (b2.c / b1.c) ** (1.0 / (b2.p - b1.p))


@dataclass(frozen=True)
class PiecewiseEnvelope:
    """Pointwise-minimum envelope: pieces (t_lo, t_hi, DecayBound) tiling (0, inf)."""

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("an envelope needs at least one piece")
        if pieces[0][0] != 0.0 or not math.isinf(pieces[-1][1]):
            raise ValueError("envelope pieces must start at 0 and end at infinity")
        for (lo1, hi1, _), (lo2, hi2, _) in zip(pieces, pieces[1:]):
            if hi1 != lo2:
                raise ValueError("envelope pieces must tile without gaps or overlaps")
        for lo, hi, _ in pieces:
            if not lo < hi:
                raise ValueError("empty envelope piece")
        object.__setattr__(self, "pieces", pieces)

    def evaluate(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0.0):
            raise ValueError("envelope is defined for t > 0")
        idx = np.searchsorted([piece[0] for piece in self.pieces[1:]], t, side="right")
        out = np.empty_like(t)
        for i, (_, _, bound) in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = bound.evaluate(t[mask])
        return out if out.ndim else float(out)

    def to_json(self):
        return [
            {
                "t_lo": lo,
                "t_hi": ("inf" if math.isinf(hi) else hi),
                "p": b.p,
                "c": b.c,
                "form": b.form,
            }
            for lo, hi, b in self.pieces
        ]


def _plain_pieces(chain: BoundChain):
    bounds = chain.entries
    if bounds[0].p != 0.0:
        raise ValueError("envelope construction needs the p = 0 rung as its head")
    # lower-envelope sweep; a rung whose crossing with the next bound does not
    # move right never wins anywhere (e.g. p = 3/4 ties at 4 pi^2 on both
    # sides) and is dropped
    kept = [bounds[0]]
    cuts = []
    for b in bounds[1:]:
        t = crossing(kept[-1], b)
        while cuts and t <= cuts[-1]:
            kept.pop()
            cuts.pop()
            t = crossing(kept[-1], b)
        kept.append(b)
        cuts.append(t)
    edges = [0.0] + cuts + [math.inf]
    return [(edges[i], edges[i + 1], kept[i]) for i in range(len(kept))]


def _bisect_crossing(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0 or (hi - lo) <= 1e-12 * mid:
            return mid
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_envelope(chain: BoundChain, use_log: bool = False) -> PiecewiseEnvelope:
    """Build the pointwise-minimum envelope of a chain's bounds.

    With `use_log`, the logarithmic refinement replaces the power pieces on
    the (recomputed) window where it is smaller.  That requires a tail
    exponent above 2 for the envelope to come back out of the log piece.
    """
    pieces = _plain_pieces(chain)
    plain = PiecewiseEnvelope(tuple(pieces))
    if not use_log:
        return plain
    if chain.entries[-1].p <= 2.0:
        raise ValueError("the log refinement needs a chain rung with p > 2 "
                         "for the envelope tail to return to")

    def diff(t):
        return LOG_BOUND.evaluate(t) - plain.evaluate(t)

    # scan for the dominance window of the log bound on a log-spaced mesh
    t_hi_scan = 100.0 * pieces[-1][0] if math.isfinite(pieces[-1][0]) else 1e6
    ts = np.geomspace(LOG_BOUND_T_MIN, max(t_hi_scan, 1e4), 8192)
    signs = diff(ts) < 0.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if len(flips) == 0:
        return plain
    if len(flips) != 2 or signs[0] or signs[-1]:
        raise ValueError("unexpected log-bound dominance structure; "
                         "expected a single interior window")
    a = _bisect_crossing(diff, float(ts[flips[0]]), float(ts[flips[0] + 1]))
    b = _bisect_crossing(diff, float(ts[flips[1]]), float(ts[flips[1] + 1]))

    out = []
    for lo, hi, bound in pieces:
        if lo < min(hi, a):
            out.append((lo, min(hi, a), bound))
        if max(lo, b) < hi:
            out.append((max(lo, b), hi, bound))
    out.append((a, b, LOG_BOUND))
    out.sort(key=lambda piece: piece[0])
    return PiecewiseEnvelope(tuple(out))


# break points on [0, 1], to which each call adds its stationary point
_VDC_EDGES = np.concatenate([DYADIC_EDGES, 1.0 - DYADIC_EDGES[-2::-1]])
_VDC_BUDGET = 3.0 * math.pi  # phase per panel


def vdc_cf(y: float, z: float, t: float, abs_tol: float = 1e-10) -> complex:
    """The oscillatory integral behind the van der Corput rung.

    Computes int_0^1 exp(i t h(y, z, u)) du on all of [0, 1], with no
    trimmed sliver.  The rule is fixed: `panel_rule` on intervals graded by
    4 toward both ends, cut at the stationary point u* = 1/(1 + e^{(y-z)/2})
    so that t |dh| is each interval's exact phase, at most 3 pi per panel.
    The rule with every panel halved must agree to `abs_tol`, else
    QuadratureError; its value is returned.  The
    stationary-phase mechanism caps the modulus at 2 t^{-1/2} for every real
    y, z.  Raises ValueError for a non-finite y, z or t, for t <= 0, and,
    before allocating it, for a rule over MAX_GRID_POINTS nodes (from t of
    about 3e4 when |y - z| = 10, 1e5 when y = z).
    """
    if not (math.isfinite(y) and math.isfinite(z) and math.isfinite(t) and t > 0.0):
        raise ValueError(f"vdc_cf needs finite y, z and t > 0, got y={y}, z={z}, t={t}")
    if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
        raise ValueError(f"abs_tol must be a positive finite float, got {abs_tol}")
    # u* = 1/(1 + e^d), evaluated so that e^d cannot overflow
    d = 0.5 * (y - z)
    e = math.exp(-abs(d))
    u_star = e / (1.0 + e) if d > 0.0 else 1.0 / (1.0 + e)
    # a u* within 4^-9 of an end stays uncut (a cut a few ulps below 1 would put
    # its panel's nodes on u = 1); h is read at the edges clipped into (0, 1)
    edges = np.unique(np.append(_VDC_EDGES, min(max(u_star, _VDC_EDGES[1]), _VDC_EDGES[-2])))
    with np.errstate(over="ignore"):  # an infinite phase is refused by the node cap
        phase = t * np.abs(np.diff(h_values(y, z, np.clip(edges, 1e-300, 1.0 - 2.0**-53))))
    # the doubled rule first: it is the larger, so the cap is met before any allocation
    rules = [panel_rule(edges, phase, _VDC_BUDGET, refine) for refine in (2, 1)]
    # each sum in reals, over cos and sin of the phase: cheaper than a complex np.exp
    sums = []
    for u, w in rules:
        p = t * h_values(y, z, u)
        sums.append(complex(np.cos(p) @ w, np.sin(p) @ w))
    fine, coarse = sums
    err = abs(fine - coarse)
    if not err <= abs_tol:
        raise QuadratureError(f"vdc_cf({y}, {z}, {t}): the doubled rule moved the value "
                              f"by {err:.3e} > abs_tol={abs_tol}")
    return fine
