"""Integer moments of the limit law by pumping the fixed-point equation.

Raising Y = U Y + (1-U) Z + g(U) to the k-th power and taking expectations
expresses E Y^k through lower moments and the mixed toll integrals

    g_moment(a, b, c) = int_0^1 u^a (1-u)^b g(u)^c du.

The two terms containing E Y^k itself (a = k or b = k, both with c = 0)
contribute 2 E Y^k / (k+1); moving them across gives the pump

    m_k = (k+1)/(k-1) * sum_{a+b+c=k, a<k, b<k} k!/(a! b! c!)
                          * g_moment(a, b, c) * m_a * m_b.

The derivation is spelled out in docs/moment_pump.md.  m_0 = 1 and m_1 = 0
seed the recursion; m_2 must come out as 7 - 2 pi^2 / 3.

Odd absolute moments have no closed recursion here; they are bounded via
Lyapunov's inequality E|Y|^j <= (E Y^{j+1})^{j/(j+1)} for odd j, and
`qslimit moments --json` reports those bounds next to the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core_numerics import g_values, integrate

__all__ = [
    "MomentSequence",
    "g_moment",
    "pump_moments",
    "abs_moment_bounds",
    "VARIANCE",
]

# Var Y = 7 - 2 pi^2 / 3, the unique fixed point of v -> (2/3) v + int g^2
VARIANCE = 7.0 - 2.0 * math.pi**2 / 3.0

_MOMENT_ABS_TOL = 1e-12
# the pump costs O(K^3) g_moment quadratures: K = 40 takes 1.4-2.9 s on a
# 2-core Xeon, K = 60 about 5.2 s, and K in the thousands runs for hours
_MAX_K = 40


def g_moment(a: int, b: int, c: int) -> float:
    """Mixed toll integral int_0^1 u^a (1-u)^b g(u)^c du."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 0 or int(v) != v:
            raise ValueError(f"g_moment exponents must be nonnegative integers, {name}={v}")

    def integrand(u):
        return u**a * (1.0 - u) ** b * g_values(u) ** c

    return integrate(integrand, 0.0, 1.0, _MOMENT_ABS_TOL)


@dataclass(frozen=True)
class MomentSequence:
    """Moments m[0..K] of the limit law with the structural sanity checks."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 3:
            raise ValueError("a moment sequence needs at least m_0..m_2")
        if values[0] != 1.0:
            raise ValueError("m_0 must be exactly 1")
        if abs(values[1]) > 1e-12:
            raise ValueError(f"m_1 must vanish (mean-zero law), got {values[1]}")
        evens = [(j, values[j]) for j in range(2, len(values), 2)]
        for j, v in evens:
            # zero is allowed so the degenerate fixed point (point mass at 0,
            # which the pump produces when g vanishes) is still representable
            if v < 0.0:
                raise ValueError(f"even moment m_{j} cannot be negative, got {v}")
        roots = [v ** (1.0 / j) for j, v in evens]
        for r1, r2 in zip(roots, roots[1:]):
            if r1 > r2 * (1.0 + 1e-9):
                raise ValueError("even moments violate Lyapunov monotonicity")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]


def pump_moments(K: int = 8) -> MomentSequence:
    """Pump the fixed-point equation up to E Y^K."""
    if not 2 <= K <= _MAX_K:
        raise ValueError(f"pump_moments needs 2 <= K <= {_MAX_K}, got {K}")
    cache = {}

    def gm(a, b, c):
        # g_moment is symmetric under (a, b) swap since g(u) = g(1-u)
        key = (min(a, b), max(a, b), c)
        if key not in cache:
            cache[key] = g_moment(*key)
        return cache[key]

    m = [1.0, 0.0]
    for k in range(2, K + 1):
        s = 0.0
        for a in range(k):          # a < k
            if m[a] == 0.0:
                continue
            for b in range(k - a + 1):
                if b == k or m[b] == 0.0:
                    continue
                c = k - a - b
                coeff = math.comb(k, a) * math.comb(k - a, b)
                s += coeff * gm(a, b, c) * m[a] * m[b]
        m.append(s * (k + 1.0) / (k - 1.0))
    return MomentSequence(tuple(m))


def abs_moment_bounds(ms: MomentSequence) -> list:
    """Upper bounds M_j >= E|Y|^j for j = 0..J.

    Even j use the exact moment; odd j use Lyapunov against m_{j+1}, so the
    list stops at the last even index of the sequence.
    """
    K = len(ms) - 1
    J = K if K % 2 == 0 else K - 1
    if J < 2:
        raise ValueError("abs_moment_bounds needs moments through an even index >= 2")
    out = []
    for j in range(J + 1):
        if j == 0:
            out.append(1.0)
        elif j % 2 == 0:
            out.append(ms[j])
        else:
            out.append(ms[j + 1] ** (j / (j + 1.0)))
    return out
