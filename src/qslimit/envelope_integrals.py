"""Sup-norm bounds for the limit density and its derivatives.

Fourier inversion turns an integrable bound on |phi| into a uniform bound on
the density: sup |f^(k)| <= (1/pi) * int_0^inf t^k * envelope(t) dt.  Every
piece integrates in closed form, the logarithmic one included, so the sums
carry no quadrature error.

Headline values reproduced by the full chain (through exponent 7/2, with the
9/2 rung for the derivative):

    sup f  <= 18.14 (plain)        -> < 16 after the log refinement (15.28)
    sup f' <= 3648.7 (plain)       -> 2492.05 with the log refinement
                                   -> 2465.90 adding the 9/2 rung
"""

from __future__ import annotations

import math

from .cf_bounds import (
    FOUR_PI,
    PURE_POWER,
    PiecewiseEnvelope,
    build_chain,
    make_envelope,
)
# not called here: perfbench's tracer expects to rebind `integrate` in this namespace
from .core_numerics import integrate  # noqa: F401

__all__ = [
    "piece_integral",
    "sup_fk_bound",
    "maxf_theorem_check",
]


def _log_antiderivative(t: float, k: int) -> float:
    """Antiderivative of t^(k-2) (ln(t/4pi) + 2), the log bound's shape times t^k."""
    L = math.log(t / FOUR_PI)
    if k == 1:
        return 0.5 * L * L + 2.0 * L
    return t ** (k - 1) / (k - 1) * (L + 2.0 - 1.0 / (k - 1))


def piece_integral(piece, k: int) -> float:
    """int over the piece of t^k * bound(t), in closed form."""
    t_lo, t_hi, bound = piece
    if k < 0 or int(k) != k:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if bound.form == PURE_POWER:
        a = k - bound.p
        if math.isinf(t_hi):
            if a >= -1.0:
                raise ValueError(
                    f"divergent tail: piece exponent p={bound.p} needs p > k+1={k + 1}"
                )
            return bound.c * t_lo ** (a + 1.0) / (-(a + 1.0))
        if abs(a + 1.0) < 1e-13:
            return bound.c * math.log(t_hi / t_lo)
        return bound.c * (t_hi ** (a + 1.0) - t_lo ** (a + 1.0)) / (a + 1.0)
    if math.isinf(t_hi):
        raise ValueError("log pieces are only integrated over finite windows")
    return bound.c * (_log_antiderivative(t_hi, k) - _log_antiderivative(t_lo, k))


def sup_fk_bound(envelope: PiecewiseEnvelope, k: int) -> float:
    """Uniform bound on the k-th derivative of the density.

    (1/pi) * int_0^inf t^k * envelope(t) dt.  Requires the envelope tail to
    decay strictly faster than t^{-(k+1)}.
    """
    tail = envelope.pieces[-1][2].p
    if tail <= k + 1.0:
        raise ValueError(
            f"envelope tail exponent {tail} cannot integrate "
            f"t^{k}; extend the chain past p = {k + 1}"
        )
    return sum(piece_integral(piece, k) for piece in envelope.pieces) / math.pi


def maxf_theorem_check() -> tuple:
    """Recompute the headline uniform bounds: sup f < 16 and sup |f'| < 2466.

    Returns the two computed values after asserting both inequalities; a
    failure here means the bound ladder itself is broken.
    """
    env_f = make_envelope(build_chain([3.5]), use_log=True)
    sup_f = sup_fk_bound(env_f, 0)
    env_f1 = make_envelope(build_chain([4.5]), use_log=True)
    sup_f1 = sup_fk_bound(env_f1, 1)
    if not sup_f < 16.0:
        raise RuntimeError(f"sup f bound {sup_f} fails the < 16 theorem check")
    if not sup_f1 < 2466.0:
        raise RuntimeError(f"sup f' bound {sup_f1} fails the < 2466 theorem check")
    return sup_f, sup_f1
