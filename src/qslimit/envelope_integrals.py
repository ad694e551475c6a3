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
    "SUP_F_CAP",
    "SUP_F1_CAP",
    "piece_integral",
    "sup_fk_bound",
    "maxf_theorem_check",
]

# the paper's theorems: sup f < 16 and sup |f'| < 2466
SUP_F_CAP = 16.0
SUP_F1_CAP = 2466.0


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
    """The headline uniform bounds (sup f, sup |f'|), to compare with the caps.

    sup f comes from the log-spliced chain through p = 7/2, sup |f'| from the
    one through p = 9/2; the caller checks them against SUP_F_CAP and
    SUP_F1_CAP, so a broken bound ladder shows up as a failed check.
    """
    sup_f = sup_fk_bound(make_envelope(build_chain(3.5), use_log=True), 0)
    sup_f1 = sup_fk_bound(make_envelope(build_chain(4.5), use_log=True), 1)
    return sup_f, sup_f1
