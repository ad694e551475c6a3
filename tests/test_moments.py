"""Moment recursion for the limit law and the absolute-moment bounds."""

import math
from decimal import Decimal, localcontext

import pytest

import qslimit.moments as moments_mod
from qslimit.moments import (
    VARIANCE,
    MomentSequence,
    abs_moment_bounds,
    g_moment,
    pump_moments,
)

G_SQUARED = (7.0 - 2.0 * math.pi**2 / 3.0) / 3.0


def test_g_moment_base_cases():
    assert g_moment(0, 0, 0) == pytest.approx(1.0, abs=1e-14)
    assert g_moment(0, 0, 1) == pytest.approx(0.0, abs=1e-14)
    assert g_moment(0, 0, 2) == pytest.approx(G_SQUARED, abs=1e-14)


def test_g_moment_beta_cross_check():
    # c = 0 reduces to the beta integral a! b! / (a+b+1)!
    for a, b in ((1, 0), (2, 3), (4, 4), (0, 5)):
        expected = (math.factorial(a) * math.factorial(b)
                    / math.factorial(a + b + 1))
        assert g_moment(a, b, 0) == pytest.approx(expected, rel=1e-10)


def test_g_moment_validates_arguments():
    for bad in ((-1, 0, 0), (0, -2, 0), (0, 0, -1), (0, 0.5, 0)):
        with pytest.raises(ValueError):
            g_moment(*bad)


def test_pump_requires_k_at_least_two():
    with pytest.raises(ValueError):
        pump_moments(1)


def test_pump_caps_k_before_any_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(moments_mod, "g_moment", lambda *abc: calls.append(abc) or 0.0)
    for K in (41, 100_000):
        with pytest.raises(ValueError, match="2 <= K <= 40"):
            moments_mod.pump_moments(K)
    assert calls == []
    assert len(moments_mod.pump_moments(40)) == 41  # the cap itself still runs


def test_pumped_variance_hits_the_closed_form(moments8):
    assert moments8[0] == 1.0
    assert moments8[1] == 0.0
    assert moments8[2] == pytest.approx(VARIANCE, abs=1e-14)
    assert moments8[2] == pytest.approx(0.4202628, abs=1e-6)


# zeta(2) = pi^2/6 and zeta(3) (Apery's constant) to 40 significant digits
ZETA2 = Decimal("1.644934066848226436472415166646025189219")
ZETA3 = Decimal("1.202056903159594285399738161511449990765")


def test_pumped_moments_match_their_zeta_values(moments8):
    # every moment is a rational polynomial in zeta values: m2 = 7 - 4 zeta(2)
    # and m3 = 16 zeta(3) - 19, formed here in 40-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 40
        exact = {2: 7 - 4 * ZETA2, 3: 16 * ZETA3 - 19}
    for k, m in exact.items():
        assert abs(moments8[k] - float(m)) <= 1e-14 * float(m), k


def test_pumped_higher_moments_are_stable(moments8):
    # frozen from the recursion itself; route agreement with the density
    # grid is asserted end to end in test_acceptance
    assert moments8[3] == pytest.approx(0.23291045054246434, rel=1e-6)
    assert moments8[4] == pytest.approx(0.737945489647123, rel=1e-6)
    assert len(moments8) == 9


def test_lyapunov_root_growth(moments8):
    roots = [moments8[j] ** (1.0 / j) for j in range(2, 9, 2)]
    assert all(r1 <= r2 * (1.0 + 1e-9) for r1, r2 in zip(roots, roots[1:]))


def test_even_root_growth_stays_bounded(moments8):
    # compatible with an everywhere-finite mgf: m_{2j}^{1/(2j)}/(2j) bounded
    ratios = [moments8[2 * j] ** (1.0 / (2 * j)) / (2 * j) for j in range(1, 5)]
    assert all(r < 1.0 for r in ratios)


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence((2.0, 0.0, 0.4))        # m0 != 1
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.1, 0.4))        # mean not zero
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.0, -0.4))       # negative even moment
    with pytest.raises(ValueError, match="Lyapunov"):
        MomentSequence((1.0, 0.0, 1.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.0))             # too short


def test_degenerate_pump_collapses_to_zero(monkeypatch):
    # with g identically zero the unique fixed point is the point mass at 0,
    # so every pumped moment beyond m0 must vanish
    def beta_only(a, b, c):
        if c > 0:
            return 0.0
        return (math.factorial(a) * math.factorial(b)
                / math.factorial(a + b + 1))

    monkeypatch.setattr(moments_mod, "g_moment", beta_only)
    ms = moments_mod.pump_moments(6)
    assert ms[0] == 1.0
    assert all(abs(ms[k]) < 1e-12 for k in range(1, 7))


def test_abs_moment_bounds_structure(moments8):
    out = abs_moment_bounds(moments8)
    assert len(out) == 9
    assert out[0] == 1.0
    assert out[1] == pytest.approx(math.sqrt(moments8[2]), rel=1e-12)
    assert out[1] == pytest.approx(0.6483, abs=5e-4)
    for j in (2, 4, 6, 8):
        assert out[j] == moments8[j]
    for j in (3, 5, 7):
        assert out[j] == pytest.approx(moments8[j + 1] ** (j / (j + 1.0)),
                                       rel=1e-12)
    # Lyapunov makes these genuine upper bounds for the odd orders
    assert out[3] >= abs(moments8[3])
