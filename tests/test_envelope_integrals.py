"""Closed-form envelope integrals against brute quadrature, and the headline
sup-density / sup-derivative numbers they certify."""

import itertools
import math

import pytest

from qslimit.cf_bounds import DecayBound, build_chain, make_envelope
from qslimit.core_numerics import QuadratureSpec, integrate
import qslimit.envelope_integrals as envelope_integrals
from qslimit import report
from qslimit.envelope_integrals import (
    SUP_F1_CAP,
    SUP_F_CAP,
    maxf_theorem_check,
    piece_integral,
    sup_fk_bound,
)

CHAIN_35 = build_chain([3.5])
CHAIN_45 = build_chain([3.5, 4.5])


def test_constant_head_piece():
    assert piece_integral((0.0, 4.0, DecayBound(0.0, 1.0)), 0) == pytest.approx(
        4.0, rel=1e-13)


def test_half_power_piece():
    got = piece_integral((4.0, 4.0 * math.pi**2, DecayBound(0.5, 2.0)), 0)
    assert got == pytest.approx(4.0 * (2.0 * math.pi - 2.0), rel=1e-12)
    assert got == pytest.approx(17.132741228718345, rel=1e-12)


def test_infinite_tail_piece():
    t5 = 197102280.0 / 103215.0
    got = piece_integral((t5, math.inf, DecayBound(3.5, 197102280.0)), 0)
    assert got == pytest.approx(0.49474288985278786, rel=1e-10)


def test_log_window_after_a_power_weight():
    # k - p = -1 on a finite window falls back to the logarithm
    got = piece_integral((2.0, 8.0, DecayBound(2.0, 3.0)), 1)
    assert got == pytest.approx(3.0 * math.log(4.0), rel=1e-12)


def test_divergence_rejections():
    with pytest.raises(ValueError, match="divergent tail"):
        piece_integral((10.0, math.inf, DecayBound(1.0, 4.0 * math.pi)), 0)
    with pytest.raises(ValueError, match="divergent tail"):
        piece_integral((10.0, math.inf, DecayBound(3.5, 1.0)), 3)
    with pytest.raises(ValueError):
        piece_integral((2.0, 8.0, DecayBound(0.5, 2.0)), -1)


def test_closed_forms_match_quadrature():
    for chain, use_log in itertools.product((CHAIN_35, CHAIN_45), (False, True)):
        env = make_envelope(chain, use_log=use_log)
        for k in (0, 1, 2):
            for t_lo, t_hi, bound in env.pieces:
                if math.isinf(t_hi):
                    continue
                closed = piece_integral((t_lo, t_hi, bound), k)
                # k = 2 on the log window is ~3e6: budget relative to it
                spec = QuadratureSpec(abs_tol=max(1e-9, 1e-13 * abs(closed)),
                                      max_subdivisions=100_000)
                brute = integrate(lambda t: t**k * bound.evaluate(t),
                                  t_lo, t_hi, spec)
                assert closed == pytest.approx(brute, rel=1e-12, abs=1e-9)


def test_sup_density_bound():
    plain = sup_fk_bound(make_envelope(CHAIN_35), 0)
    assert 18.0 < plain < 18.2
    logged = sup_fk_bound(make_envelope(CHAIN_35, use_log=True), 0)
    assert logged < 15.3
    assert logged == pytest.approx(15.278652912212367, rel=1e-9)


def test_sup_derivative_bound():
    plain = sup_fk_bound(make_envelope(CHAIN_35), 1)
    assert plain < 3652.1
    logged = sup_fk_bound(make_envelope(CHAIN_35, use_log=True), 1)
    assert logged < 2492.1
    deep = sup_fk_bound(make_envelope(CHAIN_45, use_log=True), 1)
    assert deep < 2466.0
    assert deep == pytest.approx(2465.895390577847, rel=1e-9)
    # the quoted ceiling is sharp: the computed value sits within 1% below it
    assert deep > 0.99 * 2466.0


def test_deeper_chains_only_improve():
    for k in (0, 1, 2):
        shallow = sup_fk_bound(make_envelope(CHAIN_35, use_log=True), k)
        deep = sup_fk_bound(make_envelope(CHAIN_45, use_log=True), k)
        assert deep <= shallow
        assert deep < sup_fk_bound(make_envelope(CHAIN_45), k)


def test_tail_depth_rejection():
    with pytest.raises(ValueError, match="extend the chain"):
        sup_fk_bound(make_envelope(build_chain([1.5])), 1)


def test_headline_theorem_numbers():
    supf, supf1 = maxf_theorem_check()
    assert supf < 16.0
    assert supf1 < 2466.0
    assert supf == pytest.approx(15.278652912212367, rel=1e-9)
    assert supf1 == pytest.approx(2465.895390577847, rel=1e-9)


def test_a_failing_theorem_is_a_failed_check(monkeypatch):
    # push sup f over its cap: the gate must say FAIL, not raise
    def inflated(envelope, k):
        return sup_fk_bound(envelope, k) + (1.0 if k == 0 else 0.0)

    monkeypatch.setattr(envelope_integrals, "sup_fk_bound", inflated)
    supf, supf1 = maxf_theorem_check()
    assert supf > SUP_F_CAP and supf1 < SUP_F1_CAP
    res = report.check_sup_bounds()
    assert res.passed is False
    assert res.line().startswith("FAIL  sup-bounds: ")
