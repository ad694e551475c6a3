"""Decay-bound ladder, envelopes, and the oscillatory-integral bound."""

import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qslimit.cf_bounds import (
    LOG_BOUND,
    POWER_LOG,
    PURE_POWER,
    BoundChain,
    DecayBound,
    PiecewiseEnvelope,
    build_chain,
    c_double,
    c_half,
    c_interp,
    c_step,
    crossing,
    display_ceiling,
    make_envelope,
    vdc_cf,
)
from qslimit.core_numerics import h_values, integrate

CHAIN = build_chain(4.5)
ENV = make_envelope(CHAIN)
ENV_LOG = make_envelope(CHAIN, use_log=True)


def test_decay_bound_validation():
    with pytest.raises(ValueError):
        DecayBound(0.5, -1.0)
    with pytest.raises(ValueError):
        DecayBound(-0.5, 1.0)
    with pytest.raises(ValueError):
        DecayBound(1.0, 1.0, "bogus")
    with pytest.raises(ValueError):
        DecayBound(0.5, 2.0).evaluate(0.0)


def test_base_rungs():
    b = c_half()
    assert (b.p, b.c) == (0.5, 2.0)
    assert c_interp(0.5).c == pytest.approx(2.0, rel=1e-12)
    assert c_interp(0.75).c == pytest.approx(math.sqrt(8.0 * math.pi), rel=1e-12)
    assert c_interp(1.0).c == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_exponent_doubling():
    assert c_double(0.5, 2.0).c == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert c_double(0.75, math.sqrt(8.0 * math.pi)).c == pytest.approx(
        186.39191633333948, rel=1e-12)
    # doubling p = 1/4 with c = 1 lands on Gamma(3/4)^2 / Gamma(3/2)
    got = c_double(0.25, 1.0)
    assert got.p == 0.5
    assert got.c == pytest.approx(math.gamma(0.75) ** 2 / math.gamma(1.5), rel=1e-13)
    assert got.c == pytest.approx(1.6944261695879572, rel=1e-12)


def test_unit_step():
    b = c_step(1.5, 186.39191633333948)
    assert b.p == 2.5
    assert b.c == pytest.approx(103214.6552381619, rel=1e-10)
    b2 = c_step(3.5, 197102279.61257848)
    assert b2.p == 4.5
    assert b2.c == pytest.approx(1463411833647.0383, rel=1e-10)


def test_chain_headline_constants():
    assert CHAIN.constant_at(1.5) == pytest.approx(186.39191633333948, rel=1e-12)
    assert CHAIN.constant_at(2.5) == pytest.approx(103214.6552381619, rel=1e-12)
    assert CHAIN.constant_at(3.5) == pytest.approx(197102279.61257848, rel=1e-12)
    # each lands within half a percent below its quoted integer ceiling
    for p, ceiling in ((1.5, 187.0), (2.5, 103215.0), (3.5, 197102280.0)):
        c = CHAIN.constant_at(p)
        assert 0.995 * ceiling < c <= ceiling


def test_chain_rungs_and_steps_compose():
    ps = [e.p for e in CHAIN.entries]
    assert ps == [0.0, 0.5, 0.75, 1.0, 1.5, 2.5, 3.5, 4.5]
    assert CHAIN.entries[2] == c_interp(0.75)
    assert CHAIN.entries[4] == c_double(0.75, c_interp(0.75).c)
    assert CHAIN.constant_at(2.5) == c_step(1.5, CHAIN.constant_at(1.5)).c
    assert build_chain(0.75).entries[-1].p == 0.75


def test_chain_consistency_rejections():
    with pytest.raises(ValueError):
        BoundChain(())
    with pytest.raises(ValueError):
        BoundChain((DecayBound(0.0, 2.0, provenance="head"),))  # p=0 must carry c=1
    with pytest.raises(ValueError):
        BoundChain((DecayBound(0.5, 2.0, provenance="a"),
                    DecayBound(0.5, 3.0, provenance="b")))
    with pytest.raises(ValueError, match="inconsistent chain"):
        BoundChain((DecayBound(0.5, 2.0, provenance="a"),
                    DecayBound(1.0, 0.5, provenance="b")))
    with pytest.raises(KeyError):
        CHAIN.constant_at(2.0)


def test_chain_root_growth():
    roots = [e.c ** (1.0 / e.p) for e in CHAIN.entries if e.p > 0.0]
    assert all(r1 <= r2 * (1.0 + 1e-12) for r1, r2 in zip(roots, roots[1:]))


def test_build_chain_unreachable_exponent():
    with pytest.raises(ValueError, match="reachable"):
        build_chain(2.0)
    # c_{30.5} would overflow a float; 29.5 is the deepest rung
    assert math.isfinite(build_chain(29.5).entries[-1].c)
    with pytest.raises(ValueError, match="up to 29.5"):
        build_chain(30.5)


def test_build_chain_accepts_exactly_the_rungs_it_builds():
    ladder = [0.0, 0.5, 0.75, 1.0] + [1.5 + k for k in range(29)]  # up to 29.5
    for p in ladder:
        assert build_chain(p).entries[-1].p == p
        for q in (p - 1e-13, p + 1e-13):
            if not 0.0 <= q <= 29.5:
                continue
            try:
                last = build_chain(q).entries[-1].p
            except ValueError:
                continue
            assert last == p, (q, last)  # never a chain that ends on another rung
    for q in (0.6, 1.2, 2.0, 30.5, math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="reachable"):
            build_chain(q)


def test_display_ceilings():
    ceilings = {e.p: display_ceiling(e) for e in CHAIN.entries}
    assert ceilings[0.0] == 1.0
    assert ceilings[1.0] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert ceilings[1.5] == 187.0
    assert ceilings[2.5] == 103215.0
    assert ceilings[3.5] == 197102280.0


def test_log_bound_values():
    assert LOG_BOUND.evaluate(4.0 * math.pi) == pytest.approx(4.0, rel=1e-12)
    assert LOG_BOUND.evaluate(1.72) >= 1.0
    assert LOG_BOUND.evaluate(1000.0) == pytest.approx(0.0020146, rel=1e-3)
    assert LOG_BOUND.provenance == "logarithmic_refinement"


def test_crossing_points():
    t1 = crossing(DecayBound(0.0, 1.0), DecayBound(0.5, 2.0))
    assert t1 == pytest.approx(4.0, rel=1e-12)
    t2 = crossing(DecayBound(0.5, 2.0), DecayBound(1.0, 4.0 * math.pi))
    assert t2 == pytest.approx(4.0 * math.pi**2, rel=1e-12)
    # with the quoted integer ceiling the last handover sits near 221.4
    t3 = crossing(DecayBound(1.0, 4.0 * math.pi), DecayBound(1.5, 187.0))
    assert t3 == pytest.approx((187.0 / (4.0 * math.pi)) ** 2, rel=1e-12)
    assert t3 == pytest.approx(221.44, abs=0.01)


def test_crossing_rejections():
    with pytest.raises(ValueError):
        crossing(DecayBound(1.0, 1.0), DecayBound(0.5, 2.0))
    with pytest.raises(ValueError):
        crossing(DecayBound(2.0, 40.0, POWER_LOG), DecayBound(2.5, 1000.0))


def test_envelope_piece_validation():
    head = DecayBound(0.0, 1.0)
    tail = DecayBound(1.5, 187.0)
    with pytest.raises(ValueError):
        PiecewiseEnvelope(())
    with pytest.raises(ValueError):
        PiecewiseEnvelope(((1.0, math.inf, head),))
    with pytest.raises(ValueError):
        PiecewiseEnvelope(((0.0, 2.0, head), (3.0, math.inf, tail)))
    with pytest.raises(ValueError):
        PiecewiseEnvelope(((0.0, 4.0, head), (4.0, 10.0, tail)))  # no inf tail
    with pytest.raises(ValueError):
        ENV.evaluate(0.0)


def test_envelope_dominates_nothing_above_one():
    ts = np.geomspace(1e-3, 1e6, 10_000)
    env = ENV.evaluate(ts)
    assert np.all(env <= 1.0 + 1e-12)
    for b in CHAIN.entries:
        if b.p > 0.0:
            assert np.all(env <= b.evaluate(ts) * (1.0 + 1e-12))


def test_log_splice_never_worse():
    ts = np.geomspace(1e-3, 1e6, 10_000)
    assert np.all(ENV_LOG.evaluate(ts) <= ENV.evaluate(ts) * (1.0 + 1e-12))
    forms = [b.form for _, _, b in ENV_LOG.pieces]
    assert forms.count(POWER_LOG) == 1


def test_log_splice_needs_a_deep_chain():
    with pytest.raises(ValueError):
        make_envelope(build_chain(1.5), use_log=True)


@given(st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=200)
def test_envelope_is_the_pointwise_minimum(t):
    env = float(ENV.evaluate(t))
    candidates = [1.0] + [float(b.evaluate(t)) for b in CHAIN.entries if b.p > 0.0]
    assert env <= min(candidates) * (1.0 + 1e-12)


def test_chain_json_shape():
    rows = CHAIN.to_json()
    assert [row["p"] for row in rows] == [0.0, 0.5, 0.75, 1.0, 1.5, 2.5, 3.5, 4.5]
    assert all({"p", "c", "ceiling", "provenance"} <= set(row) for row in rows)
    assert [row["provenance"] for row in rows] == [
        "modulus_at_most_one", "van_der_corput", "geometric_interpolation",
        "geometric_interpolation", "exponent_doubling", "unit_step", "unit_step",
        "unit_step"]
    pieces = ENV_LOG.to_json()
    assert pieces[0]["t_lo"] == 0.0
    assert pieces[-1]["t_hi"] == "inf"
    assert all({"t_lo", "t_hi", "p", "c", "form"} == set(pc) for pc in pieces)
    json.loads(json.dumps({"chain": rows, "envelope": pieces}))  # serializable


def test_vdc_limit_and_reference():
    assert abs(vdc_cf(0.3, -0.7, 1e-8) - 1.0) < 1e-6
    # frozen oracle: midpoint Riemann sum with 10^6 panels at (0, 0, 1)
    brute = 0.9321000840299419 - 0.007446934093068135j
    assert abs(vdc_cf(0.0, 0.0, 1.0) - brute) < 1e-6


def test_vdc_decays_like_the_bound():
    assert abs(vdc_cf(0.0, 0.0, 100.0)) <= 0.2 + 1e-3
    with pytest.raises(ValueError):
        vdc_cf(0.0, 0.0, 0.0)


@pytest.mark.parametrize("y, z, t", [
    (0.0, 0.0, 1e4), (5.0, -5.0, 1e4), (-4.2, 3.1, 2500.0), (0.3, -1.2, 50.0),
    (1.7, 1.7, 300.0), (-5.0, 5.0, 10.0),
    (1.0, 0.0, 1e4),        # u* = 0.378 inside [1/4, 1/2], where h(1/4) - h(1/2) is small
    (15.0, -15.0, 100.0),   # u* = 3e-7, among the dyadic edges
    (800.0, -800.0, 1.0),   # e^{(y-z)/2} overflows a float; u* is below eps
])
def test_vdc_matches_the_adaptive_integrator(y, z, t):
    # the Gauss-Kronrod bisection shares no panel or node with the fixed rule; its
    # estimate |K15 - G7| overstates its error by orders of magnitude
    oracle = integrate(lambda u: np.exp(1j * t * h_values(y, z, u)), 0.0, 1.0,
                       abs_tol=1e-11)
    assert abs(vdc_cf(y, z, t) - oracle) <= 1e-12


@pytest.mark.parametrize("y, z, t", [
    (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.inf),
    (0.0, 0.0, math.nan), (0.0, 0.0, -1.0),
    (0.0, 0.0, 1e8),        # a rule of about 1e9 nodes, over the cap
])
def test_vdc_rejects_bad_input_at_once(y, z, t):
    with pytest.raises(ValueError):
        vdc_cf(y, z, t)


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=25, deadline=None)
def test_vdc_within_envelope(y, z, t):
    assert abs(vdc_cf(y, z, t, abs_tol=1e-8)) <= 2.0 / math.sqrt(t) + 10.0 * 1e-8
