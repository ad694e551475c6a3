"""Decay-bound ladder, envelopes, and the oscillatory-integral bound."""

import cmath
import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qslimit import cf_bounds
from qslimit.cf_bounds import (
    _vdc_contour,
    LOG_BOUND,
    POWER_LOG,
    PURE_POWER,
    BoundChain,
    DecayBound,
    VDC_ABS_TOL,
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
from qslimit.core_numerics import QuadratureError, g_values, integrate, panel_rule

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


def test_every_deep_chain_splices_one_log_piece():
    # make_envelope raises if a chain it can build ever leaves no log window
    for p in np.arange(2.5, 30.0):
        pieces = make_envelope(build_chain(p), use_log=True).pieces
        assert [b.form for _, _, b in pieces].count(POWER_LOG) == 1, p


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
    # a scalar call is a batch of one, returned as a Python complex
    assert type(vdc_cf(0.3, -0.7, 1e-8)) is complex
    assert abs(vdc_cf(0.3, -0.7, 1e-8) - 1.0) < 1e-6
    assert abs(vdc_cf(800.0, -800.0, 1e-9) - 1.0) < 1e-6  # u* underflows to 0
    # frozen oracle: midpoint Riemann sum with 10^6 panels at (0, 0, 1)
    brute = 0.9321000840299419 - 0.007446934093068135j
    assert abs(vdc_cf(0.0, 0.0, 1.0) - brute) < 1e-6


def test_vdc_decays_like_the_bound():
    assert abs(vdc_cf(0.0, 0.0, 100.0)) <= 0.2 + 1e-3
    assert abs(vdc_cf(0.0, 0.0, 1e12)) <= 2.0 / math.sqrt(1e12) + 10.0 * VDC_ABS_TOL
    with pytest.raises(ValueError):
        vdc_cf(0.0, 0.0, 0.0)


@pytest.mark.parametrize("y, z, t", [
    (0.0, 0.0, 1e4), (5.0, -5.0, 1e4), (-4.2, 3.1, 2500.0), (0.3, -1.2, 50.0),
    (1.7, 1.7, 300.0), (-5.0, 5.0, 10.0),
    (1.0, 0.0, 1e4),        # u* = 0.378 inside [1/4, 1/2], where h(1/4) - h(1/2) is small
    (15.0, -15.0, 100.0),   # u* = 3e-7, among the dyadic edges
    (800.0, -800.0, 1.0),   # e^{-(y-z)/2} underflows, so u* = 0 exactly
    (-73.2, 0.0, 50.0),     # u* = 1 - 2^-52: the last interval is two ulps wide
    (-800.0, 800.0, 1.0),   # u* rounds to 1, an edge already
    # t u* = 0.975: on the fold's rise |exp(i t h)| falls from e^-2 to e^-49 between
    # iY'/4 and iY', which one panel without the break at iY'/2 misses by 2.2e-8
    (-3.755115773249411, 3.0348109508747374, 29.763514416313175),
])
def test_vdc_matches_the_adaptive_integrator(y, z, t):
    # the Gauss-Kronrod bisection shares no panel or node with the fixed rule; its
    # estimate |K15 - G7| overstates its error by orders of magnitude
    oracle = integrate(lambda u: np.exp(1j * t * (u * y + (1.0 - u) * z + g_values(u))),
                       0.0, 1.0, abs_tol=1e-11)
    assert abs(vdc_cf(y, z, t) - oracle) <= 1e-12


@pytest.mark.parametrize("y, z, t", [
    (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.inf),
    (0.0, 0.0, math.nan), (0.0, 0.0, -1.0),
    (0.0, 0.0, 1e20),       # past the ceiling t = 1e12
    (0.0, 0.0, math.nextafter(1e12, math.inf)),
    (1e308, -1e308, 1.0),   # y - z overflows
])
def test_vdc_rejects_bad_input_at_once(y, z, t, monkeypatch):
    with pytest.raises(ValueError):
        vdc_cf(y, z, t)
    # in a batch the bad triple is named, and found before any contour is made
    def not_built(s, t):
        raise AssertionError("a contour was built")

    monkeypatch.setattr(cf_bounds, "_vdc_contour", not_built)
    ys, zs, ts = np.array([[0.0, 1.0, y, 2.0], [0.5, -1.0, z, 0.0], [1.0, 50.0, t, 1e4]])
    with pytest.raises(ValueError, match=re.escape(f"got y={y}, z={z}, t={t}") + "$"):
        vdc_cf(ys, zs, ts)


def test_vdc_batch_needs_one_shape():
    with pytest.raises(ValueError, match=r"one shape, got \(2,\), \(2,\) and \(3,\)"):
        vdc_cf(np.zeros(2), np.zeros(2), np.ones(3))


@pytest.mark.parametrize("seed", [2718, 1])
def test_vdc_batch_matches_one_call_per_triple(seed):
    # check_vdc's 2000 triples: every (y, z) against every t, pairs outermost
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = rng.uniform(-5.0, 5.0, size=(100, 2))
    ts = np.geomspace(1.0, 1e4, 20)
    y, z, t = np.repeat(pairs[:, 0], 20), np.repeat(pairs[:, 1], 20), np.tile(ts, 100)
    batch = vdc_cf(y.reshape(40, 50), z.reshape(40, 50), t.reshape(40, 50))
    assert batch.shape == (40, 50) and batch.dtype == np.complex128
    single = [vdc_cf(float(a), float(b), float(c)) for a, b, c in zip(y, z, t)]
    assert np.max(np.abs(batch.ravel() - single)) <= 1e-14


@pytest.mark.parametrize("t", [1e6, 1e8])
@pytest.mark.parametrize("y, z", [(0.0, 0.0), (5.0, -5.0), (-5.0, 5.0)])
def test_vdc_at_large_t_is_its_stationary_phase_term(y, z, t):
    value = vdc_cf(y, z, t)
    assert abs(value) <= 2.0 / math.sqrt(t)
    # the stationary point's term e^{i(t h(u*) + pi/4)} sqrt(2 pi / (t h''(u*)));
    # the ends add O(1/t)
    u_star = 1.0 / (1.0 + math.exp((y - z) / 2.0))
    curvature = 2.0 / (u_star * (1.0 - u_star))
    phase = t * (u_star * y + (1.0 - u_star) * z + float(g_values(u_star))) + math.pi / 4.0
    term = complex(math.cos(phase), math.sin(phase)) * math.sqrt(2.0 * math.pi / (t * curvature))
    assert abs(value - term) <= 0.2 / t


@pytest.mark.parametrize("y, z", [
    (0.0, 0.0), (5.0, -5.0), (10.0, 0.0), (2.5, -2.5),
    (40.0, -40.0),          # u* = 4e-18, within 1/t of 0 for every t here
])
def test_vdc_node_count_does_not_grow_with_t(y, z):
    def nodes(t):  # one 16-point panel per contour interval
        return 16 * (_vdc_contour(y - z, t).size - 1)
    # a rule whose node count grew like t would need about 1e3 and 1e7 times more
    assert nodes(1e4) <= 3 * nodes(10.0)
    assert nodes(1e8) <= 3 * nodes(10.0)


def test_vdc_rule_takes_one_panel_per_contour_interval(monkeypatch):
    # the node counts above rest on this: vdc_cf asks panel_rule for one panel on
    # each interval of each contour, whatever s and t
    calls = []

    def spy(paths, per):
        calls.append((paths, per))
        return panel_rule(paths, per)

    monkeypatch.setattr(cf_bounds, "panel_rule", spy)
    vdc_cf(np.array([0.0, 5.0, 40.0]), np.array([0.0, -5.0, -40.0]), np.array([10.0, 1e4, 1e8]))
    assert calls
    for paths, per in calls:
        assert np.array_equal(per, np.ones(sum(p.size - 1 for p in paths)))


# every other s and t of a sweep over s in {0} + geomspace(1e-3, 1600, 33) and
# t in geomspace(1e-9, 1e12, 85)
SWEEP = np.meshgrid(np.concatenate([[0.0], np.geomspace(1e-3, 1600.0, 33)[::2]]),
                    np.geomspace(1e-9, 1e12, 85)[::2], indexing="ij")


def test_vdc_rules_stay_small_up_to_t_1e12():
    # the sweep's rules all have 208 to 560 nodes; vdc_cf, here on the whole sweep
    # at once, raises QuadratureError if its doubled rule moves a value by over
    # VDC_ABS_TOL
    s, t = SWEEP
    for si, ti in zip(s.ravel(), t.ravel()):
        assert 16 * (_vdc_contour(si, ti).size - 1) <= 560, (si, ti)
    vdc_cf(s, np.zeros_like(s), t)


_GL16 = np.polynomial.legendre.leggauss(16)
# fractions of an end leg's depth from the axis: graded by 4 down to 4^-16
_FINE_LADDER = np.concatenate([[0.0], 4.0 ** np.arange(-16.0, 0.0), [1.0]])


def _steepest_descent_reference(s, t, decay=45.0):
    """int_0^1 exp(i t h(s, u)) du from nothing of vdc_cf's: h in numpy's complex
    logs, a polygon of the same shape with its corners at |exp(i t h)| = e^-45
    (vdc_cf puts them at e^-40), the legs at u = 0 and 1 on a ladder graded by 4
    down to 4^-16 of their depth, the legs along the axis graded by 4 from a
    sixteenth of their corner's depth, 4 straight 16-point panels per interval."""
    def h(u):
        return u * s + 2.0 * u * np.log(u) + 2.0 * (1.0 - u) * np.log(1.0 - u) + 1.0

    e = math.exp(-0.5 * s)
    u_star = e / (1.0 + e)

    def graded(length, depth):
        steps = depth * 4.0 ** np.arange(-2.0, 40.0)
        return np.concatenate([[0.0], steps[steps < length], [length]])

    if t * u_star > 1.0:
        depth = math.sqrt(0.5 * decay * u_star * (1.0 - u_star) / t)
        lo, hi = min(depth, 0.5 * u_star), min(depth, 0.5 * (1.0 - u_star))
        below, corner = u_star - lo * (1.0 + 1.0j), u_star + hi * (1.0 + 1.0j)
        legs = [-1.0j * lo * _FINE_LADDER, below - graded(below.real, lo)[::-1],
                np.array([below, u_star, corner])]
    else:
        depths = 0.5 * 2.0 ** -np.arange(64.0)
        decayed = depths[t * h(1.0j * depths).imag >= decay]
        hi = decayed[-1] if decayed.size else 0.5
        corner = 1.0j * hi
        legs = [corner * _FINE_LADDER]
    legs += [corner + graded(1.0 - corner.real, hi), 1.0 + 1.0j * hi * _FINE_LADDER[::-1]]
    total = 0.0
    for leg in legs:
        cuts = np.concatenate([np.linspace(a, b, 5)[:-1] for a, b in zip(leg, leg[1:])]
                              + [leg[-1:]])
        half = 0.5 * np.diff(cuts)
        u = (0.5 * (cuts[1:] + cuts[:-1]) + half * _GL16[0][:, None]).ravel()
        total += (half * _GL16[1][:, None]).ravel() @ np.exp(1j * t * h(u))
    return total


def test_vdc_matches_a_fine_ladder_reference():
    # the cubed ends against a ladder graded by 4 down to 4^-16 on a path of its
    # own, to 1e-11.  The float phase t h rounds by about eps t at every node,
    # alike in any float64 rule: against a long-double phase vdc_cf is 7.6e-12
    # off at t = 1e10 and 6.7e-11 at 1e12, with the ends cubed or graded.  So the
    # gap may add eps t times the integral's modulus, which passes 1e-11 from
    # t of about 2e9 on
    s, t = (a.ravel() for a in SWEEP)
    with np.errstate(under="ignore"):
        ref = np.array([_steepest_descent_reference(a, b) for a, b in zip(s, t)])
    gap = np.abs(vdc_cf(s, np.zeros_like(s), t) - ref)
    assert np.all(gap <= 1e-11 + np.finfo(float).eps * t * np.abs(ref))


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=25, deadline=None)
def test_vdc_within_envelope(y, z, t):
    assert abs(vdc_cf(y, z, t)) <= 2.0 / math.sqrt(t) + 10.0 * VDC_ABS_TOL


# y, z and c on a 1/64 lattice and t on a 1/16 one, so y + c, z + c and every
# t (y + c) are exact and only the rounding of the integral itself can differ
@given(st.integers(-320, 320), st.integers(-320, 320), st.integers(-320, 320),
       st.integers(1, 160_000))
@settings(max_examples=25, deadline=None)
def test_vdc_moves_by_a_phase_under_a_common_shift(i, j, k, m):
    y, z, c, t = i / 64.0, j / 64.0, k / 64.0, m / 16.0
    shifted = vdc_cf(y + c, z + c, t)
    assert abs(shifted - cmath.exp(1j * (t * c)) * vdc_cf(y, z, t)) <= 1e-14


def test_vdc_raises_when_the_doubled_rule_disagrees(monkeypatch):
    # corners at |exp(i t h)| = e^-2 leave legs on which exp(i t h) has not
    # decayed with one panel each, too coarse for the doubled rule
    monkeypatch.setattr(cf_bounds, "_DECAY", 2.0)
    with pytest.raises(QuadratureError, match=r"vdc_cf\(40\.0, 0\.0, 10\.0\): the doubled "
                                              r"rule moved the value by .* > abs_tol=1e-08") as alone:
        vdc_cf(40.0, 0.0, 10.0)
    # in a batch the error names the triple whose rules disagree most: alone,
    # (0, 0, 1) passes and the other two fail by 3.0e-5 and 4.4e-6
    with pytest.raises(QuadratureError) as batch:
        vdc_cf(np.array([0.0, 3.0, 40.0, -2.0]), np.array([0.0, -1.0, 0.0, 1.0]),
               np.array([1.0, 50.0, 10.0, 30.0]))
    assert str(batch.value) == str(alone.value)
