"""Characteristic-function fixed point: iteration, envelope, inversion."""

import math
import tracemalloc

import numpy as np
import pytest

from qslimit import cf_solver
from qslimit.cf_bounds import vdc_cf
from qslimit.cf_solver import (
    CF_GRID_SIZE,
    CF_T_MAX,
    CfGrid,
    cf_map,
    init_gaussian_cf,
    invert_cf,
    iterate_cf,
)
from qslimit.cli import _csv, main
from qslimit.core_numerics import (
    IterationError,
    QuadratureError,
    fixed_point,
    g_values,
)
from qslimit.moments import VARIANCE


def uniform_cf(t_max=CF_T_MAX, n=CF_GRID_SIZE):
    """Variance-matched uniform start sin(a t)/(a t), a = sqrt(3 Var Y); its 1/t decay
    shows the iteration forgets its start and the inversion refuses fat tails."""
    ts = np.linspace(0.0, t_max, n)
    vals = np.sinc(math.sqrt(3.0 * VARIANCE) * ts / math.pi) + 0.0j
    return CfGrid(0.0, t_max / (n - 1), vals)


def test_gaussian_start_value_at_one():
    phi = init_gaussian_cf(t_max=200.0, n=4001)  # dt = 0.05 puts t=1 on-grid
    i = 20
    assert phi.xs[i] == pytest.approx(1.0, abs=1e-12)
    assert phi.values[i].real == pytest.approx(math.exp(-VARIANCE / 2.0), rel=1e-9)
    assert phi.values[i].imag == 0.0
    assert phi.values[0] == 1.0 + 0.0j


def test_uniform_start_is_a_valid_cf():
    phi = uniform_cf()
    assert phi.values[0] == 1.0 + 0.0j
    assert np.all(np.abs(phi.values) <= 1.0 + 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cf_grid_validation():
    with pytest.raises(ValueError, match="exactly 1"):
        CfGrid(0.0, 10.0, np.array([0.9 + 0.0j, 0.5, 0.5, 0.5, 0.5]))
    bad = np.ones(11, dtype=complex)
    bad[3] = 1.5
    with pytest.raises(ValueError, match="modulus"):
        CfGrid(0.0, 1.0, bad)
    for n in (1, 4):
        with pytest.raises(ValueError, match=f"a CF grid needs at least 5 points, got {n}$"):
            CfGrid(0.0, 10.0, np.ones(n, dtype=complex))
    with pytest.raises(ValueError, match="t = 0"):
        CfGrid(0.5, 1.0, np.ones(11, dtype=complex))
    with pytest.raises(ValueError, match="dx > 0"):  # the Grid checks run first
        CfGrid(0.0, 0.0, np.ones(11, dtype=complex))
    # t = 2e308 is inf: refused here, not left to overflow in cf_map
    with pytest.raises(ValueError, match=r"the grid's last node x0 \+ dx\*\(n-1\) is not "
                                         r"finite: x0=0\.0, dx=5e\+307, n=5"):
        CfGrid(0.0, 0.5e308, [1.0, 0.5, 0.5, 0.5, 0.5])
    assert CfGrid(0.0, 0.25e308, [1.0, 0.5, 0.5, 0.5, 0.5]).x_max == 1e308
    for n in (4, 1, 0, -1):
        with pytest.raises(ValueError, match="5 to"):
            init_gaussian_cf(t_max=10.0, n=n)
    # the interpolant divides by the spacing, so it must be a normal float
    with pytest.raises(ValueError, match=r"t_max=1.01e-320 over 513 grid points gives a "
                                         r"spacing of 1.98e-323, below the smallest normal"):
        init_gaussian_cf(t_max=1e-320)
    with pytest.raises(ValueError, match=r"t_max=4e-310 over 5 grid points gives a spacing"):
        CfGrid(0.0, 1e-310, np.ones(5, dtype=complex))
    # the smallest normal spacings are usable
    for n in (5, 64):
        tiny = cf_map(init_gaussian_cf(t_max=1e-300, n=n))
        assert tiny.dx == 1e-300 / (n - 1) and np.all(np.isfinite(tiny.values))


def test_interpolant_reproduces_polynomials_of_degree_7():
    # every window reads 8 knots, so sum a_k (it)^k with real a_k, conjugate-symmetric
    # like a CF, comes back to rounding: at the knots, the midpoints, on the last three
    # intervals (the last window, theta up to 4) and next to t = 0 (the reflected knots)
    rng = np.random.default_rng(2)
    for n in range(5, 34):
        ts = np.linspace(0.0, 7.0, n)
        dt = ts[1]
        x = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]), np.linspace(ts[-4], ts[-1], 61),
                            dt * np.array([1e-12, 1e-6, 1e-3, 0.25, 0.75])])
        for degree in range(8):
            a = rng.uniform(-1.0, 1.0, degree + 1)
            want = np.polynomial.polynomial.polyval(1j * x, a)
            got = cf_solver._cf_spline(ts, np.polynomial.polynomial.polyval(1j * ts, a))(x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, degree)


def test_interpolant_error_falls_100x_per_halving():
    # degree 7 on a smooth CF: the error falls about 2^8 = 256x when dt halves,
    # a cubic spline's 16x; checked at every interval's midpoint and quarter points
    def cf(t):
        return np.exp(-0.5 * VARIANCE * t**2 + 0.3j * t)

    errors = []
    for n in (65, 129, 257, 513):
        ts = np.linspace(0.0, 20.0, n)
        x = (ts[:-1, None] + np.array([0.25, 0.5, 0.75]) * ts[1]).ravel()
        errors.append(np.max(np.abs(cf_solver._cf_spline(ts, cf(ts))(x) - cf(x))))
    assert all(coarse >= 100.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


def test_map_of_the_trivial_cf_is_the_oscillatory_integral():
    # with phi = 1 the self-convolution drops out and only exp(itg(u)) remains
    ones = CfGrid(0.0, 0.1, np.ones(101, dtype=complex))
    mapped = cf_map(ones)
    assert mapped.values[0] == 1.0 + 0.0j
    for i in (3, 17, 42, 100):
        t = float(mapped.xs[i])
        assert abs(mapped.values[i] - vdc_cf(0.0, 0.0, t)) < 1e-9


def test_blocked_rules_match_one_rule_sized_for_t_max():
    for phi in (init_gaussian_cf(t_max=50.0, n=1024), uniform_cf(t_max=50.0, n=1024)):
        blocked = cf_map(phi)
        spline = cf_solver._cf_spline(phi.xs, phi.values)
        single = cf_solver._quad_values(spline, phi.xs, *cf_solver._u_rules(phi.x_max)[0])
        assert np.max(np.abs(blocked.values[1:] - single[1:])) <= 1e-10


def _quad_values_per_chunk(spline, t_sel, u, w):
    """_quad_values with fresh arrays for every chunk, the reference for its buffers."""
    gu = g_values(u)
    dt = (t_sel[-1] - t_sel[0]) / max(t_sel.size - 1, 1)
    step = np.exp(1j * gu * dt)[:, None]
    out = np.empty(t_sel.size, dtype=np.complex128)
    chunk = max(1, cf_solver._CHUNK_PAIRS // u.size)
    for i in range(0, t_sel.size, chunk):
        t = t_sel[i:i + chunk]
        phase = np.empty((u.size, t.size), dtype=np.complex128)
        phase[:, 0] = np.exp(1j * gu * t[0])
        phase[:, 1:] = step
        np.multiply.accumulate(phase, axis=1, out=phase)
        a = spline(u[:, None] * t)
        a *= spline((1.0 - u)[:, None] * t)
        a *= phase
        out[i:i + chunk] = w @ a
    return out


def test_chunk_buffers_change_no_bit():
    # runs shorter than, equal to and longer than a chunk, so the reused buffers'
    # views and the partial last chunk all run; the same arithmetic, bit for bit
    phi = cf_map(init_gaussian_cf(t_max=50.0, n=1024))
    spline = cf_solver._cf_spline(phi.xs, phi.values)
    u, w = cf_solver._u_rules(25.0)[0]
    chunk = cf_solver._CHUNK_PAIRS // u.size
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        t_sel = np.linspace(0.3, 49.7, n)
        got = cf_solver._quad_values(spline, t_sel, u, w)
        assert np.array_equal(got, _quad_values_per_chunk(spline, t_sel, u, w)), n


def test_self_check_covers_the_last_t_of_every_block(monkeypatch):
    calls = []
    real = cf_solver._quad_values

    def spy(spline, t_sel, u, w):
        calls.append((t_sel.copy(), u.size))
        return real(spline, t_sel, u, w)

    monkeypatch.setattr(cf_solver, "_quad_values", spy)
    cf_map(init_gaussian_cf(t_max=50.0, n=1024))
    # per block: its sweep, then each of its check points alone under the doubled rule
    sweeps = [i for i, (t_sel, _) in enumerate(calls) if t_sel.size > 1]
    assert len(sweeps) == math.ceil(50.0 / cf_solver._T_BLOCK)
    for start, stop in zip(sweeps, sweeps[1:] + [len(calls)]):
        t_block, nodes = calls[start]
        checks = calls[start + 1:stop]
        assert checks and all(t.size == 1 and n == 2 * nodes for t, n in checks)
        assert t_block[-1] in np.concatenate([t for t, _ in checks])


def test_self_check_raises_when_the_doubled_rule_disagrees(monkeypatch):
    # phi = 1, a point mass, keeps |M phi| near 1 out to t = 200, where one
    # panel per interval cannot follow exp(i t g(u))
    flat = CfGrid(0.0, 200.0 / 511, np.ones(512, dtype=np.complex128))
    cf_map(flat)
    monkeypatch.setattr(cf_solver, "_U_BUDGET", math.inf)
    with pytest.raises(QuadratureError, match=r"u-quadrature self-check failed: doubled "
                                              r"rule moved values by .* > abs_tol=1e-09"):
        cf_map(flat)


def test_map_raises_when_it_overshoots_the_unit_disk():
    # the u-rule's weights are positive and sum to 1, so no rule, however
    # coarse, takes |M phi| past the largest |interpolant|^2; an interpolant
    # through 1, 1, -1, -1, ... bulges above 1 next to t = 0, where the phase is flat
    square = CfGrid(0.0, 1e-3, np.resize([1.0, 1.0, -1.0, -1.0], 16) + 0.0j)
    with pytest.raises(QuadratureError, match=r"cf_map overshot the unit disk by 2\.085e-01; "
                                              r"the iterate's degree-7 interpolant bulges past "
                                              r"the unit circle between grid points"):
        cf_map(square)


def test_graded_ladder_resolves_the_log_singularity():
    # one panel per interval, the nodes on [0, 1/64] cubed toward 0: the rule
    # carries 2u ln u over [0, 1/2] to 1e-15
    edges = cf_solver._U_EDGES
    u, w = cf_solver._u_rules(1.0)[0]
    w = 0.5 * w  # the folded rule's weights are doubled
    assert u.size == 16 * (edges.size - 1) and edges[0] == 0.0 and edges[-1] == 0.5
    f = 2.0 * u * np.log(u)
    assert abs(w @ f - (0.25 * math.log(0.5) - 0.125)) <= 1e-15
    # the cubed panel on [0, 1/64] to 5e-16 absolute (3e-13 of its integral), each
    # octave from [1/64, 1/32] up to 1e-15 relative
    inner = edges[1:]
    antiderivative = np.concatenate([[0.0], inner**2 * (np.log(inner) - 0.5)])
    per_interval = (w * f).reshape(-1, 16).sum(axis=1)
    exact = np.diff(antiderivative)
    assert abs(per_interval[0] - exact[0]) <= 5e-16
    assert np.max(np.abs(per_interval[1:] / exact[1:] - 1.0)) <= 1e-15


def test_u_rule_on_the_graded_ladder():
    # one panel on each of [0, 1/64] and the octaves to 1/8, then 2 and 2 on the
    # octaves to 1/2; the doubled rule has twice as many
    rule, fine = cf_solver._u_rules(25.0)
    assert rule[0].size == 128 and fine[0].size == 256
    # the cubed panel's nodes crowd toward u = 0 and stay below 1/64
    assert 0.0 < rule[0][0] < 1e-8 and rule[0][15] < 1.0 / 64.0 < rule[0][16]


def test_no_sliver_is_trimmed():
    # both u-rules run from u = 0: the CF rule's weights sum to the length of
    # [0, 1], and the van der Corput integral of a constant phase is 1
    for t in (25.0, 50.0, 200.0):
        for _, w in cf_solver._u_rules(t):
            assert abs(w.sum() - 1.0) <= 1e-15
    assert abs(vdc_cf(0.0, 0.0, 1e-9) - 1.0) <= 1e-15


def test_the_rule_at_t_does_not_depend_on_the_grid_length():
    # one sweep on [0, T] and on [0, 2T] at the same dt; (M phi)(t) reads phi on
    # [0, t] only, and the rule at t is sized by t, so the values agree away from
    # the end (at t = T the interpolant's last window alone moves them)
    short = uniform_cf()
    long = uniform_cf(t_max=2.0 * CF_T_MAX, n=2 * CF_GRID_SIZE - 1)
    assert long.dx == short.dx
    inner = short.xs <= short.x_max - 1.0
    gap = cf_map(short).values[inner] - cf_map(long).values[:short.n][inner]
    assert np.max(np.abs(gap)) <= 1e-15


def test_map_matches_a_refined_reference_at_every_t():
    # the self-check samples about 16 t's; compare every t against a reference
    # that shares neither the ladder, the panels nor the phase recurrence: the
    # ladder graded by 2 down to 0, 4x the panels of the rule for T (16-point
    # Gauss-Legendre, built here), the phase by np.exp
    phi = init_gaussian_cf(t_max=50.0, n=1024)
    for _ in range(8):
        phi = cf_map(phi)
    mapped = cf_map(phi).values
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(30, 0, -1)])
    u_phase = (np.abs(np.diff(g_values(np.maximum(edges, 1e-300))))
               + 2.0 * np.diff(edges))
    spline = cf_solver._cf_spline(phi.xs, phi.values)
    panels = 4 * np.maximum(1.0, np.ceil(phi.x_max * u_phase / (2.0 * math.pi))).astype(int)
    cuts = np.concatenate([np.linspace(a, b, n + 1)[:-1]
                           for a, b, n in zip(edges, edges[1:], panels)] + [edges[-1:]])
    x, wx = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(cuts)
    u = (0.5 * (cuts[:-1] + cuts[1:])[:, None] + half[:, None] * x).ravel()
    w = (half[:, None] * wx).ravel()
    ref = np.empty(phi.n, dtype=complex)
    for lo in range(0, phi.n, 128):
        t = phi.xs[lo:lo + 128]
        ref[lo:lo + 128] = 2.0 * w @ (spline(np.outer(u, t)) * spline(np.outer(1.0 - u, t))
                                      * np.exp(1j * np.outer(g_values(u), t)))
    assert np.max(np.abs(mapped[1:] - ref[1:])) <= 5e-11


def test_sweep_caps_refuse_before_any_rule_is_built(monkeypatch):
    def not_built(*args):
        raise AssertionError("a rule or the spline was built")

    monkeypatch.setattr(cf_solver, "_u_rules", not_built)
    monkeypatch.setattr(cf_solver, "_cf_spline", not_built)
    with pytest.raises(ValueError, match="need 176160768 spline pairs per sweep, "
                                         "over the cap of 16777216"):
        cf_map(init_gaussian_cf(50.0, 2**20))
    with pytest.raises(ValueError, match=r"the u-rule for t=3e\+05 is past t=65536"):
        cf_map(init_gaussian_cf(3e5, 4096))


def test_sizes_refused_under_the_graded_ladder_stay_refused():
    # Before the cubic end map, the u-rule was a ladder graded by 4 from 4^-9 to
    # 1/32 at 2 pi per panel, refused past 2^20 nodes in its doubled rule or
    # 2^26 spline pairs per sweep.  Every block's rule has at least 0.42 times
    # its nodes now, so a sweep it refused for its pairs needs more than
    # 0.42 * 2^26 > _MAX_SWEEP_PAIRS, and the first block top it refused for its
    # nodes is past _U_T_MAX
    ladder = np.concatenate([[0.0], 4.0 ** np.arange(-9, -2), 2.0 ** np.arange(-5.0, 0.0)])
    phase = np.abs(np.diff(g_values(ladder))) + 2.0 * np.diff(ladder)
    tops = 25.0 * np.arange(1, 4000)
    ladder_nodes = 16 * np.maximum(1, np.ceil(np.outer(tops, phase) / (2.0 * math.pi))).sum(1)
    assert tops[2 * ladder_nodes > 2**20][0] == 86275.0 > cf_solver._U_T_MAX
    built = tops <= cf_solver._U_T_MAX
    nodes = 16 * np.array([cf_solver._u_panels(top).sum() for top in tops[built]])
    assert np.min(nodes / ladder_nodes[built]) * 2**26 > cf_solver._MAX_SWEEP_PAIRS
    # the sizes that tell the two caps apart: a 5-point grid to t = 10^5, whose
    # sweep is small, and 212,383 points on [0, 27], 28.5M pairs against 67.2M
    for t_max, n in ((1e5, 5), (27.137, 212_383)):
        with pytest.raises(ValueError):
            cf_map(init_gaussian_cf(t_max, n))


def test_iterate_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        iterate_cf(init_gaussian_cf(t_max=10.0, n=64), tol=0.0)


def test_iteration_error_carries_history(monkeypatch):
    monkeypatch.setattr(cf_solver, "CF_MAX_ITER", 1)
    with pytest.raises(IterationError) as err:
        iterate_cf(uniform_cf(t_max=50.0, n=512))
    assert len(err.value.history) == 1


def test_anderson_lands_on_the_plain_fixed_point():
    start = init_gaussian_cf(t_max=50.0, n=1024)
    phi, iters, history = iterate_cf(start, tol=1e-8)
    ref, ref_iters, ref_history = fixed_point(cf_map, start, 200, 1e-8, "plain cf")
    assert history[-1] < 1e-8 and ref_history[-1] < 1e-8
    assert iters < ref_iters
    assert np.max(np.abs(phi.values - ref.values)) <= 1e-7


def test_a_tolerance_below_the_floor_stops_early():
    # dt ~ 0.2 leaves a residual floor near 4.6e-8; mixing past it amplifies noise
    with pytest.raises(IterationError, match="discretization floor") as err:
        iterate_cf(init_gaussian_cf(t_max=50.0, n=257), tol=1e-8)
    assert len(err.value.history) <= 30
    assert min(err.value.history) > 1e-8


def test_fixed_point_reached(cf_fixed):
    phi, iters, diff = cf_fixed
    assert iters <= 15
    assert diff < 1e-8
    assert phi.values[0] == 1.0 + 0.0j
    assert np.all(np.abs(phi.values) <= 1.0 + 1e-9)


def test_fixed_point_low_order_moments(cf_fixed, moments8):
    # the pumped moments are an independent route: phi(dt) = sum m_k (i dt)^k / k!,
    # so the one-step differences carry their Taylor terms, not just m_2 and 0
    phi, _, _ = cf_fixed
    dt, m = phi.dx, moments8
    # phi(-t) = conj(phi(t)): central differences at 0 need only the t>0 side
    second = (2.0 - 2.0 * phi.values[1].real) / dt**2
    assert abs(second - (m[2] - m[4] * dt**2 / 12.0 + m[6] * dt**4 / 360.0)) <= 1e-6
    slope_im = phi.values[1].imag / dt  # mean zero: m_1 = 0
    assert abs(slope_im + m[3] * dt**2 / 6.0 - m[5] * dt**4 / 120.0) <= 1e-7


def test_fixed_point_is_within_2e_8_of_the_solve_at_half_its_spacing(cf_fixed):
    # a residual is not an error: the default phi stops at 3.2e-9, and the
    # degree-7 interpolant leaves it 1.6e-8 from the finer grid's fixed point
    phi, _, _ = cf_fixed
    finer, _, history = iterate_cf(init_gaussian_cf(n=2 * CF_GRID_SIZE - 1), tol=1e-10)
    assert finer.dx == phi.dx / 2 and history[-1] < 1e-10
    assert np.max(np.abs(finer.values[::2] - phi.values)) <= 2e-8


def test_both_starts_land_on_the_same_fixed_point(cf_fixed):
    phi_g, _, _ = cf_fixed
    phi_u, iters_u, history_u = iterate_cf(uniform_cf(), tol=1e-8)
    assert iters_u <= 200
    assert history_u[-1] < 1e-8
    assert np.max(np.abs(phi_u.values - phi_g.values)) < 1e-6


def test_the_default_grid_drops_only_the_float_floor(cf_fixed):
    # the same dt on twice the span: (M phi)(t) reads phi on [0, t] alone, and the
    # interpolant knots within 4 steps, so the longer solve adds only values below
    # 1e-17 and moves the shared ones only at the end, where they are below 1e-17
    phi, _, _ = cf_fixed
    longer, _, _ = iterate_cf(init_gaussian_cf(t_max=2 * CF_T_MAX, n=2 * CF_GRID_SIZE - 1))
    assert longer.dx == phi.dx
    assert np.max(np.abs(longer.values[:phi.n] - phi.values)) <= 1e-15
    assert np.max(np.abs(longer.values[phi.n:])) <= 1e-17
    assert np.max(np.abs(invert_cf(longer).values - invert_cf(phi).values)) <= 1e-15


def test_inversion_is_a_density(cf_fixed):
    phi, _, _ = cf_fixed
    dens = invert_cf(phi)
    mass = float(np.trapezoid(dens.values, dx=dens.dx))
    assert mass == pytest.approx(1.0, abs=2e-3)
    assert float(dens.values.min()) > -1e-4
    assert float(dens.values.min()) > 0.0  # converged CF inverts to > 0 here
    assert 0.55 < float(dens.values.max()) < 0.75


def test_inversion_derivative_route(cf_fixed):
    phi, _, _ = cf_fixed
    f0 = invert_cf(phi, k=0)
    f1 = invert_cf(phi, k=1)
    num = np.gradient(f0.values, f0.dx)
    mask = (f0.xs >= -3.0) & (f0.xs <= 5.0)
    assert float(np.abs(f1.values[mask] - num[mask]).max()) < 1e-3


def test_inversion_works_in_chunks_of_the_map_budget(cf_fixed):
    # x rows go _CHUNK_PAIRS kernel entries at a time: 511 rows of 513 t, 4 MiB,
    # in one buffer that every chunk reuses (two at once traced 8.3 MiB)
    phi, _, _ = cf_fixed
    tracemalloc.start()
    try:
        invert_cf(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_inversion_kernel_made_in_place_changes_no_bit(cf_fixed):
    # exp(-i x t) exponentiated in place gives the bits of exp(-1j * outer(x, t)),
    # without its float outer product and second complex array
    phi, _, _ = cf_fixed
    ts = phi.xs
    x = ts  # phi's own nodes serve as any Grid's
    wt = np.full(ts.size, phi.dx)
    wt[0] = wt[-1] = 0.5 * phi.dx
    chunk = cf_solver._CHUNK_PAIRS // ts.size
    for k in (0, 2, 4):
        coef = wt * (-1j * ts) ** k * phi.values
        want = np.concatenate([(np.exp(-1j * np.outer(x[i:i + chunk], ts)) @ coef).real
                               for i in range(0, x.size, chunk)]) / math.pi
        assert np.array_equal(invert_cf(phi, k, phi).values, want), k


def test_inversion_rejects_fat_tails():
    # the sinc start decays like 1/t; its truncation tail cannot be certified
    with pytest.raises(ValueError, match="tail"):
        invert_cf(uniform_cf())


def test_invert_rejects_bad_derivative_order(cf_fixed):
    phi, _, _ = cf_fixed
    with pytest.raises(ValueError):
        invert_cf(phi, k=-1)


def test_csv_formats(cf_fixed, tmp_path):
    # phi as the CLI writes it: t,re,im rows whose %.17g values read back exactly
    phi, _, _ = cf_fixed
    text = _csv(["t,re,im"], phi.xs, phi.values.real, phi.values.imag)
    lines = text.strip().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == phi.n + 1
    t0, re0, im0 = (float(v) for v in lines[1].split(","))
    assert (t0, re0, im0) == (0.0, 1.0, 0.0)
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.array_equal(data[:, 1] + 1j * data[:, 2], phi.values)

    # invert: an x,f header for the density, '# k=K' then x,fk for derivatives
    out_path = tmp_path / "f.csv"
    args = ["--output", str(out_path), "invert", "--t-max", "30",
            "--grid-size", "256", "--tol", "1e-6",
            "--x-min", "-1", "--x-max", "0.5", "--dx", "0.375"]
    for k, header in ((0, ["x,f"]), (1, ["# k=1", "x,fk"])):
        assert main(args + ["--k", str(k)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[:len(header)] == header
        assert len(lines) == len(header) + 5
