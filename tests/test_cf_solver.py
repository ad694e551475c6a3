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
        CfGrid(0.0, 10.0, np.array([0.9 + 0.0j, 0.5]))
    bad = np.ones(11, dtype=complex)
    bad[3] = 1.5
    with pytest.raises(ValueError, match="modulus"):
        CfGrid(0.0, 1.0, bad)
    with pytest.raises(ValueError, match="at least 2 points"):
        CfGrid(0.0, 10.0, np.ones(1, dtype=complex))
    with pytest.raises(ValueError, match="t = 0"):
        CfGrid(0.5, 1.0, np.ones(11, dtype=complex))
    with pytest.raises(ValueError, match="dx > 0"):  # the Grid checks run first
        CfGrid(0.0, 0.0, np.ones(11, dtype=complex))
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match="2 to"):
            init_gaussian_cf(t_max=10.0, n=n)
    # the spline divides by the spacing, so it must be a normal float
    with pytest.raises(ValueError, match=r"t_max=1.01e-320 over 1025 grid points gives a "
                                         r"spacing of 9.88e-324, below the smallest normal"):
        init_gaussian_cf(t_max=1e-320)
    with pytest.raises(ValueError, match=r"t_max=4e-310 over 5 grid points gives a spacing"):
        CfGrid(0.0, 1e-310, np.ones(5, dtype=complex))
    # the smallest normal spacings are usable: h**2 underflows there, h alone does not
    for n in (2, 5, 64):
        tiny = cf_map(init_gaussian_cf(t_max=1e-300, n=n))
        assert tiny.dx == 1e-300 / (n - 1) and np.all(np.isfinite(tiny.values))


def test_spline_matches_scipys_cubic_spline():
    from scipy.interpolate import CubicSpline

    # scipy's line through 2 knots, which the reflected grid never reaches; a grid
    # of 2 points reflects to 3 knots (scipy's parabola), from 3 points on the
    # slopes come from the Thomas sweep
    assert cf_solver._not_a_knot_slopes(np.array([0.25 - 1.5j])).tolist() == [0.25 - 1.5j] * 2
    rng = np.random.default_rng(2)
    grids = [CfGrid(0.0, 7.0 / (n - 1), np.concatenate(
        [[1.0], rng.uniform(-0.7, 0.7, n - 1) + 1j * rng.uniform(-0.7, 0.7, n - 1)]))
        for n in range(2, 33)]
    seed = init_gaussian_cf()
    r = cf_solver._REFLECT
    for phi in grids + [seed, cf_map(seed), uniform_cf()]:
        ext_t = np.concatenate([-phi.xs[r:0:-1], phi.xs])
        ext_v = np.concatenate([np.conj(phi.values[r:0:-1]), phi.values])
        # every knot, those below t = 0 included, and every interval's midpoint
        x = np.concatenate([ext_t, 0.5 * (ext_t[1:] + ext_t[:-1])])
        want = CubicSpline(ext_t, ext_v)(x)
        got = cf_solver._cf_spline(phi.xs, phi.values)(x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), phi.n


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
    # coarse, takes |M phi| past the largest |spline|^2; a spline through
    # 1, 1, -1, -1, ... bulges above 1 next to t = 0, where the phase is flat
    square = CfGrid(0.0, 1e-3, np.resize([1.0, 1.0, -1.0, -1.0], 16) + 0.0j)
    with pytest.raises(QuadratureError, match=r"cf_map overshot the unit disk by 1\.9..e-01; "
                                              r"the iterate's cubic spline bulges past the "
                                              r"unit circle between grid points"):
        cf_map(square)


def test_u_rule_on_the_graded_ladder():
    # one panel on each of the 8 intervals from 0 to 1/32, then 2, 2, 3 and 4 on
    # the octaves to 1/2; the doubled rule has twice as many
    rule, fine = cf_solver._u_rules(25.0)
    assert rule[0].size == 304 and fine[0].size == 608


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
    # the end (at t = T the spline's end condition alone leaves 1.8e-12)
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
    with pytest.raises(ValueError, match="need 402653184 spline pairs per sweep, "
                                         "over the cap of 67108864"):
        cf_map(init_gaussian_cf(50.0, 2**20))
    with pytest.raises(ValueError, match=r"would need 3\.65e\+06 nodes, over the cap"):
        cf_map(init_gaussian_cf(3e5, 4096))


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
    # dt ~ 0.1 leaves a residual floor near 5e-8; mixing past it amplifies noise
    with pytest.raises(IterationError, match="discretization floor") as err:
        iterate_cf(init_gaussian_cf(t_max=50.0, n=512), tol=1e-8)
    assert len(err.value.history) <= 30
    assert min(err.value.history) > 1e-8


def test_fixed_point_reached(cf_fixed):
    phi, iters, diff = cf_fixed
    assert iters <= 15
    assert diff < 1e-8
    assert phi.values[0] == 1.0 + 0.0j
    assert np.all(np.abs(phi.values) <= 1.0 + 1e-9)


def test_fixed_point_low_order_moments(cf_fixed):
    phi, _, _ = cf_fixed
    dt = phi.dx
    # phi(-t) = conj(phi(t)): central differences at 0 need only the t>0 side
    second = (2.0 - 2.0 * phi.values[1].real) / dt**2
    assert second == pytest.approx(VARIANCE, abs=1e-3)
    slope_im = phi.values[1].imag / dt
    assert abs(slope_im) < 1e-4  # mean-zero law


def test_both_starts_land_on_the_same_fixed_point(cf_fixed):
    phi_g, _, _ = cf_fixed
    phi_u, iters_u, history_u = iterate_cf(uniform_cf(), tol=1e-8)
    assert iters_u <= 200
    assert history_u[-1] < 1e-8
    assert np.max(np.abs(phi_u.values - phi_g.values)) < 1e-6


def test_the_default_grid_drops_only_the_float_floor(cf_fixed):
    # the same dt on twice the span: (M phi)(t) reads phi on [0, t] alone, so the
    # longer solve adds only values below 1e-17 and moves none of the shared ones
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
    # x rows go _CHUNK_PAIRS kernel entries at a time: 255 rows of 1025 t, 4 MiB
    phi, _, _ = cf_fixed
    tracemalloc.start()
    try:
        invert_cf(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
