import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qslimit.core_numerics import (
    MAX_GRID_POINTS,
    Grid,
    IterationError,
    QuadratureError,
    cubic_end,
    fixed_point,
    g_values,
    h_complex,
    integrate,
    panel_rule,
)

# Gauss-Legendre points on each panel of panel_rule
PANEL_ORDER = 16

# int_0^1 g(u)^2 du has the closed form (7 - 2 pi^2 / 3) / 3
G_SQUARED = (7.0 - 2.0 * math.pi**2 / 3.0) / 3.0


def h_values(y, z, u):
    """The tilted toll u y + (1-u) z + g(u) on [0, 1] in real arithmetic; at
    z = 0 it is the oracle for h_complex(y, u).  h(y, z, 0) = z + 1,
    h(y, z, 1) = y + 1, and h'' = 2/(u(1-u)) >= 8, the curvature the van der
    Corput rung rests on."""
    u = np.asarray(u, dtype=np.float64)
    return u * y + (1.0 - u) * z + g_values(u)


def test_integrate_reference_values():
    assert integrate(lambda u: np.asarray(u), 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert integrate(g_values, 0.0, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert integrate(lambda u: g_values(u) ** 2, 0.0, 1.0) == pytest.approx(
        G_SQUARED, abs=1e-6)
    # a complex integrand is one pass and comes back complex
    omega = 7.3
    got = integrate(lambda u: np.exp(1j * omega * u), 0.0, 1.0)
    assert isinstance(got, complex)
    assert abs(got - (np.exp(1j * omega) - 1.0) / (1j * omega)) <= 1e-10
    assert type(integrate(np.cos, 0.0, 1.0)) is float


def test_integrate_g_squared_tight():
    got = integrate(lambda u: g_values(u) ** 2, 0.0, 1.0, abs_tol=1e-12)
    assert got == pytest.approx(G_SQUARED, abs=1e-12)


def test_integrate_budget_exhaustion():
    # NaN panels never meet their budget, so bisection runs into the panel cap
    with pytest.raises(QuadratureError, match="200000 panels"):
        integrate(lambda x: np.full(x.shape, np.nan), 0.0, 1.0)


@pytest.mark.parametrize("abs_tol", [0.0, math.nan, math.inf])
def test_integrate_rejects_bad_tolerance(abs_tol):
    with pytest.raises(ValueError, match="abs_tol"):
        integrate(np.cos, 0.0, 1.0, abs_tol)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_integrate_linear_in_integrand(a, b):
    tol = 1e-10
    lhs = integrate(lambda u: a * g_values(u) + b * np.asarray(u), 0.0, 1.0, tol)
    rhs = a * integrate(g_values, 0.0, 1.0, tol) \
        + b * integrate(lambda u: np.asarray(u), 0.0, 1.0, tol)
    assert abs(lhs - rhs) <= 3.0 * tol * (1.0 + abs(a) + abs(b))


def test_panel_rule_cuts_each_interval_into_its_panel_count():
    edges = np.array([0.0, 0.25, 1.0, 3.0])
    (u, w), (u2, w2) = panel_rule([edges], [1, 3, 7])
    assert u.size == PANEL_ORDER * 11 and u2.size == 2 * u.size
    assert np.all(np.diff(u) > 0.0) and edges[0] < u[0] and u[-1] < edges[-1]
    # 16-point Gauss-Legendre is exact to degree 31 on each panel
    assert w @ u**7 == pytest.approx(3.0**8 / 8.0, rel=1e-14)
    # the doubled rule has exactly twice the rule's panels in every interval
    per_interval = [np.bincount(np.searchsorted(edges, x), minlength=edges.size)
                    for x in (u, u2)]
    assert np.array_equal(per_interval[1], 2 * per_interval[0])
    assert np.array_equal(per_interval[0][1:] // PANEL_ORDER, [1, 3, 7])
    # equal panels: the 3 of [0.25, 1] are each a quarter long
    quarters = w[PANEL_ORDER:4 * PANEL_ORDER].reshape(3, -1).sum(axis=1)
    assert np.allclose(quarters, 0.25, rtol=1e-15, atol=0.0)
    assert w2 @ np.exp(5j * u2) == pytest.approx((np.exp(15j) - 1.0) / 5j, abs=1e-14)


def test_panel_rule_along_a_complex_path():
    # 0 -> -i/2 -> 1 - i/2 -> 1: the weights carry du, so a polynomial
    # integrates to its exact value whatever the path
    edges = np.array([0.0, -0.5j, 1.0 - 0.5j, 1.0])
    for (u, w), panels in zip(panel_rule([edges], [1, 4, 1]), (6, 12)):
        assert u.size == PANEL_ORDER * panels and np.iscomplexobj(w)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w @ u**5 == pytest.approx(1.0 / 6.0, abs=1e-15)
    # several paths: each rule is the paths' rules end to end, bit for bit
    real = np.array([0.0, 0.25, 1.0])
    joint = panel_rule([edges, real], [1, 4, 1, 1, 7])
    apart = zip(panel_rule([edges], [1, 4, 1]), panel_rule([real], [1, 7]))
    for (u, w), ((u1, w1), (u2, w2)) in zip(joint, apart):
        assert np.array_equal(u, np.concatenate([u1, u2]))
        assert np.array_equal(w, np.concatenate([w1, w2]))


def test_panel_rule_checks_its_cap_before_allocating():
    edges = [np.array([0.0, 1.0])]
    # the cap is on the doubled rule: the largest pair allowed has MAX_GRID_POINTS
    # doubled nodes, its rule half as many
    top = MAX_GRID_POINTS // (2 * PANEL_ORDER)  # panels of the largest rule allowed
    (u, _), (u2, _) = panel_rule(edges, [top])
    assert u2.size == MAX_GRID_POINTS and u.size == MAX_GRID_POINTS // 2
    # one panel past the cap, and far past anything allocatable: a ValueError, not
    # a MemoryError; a count spread over intervals counts alike
    for per in ([top + 1], [top // 2, top // 2 + 1], [2**40]):
        with pytest.raises(ValueError, match="over the cap of 1048576"):
            panel_rule([np.linspace(0.0, 1.0, len(per) + 1)], per)


@pytest.mark.parametrize("end, far", [
    (0.0, 1.0 / 16.0),          # a real stretch leaving its end
    (1.0, 15.0 / 16.0),         # and one arriving at it
    (0.0, -1.0j / 16.0),        # the van der Corput path's first leg
    (1.0, 1.0 + 1.0j / 16.0),   # and its last
    (0.25 + 0.5j, 0.2875 + 0.45j),
])
def test_cubic_end_absorbs_a_log_singularity(end, far):
    # two panels from the end, as vdc_cf takes them, and the doubled rule; the
    # rule runs along the path either way.  With d = |u - end|, d ln d becomes
    # r^5 ln r in the stretch's coordinate, and u^k a polynomial of degree 3k + 2
    length = abs(far - end)
    for a, b in ((end, far), (far, end)):
        for u, w in panel_rule([np.array([a, b])], [2]):
            x, wx = cubic_end(u, w, end, far)
            assert abs(wx.sum() - (b - a)) <= 1e-16
            d = np.abs(x - end)
            exact = (b - a) / length * 0.5 * length**2 * (math.log(length) - 0.5)
            assert abs(wx @ (d * np.log(d)) - exact) <= 1e-15
            for k in range(9):
                assert abs(wx @ x**k - (b ** (k + 1) - a ** (k + 1)) / (k + 1)) <= 1e-15
    # the map keeps the stretch's ends and crowds the nodes toward `end`
    x, _ = cubic_end(np.array([end, far, 0.5 * (end + far)]), np.ones(3), end, far)
    assert x[0] == end and abs(x[1] - far) <= 1e-17
    assert abs(x[2] - end) == pytest.approx(0.125 * length, rel=1e-15)


def test_g_reference_values():
    assert g_values(0.5) == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-15)
    quarter = 0.5 * math.log(0.25) + 1.5 * math.log(0.75) + 1.0
    assert g_values(0.25) == pytest.approx(quarter, abs=1e-12)
    # g is continuous on the closed interval, with its limit 1 at both ends
    with np.errstate(all="raise"):
        assert g_values(0.0) == g_values(1.0) == 1.0
        assert np.array_equal(h_values(0.7, -2.3, [0.0, 1.0]), [-2.3 + 1.0, 0.7 + 1.0])


@given(st.floats(min_value=0.5, max_value=1.0 - 1e-9))
def test_g_symmetry_is_bitwise(u):
    # for u >= 1/2 the complement 1-u is exact (Sterbenz), so the symmetric
    # evaluation order must reproduce the value bit for bit
    assert g_values(u) == g_values(1.0 - u)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_g_symmetry_everywhere(u):
    # below 1/2 the complement itself rounds, so exact equality is only
    # guaranteed up to that one rounding
    assert g_values(u) == pytest.approx(g_values(1.0 - u), abs=1e-14)


@pytest.mark.parametrize("y, z", [(0.0, 0.0), (3.0, -2.0), (-1.5, 4.0), (5.0, 5.0)])
def test_complex_h_is_h_on_the_real_interval(y, z):
    s = abs(y - z)  # the s at which vdc_cf(y, z, t) evaluates h
    us = np.linspace(0.0, 1.0, 10_001)[1:-1]
    real = h_values(s, 0.0, us)
    continued = h_complex(s, us)
    assert np.all(continued.imag == 0.0)
    assert np.max(np.abs(continued.real / real - 1.0)) <= 1e-15


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_complex_h_is_exact_at_the_ends(s):
    # both entropy terms vanish exactly at their zero, with no warning
    with np.errstate(all="raise"):
        assert np.array_equal(h_complex(s, [0.0, 1.0]), [1.0, s + 1.0])


def test_complex_h_is_conjugate_symmetric():
    rng = np.random.Generator(np.random.PCG64(5))
    p = rng.uniform(-1.0, 2.0, 1000) + 1j * rng.uniform(-1.0, 1.0, 1000)
    for s in (1.7, -2.3):
        assert np.array_equal(h_complex(s, np.conj(p)), np.conj(h_complex(s, p)))


def test_h_reduces_to_g_on_the_diagonal():
    us = np.array([0.1, 0.37, 0.5, 0.9])
    assert np.array_equal(h_values(0.0, 0.0, us), g_values(us))


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.05, max_value=0.95))
def test_h_second_difference_stays_convex(y, z, u):
    # d^2h/du^2 = 2/(u(1-u)) >= 8, so the discrete proxy clears 7.9 easily
    d = 1e-3
    h = h_values(y, z, np.array([u - d, u, u + d]))
    second = (h[2] - 2.0 * h[1] + h[0]) / d**2
    assert second >= 7.9


def _logistic_stationary_point(y, z):
    # h'(u) = y - z + 2 ln(u/(1-u)) vanishes here
    return 1.0 / (1.0 + math.exp((y - z) / 2.0))


def test_h_stationary_point_example():
    # the minimizer of h(2, 0, .) solves u/(1-u) = e^{-1}, i.e. u = 1/(1+e)
    u_star = _logistic_stationary_point(2.0, 0.0)
    assert u_star == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)
    us = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
    hs = h_values(2.0, 0.0, us)
    assert abs(us[np.argmin(hs)] - u_star) < 1e-4


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_h_stationary_point_is_a_minimum(y, z):
    u_star = _logistic_stationary_point(y, z)
    if not 1e-3 < u_star < 1.0 - 1e-3:
        return
    h = h_values(y, z, np.array([u_star - 1e-3, u_star, u_star + 1e-3]))
    assert h[0] >= h[1] and h[2] >= h[1]


def test_real_grid_basics():
    grid = Grid.domain(-1.0, 1.0, 0.5)
    assert grid.n == 5
    assert grid.values.dtype == np.float64
    assert grid.x_max == pytest.approx(1.0)
    assert np.array_equal(grid.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        grid.values[0] = 2.0  # frozen storage


def test_complex_grid_keeps_its_dtype():
    grid = Grid(0.0, 0.25, [1.0 + 0.0j, 0.5 - 0.5j, 0.0j])
    assert grid.values.dtype == np.complex128
    assert grid.values[1] == 0.5 - 0.5j
    assert Grid(0.0, 0.25, np.arange(3)).values.dtype == np.float64


def test_real_grid_rejects_non_finite():
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, np.array([1.0, np.nan, 3.0]))
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, np.array([1.0, complex(0.0, np.inf)]))


@pytest.mark.parametrize("x0, dx, values", [
    (0.0, 0.0, [1.0]), (0.0, -0.1, [1.0]), (0.0, np.nan, [1.0]),
    (np.inf, 0.1, [1.0]), (0.0, 0.1, []), (0.0, 0.1, [[1.0, 2.0]]),
    # finite x0 and dx, but a last node x0 + dx * (n - 1) that overflows to inf
    (0.0, 1e308, [1.0, 0.5, 0.5]), (-1e308, 1e308, [0.0] * 4),
])
def test_grid_rejects_bad_shape_and_spacing(x0, dx, values):
    with pytest.raises(ValueError):
        Grid(x0, dx, values)


@pytest.mark.parametrize("x_min, x_max, dx", [
    (-1.0, 1.0, 0.0), (-1.0, 1.0, -0.5), (-1.0, 1.0, np.nan), (-1.0, 1.0, np.inf),
    (1.0, -1.0, 0.5), (-np.inf, 1.0, 0.5), (-1.0, np.nan, 0.5),
])
def test_grid_domain_rejects_bad_windows(x_min, x_max, dx):
    with pytest.raises(ValueError):
        Grid.domain(x_min, x_max, dx)


class _Point:
    def __init__(self, x):
        self.values = np.array([x])


def test_fixed_point_converges_and_reports_its_history():
    x, iters, history = fixed_point(lambda p: _Point(0.5 * p.values[0] + 1.0),
                                    _Point(0.0), max_iter=100, tol=1e-9, name="halving")
    assert x.values[0] == pytest.approx(2.0, abs=1e-8)
    assert iters == len(history)
    assert history[-1] < 1e-9 <= history[-2]
    assert all(b == pytest.approx(0.5 * a) for a, b in zip(history, history[1:]))


def test_fixed_point_runs_out_of_budget():
    with pytest.raises(IterationError, match="halving iteration did not reach") as err:
        fixed_point(lambda p: _Point(0.5 * p.values[0] + 1.0), _Point(0.0),
                    max_iter=3, tol=1e-9, name="halving")
    assert err.value.history == [1.0, 0.5, 0.25]


def test_fixed_point_stops_when_it_contracts_too_slowly():
    # the residual falls by exactly 0.97 per sweep: from 0.06, tol 1e-8 takes
    # about 513 sweeps, so a budget of 100 is refused as soon as five falls
    # give the rate, while a budget of 600 runs to tol
    def step(p):
        return _Point(0.97 * p.values[0] + 0.06)

    with pytest.raises(IterationError, match="slow iteration contracts too slowly") as err:
        fixed_point(step, _Point(0.0), max_iter=100, tol=1e-8, name="slow")
    assert "a factor of 0.97 per sweep" in str(err.value)
    assert len(err.value.history) == 6
    x, iters, history = fixed_point(step, _Point(0.0), max_iter=600, tol=1e-8, name="slow")
    assert 500 < iters < 600 and history[-1] < 1e-8
    assert x.values[0] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("max_iter, tol", [
    (10, 0.0), (10, -1e-3), (10, np.nan), (10, np.inf), (0, 1e-3), (-1, 1e-3),
])
def test_fixed_point_rejects_bad_arguments(max_iter, tol):
    with pytest.raises(ValueError):
        fixed_point(lambda p: p, _Point(0.0), max_iter=max_iter, tol=tol, name="x")


class _Vec:
    def __init__(self, v):
        self.values = np.asarray(v, dtype=np.float64)


def _affine_contraction(dim=8):
    # symmetric, eigenvalues spread over [-0.9, 0.9]: spectral radius 0.9
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ np.diag(np.linspace(-0.9, 0.9, dim)) @ q.T
    b = rng.standard_normal(dim)
    return a, b, np.linalg.solve(np.eye(dim) - a, b)


def test_anderson_beats_plain_on_an_affine_contraction():
    a, b, exact = _affine_contraction()
    tol = 1e-10
    runs = {}
    for project in (None, _Vec):
        x, iters, history = fixed_point(lambda p: _Vec(a @ p.values + b), _Vec(np.zeros(8)),
                                        max_iter=1000, tol=tol, name="affine",
                                        project=project)
        assert iters == len(history) and history[-1] < tol
        # |M x - x*| <= |A| |(I - A)^-1| |M x - x| <= 0.9 * 10 * tol
        assert np.abs(x.values - exact).max() <= 10.0 * tol
        runs[project] = iters
    assert runs[_Vec] <= runs[None] / 3


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_anderson_is_exact_on_a_small_affine_map(dim):
    # with the whole space inside the window, Anderson mixing on an affine
    # map is equivalent to GMRES (Walker & Ni 2011): it ends after dim + 2 evaluations
    a, b, exact = _affine_contraction(dim)
    x, iters, _ = fixed_point(lambda p: _Vec(a @ p.values + b), _Vec(np.zeros(dim)),
                              max_iter=100, tol=1e-12, name="small affine", project=_Vec)
    assert iters <= dim + 2
    assert np.abs(x.values - exact).max() <= 1e-11


def test_fixed_point_stops_at_a_noise_floor():
    # a rough 1e-6 perturbation of the contraction: no sweep gets below ~1e-7
    a, b, _ = _affine_contraction()

    def step(p):
        return _Vec(a @ p.values + b + 1e-6 * np.sin(1e9 * p.values))

    for project in (_Vec, None):
        with pytest.raises(IterationError, match="discretization floor") as err:
            fixed_point(step, _Vec(np.zeros(8)), max_iter=1000, tol=1e-10,
                        name="jittered", project=project)
        history = err.value.history
        assert len(history) < 200
        best = int(np.argmin(history))
        assert len(history) == best + 6  # five sweeps without a new best
        assert min(history) > 1e-8
