import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qslimit.core_numerics import (
    DYADIC_EDGES,
    MAX_GRID_POINTS,
    PANEL_ORDER,
    Grid,
    IterationError,
    QuadratureError,
    fixed_point,
    g_values,
    h_values,
    integrate,
    panel_rule,
)

# int_0^1 g(u)^2 du has the closed form (7 - 2 pi^2 / 3) / 3
G_SQUARED = (7.0 - 2.0 * math.pi**2 / 3.0) / 3.0


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


def test_panel_rule_splits_each_interval_by_its_phase():
    edges = np.array([0.0, 0.25, 1.0, 3.0])
    phase = np.array([0.5, 7.0, 20.0])
    budget = 3.0
    u, w = panel_rule(edges, phase, budget)
    assert u.size == PANEL_ORDER * sum(math.ceil(p / budget) for p in phase)  # 16 * 11
    assert np.all(np.diff(u) > 0.0) and edges[0] < u[0] and u[-1] < edges[-1]
    # 16-point Gauss-Legendre is exact to degree 31 on each panel
    assert w @ u**7 == pytest.approx(3.0**8 / 8.0, rel=1e-14)
    u2, w2 = panel_rule(edges, phase, budget, refine=2)
    assert u2.size == 2 * u.size
    assert w2 @ np.exp(5j * u2) == pytest.approx((np.exp(15j) - 1.0) / 5j, abs=1e-14)


def test_panel_rule_checks_its_cap_before_allocating():
    edges = [0.0, 1.0]
    top = MAX_GRID_POINTS // PANEL_ORDER  # panels of the largest rule allowed
    assert panel_rule(edges, [top * 1.0], 1.0)[0].size == MAX_GRID_POINTS
    # past the cap, and far past anything allocatable: a ValueError, not a MemoryError
    for phase in (top + 1.0, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="cap"):
            panel_rule(edges, [phase], 1.0)


def test_graded_ladder_resolves_the_log_singularity():
    # one panel per interval: the ladder alone carries 2u ln u to 1e-15
    u, w = panel_rule(DYADIC_EDGES, np.zeros(DYADIC_EDGES.size - 1), 1.0)
    assert DYADIC_EDGES[0] == 0.0 and DYADIC_EDGES[-1] == 0.5
    f = 2.0 * u * np.log(u)
    assert abs(w @ f - (0.25 * math.log(0.5) - 0.125)) <= 1e-15
    # each interval from [4^-9, 4^-8] up to 2e-15 relative (graded by 8, not 4,
    # it is 8e-15), and the end panel [0, 4^-9] to 2e-16 absolute
    inner = DYADIC_EDGES[1:]
    antiderivative = np.concatenate([[0.0], inner**2 * (np.log(inner) - 0.5)])
    per_interval = (w * f).reshape(-1, PANEL_ORDER).sum(axis=1)
    exact = np.diff(antiderivative)
    assert abs(per_interval[0] - exact[0]) <= 2e-16
    assert np.max(np.abs(per_interval[1:] / exact[1:] - 1.0)) <= 2e-15


def test_g_reference_values():
    assert g_values(0.5) == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-15)
    quarter = 0.5 * math.log(0.25) + 1.5 * math.log(0.75) + 1.0
    assert g_values(0.25) == pytest.approx(quarter, abs=1e-12)


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
