import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from qslimit.core_numerics import (
    Grid,
    IterationError,
    QuadratureError,
    QuadratureSpec,
    fixed_point,
    g_func,
    g_values,
    h_values,
    integrate,
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
    spec = QuadratureSpec(abs_tol=1e-12, max_subdivisions=200_000)
    got = integrate(lambda u: g_values(u) ** 2, 0.0, 1.0, spec)
    assert got == pytest.approx(G_SQUARED, abs=1e-12)


def test_integrate_budget_exhaustion():
    spec = QuadratureSpec(abs_tol=1e-12, max_subdivisions=3)
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.sin(50.0 / np.maximum(x, 1e-30)), 0.0, 1.0, spec)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0, max_subdivisions=100)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-10, max_subdivisions=0)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_integrate_linear_in_integrand(a, b):
    spec = QuadratureSpec(abs_tol=1e-10, max_subdivisions=10_000)
    lhs = integrate(lambda u: a * g_values(u) + b * np.asarray(u), 0.0, 1.0, spec)
    rhs = a * integrate(g_values, 0.0, 1.0, spec) \
        + b * integrate(lambda u: np.asarray(u), 0.0, 1.0, spec)
    assert abs(lhs - rhs) <= 3.0 * spec.abs_tol * (1.0 + abs(a) + abs(b))


def test_g_reference_values():
    assert g_func(0.5) == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-15)
    assert g_func(0.0) == 1.0
    assert g_func(1.0) == 1.0
    quarter = 0.5 * math.log(0.25) + 1.5 * math.log(0.75) + 1.0
    assert g_func(0.25) == pytest.approx(quarter, abs=1e-12)


def test_g_domain():
    with pytest.raises(ValueError):
        g_func(-0.1)
    with pytest.raises(ValueError):
        g_func(1.1)


def test_g_vectorized_matches_scalar():
    us = np.linspace(0.0, 1.0, 101)[1:-1]
    assert np.array_equal(g_values(us), np.array([g_func(float(u)) for u in us]))


@given(st.floats(min_value=0.5, max_value=1.0 - 1e-9))
def test_g_symmetry_is_bitwise(u):
    # for u >= 1/2 the complement 1-u is exact (Sterbenz), so the symmetric
    # evaluation order must reproduce the value bit for bit
    assert g_func(u) == g_func(1.0 - u)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_g_symmetry_everywhere(u):
    # below 1/2 the complement itself rounds, so exact equality is only
    # guaranteed up to that one rounding
    assert g_func(u) == pytest.approx(g_func(1.0 - u), abs=1e-14)


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
