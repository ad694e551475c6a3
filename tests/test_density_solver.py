"""Density map and its fixed point on the grid."""

import math
import warnings

import numpy as np
import pytest

from qslimit import density_solver
from qslimit.core_numerics import Grid, IterationError
from qslimit.density_solver import (
    DensityGrid,
    apply_T,
    cdf,
    convergence_report,
    gaussian_density,
    geometric_tail,
    iterate_density,
    uniform_density,
)
from qslimit.moments import VARIANCE
from qslimit.report import check_excluded_claims

G_SQUARED = (7.0 - 2.0 * math.pi**2 / 3.0) / 3.0


def test_initial_densities_are_normalized():
    for f in (gaussian_density(), uniform_density()):
        assert f.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(f.values >= 0.0)


def test_density_grid_validation():
    with pytest.raises(ValueError, match="cover"):
        DensityGrid(0.0, 0.005, np.ones(201))  # misses [-2, 4]
    vals = np.full(2001, 0.1)
    vals[3] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        DensityGrid(-4.0, 0.005, vals)
    with pytest.raises(ValueError, match="mass"):
        DensityGrid(-4.0, 0.005, np.full(2001, 0.2))
    with pytest.raises(ValueError, match="finite"):  # the Grid checks run first
        DensityGrid(-4.0, 0.005, np.full(2001, np.nan))
    f = gaussian_density()
    assert isinstance(f, Grid) and f.grid is f


def test_map_preserves_the_mean():
    out = apply_T(gaussian_density())
    assert abs(out.mean()) < 2e-3


def test_map_variance_action_on_a_narrow_gaussian():
    # var(Tf) = (2/3) var(f) + int g^2
    out = apply_T(gaussian_density(var=0.05**2))
    assert out.variance() == pytest.approx((2.0 / 3.0) * 0.0025 + G_SQUARED,
                                           abs=2e-3)


def test_map_requires_enough_u_nodes():
    # at most 1024: the Legendre rule's dense matrix is capped like a grid, 1024^2 = 2**20
    for u_nodes in (1, 1025):
        with pytest.raises(ValueError, match=r"\[2, 1024\]"):
            apply_T(gaussian_density(), u_nodes=u_nodes)


def test_map_warns_when_clipping_spikes():
    with pytest.warns(RuntimeWarning, match="clipped"):
        apply_T(gaussian_density(var=0.015**2))


def test_map_rejects_mass_escape():
    # a law parked against the right edge pushes mass off the grid
    with pytest.raises(ValueError, match="losing probability"):
        apply_T(uniform_density(a=5.0, b=6.0))


def _on(f, lo, hi):
    """The density's values at the grid points in [lo, hi]."""
    return f.values[(f.xs >= lo) & (f.xs <= hi)]


def test_one_sweep_spreads_the_support():
    u0 = uniform_density()
    assert np.any(u0.values == 0.0)          # zeros outside [-1, 1]
    assert np.all(_on(u0, -0.99, 0.99) > 0.0)
    assert np.all(_on(u0, 1.01, 1.9) == 0.0)
    u1 = apply_T(u0)
    lo = -2.0 * math.log(2.0)                # = -1 - (2 ln 2 - 1)
    assert np.all(_on(u1, lo + 0.02, 1.9) > 0.0)


def test_mean_stays_pinned_along_the_iteration():
    f = gaussian_density()
    for _ in range(5):
        f = apply_T(f)
        assert abs(f.mean()) < 5e-3


def test_iterate_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        iterate_density(gaussian_density(), tol=0.0)


def test_iteration_error_carries_history():
    with pytest.raises(IterationError) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            iterate_density(gaussian_density(), max_iter=2)
    assert len(err.value.history) == 2


def _contract_to(target, ratio):
    """A stand-in for apply_T: the convex step f -> target + ratio (f - target)."""
    def step(f, u_nodes):
        values = target.values + ratio * (f.values - target.values)
        return DensityGrid(f.x0, f.dx, values)
    return step


def test_slow_contraction_warns_not_geometric(monkeypatch):
    # the diffs of this map shrink by exactly `ratio` per sweep
    target, start = gaussian_density(dx=0.01), uniform_density(dx=0.01)
    monkeypatch.setattr(density_solver, "apply_T", _contract_to(target, 0.97))
    with pytest.warns(RuntimeWarning, match="not uniformly geometric"):
        _, iters, history = iterate_density(start, max_iter=1000)
    assert 100 < iters < 1000 and history[-1] < 1e-6
    monkeypatch.setattr(density_solver, "apply_T", _contract_to(target, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, iters, _ = iterate_density(start, max_iter=1000)
    assert 6 <= iters < 100


def test_warning_and_report_read_one_ratio_window(monkeypatch):
    # the 5th-from-last ratio (0.96) lies outside the four-ratio window
    fast = [1.0, 0.96, 0.48, 0.24, 0.12, 0.06]
    slow = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.06]
    f0 = gaussian_density(dx=0.01)
    for history, geometric in ((fast, True), (slow, False)):
        monkeypatch.setattr(density_solver, "fixed_point",
                            lambda *args, h=history: (f0, len(h), h))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            iterate_density(f0)
        warned = any("not uniformly geometric" in str(w.message) for w in caught)
        assert warned == (not geometric)
        assert geometric_tail(history)[1] == geometric
        detail = check_excluded_claims({"density_history": history}).detail
        assert f"geometric={geometric}" in detail


def test_fixed_point_statistics(density_fixed):
    dens, iters, history = density_fixed
    assert iters <= 60
    assert history[-1] < 1e-6
    assert abs(dens.mean()) < 5e-3
    assert dens.variance() == pytest.approx(VARIANCE, abs=5e-3)
    assert dens.mass() == pytest.approx(1.0, abs=1e-9)
    assert 0.55 < float(dens.values.max()) < 0.75


def test_fixed_point_positive_in_the_bulk(density_fixed):
    dens, _, _ = density_fixed
    bulk = _on(dens, -1.0, 3.0)
    assert bulk.size >= 800 and np.all(bulk > 0.0)


def test_uniform_start_reaches_the_same_fixed_point(density_fixed):
    dens, _, _ = density_fixed
    alt, iters, history = iterate_density(uniform_density())
    assert iters <= 60
    assert history[-1] < 1e-6
    assert float(np.abs(alt.values - dens.values).max()) < 1e-4


def test_fixed_point_is_smooth(density_fixed):
    dens, _, _ = density_fixed
    second = np.abs(np.diff(dens.values, 2)) / dens.dx**2
    assert float(second.max()) < 10.0


def test_cdf_shape(density_fixed):
    dens, _, _ = density_fixed
    F = cdf(dens)
    assert F.values[0] == pytest.approx(0.0, abs=2e-3)
    assert F.values[-1] == pytest.approx(1.0, abs=2e-3)
    assert np.all(np.diff(F.values) >= -1e-12)
    median = float(F.xs[np.searchsorted(F.values, 0.5)])
    assert -0.4 < median < 0.2


def test_convergence_report_keys(density_fixed):
    dens, iters, history = density_fixed
    rep = convergence_report(dens, history)
    assert set(rep) == {"iterations", "diff_history", "mean", "variance",
                        "max_f", "min_f"}
    assert rep["iterations"] == iters
    assert rep["diff_history"] == list(history)
