"""Density map and its fixed point on the grid."""

import math
import re
import warnings

import numpy as np
import pytest

from qslimit import density_solver
from qslimit.core_numerics import Grid, IterationError, fixed_point
from qslimit.density_solver import (
    DENSITY_DX,
    DENSITY_MAX_ITER,
    DENSITY_TOL,
    DENSITY_X_MAX,
    DENSITY_X_MIN,
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
from qslimit.report import check_density_fixed_point, check_excluded_claims

G_SQUARED = (7.0 - 2.0 * math.pi**2 / 3.0) / 3.0


def narrow_gaussian(var):
    """A mean-zero Gaussian start of variance var on the default window."""
    grid = Grid.domain(DENSITY_X_MIN, DENSITY_X_MAX, DENSITY_DX)
    vals = np.exp(-0.5 * grid.xs**2 / var)
    return DensityGrid(grid.x0, grid.dx, vals / np.trapezoid(vals, dx=grid.dx))


def test_initial_densities_are_normalized():
    for f in (gaussian_density(), uniform_density()):
        assert f.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(f.values >= 0.0)


def test_symmetric_uniform_start_is_centred():
    # -0.7 and 0.7 sit on the grid only up to float rounding; both ends count
    for dx in (0.005, 0.0025, 0.001):
        f = uniform_density(-0.7, 0.7, dx=dx)
        assert abs(f.mean()) < 1e-15
        assert np.count_nonzero(f.values) == round(1.4 / dx) + 1


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


def test_map_pins_the_mean_of_an_off_centre_law():
    # the narrow deposit is shifted by the input's mean, so a law parked
    # against the right edge comes back centred, with no mass off the grid
    f = uniform_density(5.0, 6.0)
    assert f.mean() == pytest.approx(5.5, abs=1e-2)
    out = apply_T(f)
    assert abs(out.mean()) < 1e-3
    assert out.variance() == pytest.approx((2.0 / 3.0) / 12.0 + G_SQUARED, abs=2e-3)


def test_map_variance_action_on_a_narrow_gaussian():
    # var(Tf) = (2/3) var(f) + int g^2
    out = apply_T(narrow_gaussian(0.05**2))
    assert out.variance() == pytest.approx((2.0 / 3.0) * 0.0025 + G_SQUARED,
                                           abs=2e-3)


def test_map_requires_enough_u_nodes():
    # at most 1024: the Legendre rule's dense matrix is capped like a grid, 1024^2 = 2**20
    for u_nodes in (1, 1025):
        with pytest.raises(ValueError, match=r"\[2, 1024\]"):
            apply_T(gaussian_density(), u_nodes=u_nodes)


def test_map_rejects_mass_escape():
    # a law split between the two window edges: its mean-zero image spreads
    # past both of them
    lo, hi = uniform_density(-4.0, -3.0), uniform_density(5.0, 6.0)
    split = DensityGrid(lo.x0, lo.dx, 0.5 * (lo.values + hi.values))
    with pytest.raises(ValueError, match=r"^mass 0\.\d+ .* losing probability"):
        apply_T(split)


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


def _exact_convolve(wide, masses):
    """np.convolve of two nonnegative factors without underflow: each is scaled
    by a power of two that brings its sum near 2^480, and the result back."""
    a = 480 - math.frexp(float(wide.sum()))[1]
    b = 480 - math.frexp(float(masses.sum()))[1]
    return np.ldexp(np.convolve(np.ldexp(wide, a), np.ldexp(masses, b)), -(a + b))


def _assert_matches_exact(got, wide, masses, start):
    """got is outputs start .. start + wide.size - 1 of the exact convolution;
    returns the least positive reference output."""
    full = _exact_convolve(wide, masses)
    pos = start + np.arange(wide.size)
    ref = np.where((pos >= 0) & (pos < full.size),
                   full[np.clip(pos, 0, full.size - 1)], 0.0)
    scale = float(wide.sum()) * float(masses.max())
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert float(np.abs(got - ref).max()) <= 1e-13 * scale
    # relative precision in the tails, absolute (a few ulps) among subnormals
    tail = got < density_solver._FFT_TAIL * scale
    ulps = masses.size * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref)[tail] <= 1e-12 * ref[tail] + ulps)
    return float(ref[ref > 0.0].min())


def _check_against_direct(calls):
    """A stand-in for _convolve that checks each call against the exact sum."""
    fft_convolve = density_solver._convolve

    def checked(wide, masses, start, work):
        assert work[1].size >= wide.size + masses.size - 1
        # _convolve scales its factors in place
        wide0, masses0 = wide.copy(), masses.copy()
        got = fft_convolve(wide, masses, start, work)
        smallest = _assert_matches_exact(got, wide0, masses0, start)
        nz = np.flatnonzero(masses0)
        calls.append((smallest, int(nz[-1] - nz[0] + 1)))
        return got
    return checked


def test_fft_convolution_matches_the_direct_sum(monkeypatch, density_fixed):
    # a converged iterate, tails down to the subnormals, and a start whose
    # compact support leaves exact zero runs in both factors; the narrow
    # deposits take the direct path, the wide ones the FFT
    dens, _, _ = density_fixed
    least = []
    for f in (dens, uniform_density()):
        calls = []
        monkeypatch.setattr(density_solver, "_convolve", _check_against_direct(calls))
        apply_T(f)
        assert len(calls) == 64
        spans = [span for _, span in calls]
        assert min(spans) <= density_solver._DIRECT_MASSES < max(spans)
        least.append(min(smallest for smallest, _ in calls))
    assert least[0] < 1e-300


@pytest.mark.parametrize("size", [200, 700])
def test_convolution_of_extreme_factors_keeps_its_tails(size):
    # wide sums to about 1e4 and starts with a zero run, then 1e-15s; the
    # masses start with subnormal 1e-310s, then an exact-zero run.  The first
    # outputs of the support are sums of products of about 1e-325 each, below
    # the least subnormal, so only the sum may round to one
    wide = np.zeros(3000)
    wide[200:300] = 1e-15
    wide[300:] = 100.0 * np.exp(-np.linspace(-20.0, 20.0, 2700) ** 2)
    masses = np.zeros(size)
    masses[:100] = 1e-310
    masses[150:] = np.exp(-np.linspace(-4.0, 4.0, size - 150) ** 2)
    assert 1e4 < wide.sum() < 1.5e4
    assert (size <= density_solver._DIRECT_MASSES) == (size == 200)
    nfft = 1 << (wide.size + size - 2).bit_length()  # apply_T's power-of-two rule
    work = np.empty((2, nfft // 2 + 1), dtype=np.complex128), np.empty(nfft)
    wide0, masses0 = wide.copy(), masses.copy()
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error", RuntimeWarning)
        got = density_solver._convolve(wide, masses, -100, work)
    assert np.all(np.isfinite(got))
    assert np.all(got[:300] == 0.0)
    # (s + 1) products of 1e-325 make output 300 + s, which first rounds up
    # to the least subnormal at s = 24
    assert got[323] == 0.0 < got[324] == np.finfo(float).smallest_subnormal
    _assert_matches_exact(got, wide0, masses0, -100)


FINE_DX = 0.0025


@pytest.fixture(scope="module")
def fine_fixed():
    """The Gaussian start's solve at FINE_DX, with the grid spacing and
    u-nodes of each apply_T sweep and every warning recorded."""
    calls = []
    real = density_solver.apply_T

    def counting(f, u_nodes):
        calls.append((f.dx, u_nodes))
        return real(f, u_nodes=u_nodes)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(density_solver, "apply_T", counting)
        solved = iterate_density(gaussian_density(dx=FINE_DX))
    return solved, calls, caught


def _gate(f, iters, history):
    art = {"density": f, "density_iters": iters, "density_history": history,
           "density_seconds": 0.0}
    return check_density_fixed_point(art)


def test_fine_grid_fixed_point_passes_the_gate(fine_fixed):
    # positive on [-3.9, 6) with zeros only below -3.9, on a grid finer than the report's
    result = _gate(*fine_fixed[0])
    assert result.passed, result.detail


def test_fine_grid_starts_from_the_coarser_solve(fine_fixed):
    (f, iters, history), calls, caught = fine_fixed
    # every sweep of every level is counted, coarsest first, the coarse levels
    # at half the u-nodes; the history is the finest level's alone, and its
    # tail is geometric with no level boundary in it
    n_fine = len(history)
    assert iters == len(calls) and iters > n_fine
    assert [dx for dx, _ in calls] == sorted((dx for dx, _ in calls), reverse=True)
    assert sorted({dx for dx, _ in calls}) == [FINE_DX, 0.005, 0.01, 0.02]
    assert calls[:-n_fine] == [(dx, 32) for dx, _ in calls[:-n_fine]]
    assert calls[-n_fine:] == [(FINE_DX, 64)] * n_fine
    assert n_fine <= 8 and history[-1] < 1e-6
    assert geometric_tail(history)[1] and not caught
    rep = convergence_report(f, iters, history)
    assert rep["iterations"] == iters and rep["diff_history"] == history
    # the levels share one budget: the coarse levels' sweeps leave none for the fine grid
    with pytest.raises(IterationError, match="spent its .* coarser than dx = 0.0025"):
        iterate_density(gaussian_density(dx=FINE_DX), max_iter=iters - n_fine)


def test_full_weighting_keeps_the_trapezoid_mass():
    # odd and even node counts; the even grid's restriction ends one node past it
    rng = np.random.default_rng(5)
    for n in (2001, 2000):
        values = rng.uniform(0.5, 1.5, n)
        f = DensityGrid(-4.0, 0.005, values / np.trapezoid(values, dx=0.005))
        coarse = density_solver._restricted(f)
        assert (coarse.x0, coarse.dx, coarse.n) == (f.x0, 0.01, n // 2 + 1)
        assert coarse.mass() == pytest.approx(f.mass(), rel=1e-14)
        assert np.trapezoid(coarse.xs * coarse.values, dx=0.01) == pytest.approx(
            np.trapezoid(f.xs * f.values, dx=0.005), rel=1e-12, abs=1e-14)
        # away from the ends, the (1, 2, 1) / 4 stencil
        v = f.values
        inner = (v[1:-4:2] + 2.0 * v[2:-3:2] + v[3:-2:2]) / 4.0
        assert np.allclose(coarse.values[1:inner.size + 1], inner, rtol=1e-14, atol=0.0)


def test_interpolant_is_exact_on_cubics():
    def cubic(x):
        return 2.0 - x + 0.5 * x**2 - 0.03 * x**3

    xs = np.arange(11.0)
    got = density_solver._interpolated(cubic(2.0 * xs), 21)
    # the 4-point stencil needs two coarse nodes on each side of a midpoint
    assert np.allclose(got[2:-2], cubic(np.arange(21.0))[2:-2], rtol=0.0, atol=1e-12)
    assert np.array_equal(got[::2], cubic(2.0 * xs))
    assert density_solver._interpolated(cubic(2.0 * xs), 20).size == 20


def test_coarse_grids_cover_a_window_of_even_node_count():
    # 6002 nodes from -2.001: every other node would stop at 3.999, short of
    # the [-2, 4] a DensityGrid must cover, so each coarse grid ends past x_max
    f0 = gaussian_density(x_min=-2.001, x_max=4.0, dx=0.001)
    f, _, _ = iterate_density(f0, tol=1e-3)
    assert (f.x0, f.dx, f.n) == (f0.x0, f0.dx, 6002)


def test_coarse_start_lands_on_the_direct_fine_solve(fine_fixed):
    f = fine_fixed[0][0]
    direct, _, _ = fixed_point(apply_T, gaussian_density(dx=FINE_DX), DENSITY_MAX_ITER,
                               DENSITY_TOL, "direct")
    assert float(np.abs(f.values - direct.values).max()) < 1e-5


UNIFORM_STARTS = ((-1.0, 1.0), (-0.5, 0.9), (0.0, 1.0))


@pytest.fixture(scope="module")
def uniform_fixed():
    """Each uniform start's solve at FINE_DX under warnings-as-errors, with
    the grid spacing and u-nodes of each apply_T sweep."""
    real = density_solver.apply_T
    solves = {}
    for a, b in UNIFORM_STARTS:
        calls = []

        def counting(f, u_nodes, calls=calls):
            calls.append((f.dx, u_nodes))
            return real(f, u_nodes=u_nodes)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(density_solver, "apply_T", counting)
            solves[a, b] = iterate_density(uniform_density(a, b, dx=FINE_DX)), calls
    return solves


def test_every_start_reaches_the_same_fine_fixed_point(fine_fixed, uniform_fixed):
    # the map pins the mean, so an asymmetric or off-centre start no longer
    # converges on a translate
    ref = fine_fixed[0][0]
    for (a, b), ((f, iters, history), _) in uniform_fixed.items():
        result = _gate(f, iters, history)
        assert result.passed, (a, b, result.detail)
        assert float(np.abs(f.values - ref.values).max()) < 1e-5, (a, b)


def test_coarse_levels_mix_and_the_finest_stays_plain(uniform_fixed):
    # plain sweeps take 29-33 on the coarsest level (dx = 0.02, 32 u-nodes)
    # from these starts; mixed, it takes 11-12, then 5 and 2 on the levels
    # above, and the finest level 4
    for (a, b), ((_, iters, history), calls) in uniform_fixed.items():
        assert iters == len(calls) <= 25, (a, b)
        assert calls.count((0.02, 32)) <= 15, (a, b)
        assert calls.count((0.01, 32)) + calls.count((0.005, 32)) <= 10, (a, b)
        # the history is the finest level's plain sweeps, one per apply_T call
        assert calls[-len(history):] == [(FINE_DX, 64)] * len(history) and len(history) <= 6
        # too few for the four-ratio window: each ratio contracts, but the
        # rate reads as unobserved, not as non-geometric, in the report too
        ratios, geometric = geometric_tail(history)
        assert all(r < 0.95 for r in ratios) and geometric is None, (a, b)
        assert "geometric=None" in check_excluded_claims({"density_history": history}).detail


def test_default_grid_finest_level_is_the_plain_iteration(monkeypatch):
    # the default grid solves at 0.02 and 0.01 first, with 32 u-nodes each
    sweeps = []
    real = density_solver.apply_T

    def recording(f, u_nodes):
        sweeps.append((f, u_nodes, real(f, u_nodes=u_nodes)))
        return sweeps[-1][2]

    monkeypatch.setattr(density_solver, "apply_T", recording)
    dens, iters, history = iterate_density(gaussian_density())
    levels = [(f.dx, u) for f, u, _ in sweeps]
    n2, n1, n = levels.count((0.02, 32)), levels.count((0.01, 32)), len(history)
    assert levels == [(0.02, 32)] * n2 + [(0.01, 32)] * n1 + [(DENSITY_DX, 64)] * n
    assert iters == len(sweeps) and n <= 8
    # the finest start: the 0.01 solve interpolated, extrapolated with the
    # 0.02 solve interpolated twice, clamped at 0 and renormalized
    interp = density_solver._interpolated
    p2 = interp(interp(sweeps[n2 - 1][2].values, 1001), 2001)
    p1 = interp(sweeps[n2 + n1 - 1][2].values, 2001)
    start = np.maximum(p1 + (p1 - p2) / 4.0, 0.0)
    fine = sweeps[-n:]
    assert np.array_equal(fine[0][0].values, start / np.trapezoid(start, dx=DENSITY_DX))
    # then plain sweeps: each takes the last one's output, and its residual is the history
    assert all(nxt is out for (_, _, out), (nxt, _, _) in zip(fine, fine[1:]))
    assert history == [float(np.abs(out.values - f.values).max()) for f, _, out in fine]
    assert dens is fine[-1][2] and history[-1] < DENSITY_TOL
    assert density_solver._tail_settled(fine[-1][0], dens)


@pytest.mark.parametrize("dx", [DENSITY_DX, FINE_DX])
def test_left_tail_lies_near_the_tight_plain_solve(dx, density_fixed, fine_fixed):
    # the residual is set by the bulk, so only the tail check sees an
    # extrapolated start's clamped tail; the bounds also hold for the
    # unnested solve (0.56, 0.11, 0.017 at dx = 0.005)
    dens = density_fixed[0] if dx == DENSITY_DX else fine_fixed[0][0]
    tight, _, _ = fixed_point(apply_T, gaussian_density(dx=dx), 100, 1e-12, "tight")
    assert float(np.abs(dens.values - tight.values).max()) < 1.5e-6
    for x, bound in ((-3.9, 1.0), (-3.5, 0.2), (-3.0, 0.03)):
        i = int(round((x - dens.x0) / dx))
        assert abs(dens.values[i] / tight.values[i] - 1.0) < bound, x


def test_start_narrower_than_the_coarsest_spacing_solves():
    # one nonzero node at x = 0.008, between two nodes of the dx = 0.016
    # grid: full weighting keeps its mass there, where point sampling kept
    # none.  Its first sweep runs the map as it is, with no warning
    f0 = uniform_density(0.0075, 0.0085, dx=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, iters, history = iterate_density(f0)
    assert iters <= 25 and _gate(f, iters, history).passed
    # a one-node start at x = 0.001 keeps 15/16 of its mass on one node, 58.6
    # high; linearly interpolated at x / (1 - u), that spike carries up to
    # 1.87 of mass, so the first sweep gains 35%, which the map refuses in one line
    with pytest.raises(ValueError) as err:
        iterate_density(uniform_density(0.0005, 0.0015, dx=0.001))
    assert "\n" not in str(err.value)
    assert re.match(r"mass 1\.34\d+ before renormalization .* gaining probability, "
                    r"as a start narrower than the grid spacing", str(err.value))


def test_oversized_grid_is_refused_before_the_first_sweep(monkeypatch):
    # 1M points fit a Grid, but a sweep over them would run for minutes
    f0 = gaussian_density(dx=1e-5)
    monkeypatch.setattr(density_solver, "apply_T", None)  # no sweep may start
    with pytest.raises(ValueError, match=r"^a density sweep over 1000001 grid points"):
        iterate_density(f0)
    # so is a u-rule apply_T refuses, which the coarse levels would halve first
    for u_nodes in (1, 2049):
        with pytest.raises(ValueError, match=rf"^u_nodes must be .* got {u_nodes}$"):
            iterate_density(gaussian_density(), u_nodes=u_nodes)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="would run for minutes"):
        apply_T(f0)


def test_mean_stays_pinned_along_the_iteration():
    f = gaussian_density()
    for _ in range(5):
        f = apply_T(f)
        assert abs(f.mean()) < 1e-5


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
    """A stand-in for apply_T: on target's grid the convex step
    f -> target + ratio (f - target); every coarser grid is its own fixed point."""
    def step(f, u_nodes):
        if f.dx != target.dx:
            return f
        values = target.values + ratio * (f.values - target.values)
        return DensityGrid(f.x0, f.dx, values)
    return step


def test_slow_contraction_warns_not_geometric(monkeypatch):
    # the diffs of this map shrink by exactly `ratio` per sweep on the finest
    # level; its one coarse level (dx = 0.02) converges in one sweep
    target, start = gaussian_density(dx=0.01), uniform_density(dx=0.01)
    monkeypatch.setattr(density_solver, "apply_T", _contract_to(target, 0.97))
    with pytest.warns(RuntimeWarning, match="not uniformly geometric"):
        _, iters, history = iterate_density(start, max_iter=1000)
    assert 100 < iters < 1000 and history[-1] < 1e-6 and iters == len(history) + 1
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
                            lambda *args, project=None, h=history: (f0, len(h), h))
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
    assert float(np.abs(alt.values - dens.values).max()) < 1e-5


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
    rep = convergence_report(dens, iters, history)
    assert set(rep) == {"iterations", "diff_history", "mean", "variance",
                        "max_f", "min_f"}
    assert rep["iterations"] == iters
    assert rep["diff_history"] == list(history)


def test_u_quadrature_is_built_once_and_shared_read_only():
    us, ws = density_solver._u_quadrature(64)
    assert density_solver._u_quadrature(64)[0] is us
    x, w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(us, 0.25 * (x + 1.0)) and np.array_equal(ws, 0.5 * w)
    with pytest.raises(ValueError):
        us[0] = 0.0
