"""End-to-end acceptance checks tying every pipeline to its certified numbers.

Each check returns a CriterionResult with a one-line verdict; `run_acceptance`
executes all of them in dependency order and is what the CLI `report`
subcommand prints.  The heavyweight artifacts (CF fixed point, density fixed
point) are built once and shared.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cf_bounds import build_chain, make_envelope, vdc_cf
from .cf_solver import init_gaussian_cf, invert_cf, iterate_cf
from .density_solver import cdf, gaussian_density, geometric_tail, iterate_density
from .envelope_integrals import SUP_F1_CAP, SUP_F_CAP, maxf_theorem_check, sup_fk_bound
from .moments import VARIANCE, pump_moments
from .quicksort_sim import (
    chi_square_vs_exact,
    exact_mean,
    exact_variance,
    ks_distance,
    sample_many,
    simulate,
)

__all__ = [
    "CriterionResult",
    "build_artifacts",
    "check_bound_chain",
    "check_sup_bounds",
    "check_vdc",
    "check_cf_fixed_point",
    "check_density_fixed_point",
    "check_route_independence",
    "check_simulation",
    "check_excluded_claims",
    "run_acceptance",
]

# display ceilings for the assembled rungs; computed values must land just
# below these (within half a percent)
_CEILINGS = {1.5: 187.0, 2.5: 103215.0, 3.5: 197102280.0}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _result(name: str, checks, detail: str) -> CriterionResult:
    return CriterionResult(name, all(bool(c) for c in checks), detail)


def _index(grid, x: float) -> int:
    """Index of the grid point nearest x, clamped at 0 so no slice wraps."""
    return max(0, int(round((x - grid.x0) / grid.dx)))


def build_artifacts(seed: int = 42, samples: int = 200_000) -> dict:
    """Everything the acceptance checks share, computed once."""
    t0 = time.perf_counter()
    phi, cf_iters, cf_history = iterate_cf(init_gaussian_cf(), max_iter=200, tol=1e-8)
    cf_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dens, dens_iters, dens_hist = iterate_density(
            gaussian_density(), max_iter=60, tol=1e-6, u_nodes=64)
    density_seconds = time.perf_counter() - t0
    return {
        "envelope": make_envelope(build_chain(3.5), use_log=True),
        "phi": phi,
        "cf_iters": cf_iters,
        "cf_diff": cf_history[-1],
        "cf_seconds": cf_seconds,
        "density": dens,
        "density_iters": dens_iters,
        "density_history": dens_hist,
        "density_seconds": density_seconds,
        "cdf": cdf(dens),
        "moments": pump_moments(8),
        "seed": seed,
        "samples": samples,
    }


def check_bound_chain() -> CriterionResult:
    chain = build_chain(3.5)
    c32 = chain.constant_at(1.5)
    checks = [186.3 < c32 <= 187.0]
    for p, ceil_ in _CEILINGS.items():
        c = chain.constant_at(p)
        checks.append(0.995 * ceil_ <= c <= ceil_)
    checks.append(abs(chain.constant_at(0.75) - math.sqrt(8.0 * math.pi))
                  <= 1e-12 * math.sqrt(8.0 * math.pi))
    checks.append(abs(chain.constant_at(1.0) - 4.0 * math.pi) <= 1e-12 * 4.0 * math.pi)
    return _result(
        "bound-chain",
        checks,
        f"c_3/2={c32:.6f} (<=187), c_5/2={chain.constant_at(2.5):.4f} (<=103215), "
        f"c_7/2={chain.constant_at(3.5):.2f} (<=197102280)",
    )


def check_sup_bounds() -> CriterionResult:
    # maxf_theorem_check gives the log-spliced sup f (p <= 7/2) and sup f' (p <= 9/2)
    chain = build_chain(3.5)
    plain = make_envelope(chain)
    plain0 = sup_fk_bound(plain, 0)
    plain1 = sup_fk_bound(plain, 1)
    trick1 = sup_fk_bound(make_envelope(chain, use_log=True), 1)
    supf, supf1 = maxf_theorem_check()
    checks = [
        18.0 <= plain0 <= 18.2,
        supf < 15.3,
        supf < SUP_F_CAP,
        plain1 < 3652.1,
        trick1 < 2492.1,
        supf1 < SUP_F1_CAP,
        0.99 * 2465.9 <= supf1,
    ]
    return _result(
        "sup-bounds",
        checks,
        f"sup f <= {plain0:.4f} plain / {supf:.4f} log (<{SUP_F_CAP:g}); "
        f"sup f' <= {plain1:.2f} plain / {trick1:.2f} log / {supf1:.4f} "
        f"with p=9/2 (<{SUP_F1_CAP:g})",
    )


def check_vdc(seed: int = 2718) -> CriterionResult:
    abs_tol = 1e-8
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = rng.uniform(-5.0, 5.0, size=(100, 2))
    ts = np.geomspace(1.0, 1e4, 20)
    worst = -np.inf
    ok = True
    for y, z in pairs:
        for t in ts:
            margin = abs(vdc_cf(float(y), float(z), float(t), abs_tol)) \
                - (2.0 / math.sqrt(t) + 10.0 * abs_tol)
            worst = max(worst, margin)
            ok = ok and margin <= 0.0
    return _result(
        "van-der-corput",
        [ok],
        f"|integral| <= 2 t^-1/2 for {len(pairs)} (y,z) x {ts.size} t; "
        f"worst margin {worst:.3e}",
    )


def check_cf_fixed_point(art: dict) -> CriterionResult:
    phi = art["phi"]
    env = art["envelope"]
    mod = np.abs(phi.values[1:])
    excess = float((mod - env.evaluate(phi.xs[1:])).max())
    dt = phi.dx
    second = (2.0 - 2.0 * phi.values[1].real) / dt**2
    checks = [
        art["cf_diff"] < 1e-8,
        art["cf_iters"] <= 200,
        excess <= 1e-6,
        abs(second - 0.42026) <= 1e-3,
        art["cf_seconds"] < 120.0,
    ]
    return _result(
        "cf-fixed-point",
        checks,
        f"converged in {art['cf_iters']} sweeps (diff {art['cf_diff']:.2e}, "
        f"{art['cf_seconds']:.1f}s < 120s); "
        f"max(|phi|-envelope)={excess:.2e}; -phi''(0)~{second:.5f}",
    )


def check_density_fixed_point(art: dict) -> CriterionResult:
    dens = art["density"]
    fv = dens.values
    mean = dens.mean()
    var = dens.variance()
    fmax = float(fv.max())
    # Positivity: the left tail decays doubly exponentially, and below
    # x ~ -3.97 its true values are smaller than the least positive float64
    # subnormal, so those few cells carry exact zeros no matter how the
    # sweep is computed.  We therefore assert strict positivity wherever a
    # positive double can represent the solution (x >= -3.9) plus the
    # bulk-window contract on [-1, 3], and report the zero cells openly.
    zero_idx = np.flatnonzero(fv == 0.0)
    zero_hi = float(dens.xs[zero_idx].max()) if zero_idx.size else -np.inf
    positive_where_representable = bool(np.all(fv[_index(dens, -3.9):-1] > 0.0))
    bulk_positive = bool(np.all(fv[_index(dens, -1.0):_index(dens, 3.0) + 1] > 0.0))
    checks = [
        art["density_iters"] <= 60,
        art["density_history"][-1] < 1e-6,
        abs(mean) < 5e-3,
        abs(var - 0.42026) < 5e-3,
        abs(dens.mass() - 1.0) <= 1e-9,
        positive_where_representable,
        bulk_positive,
        zero_hi < -3.9,
        0.55 < fmax < 0.75,
        art["density_seconds"] < 180.0,
    ]
    return _result(
        "density-fixed-point",
        checks,
        f"converged in {art['density_iters']} sweeps "
        f"({art['density_seconds']:.1f}s < 180s); mean={mean:.2e}, "
        f"var={var:.6f}, mass={dens.mass():.12f}, max f={fmax:.4f}; "
        f"positive on [-3.9, 6) ({zero_idx.size} underflow zeros at x <= "
        f"{zero_hi:.3f})",
    )


def check_route_independence(art: dict) -> CriterionResult:
    dens = art["density"]
    xs, fv, dx = dens.xs, dens.values, dens.dx
    inv = invert_cf(art["phi"], xs=dens)
    lo, hi = _index(dens, -2.0), _index(dens, 4.0) + 1
    sup = float(np.abs(inv.values[lo:hi] - fv[lo:hi]).max())
    ms = art["moments"]
    grid_moments = [float(np.trapezoid(xs**k * fv, dx=dx)) for k in (2, 3, 4)]
    gaps = [abs(g - ms[k]) for g, k in zip(grid_moments, (2, 3, 4))]
    checks = [sup < 1e-2] + [g < 1e-2 for g in gaps]
    return _result(
        "route-independence",
        checks,
        f"sup|f_cf - f_direct| = {sup:.2e} on [-2,4]; moment gaps "
        f"m2..m4 = {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e}",
    )


def check_simulation(art: dict) -> CriterionResult:
    n, m, seed = 1000, art["samples"], art["seed"]
    t0 = time.perf_counter()
    summary, ys = simulate(n, m, seed=seed)
    se = math.sqrt(exact_variance(n) / m)
    mean_gap = abs(summary.mean_raw - exact_mean(n))
    var_rel = abs(summary.var_raw / exact_variance(n) - 1.0)
    ks = ks_distance(ys, art["cdf"])
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    counts7 = sample_many(7, 20_000, rng)
    stat, dof, pval = chi_square_vs_exact(counts7, 7)
    elapsed = time.perf_counter() - t0
    checks = [
        mean_gap <= 3.0 * se,
        var_rel <= 0.05,
        ks < 0.05,
        pval > 0.001,
        exact_mean(3) == float(Fraction(8, 3)),
        exact_variance(3) == float(Fraction(2, 9)),
        elapsed < 120.0,
    ]
    return _result(
        "simulation",
        checks,
        f"mean gap {mean_gap:.2f} (<= {3 * se:.2f}), var off by {100 * var_rel:.2f}% "
        f"(<=5%), KS={ks:.4f} (<0.05), chi2 p={pval:.3f} at n=7 (dof {dof}); "
        f"n=3 mean/variance exactly 8/3, 2/9; {elapsed:.1f}s < 120s",
    )


def check_excluded_claims(art: dict) -> CriterionResult:
    """Observations that stay observations: no assertion is attached."""
    ratios, geometric = geometric_tail(art["density_history"])
    return _result(
        "excluded-claims",
        [True],
        f"informational only — max f asserted as a window, tail rates and the "
        f"exponential convergence rate are observed not asserted "
        f"(last diff ratios {[round(r, 3) for r in ratios]}, "
        f"geometric={geometric})",
    )


def run_acceptance(seed: int = 42, samples: int = 200_000):
    """All criteria in order.  Returns a list of CriterionResult."""
    art = build_artifacts(seed=seed, samples=samples)
    return [
        check_bound_chain(),
        check_sup_bounds(),
        check_vdc(),
        check_cf_fixed_point(art),
        check_density_fixed_point(art),
        check_route_independence(art),
        check_simulation(art),
        check_excluded_claims(art),
    ]
