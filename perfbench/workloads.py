"""The benchmark's workloads: seeded inputs, one timed iteration, its checks.

Each workload has a set-up, which turns the seed into the inputs the program
gets, and a run, which calls the public functions of the qslimit modules and
checks every output.  A check is one attempt; an IterationError,
QuadratureError or ValueError raised by a layer fails that check and keeps
its message, and the run goes on.

report
    `report.build_artifacts` and the eight `check_*` gates in run_acceptance
    order, at acceptance size.  The seed drives the check_vdc pairs (seed 42
    gives 2718, as `qslimit report` does).  The simulation gate keeps the
    report's own seed 42: its 3-standard-error mean test and p > 0.001
    chi-square test fail on about 0.4% of seeds by chance alone.
density-fine
    `qslimit density --init uniform --dx 0.001`: a symmetric uniform start
    on [-b, b] (the fixed point is unique only among mean-zero laws), with b
    drawn from the seed, then `cdf` and `pump_moments(8)`.
simulate
    `sample_many` + `chi_square_vs_exact` at n = 7, and `simulate` +
    `ks_distance` against the limit CDF at n = 1000 and n = 10^4.  The
    reference CDF is built in set-up.  The statistical checks sit at least
    six standard errors out, so a correct sampler fails none of them on any
    seed a benchmark will meet.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from qslimit import cf_solver, density_solver, moments, quicksort_sim, report
from qslimit.core_numerics import IterationError, QuadratureError

LAYER_ERRORS = (IterationError, QuadratureError, ValueError)

# density-fine: the start's half-width b is drawn from [B_LO, B_HI]
B_LO, B_HI = 0.5, 0.9
FINE_DX = 0.001

# simulate: draws per size, each n taking a comparable share of the run
DRAWS = {7: 14_000_000, 1000: 70_000, 10_000: 10_000}
SIGMAS = 6.0            # how far out the statistical checks sit
KS_MAX = 0.05
CHI2_P_MIN = 1e-6
MOMENT_GAP_MAX = 1e-2   # grid-vs-pump moment gaps, as route-independence uses


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


class Checks:
    """Every check of one iteration, in the order attempted."""

    def __init__(self):
        self.items: list[Check] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.items.append(Check(name, bool(passed), detail))

    def gate(self, name: str, fn) -> None:
        """Run one check; `fn` returns (passed, detail)."""
        try:
            passed, detail = fn()
        except LAYER_ERRORS as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, passed, detail)


def _attempt(fn):
    """(result, None) or (None, message) when a layer raises."""
    try:
        return fn(), None
    except LAYER_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def moment_gaps(dens, ms) -> list:
    """|grid m_k - pump m_k| for k = 2, 3, 4, as check_route_independence forms it."""
    xs, fv, dx = dens.xs, dens.values, dens.dx
    return [abs(float(np.trapezoid(xs**k * fv, dx=dx)) - ms[k]) for k in (2, 3, 4)]


def route_gap(phi, dens) -> float:
    """sup |f_cf - f_direct| on [-2, 4], as check_route_independence forms it."""
    inv = cf_solver.invert_cf(phi)
    lo = int(round((-2.0 - dens.grid.x0) / dens.dx))
    hi = int(round((4.0 - dens.grid.x0) / dens.dx))
    return float(np.abs(inv.values[lo:hi + 1] - dens.values[lo:hi + 1]).max())


def _moment_checks(checks: Checks, label: str, dens, ms) -> float:
    gaps = moment_gaps(dens, ms)
    for k, gap in zip((2, 3, 4), gaps):
        checks.add(f"{label}-m{k}-gap", gap < MOMENT_GAP_MAX,
                   f"|grid m{k} - pump m{k}| = {gap:.3e} (< {MOMENT_GAP_MAX:g})")
    return max(gaps)


# ---------------------------------------------------------------------------
# report


def setup_report(seed: int) -> dict:
    return {"sim_seed": 42, "vdc_seed": seed + 2718 - 42}


def run_report(inp: dict, checks: Checks) -> dict:
    art, err = _attempt(lambda: report.build_artifacts(seed=inp["sim_seed"]))
    no_art = f"build_artifacts failed: {err}"
    calls = {
        "check_bound_chain": lambda: report.check_bound_chain(),
        "check_sup_bounds": lambda: report.check_sup_bounds(),
        "check_vdc": lambda: report.check_vdc(seed=inp["vdc_seed"]),
        "check_cf_fixed_point": lambda: report.check_cf_fixed_point(art),
        "check_density_fixed_point": lambda: report.check_density_fixed_point(art),
        "check_route_independence": lambda: report.check_route_independence(art),
        "check_simulation": lambda: report.check_simulation(art),
        "check_excluded_claims": lambda: report.check_excluded_claims(art),
    }
    for i, (name, call) in enumerate(calls.items()):
        if i >= 3 and art is None:
            checks.add(name, False, no_art)
            continue
        checks.gate(name, lambda call=call: _criterion(call()))
    values = {"art": art}
    if art is not None:
        values["moment_gap"] = max(moment_gaps(art["density"], art["moments"]))
    return values


def _criterion(result):
    return result.passed, result.detail


# ---------------------------------------------------------------------------
# density-fine


def setup_density_fine(seed: int) -> dict:
    b = float(np.random.default_rng(seed).uniform(B_LO, B_HI))
    return {"b": b, "f0": density_solver.uniform_density(-b, b, dx=FINE_DX)}


def run_density_fine(inp: dict, checks: Checks) -> dict:
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solved, err = _attempt(lambda: density_solver.iterate_density(
            inp["f0"], max_iter=60, tol=1e-6, u_nodes=64))
    seconds = time.perf_counter() - t0
    if solved is None:
        for name in ("check_density_fixed_point", "fine-m2-gap", "fine-m3-gap",
                     "fine-m4-gap", "cdf"):
            checks.add(name, False, err)
        return {}
    dens, iters, history = solved
    art = {"density": dens, "density_iters": iters, "density_history": history,
           "density_seconds": seconds}
    checks.gate("check_density_fixed_point",
                lambda: _criterion(report.check_density_fixed_point(art)))
    F = density_solver.cdf(dens)
    ms = moments.pump_moments(8)
    gap = _moment_checks(checks, "fine", dens, ms)
    steps = np.diff(F.values)
    checks.add("cdf", abs(F.values[-1] - 1.0) <= 1e-9 and steps.min() >= 0.0,
               f"F(x_max) - 1 = {F.values[-1] - 1.0:.2e}, min step {steps.min():.2e}")
    return {"moment_gap": gap}


# ---------------------------------------------------------------------------
# simulate


def setup_simulate(seed: int) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref, _, _ = density_solver.iterate_density(
            density_solver.gaussian_density(), max_iter=60, tol=1e-6, u_nodes=64)
    seeds = np.random.SeedSequence(seed).generate_state(len(DRAWS))
    return {
        "ref": ref,
        "ref_cdf": density_solver.cdf(ref),
        "ref_moments": moments.pump_moments(4),
        "seeds": dict(zip(DRAWS, (int(s) for s in seeds))),
    }


def _draw_checks(n: int, m: int, summary, ys, ref_cdf):
    se = math.sqrt(quicksort_sim.exact_variance(n) / m)
    mean_gap = abs(summary.mean_raw - quicksort_sim.exact_mean(n))
    var_rel = summary.var_raw / quicksort_sim.exact_variance(n) - 1.0
    z = (ys - ys.mean()) / ys.std()
    var_tol = max(0.05, SIGMAS * math.sqrt((float(np.mean(z**4)) - 1.0) / m))
    ks = quicksort_sim.ks_distance(ys, ref_cdf)
    return [
        (f"n{n}-mean", mean_gap <= SIGMAS * se,
         f"|mean - E X_n| = {mean_gap:.3f} (<= {SIGMAS * se:.3f})"),
        (f"n{n}-variance", abs(var_rel) <= var_tol,
         f"variance off by {100 * var_rel:.2f}% (<= {100 * var_tol:.2f}%)"),
        (f"n{n}-ks", ks < KS_MAX, f"KS = {ks:.4f} (< {KS_MAX})"),
    ]


def run_simulate(inp: dict, checks: Checks) -> dict:
    gap = _moment_checks(checks, "reference", inp["ref"], inp["ref_moments"])
    seeds = inp["seeds"]
    rng = np.random.Generator(np.random.PCG64(seeds[7]))

    def leaves():
        counts = quicksort_sim.sample_many(7, DRAWS[7], rng)
        stat, dof, p = quicksort_sim.chi_square_vs_exact(counts, 7)
        return p > CHI2_P_MIN, f"chi2 = {stat:.2f}, dof {dof}, p = {p:.4f}"

    checks.gate("n7-chi2", leaves)
    for n in (1000, 10_000):
        m = DRAWS[n]
        drawn, err = _attempt(lambda: quicksort_sim.simulate(n, m, seed=seeds[n]))
        if drawn is None:
            for suffix in ("mean", "variance", "ks"):
                checks.add(f"n{n}-{suffix}", False, err)
            continue
        summary, ys = drawn
        rows, err = _attempt(lambda: _draw_checks(n, m, summary, ys, inp["ref_cdf"]))
        if rows is None:
            rows = [(f"n{n}-{suffix}", False, err) for suffix in ("mean", "variance", "ks")]
        for row in rows:
            checks.add(*row)
    return {"moment_gap": gap}


WORKLOADS = {
    "report": (setup_report, run_report),
    "density-fine": (setup_density_fine, run_density_fine),
    "simulate": (setup_simulate, run_simulate),
}
