"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The last test runs each workload traced, twice, in fresh interpreters (about
three minutes on two cores); the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qslimit import core_numerics, density_solver, moments, quicksort_sim  # noqa: E402
from qslimit.core_numerics import IterationError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "moment_gap"}
PER_LAYER = {
    "cf_solver.iterate_cf.s", "cf_solver.iterate_cf.sweeps", "cf_solver.cf_map.calls",
    "cf_solver.cf_map.s_per_call", "cf_solver.invert_cf.s",
    "density_solver.iterate_density.s", "density_solver.iterate_density.sweeps",
    "density_solver.apply_T.calls", "density_solver.apply_T.s_per_call",
    "core_numerics.integrate.calls", "core_numerics.integrate.s",
    "core_numerics.integrate.panels",
    "cf_bounds.vdc_cf.calls", "cf_bounds.vdc_cf.s", "cf_bounds.build_chain.s",
    "cf_bounds.make_envelope.s",
    "envelope_integrals.sup_fk_bound.s", "envelope_integrals.maxf_theorem_check.s",
    "moments.pump_moments.s", "moments.g_moment.calls",
    "quicksort_sim.sample_many.s", "quicksort_sim.sample_many.us_per_draw.n7",
    "quicksort_sim.sample_many.us_per_draw.n1000",
    "quicksort_sim.sample_many.us_per_draw.n10000",
    "quicksort_sim.ks_distance.s", "quicksort_sim.chi_square_vs_exact.s",
    "report.build_artifacts.s", "report.route_gap",
    "trace.overhead_s",
} | {f"report.{gate}.s" for gate in tracing.GATES} \
  | {f"{layer}.self_s" for layer in tracing.LAYERS}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_what_children_cover():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    with tr.span("report.check_vdc"):            # 0 .. 10
        clock.now = 1.0
        with tr.span("cf_bounds.vdc_cf"):        # 1 .. 7
            clock.now = 2.0
            with tr.span("core_numerics.integrate"):   # 2 .. 4
                clock.now = 4.0
            with tr.span("core_numerics.integrate"):   # 4 .. 6.5
                clock.now = 6.5
            clock.now = 7.0
        clock.now = 10.0
    assert tracing.self_times(tr.spans) == pytest.approx([4.0, 1.5, 2.0, 2.5])
    metrics = tracing.per_layer_metrics(tr)
    assert metrics["report.self_s"][0] == pytest.approx(4.0)
    assert metrics["cf_bounds.self_s"][0] == pytest.approx(1.5)
    assert metrics["core_numerics.self_s"][0] == pytest.approx(4.5)
    assert metrics["core_numerics.integrate.s"][0] == pytest.approx(4.5)
    # self times add back up to the root's duration
    assert sum(tracing.self_times(tr.spans)) == pytest.approx(10.0)


def test_covered_is_the_union_of_intervals():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracing.covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_per_call_and_per_draw_arithmetic():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def sampler(n, m, rng):
        clock.now += 1e-6 * m * (0.5 if n == 7 else 40.0)
        return np.zeros(m, dtype=np.int64)

    traced = tr.wrap("quicksort_sim.sample_many", sampler)
    traced(7, 1000, None)
    traced(7, 3000, None)
    traced(1000, 10, None)
    metrics = tracing.per_layer_metrics(tr)
    assert metrics["quicksort_sim.sample_many.us_per_draw.n7"][0] == pytest.approx(0.5)
    assert metrics["quicksort_sim.sample_many.us_per_draw.n1000"][0] == pytest.approx(40.0)
    assert metrics["quicksort_sim.sample_many.us_per_draw.n10000"][0] == 0.0
    assert tr.counts["quicksort_sim.sample_many.calls"] == 3


def test_printed_metric_names_match_the_spec():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    fake = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "moment_gap": 1e-4}
    assert set(run.metrics_of([fake], [0.5], None)) == END_TO_END
    per_layer = tracing.per_layer_metrics(tracing.Tracer())
    per_layer["report.route_gap"] = (0.0, "1")
    traced = {"per_layer": per_layer, "wall_s": 1.0}
    printed = run.metrics_of([fake], [0.5], traced)
    assert set(printed) == PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in printed.items():
        assert metric["unit"] == units[name], name


def test_instrument_rebinds_every_namespace_and_restores():
    from qslimit import cf_bounds, cf_solver, envelope_integrals, report
    before = {(m, a): getattr(m, a) for m, a in [
        (report, "iterate_cf"), (cf_solver, "cf_map"), (moments, "integrate")]}
    with tracing.instrument(tracing.Tracer()) as rebound:
        for name in ("iterate_cf", "iterate_density", "invert_cf", "simulate",
                     "sample_many", "vdc_cf", "sup_fk_bound", "maxf_theorem_check",
                     "pump_moments"):
            assert hasattr(getattr(report, name), "__wrapped__"), name
        for mod, name in [(cf_solver, "cf_map"), (density_solver, "apply_T"),
                          (quicksort_sim, "sample_many"), (cf_bounds, "integrate"),
                          (moments, "integrate"), (envelope_integrals, "integrate"),
                          (moments, "g_moment")]:
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod.__name__, name)
        assert "qslimit.moments.integrate" in rebound["core_numerics.integrate"]
    for (mod, attr), fn in before.items():
        assert getattr(mod, attr) is fn


def test_counters_repeat_in_process():
    def traced_counts():
        tr = tracing.Tracer()
        with tracing.instrument(tr):
            density_solver.iterate_density(density_solver.gaussian_density(dx=0.01),
                                           max_iter=60, tol=1e-5, u_nodes=16)
            moments.pump_moments(6)
            from qslimit import cf_bounds
            cf_bounds.vdc_cf(0.3, -1.2, 50.0)
        return tracing.exact_counters(tr)

    first = traced_counts()
    assert first["density_solver.apply_T.calls"] == first["density_solver.iterate_density.sweeps"] > 0
    assert first["core_numerics.integrate.panels"] > 0
    assert traced_counts() == first


def test_integrand_nodes_are_counted_per_panel():
    tr = tracing.Tracer()
    with tracing.instrument(tr, names=("core_numerics.integrate",)):
        core_numerics.integrate(np.cos, 0.0, 1.0)
    # a smooth integrand on one panel passes at the first Kronrod evaluation
    assert tracing.per_layer_metrics(tr)["core_numerics.integrate.panels"][0] == 1


def test_layer_errors_become_failed_checks():
    checks = workloads.Checks()

    def stalls():
        raise IterationError("did not reach tol=1e-06 in 60 sweeps", [1e-3])

    checks.gate("density", stalls)
    checks.gate("fine", lambda: (True, "ok"))
    assert [c.passed for c in checks.items] == [False, True]
    assert "did not reach tol" in checks.items[0].detail


def test_timings_are_masked_but_values_kept():
    a = "converged in 25 sweeps (diff 9.58e-09, 18.2s < 120s); 6.4s < 120s"
    b = "converged in 25 sweeps (diff 9.58e-09, 22.0s < 120s); 7.1s < 120s"
    assert run.without_timings(a) == run.without_timings(b)
    assert run.without_timings(a) != run.without_timings(a.replace("25 sweeps", "26 sweeps"))


def test_seeded_inputs_meet_the_preconditions():
    for seed in range(20):
        inp = workloads.setup_density_fine(seed)
        assert workloads.B_LO <= inp["b"] <= workloads.B_HI
        assert abs(inp["f0"].mean()) < 1e-12          # symmetric start, mean zero
    assert workloads.setup_density_fine(3)["b"] == workloads.setup_density_fine(3)["b"]
    assert workloads.setup_report(42) == {"sim_seed": 42, "vdc_seed": 2718}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", ["density-fine", "simulate", "report"])
def test_exact_counters_repeat_across_traced_runs(workload):
    def traced():
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), "trace", workload, "5"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170,
                              check=True)
        return json.loads(done.stdout.splitlines()[-1])

    first, second = traced(), traced()
    assert first["counters"] == second["counters"]
    assert all(ok for _, ok, _ in first["checks"])
    if workload == "report":
        assert first["counters"]["cf_solver.cf_map.calls"] > 0
