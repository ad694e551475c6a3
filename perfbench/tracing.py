"""Spans and exact counters around the public functions of the qslimit modules.

The traced run rebinds each traced function, in every qslimit namespace that
holds it, to a wrapper that records a span (name, start, end, parent) and the
counters named for it.  Nothing inside the package changes: the spans sit at
module boundaries, around calls that the benchmark or another module makes.
Spans stay in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; a layer's self time is the sum of the self times of its
spans.  The layers are the package modules.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = (
    "core_numerics",
    "cf_bounds",
    "envelope_integrals",
    "cf_solver",
    "density_solver",
    "moments",
    "quicksort_sim",
    "report",
)

# the eight acceptance gates, in run_acceptance order
GATES = (
    "check_bound_chain",
    "check_sup_bounds",
    "check_vdc",
    "check_cf_fixed_point",
    "check_density_fixed_point",
    "check_route_independence",
    "check_simulation",
    "check_excluded_claims",
)

# every traced function, as "<module>.<function>"
TRACED = (
    "core_numerics.integrate",
    "cf_bounds.vdc_cf",
    "cf_bounds.build_chain",
    "cf_bounds.make_envelope",
    "envelope_integrals.sup_fk_bound",
    "envelope_integrals.maxf_theorem_check",
    "cf_solver.iterate_cf",
    "cf_solver.cf_map",
    "cf_solver.invert_cf",
    "density_solver.iterate_density",
    "density_solver.apply_T",
    "moments.pump_moments",
    "moments.g_moment",
    "quicksort_sim.sample_many",
    "quicksort_sim.simulate",
    "quicksort_sim.ks_distance",
    "quicksort_sim.chi_square_vs_exact",
    "report.build_artifacts",
) + tuple(f"report.{gate}" for gate in GATES)

# sample_many sizes whose cost per draw is reported
DRAW_SIZES = (7, 1000, 10_000)

# counters that must repeat exactly from one traced run to the next
EXACT_COUNTERS = (
    "cf_solver.iterate_cf.sweeps",
    "cf_solver.cf_map.calls",
    "density_solver.iterate_density.sweeps",
    "density_solver.apply_T.calls",
    "core_numerics.integrate.panels",
    "moments.g_moment.calls",
)

_KRONROD_POINTS = 15


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters for one traced run (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else -1
        sp = Span(name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with a span around every call and the counters for `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            attrs = {}
            if name == "core_numerics.integrate":
                args = (self._counting_integrand(args[0]),) + args[1:]
            elif name == "quicksort_sim.sample_many":
                attrs = {"n": int(args[0]), "m": int(args[1])}
            with self.span(name, **attrs):
                result = fn(*args, **kwargs)
            if name in ("cf_solver.iterate_cf", "density_solver.iterate_density"):
                self.counts[f"{name}.sweeps"] += int(result[1])
            return result

        return traced

    def _counting_integrand(self, f):
        def counted(nodes):
            self.counts["core_numerics.integrate.nodes"] += nodes.size
            return f(nodes)
        return counted

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
                for i, s in enumerate(self.spans)
            ],
            "counts": dict(self.counts),
        }


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qslimit" or name.startswith("qslimit."))]


@contextmanager
def instrument(tracer: Tracer, names=TRACED):
    """Rebind every traced function in every qslimit namespace that holds it.

    Yields {span name: [namespaces rebound]}; the original bindings come back
    on exit, whatever happens inside.
    """
    originals = {}
    for name in names:
        module, func = name.split(".")
        originals[name] = getattr(importlib.import_module(f"qslimit.{module}"), func)
    by_id = {id(fn): (name, tracer.wrap(name, fn)) for name, fn in originals.items()}
    saved = []
    rebound = {name: [] for name in names}
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, hit[1])
                rebound[hit[0]].append(f"{mod.__name__}.{attr}")
    try:
        yield rebound
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.seconds - covered(kids) for s, kids in zip(spans, children)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    spans, counts = tracer.spans, tracer.counts
    total = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.seconds

    def secs(name):
        return total.get(name, 0.0)

    def per_call(name):
        calls = counts[f"{name}.calls"]
        return secs(name) / calls if calls else 0.0

    out = {
        "cf_solver.iterate_cf.s": (secs("cf_solver.iterate_cf"), "s"),
        "cf_solver.iterate_cf.sweeps": (counts["cf_solver.iterate_cf.sweeps"], "count"),
        "cf_solver.cf_map.calls": (counts["cf_solver.cf_map.calls"], "count"),
        "cf_solver.cf_map.s_per_call": (per_call("cf_solver.cf_map"), "s/call"),
        "cf_solver.invert_cf.s": (secs("cf_solver.invert_cf"), "s"),
        "density_solver.iterate_density.s": (secs("density_solver.iterate_density"), "s"),
        "density_solver.iterate_density.sweeps":
            (counts["density_solver.iterate_density.sweeps"], "count"),
        "density_solver.apply_T.calls": (counts["density_solver.apply_T.calls"], "count"),
        "density_solver.apply_T.s_per_call": (per_call("density_solver.apply_T"), "s/call"),
        "core_numerics.integrate.calls": (counts["core_numerics.integrate.calls"], "count"),
        "core_numerics.integrate.s": (secs("core_numerics.integrate"), "s"),
        "core_numerics.integrate.panels":
            (counts["core_numerics.integrate.nodes"] // _KRONROD_POINTS, "count"),
        "cf_bounds.vdc_cf.calls": (counts["cf_bounds.vdc_cf.calls"], "count"),
        "cf_bounds.vdc_cf.s": (secs("cf_bounds.vdc_cf"), "s"),
        "cf_bounds.build_chain.s": (secs("cf_bounds.build_chain"), "s"),
        "cf_bounds.make_envelope.s": (secs("cf_bounds.make_envelope"), "s"),
        "envelope_integrals.sup_fk_bound.s": (secs("envelope_integrals.sup_fk_bound"), "s"),
        "envelope_integrals.maxf_theorem_check.s":
            (secs("envelope_integrals.maxf_theorem_check"), "s"),
        "moments.pump_moments.s": (secs("moments.pump_moments"), "s"),
        "moments.g_moment.calls": (counts["moments.g_moment.calls"], "count"),
        "quicksort_sim.sample_many.s": (secs("quicksort_sim.sample_many"), "s"),
        "quicksort_sim.ks_distance.s": (secs("quicksort_sim.ks_distance"), "s"),
        "quicksort_sim.chi_square_vs_exact.s": (secs("quicksort_sim.chi_square_vs_exact"), "s"),
        "report.build_artifacts.s": (secs("report.build_artifacts"), "s"),
    }
    for n in DRAW_SIZES:
        draws = [s for s in spans if s.name == "quicksort_sim.sample_many" and s.attrs["n"] == n]
        m = sum(s.attrs["m"] for s in draws)
        us = 1e6 * sum(s.seconds for s in draws) / m if m else 0.0
        out[f"quicksort_sim.sample_many.us_per_draw.n{n}"] = (us, "us/draw")
    for gate in GATES:
        out[f"report.{gate}.s"] = (secs(f"report.{gate}"), "s")
    own = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        if layer_of(s.name) in own:
            own[layer_of(s.name)] += t
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own[layer], "s")
    return out


def exact_counters(tracer: Tracer) -> dict:
    metrics = per_layer_metrics(tracer)
    return {name: metrics[name][0] for name in EXACT_COUNTERS}
