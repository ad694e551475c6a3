"""One benchmark iteration in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED [--spans PATH]

MODE is `setup` (set up only), `run` (set up, then one untraced iteration)
or `trace` (set up, then one traced iteration, spans written to PATH).
Set-up time runs from the top of this file, before numpy and qslimit are
imported, to the moment the seeded inputs are ready.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "run", "trace"])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    out = {
        "setup_s": time.perf_counter() - _START,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.mode == "trace" else None
    with tracing.instrument(tracer) if tracer else nullcontext():
        root = tracer.span(f"bench.{args.workload}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with root:
            values = run(inputs, checks)
        wall = time.perf_counter() - t0
    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        moment_gap=values.get("moment_gap"),
        checks=[[c.name, c.passed, c.detail] for c in checks.items],
    )
    if tracer:
        # the route gap is recomputed after the timed window closes
        art = values.get("art")
        gap = workloads.route_gap(art["phi"], art["density"]) if art else 0.0
        per_layer = tracing.per_layer_metrics(tracer)
        per_layer["report.route_gap"] = (gap, "1")
        out.update(per_layer=per_layer, counters=tracing.exact_counters(tracer))
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "trace_id": f"{args.workload}-{args.seed}",
                           **tracer.to_json()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
