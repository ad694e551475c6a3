"""Command-line front end: every pipeline as a subcommand emitting CSV/JSON.

All output is deterministic given the flags and --seed: JSON is pretty-printed
with sorted keys, CSV numbers use %.17g, and every random stream is a PCG64
seeded explicitly.  Exit codes: 0 success, 1 any pipeline error, a closed
stdout included (one error: line on stderr), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial

import numpy as np

from .cf_bounds import build_chain, make_envelope
from .cf_solver import init_gaussian_cf, invert_cf, iterate_cf
from .core_numerics import Grid, IterationError, QuadratureError
from .density_solver import (
    cdf,
    convergence_report,
    gaussian_density,
    iterate_density,
    uniform_density,
)
from .envelope_integrals import SUP_F1_CAP, SUP_F_CAP, sup_fk_bound
from .moments import abs_moment_bounds, pump_moments
from .quicksort_sim import simulate
from .report import run_acceptance

__all__ = ["main"]


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header, *columns) -> str:
    """Header lines, then one row per sample with every number as %.17g."""
    rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    return "\n".join(list(header) + rows) + "\n"


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _chain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-p", type=float, default=3.5,
                   help="largest decay exponent in the chain (default 3.5)")
    p.add_argument("--log", action="store_true",
                   help="splice the logarithmic refinement into the envelope")


def _cf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", type=float, default=200.0)
    p.add_argument("--grid-size", type=int, default=4096)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)


def _density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--dx", type=float, default=0.005)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--u-nodes", type=int, default=64)
    p.add_argument("--init", choices=["gaussian", "uniform"], default="gaussian")


def _iterate_cf_from(args):
    init = init_gaussian_cf(t_max=args.t_max, n=args.grid_size)
    return iterate_cf(init, max_iter=args.iters, tol=args.tol)


def _iterate_density_from(args):
    make = gaussian_density if args.init == "gaussian" else uniform_density
    f0 = make(x_min=args.x_min, x_max=args.x_max, dx=args.dx)
    return iterate_density(f0, max_iter=args.iters, tol=args.tol,
                           u_nodes=args.u_nodes)


def _cmd_bounds(args) -> int:
    chain = build_chain(args.max_p)
    env = make_envelope(chain, use_log=args.log)
    if args.json:
        _emit(args, _dump_json({"chain": chain.to_json(),
                                "envelope": env.to_json()}))
        return 0
    lines = ["p          c                    ceiling              provenance"]
    for row in chain.to_json():
        lines.append(f"{row['p']:<10g} {row['c']:<20.10g} "
                     f"{row['ceiling']:<20.10g} {row['provenance']}")
    lines.append("")
    lines.append("envelope pieces (t_lo, t_hi, form, p, c):")
    for piece in env.to_json():
        lines.append(f"  [{piece['t_lo']:.10g}, {piece['t_hi']}] "
                     f"{piece['form']} p={piece['p']:g} c={piece['c']:.10g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sup(args, k: int, cap: float) -> int:
    env = make_envelope(build_chain(4.5 if args.with_9_2 else 3.5), use_log=args.trick)
    val = sup_fk_bound(env, k)
    verdict = "PASS" if val < cap else "FAIL"
    if args.json:
        _emit(args, _dump_json({"k": k, "bound": val, "cap": cap,
                                "trick": args.trick, "with_9_2": args.with_9_2,
                                "verdict": verdict}))
    else:
        f = "f" + "'" * k
        _emit(args, f"sup {f} <= {val:.10g}\nmax {f} < {cap:g}: {verdict}\n")
    return 0 if verdict == "PASS" else 1


def _cmd_phi(args) -> int:
    phi, iters, history = _iterate_cf_from(args)
    sys.stderr.write(f"converged in {iters} sweeps, final diff {history[-1]:.3e}\n")
    _emit(args, _csv(["t,re,im"], phi.xs, phi.values.real, phi.values.imag))
    return 0


def _cmd_invert(args) -> int:
    xs = Grid.domain(args.x_min, args.x_max, args.dx)
    phi, _, _ = _iterate_cf_from(args)
    out = invert_cf(phi, k=args.k, xs=xs)
    header = ["x,f"] if args.k == 0 else [f"# k={args.k}", "x,fk"]
    _emit(args, _csv(header, out.xs, out.values))
    return 0


def _cmd_density(args) -> int:
    dens, _, hist = _iterate_density_from(args)
    if args.convergence is not None:
        with open(args.convergence, "w") as fh:
            fh.write(_dump_json(convergence_report(dens, hist)))
    if args.json:
        _emit(args, _dump_json(convergence_report(dens, hist)))
    else:
        _emit(args, _csv(["x,f"], dens.xs, dens.values))
    return 0


def _cmd_cdf(args) -> int:
    dens, _, _ = _iterate_density_from(args)
    F = cdf(dens)
    _emit(args, _csv(["x,F"], F.xs, F.values))
    return 0


def _load_cdf_csv(path: str) -> Grid:
    """An x,F CSV (one header line) as a Grid; x must be uniformly spaced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is rejected below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: a CDF CSV needs at least 2 rows of x,F")
    xs, Fs = data[:, 0], data[:, 1]
    dx = float(xs[1] - xs[0])
    steps = np.diff(xs)
    if not np.allclose(steps, dx, rtol=0.0, atol=1e-9 * abs(dx)):
        raise ValueError(f"{path}: CDF grid must be uniformly spaced")
    return Grid(float(xs[0]), dx, Fs)


def _cmd_simulate(args) -> int:
    ref = _load_cdf_csv(args.cdf) if args.cdf is not None else None
    summary, _ = simulate(args.n, args.samples, seed=args.seed,
                          reference_cdf=ref)
    if args.histogram is not None:
        edges = summary.hist_edges
        with open(args.histogram, "w") as fh:
            fh.write(_csv(["bin_lo,bin_hi,count"], edges[:-1], edges[1:],
                          summary.hist_counts))
    _emit(args, _dump_json(summary.to_json()))
    return 0


def _cmd_moments(args) -> int:
    ms = pump_moments(args.max_k)
    if args.json:
        _emit(args, _dump_json({"moments": list(ms.values),
                                "abs_bounds": abs_moment_bounds(ms)}))
        return 0
    lines = ["k    m_k"]
    for k in range(len(ms)):
        lines.append(f"{k:<4d} {ms[k]:.15g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_report(args) -> int:
    results = run_acceptance(seed=args.seed, samples=args.samples)
    _emit(args, "\n".join(r.line() for r in results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qslimit",
        description="limit law of quicksort comparison counts: bounds, "
                    "characteristic function, density, simulation")
    top.add_argument("--output", default=None,
                     help="write to this file instead of standard output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="decay-bound chain and envelope")
    _chain_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    for name, k, cap, hlp in [("supf", 0, SUP_F_CAP, "integrated envelope bound on sup f"),
                              ("supf1", 1, SUP_F1_CAP, "integrated envelope bound on sup f'")]:
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--trick", action="store_true",
                       help="use the logarithmic refinement")
        p.add_argument("--with-9-2", action="store_true", dest="with_9_2",
                       help="extend the chain to p = 9/2")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=partial(_cmd_sup, k=k, cap=cap))

    p = sub.add_parser("phi", help="iterate the CF fixed point, dump t,re,im")
    _cf_args(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("invert", help="Fourier-invert the CF fixed point")
    _cf_args(p)
    p.add_argument("--k", type=int, default=0, help="derivative order")
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--dx", type=float, default=0.005)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("density", help="iterate the density map, dump x,f")
    _density_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the convergence report instead of the CSV")
    p.add_argument("--convergence", default=None,
                   help="also write the convergence JSON to this path")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("cdf", help="CDF of the density fixed point, dump x,F")
    _density_args(p)
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("simulate", help="sample comparison counts, JSON summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cdf", default=None,
                   help="x,F CSV to compute a KS distance against")
    p.add_argument("--histogram", default=None,
                   help="write a bin_lo,bin_hi,count CSV of the standardized sample")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("moments", help="moment recursion m_2..m_K")
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("report", help="run the full acceptance table")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(func=_cmd_report)

    return top


def _guarded(run, *args) -> int:
    """Exit code of run(*args) with stdout flushed: a pipeline error is 1 and one error: line.

    Flushing here, not at interpreter exit, catches a reader that closed the
    pipe (`| head`); stdout then points at the null device, so the exit-time
    flush of what is still buffered cannot fail a second time.
    """
    try:
        code = run(*args)
        sys.stdout.flush()
        return code
    except (ValueError, KeyError, QuadratureError, IterationError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
