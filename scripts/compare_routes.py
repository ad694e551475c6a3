#!/usr/bin/env python3
"""Cross-check the three routes to the limit density against each other.

Route A: iterate the density map directly on a grid.
Route B: iterate the characteristic-function map, then Fourier-invert.
Route C: the moment pump (compared through the first few moments only).

Prints sup/rms gaps on a comparison window plus a moment table, and can dump
the pointwise A-vs-B comparison as CSV for plotting elsewhere.

Usage:
  python scripts/compare_routes.py
  python scripts/compare_routes.py --window -2 4 --csv routes.csv
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from qslimit.cf_solver import init_gaussian_cf, invert_cf, iterate_cf
from qslimit.cli import _csv, _guarded
from qslimit.density_solver import gaussian_density, iterate_density
from qslimit.moments import pump_moments


def grid_moment(xs: np.ndarray, vals: np.ndarray, k: int) -> float:
    return float(np.trapezoid(xs**k * vals, xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--window", type=float, nargs=2, default=[-2.0, 4.0],
                    metavar=("LO", "HI"))
    ap.add_argument("--csv", default="")
    args = ap.parse_args(argv)
    x_lo, x_hi = args.window

    t0 = time.perf_counter()
    dens, d_iters, d_hist = iterate_density(gaussian_density())
    t1 = time.perf_counter()
    print(f"route A (density map): {d_iters} sweeps, last diff {d_hist[-1]:.2e}, "
          f"{t1 - t0:.1f}s")

    phi, c_iters, c_hist = iterate_cf(init_gaussian_cf())
    inverted = invert_cf(phi, xs=dens)
    t2 = time.perf_counter()
    print(f"route B (cf + inversion): {c_iters} sweeps, last diff {c_hist[-1]:.2e}, "
          f"{t2 - t1:.1f}s")

    xs = dens.xs
    mask = (xs >= x_lo) & (xs <= x_hi)
    f_a = dens.values[mask]
    f_b = inverted.values[mask]
    gap = np.abs(f_a - f_b)
    print(f"A vs B on [{x_lo}, {x_hi}]: sup {gap.max():.3e}, "
          f"rms {np.sqrt((gap**2).mean()):.3e}")

    ms = pump_moments(6)
    print("\n  k   moment pump     route A grid    route B grid")
    for k in range(2, 5):
        ma = grid_moment(dens.xs, dens.values, k)
        mb = grid_moment(xs, inverted.values, k)
        print(f"  {k}   {ms[k]:<14.8f}  {ma:<14.8f}  {mb:<14.8f}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(_csv(["x,f_density_map,f_cf_inversion,abs_gap"], xs[mask], f_a, f_b, gap))
        print(f"\nwrote {int(mask.sum())} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(_guarded(main))
