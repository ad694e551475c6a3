#!/usr/bin/env python3
"""Watch the standardized comparison count converge to its limit law.

Sweeps input sizes, simulating m runs at each n, and reports how the sample
variance of (X_n - E X_n)/n approaches the limiting variance together with
the exact value Var X_n / n^2.  Optionally checks each sample
against a gridded reference CDF with the KS statistic.

Usage:
  python scripts/run_simulation.py
  python scripts/run_simulation.py --ns 100 1000 10000 --samples 50000 \\
      --ref-cdf limit_cdf.csv --csv convergence.csv
"""
from __future__ import annotations

import argparse
import sys
import time

from qslimit.cli import _csv, _guarded, _load_cdf_csv
from qslimit.moments import VARIANCE
from qslimit.quicksort_sim import exact_variance, simulate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, nargs="+", default=[100, 500, 2000, 10000])
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--ref-cdf", default="",
                    help="CSV with columns x,F for the standardized limit law")
    ap.add_argument("--csv", default="")
    args = ap.parse_args(argv)

    ref = _load_cdf_csv(args.ref_cdf) if args.ref_cdf else None
    print(f"limit variance = {VARIANCE:.10f}\n")
    header = "     n    exact var/n^2   sample var     rel gap to limit"
    if ref is not None:
        header += "   KS"
    print(header)

    rows = []
    for n in args.ns:
        t0 = time.perf_counter()
        # vary the seed per n so the sweeps are independent but reproducible
        summary, _ys = simulate(n, args.samples, seed=args.seed + n, reference_cdf=ref)
        exact = exact_variance(n) / n**2
        rel = abs(summary.var_std - VARIANCE) / VARIANCE
        line = (f"  {n:6d}  {exact:.10f}   {summary.var_std:.10f}   "
                f"{rel:10.2%}")
        if ref is not None:
            line += f"      {summary.ks:.4f}"
        print(line + f"   ({time.perf_counter() - t0:.1f}s)")
        row = {"n": n, "exact_var_over_n2": exact,
               "sample_var": summary.var_std, "rel_gap": rel}
        if ref is not None:
            row["ks"] = summary.ks
        rows.append(row)

    if args.csv:
        keys = list(rows[0])
        with open(args.csv, "w") as fh:
            fh.write(_csv([",".join(keys)], *([row[k] for row in rows] for k in keys)))
        print(f"\nwrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(_guarded(main))
