#!/usr/bin/env python3
"""Reproduce the decay-bound chain and the sup-norm bounds it implies.

Walks the chain to increasing depth, prints each rung against its display
ceiling, then integrates the spliced envelopes to get explicit bounds on
max f and max f'.  Deeper chains should only ever tighten the integrals.

Usage:
  python scripts/reproduce_bounds.py
  python scripts/reproduce_bounds.py --depths 1.5 2.5 3.5 4.5 --csv bounds_sweep.csv
"""
from __future__ import annotations

import argparse
import math
import sys

from qslimit.cf_bounds import build_chain, display_ceiling, make_envelope
from qslimit.cli import _csv, _guarded
from qslimit.envelope_integrals import sup_fk_bound


def rung_table(chain) -> str:
    """One line per DecayBound rung: exponent, constant, display ceiling, margin."""
    lines = ["    p      c                    ceiling        margin"]
    for bound in chain.entries:
        ceiling = display_ceiling(bound)
        lines.append(f"  {bound.p:5.2f}  {bound.c:<20.10g} {ceiling:<14g} "
                     f"{(1.0 - bound.c / ceiling) * 100:7.3f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=float, nargs="+", default=[1.5, 2.5, 3.5, 4.5],
                    help="half-integer decay targets, deepest last")
    ap.add_argument("--csv", default="", help="optionally dump the sweep as CSV")
    args = ap.parse_args(argv)

    rows = []
    for depth in args.depths:
        chain = build_chain(depth)
        env_plain = make_envelope(chain)
        f0_plain = sup_fk_bound(env_plain, 0)
        # the log splice needs a rung past p = 2 to rejoin the tail
        env_log = make_envelope(chain, use_log=True) if depth > 2 else None
        f0_log = sup_fk_bound(env_log, 0) if env_log is not None else math.nan
        row = {"depth": depth, "sup_f_plain": f0_plain, "sup_f_log": f0_log}
        if depth >= 3.5 and env_log is not None:
            row["sup_f1_plain"] = sup_fk_bound(env_plain, 1)
            row["sup_f1_log"] = sup_fk_bound(env_log, 1)
        rows.append(row)

        print(f"chain to p = {depth}")
        print(rung_table(chain))
        print(f"  sup f  <= {f0_plain:.6f} (plain)   {f0_log:.6f} (log splice)")
        if "sup_f1_plain" in row:
            print(f"  sup f' <= {row['sup_f1_plain']:.4f} (plain)   "
                  f"{row['sup_f1_log']:.4f} (log splice)")
        print()

    if args.csv:
        keys = ["depth", "sup_f_plain", "sup_f_log", "sup_f1_plain", "sup_f1_log"]
        with open(args.csv, "w") as fh:
            fh.write(_csv([",".join(keys)],
                          *([row.get(k, math.nan) for row in rows] for k in keys)))
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(_guarded(main))
