#!/usr/bin/env python3
"""Compare two `hbspline bench` CSVs of the same config, row by row.

    python scripts/compare_bench.py PARENT.csv CHANGE.csv

Prints the rows whose chosen lambda differs, then every cell's median
MSE in both files and its relative change.  A row is one (distribution,
function, method, q, replicate); a cell is one (distribution, function,
method, q), and its median is taken over the finite MSEs as
`hbspline bench` takes it.  Exits 1 when the files do not hold the same
rows.
"""

import argparse
import csv
import sys

import numpy as np

KEY = ("distribution", "function", "method", "q", "replicate")


def read_rows(path):
    """{row key: row dict} of one bench CSV, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(fh)}


def median_mse(rows, cell):
    vals = [float(r["mse"]) for key, r in rows.items() if key[:4] == cell]
    vals = [v for v in vals if np.isfinite(v)]
    return float(np.median(vals)) if vals else float("nan")


def compare(parent, change):
    """Report lines for two {row key: row} maps with the same keys."""
    moved = [k for k in parent if parent[k]["lambda"] != change[k]["lambda"]]
    lines = [f"lambda moved in {len(moved)} of {len(parent)} rows"]
    for k in moved:
        lines.append(
            f"  {' '.join(k[:3])} q={k[3]} replicate={k[4]}: "
            f"{parent[k]['lambda']} -> {change[k]['lambda']}"
        )
    lines.append("median MSE per cell: parent -> change (relative change)")
    worst = 0.0
    for cell in dict.fromkeys(k[:4] for k in parent):
        a, b = median_mse(parent, cell), median_mse(change, cell)
        rel = (b - a) / a if a else float("nan")
        worst = max(worst, abs(rel))
        lines.append(f"  {' '.join(cell[:3])} q={cell[3]}: {a!r} -> {b!r} ({rel:+.2e})")
    lines.append(f"largest relative change in a cell median: {worst:.2e}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="bench CSV of the reference code")
    ap.add_argument("change", help="bench CSV of the changed code, same config")
    args = ap.parse_args(argv)
    parent, change = read_rows(args.parent), read_rows(args.change)
    if parent.keys() != change.keys():
        print(f"{args.parent} and {args.change} hold different rows", file=sys.stderr)
        return 1
    print("\n".join(compare(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
