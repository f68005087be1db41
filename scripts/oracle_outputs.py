#!/usr/bin/env python3
"""Write the outputs that a refactor must leave byte-identical.

    python scripts/oracle_outputs.py OUT_DIR

Writes six files into OUT_DIR, the first five through the command line:

    bench.csv       hbspline bench --config configs/default_bench.json
    theory.csv      hbspline theory --dist d4 --dim 2 --replicates 20 --n 20000
    model.json      hbspline fit --method hbs --q 200 on the benchmark's
                    fit-large data (20 000 d4/f4 rows, seed 60)
    scored.csv      hbspline predict of that model on the fit-large test rows
    sbs_model.json  hbspline fit --method sbs --q 200 on the same data
    sigma.csv       calibrate_noise's sigma, as repr, for every (function,
                    distribution) pair and d2's "average" variant, at the
                    default n_mc and seed 60, computed in this process

The manifests carry timestamps, so they stay out of OUT_DIR: run the script
on two checkouts and ``diff -r parent_out change_out`` is the check.  BLAS
runs one thread, as in the benchmark.
"""

import argparse
import os
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from hbspline.bench import DISTRIBUTIONS, FUNCTIONS, calibrate_noise  # noqa: E402
from hbspline.cli import main as hbspline  # noqa: E402
from perfbench.workloads import FitLarge  # noqa: E402

SEED = 60


def oracle_commands(work):
    """(output file name, CLI arguments writing it into work), in run order."""
    fit_large = FitLarge(SEED, work)
    fit_large.setup()
    model = os.path.join(work, "model.json")
    return [
        ("bench.csv", ["bench", "--config", os.path.join(ROOT, "configs", "default_bench.json")]),
        ("theory.csv", ["theory", "--dist", "d4", "--dim", "2", "--replicates", "20",
                        "--n", "20000"]),
        ("model.json", ["fit", "--data", fit_large.train_csv, "--response", "y",
                        "--method", "hbs", "--q", str(FitLarge.Q), "--seed", str(SEED)]),
        ("scored.csv", ["predict", "--model", model, "--data", fit_large.test_csv]),
        ("sbs_model.json", ["fit", "--data", fit_large.train_csv, "--response", "y",
                            "--method", "sbs", "--q", str(FitLarge.Q), "--seed", str(SEED)]),
    ]


def sigma_csv() -> str:
    """calibrate_noise's sigma at SNR 2 for every design, one row each."""
    designs = [(f, d, "mixture") for f in FUNCTIONS for d in DISTRIBUTIONS]
    designs += [(f, "d2", "average") for f in FUNCTIONS]
    rows = ["function,distribution,d2_variant,sigma"]
    for fn, dist, variant in designs:
        sigma = calibrate_noise(fn, dist, 2.0, SEED, d2_variant=variant)
        rows.append(f"{fn},{dist},{variant},{sigma!r}")
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, cli_args in oracle_commands(work):
            out = os.path.join(work, name)
            code = hbspline(cli_args + ["--out", out])
            if code:
                print(f"{name}: hbspline {cli_args[0]} exited {code}", file=sys.stderr)
                return code
            shutil.copyfile(out, os.path.join(args.out_dir, name))
            print(f"wrote {os.path.join(args.out_dir, name)}")
    path = os.path.join(args.out_dir, "sigma.csv")
    with open(path, "w") as f:
        f.write(sigma_csv())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
