#!/usr/bin/env python3
"""Fit a model on synthetic clustered data and score it, end to end.

Walks the library API: draw a design, pick basis points, run the GCV
search, and evaluate test MSE against the noiseless surface.
"""

import argparse
import dataclasses
import sys

import numpy as np

from hbspline.bench import DISTRIBUTIONS, FUNCTION_DIMS, FUNCTIONS, eval_function, gen_design
from hbspline.kernels import default_spec
from hbspline.selection import METHODS, SelectionConfig, apply_scaler, scale_to_unit_cube, select
from hbspline.solver import gcv_select, mse, predict


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dist", default="d4", choices=DISTRIBUTIONS)
    ap.add_argument("--function", default="f1", choices=FUNCTIONS)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--q", type=int, default=60)
    ap.add_argument("--method", default="hbs", choices=METHODS)
    ap.add_argument("--sigma", type=float, default=0.5, help="noise standard deviation")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    d = FUNCTION_DIMS[args.function]
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))

    raw_train = gen_design(args.dist, args.n, d, gen)
    raw_test = gen_design(args.dist, args.n, d, gen)
    probe = scale_to_unit_cube(raw_train, np.zeros(args.n))
    eta = eval_function(args.function, probe.X)
    data = dataclasses.replace(probe, y=eta + args.sigma * gen.standard_normal(args.n))

    sel = select(data, SelectionConfig(q=args.q, method=args.method, seed=args.seed))
    model = gcv_select(data, sel, default_spec(d))

    # predict applies the model's scaler itself; the surface is evaluated
    # on the scaled points.
    X_test, clamped = apply_scaler(raw_test, data.scaler)
    test_mse = mse(predict(model, raw_test), eval_function(args.function, X_test))

    print(f"fit: {args.dist}/{args.function} n={args.n} q={args.q} method={args.method}")
    print(f"selected lambda = {model.lam:.4e}  (GCV score {model.gcv_score:.5f})")
    print(f"test MSE vs noiseless surface = {test_mse:.5f}  ({clamped} test points clamped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
