"""Command-line interface: fit, predict, bench, theory, hilbert.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.  Every data-producing command writes a manifest
JSON beside its output recording the command, a hash of its effective
configuration, the seed, and any warnings; all outputs are
bit-reproducible given the same flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .bench import DISTRIBUTIONS, ExperimentConfig, run_experiment
from .errors import HbsplineError, IngestionError, InvalidConfigError, InvalidInputError
from .hilbert import CurveOrder, decode, encode, point_to_index
from .ingest import (
    append_prediction_csv,
    load_json_config,
    manifest_path,
    read_numeric_csv,
    write_manifest,
)
from .kernels import AnovaSpec, default_spec
from .selection import (
    METHODS,
    SelectionConfig,
    condition5_diagnostic,
    scale_to_unit_cube,
    select,
)
from .solver import (
    fit_fixed_lambda,
    gcv_select,
    load_model,
    model_predictor_names,
    predict_with_diagnostics,
    save_model,
)
from .theory import DEFAULT_Q_LIST, variance_scaling_study


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _build_parser() -> _Parser:
    parser = _Parser(prog="hbspline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit a model on a CSV file")
    p_fit.add_argument("--data", required=True, help="training CSV with header")
    p_fit.add_argument("--response", required=True, help="response column name")
    p_fit.add_argument("--method", default="hbs", choices=METHODS)
    p_fit.add_argument("--q", type=int, required=True, help="basis size")
    p_fit.add_argument("--C", type=int, default=None, help="histogram bins (hbs)")
    p_fit.add_argument("--k", type=int, default=None, help="curve order (hbs)")
    p_fit.add_argument("--predictors", default=None, help="comma-separated columns")
    p_fit.add_argument("--spec", default=None, help="JSON term-structure file")
    p_fit.add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="fixed smoothing parameter (default: GCV search)",
    )
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="model JSON path")

    p_pred = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark config")
    p_bench.add_argument("--config", required=True, help="experiment JSON")
    p_bench.add_argument("--out", required=True, help="results CSV")
    p_bench.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at least 1 (default: 1)",
    )
    p_bench.add_argument(
        "--timings", action="store_true",
        help="record wall-clock fit times (makes output machine-dependent)",
    )

    p_theory = sub.add_parser("theory", help="variance scaling study")
    p_theory.add_argument("--dist", required=True, choices=DISTRIBUTIONS)
    p_theory.add_argument("--dim", type=int, required=True)
    p_theory.add_argument("--out", required=True, help="report CSV")
    p_theory.add_argument("--replicates", type=int, default=200)
    p_theory.add_argument("--n", type=int, default=100_000)
    p_theory.add_argument("--q-list", default=None, help="comma-separated bin counts")
    p_theory.add_argument("--seed", type=int, default=0)

    p_hil = sub.add_parser("hilbert", help="curve debugging")
    p_hil.add_argument("action", choices=["encode", "decode", "index"])
    p_hil.add_argument("--d", type=int, required=True)
    p_hil.add_argument("--k", type=int, required=True)
    p_hil.add_argument("--cell", default=None, help="comma-separated coordinates")
    p_hil.add_argument("--index", type=int, default=None)
    p_hil.add_argument("--point", default=None, help="comma-separated floats")

    return parser


@contextlib.contextmanager
def _staged(out):
    """Yield the path to write out to; it becomes out when the block ends.

    The output goes to '<out>.part', renamed onto out after the block
    has also written the manifest, and removed if the block fails, so a
    failed command leaves no output.  Both files are opened first, so an
    unwritable --out or manifest fails before any work.
    """
    part = f"{out}.part"
    manifest = manifest_path(out)
    manifest_existed = os.path.exists(manifest)
    try:
        open(part, "w").close()
        open(manifest, "a").close()  # "a" leaves an existing manifest as it is
        if not manifest_existed:
            os.remove(manifest)
        yield part
        os.replace(part, out)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _load_spec(path, d: int) -> AnovaSpec:
    obj = load_json_config(path)
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{path}: expected a JSON object")
    unknown = set(obj) - {"main_effects", "interactions", "d"}
    if unknown:
        raise InvalidConfigError(f"unknown spec keys: {sorted(unknown)}")
    lists = ("main_effects", "interactions")
    not_lists = [k for k in lists if not isinstance(obj.get(k, []), (list, type(None)))]
    if not_lists:
        raise InvalidConfigError(f"{path}: spec keys must be lists: {not_lists}")
    if obj.get("d", d) != d:
        raise InvalidConfigError(
            f"{path}: spec key 'd' is {obj['d']!r}, but the data has {d} predictors"
        )
    try:
        return AnovaSpec(
            d=d,
            main_effects=tuple(obj.get("main_effects", range(d))),
            interactions=tuple(tuple(p) for p in obj.get("interactions", ())),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: malformed spec: {exc}") from None


def _check_finite(path, X, names, y=None, response=None):
    """Name the first NaN or infinite cell by its CSV row (the header is
    row 1) and column name; the library would give a 0-based data index."""
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise InvalidInputError(
            f"{path}: non-finite predictor at row {r + 2}, column {names[c]!r}"
        )
    if y is not None and not np.all(np.isfinite(y)):
        r = int(np.flatnonzero(~np.isfinite(y))[0])
        raise InvalidInputError(
            f"{path}: non-finite response at row {r + 2}, column {response!r}"
        )


def _cmd_fit(args) -> int:
    started = _now()
    with _staged(args.out) as part:
        predictors = args.predictors.split(",") if args.predictors else None
        X, y, names = read_numeric_csv(args.data, response=args.response, predictors=predictors)
        if not len(X):
            raise IngestionError(f"{args.data}: no data rows to fit on")
        _check_finite(args.data, X, names, y, args.response)
        # A constant column has no scale to map onto [0, 1] and its main
        # effect no data to fit; name it rather than leave it to the rank rule.
        constant = [name for name, col in zip(names, X.T) if col.min() == col.max()]
        if constant:
            raise InvalidInputError(
                f"{args.data}: constant predictor column {', '.join(map(repr, constant))};"
                " leave it out with --predictors"
            )
        data = scale_to_unit_cube(X, y)
        spec = _load_spec(args.spec, data.d) if args.spec else default_spec(data.d)
        cfg = SelectionConfig(
            q=args.q, method=args.method, seed=args.seed, C=args.C, k=args.k
        )
        sel = select(data, cfg)
        if args.lam is not None:
            model = fit_fixed_lambda(data, sel, spec, args.lam)
        else:
            model = gcv_select(data, sel, spec)
        save_model(model, part, predictors=names)
        warnings = {}
        if model.diagnostics["dropped_directions"]:
            warnings["dropped_directions"] = model.diagnostics["dropped_directions"]
        if args.method == "hbs":
            warnings["bin_balance"] = condition5_diagnostic(data, cfg)
        config = {
            "data": args.data,
            "response": args.response,
            "predictors": names,
            "method": args.method,
            "q": args.q,
            "C": args.C,
            "k": args.k,
            "spec": args.spec,
            "lambda": args.lam,
            "seed": args.seed,
        }
        write_manifest(args.out, "fit", config, args.seed, warnings, started)
    print(
        f"fit: n={data.n} d={data.d} q={sel.q} method={args.method} "
        f"lambda={model.lam:.6g} gcv={model.gcv_score:.6g} -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    started = _now()
    with _staged(args.out) as part:
        model = load_model(args.model)
        names = model_predictor_names(args.model)
        X, _, used = read_numeric_csv(args.data, predictors=names)
        _check_finite(args.data, X, used)
        d = model.scaler.shape[1]
        if len(X) and X.shape[1] != d:
            raise IngestionError(
                f"{args.data}: {X.shape[1]} predictor columns, model expects {d}"
            )
        preds, clamped = predict_with_diagnostics(model, X)
        append_prediction_csv(args.data, part, preds)
        warnings = {"clamped_coordinates": clamped} if clamped else {}
        config = {"model": args.model, "data": args.data, "predictors": used}
        write_manifest(args.out, "predict", config, None, warnings, started)
    print(f"predict: {len(preds)} rows -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    started = _now()
    with _staged(args.out) as part:
        obj = load_json_config(args.config)
        problems = []
        if not isinstance(obj, dict):
            raise InvalidConfigError(f"{args.config}: expected a JSON object")
        unknown = set(obj) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            problems.append(f"unknown keys: {sorted(unknown)}")
        for key in ("distribution", "function"):
            if key not in obj:
                problems.append(f"missing key: {key}")
        if problems:
            raise InvalidConfigError(f"{args.config}: " + "; ".join(problems))
        cfg = ExperimentConfig(**obj)
        result = run_experiment(cfg, jobs=args.jobs, timings=args.timings)
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(result.to_csv())
        failures = sum(1 for r in result.rows if not np.isfinite(r.mse))
        warnings = {"failed_cells": failures} if failures else {}
        write_manifest(args.out, "bench", obj, cfg.seed, warnings, started)
    print(
        f"bench: {len(result.rows)} rows ({failures} failed) "
        f"sigma={result.sigma:.6g} -> {args.out}"
    )
    print(f"{'method':>8} {'q':>5} {'median MSE':>12}")
    # Rows are sorted by (method, q, replicate): one line per cell.
    for method, q in dict.fromkeys((r.method, r.q) for r in result.rows):
        print(f"{method:>8} {q:>5} {result.median_mse(method, q):>12.5f}")
    return 0


def _cmd_theory(args) -> int:
    started = _now()
    with _staged(args.out) as part:
        q_list = tuple(_parse_ints(args.q_list, "q-list")) if args.q_list else DEFAULT_Q_LIST
        report = variance_scaling_study(
            args.dist,
            args.dim,
            q_list=q_list,
            replicates=args.replicates,
            seed=args.seed,
            n=args.n,
        )
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        config = {
            "dist": args.dist,
            "dim": args.dim,
            "replicates": args.replicates,
            "n": args.n,
            "q_list": list(report.q_list),
            "seed": args.seed,
        }
        write_manifest(args.out, "theory", config, args.seed, {}, started)
    print(report.summary())
    print(f"theory: report -> {args.out}")
    return 0


def _parse_ints(text, what):
    try:
        return [int(v) for v in text.split(",")]
    except (ValueError, AttributeError):
        raise InvalidConfigError(f"--{what} expects comma-separated values") from None


def _cmd_hilbert(args) -> int:
    order = CurveOrder(k=args.k, d=args.d)
    if args.action == "encode":
        if args.cell is None:
            raise InvalidConfigError("encode requires --cell")
        cell = _parse_ints(args.cell, "cell")
        print(encode(np.asarray(cell), order))
    elif args.action == "decode":
        if args.index is None:
            raise InvalidConfigError("decode requires --index")
        coords = decode(args.index, order)
        print(" ".join(str(int(c)) for c in coords))
    else:
        if args.point is None:
            raise InvalidConfigError("index requires --point")
        try:
            point = [float(v) for v in args.point.split(",")]
        except ValueError:
            raise InvalidConfigError("--point expects comma-separated floats") from None
        print(point_to_index(np.asarray(point), order))
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
    "theory": _cmd_theory,
    "hilbert": _cmd_hilbert,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except HbsplineError as exc:
        print(f"hbspline {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output file or directory that cannot be written
        print(f"hbspline {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
