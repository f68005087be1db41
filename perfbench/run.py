"""hbspline benchmark: three workloads, end-to-end metrics, traced layer run.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ``src/``.  The
seed makes the inputs.  ``--trace 0`` measures the end-to-end metrics with
nothing swapped in; ``--trace 1`` alternates untraced and traced operations
and reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-run details (environment, samples, spans) go to .perfbench_runs/.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread for this process and the CLI processes it starts.  On a
# 2-core machine two OpenBLAS threads made bench-small 1.5x slower, and up
# to 8x slower while another process held a core; one thread is steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOAD_NAMES = ("fit-large", "bench-small", "theory-select")

END_TO_END = ("setup_s", "op_s", "peak_rss_mib")


def _tail(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"p": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": workload.seed,
        "rstar_bytes": workload.rstar_bytes,
    }


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in names:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def layer_metrics(w, tracer, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics, each averaged over the traced operations."""
    from tracer import LAYERS, self_times

    ops = max(len(traced_walls), 1)
    selfs = self_times(tracer.spans)
    layer_self = Counter({layer: 0.0 for layer in LAYERS})
    total, calls, errors = Counter(), Counter(), Counter()
    for s in tracer.spans:
        layer_self[s["name"].split(".")[0]] += selfs[s["id"]]
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        errors[s["name"]] += bool(s["error"])
    fit_self = sum(selfs[s["id"]] for s in tracer.spans if s["name"] == "cli.fit")
    predict_self = sum(selfs[s["id"]] for s in tracer.spans if s["name"] == "cli.predict")

    def secs(*names):
        return sum(total[n] for n in names) / ops

    def per_op(value):
        return value / ops

    factorizations = calls["solver.cho_factor"]
    counts = tracer.counts
    gram_entries = counts["kernels.gram_entries"]
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    m = {
        "cli.fit_self_s": (per_op(fit_self), "s"),
        "cli.predict_self_s": (per_op(predict_self), "s"),
        "ingest.read_s": (secs("ingest.read_numeric_csv"), "s"),
        "ingest.rows_read": (per_op(counts["ingest.rows_read"]), "count"),
        "ingest.bytes_read": (per_op(counts["ingest.bytes_read"]), "B"),
        "ingest.write_s": (secs("ingest.append_prediction_csv", "ingest.write_manifest"), "s"),
        "selection.scale_s": (secs("selection.scale_to_unit_cube", "selection.apply_scaler",
                                   "selection.dataset_from_unit_cube"), "s"),
        "selection.select_s": (secs("selection.select", "selection.hbs_select",
                                    "selection.ubs_select"), "s"),
        "selection.select_calls": (per_op(calls["selection.select"] + calls["selection.hbs_select"]
                                          + calls["selection.ubs_select"]), "count"),
        "selection.cond5_s": (secs("selection.condition5_diagnostic"), "s"),
        "hilbert.point_to_index_s": (secs("hilbert.point_to_index"), "s"),
        "hilbert.points_mapped": (per_op(counts["hilbert.points_mapped"]), "count"),
        "kernels.gram_s": (secs("kernels.gram_matrix"), "s"),
        "kernels.gram_entries": (per_op(gram_entries), "count"),
        "kernels.gram_bytes_computed": (per_op(gram_entries * 8), "B"),
        "kernels.null_space_s": (secs("kernels.null_space_eval"), "s"),
        "kernels.rescale_s": (secs("kernels.rescale_term_weights"), "s"),
        "solver.gcv_select_s": (secs("solver.gcv_select"), "s"),
        "solver.factorizations": (per_op(factorizations), "count"),
        "solver.factor_failures": (per_op(errors["solver.cho_factor"]), "count"),
        "solver.factor_success_ratio": (
            (factorizations - errors["solver.cho_factor"]) / factorizations
            if factorizations else 0.0, "ratio"),
        "solver.solves": (per_op(calls["solver.cho_solve"]), "count"),
        "solver.solve_s": (secs("solver.cho_solve"), "s"),
        "solver.predict_s": (secs("solver.predict", "solver.predict_with_diagnostics"), "s"),
        "solver.model_io_s": (secs("solver.save_model", "solver.load_model",
                                   "solver.model_predictor_names"), "s"),
        "bench.calibrate_s": (statistics.median(w.calibrate_s) if w.calibrate_s else 0.0, "s"),
        "bench.gen_design_s": (secs("bench.gen_design"), "s"),
        "bench.rows": (statistics.mean(w.op_rows) if w.op_rows else 0, "count"),
        "bench.failed_rows": (statistics.mean(w.op_failed_rows) if w.op_rows else 0, "count"),
        "theory.reference_s": (secs("theory.reference_integral"), "s"),
        "theory.estimate_s": (secs("theory.stratified_integral_estimate"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s")
    m.update({
        "trace.ops": (len(traced_walls), "count"),
        "trace.spans_per_op": (per_op(len(tracer.spans)), "count"),
        "trace.untraced_op_s": (untraced, "s"),
        "trace.traced_op_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        "trace.accounted_frac": (
            sum(layer_self.values()) / sum(traced_walls), "ratio"),
    })
    return m


def run_workload(name, seed, seconds, trace) -> int:
    import workloads
    from tracer import LAYERS, Tracer

    work_dir = os.path.join(RUNS_DIR, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    w = workloads.WORKLOADS[name](seed, work_dir)

    setup_s = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    late = 0
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.op_id = len(traced) + 1
            tracer.install()
        try:
            wall = w.op(tracer if use_tracer else None)
        except Exception as exc:  # an operation that raises is a failed operation
            w.attempted += 1
            w.fail(f"operation raised {type(exc).__name__}: {exc}")
            wall = None
        finally:
            if use_tracer:
                tracer.uninstall()
        if wall is not None:
            (traced if use_tracer else untraced).append(wall)
        if time.perf_counter() >= deadline:
            # Past the deadline, stop once both kinds of sample exist, or
            # after two more tries when operations keep raising.
            late += 1
            if (untraced and (tracer is None or traced)) or late > 2:
                break
    try:
        w.finish()
    except Exception as exc:
        w.fail(f"final check raised {type(exc).__name__}: {exc}")

    figures = {"setup_s": (setup_s, "s"), "op_s": (untraced, "s")}
    if untraced:
        figures["peak_rss_mib"] = (w.peak_rss_mib(), "MiB")
    figures.update(w.report())
    details = {"workload": name, "why": w.why, "env": environment(w),
               "figures": {k: v for k, (v, _) in figures.items()}, "problems": w.problems}
    print(f"== {name} (seed {seed}, {seconds} s, trace {trace}): {w.why}")
    for key, (value, unit) in figures.items():
        if isinstance(value, list):
            tail = _tail(value)
            tail_text = (f", p{tail['p']:.0f} {tail['value']:.4f}" if tail
                         else ", no tail percentile below 11 samples")
            median = statistics.median(value) if value else float("nan")
            print(f"  {key:<22} {median:.4f} {unit} (median of n={len(value)}{tail_text})")
        else:
            print(f"  {key:<22} {value:.6g} {unit}")
    attempted = max(w.attempted, 1)
    print(f"  {'failed_frac':<22} {w.failed / attempted:.6g} ratio"
          f" ({w.failed} of {attempted} operations)")
    for problem in w.problems:
        print(f"  FAILED: {problem}")
    print("  env " + json.dumps(details["env"], sort_keys=True))

    metrics = {}
    if trace and traced and untraced:
        metrics = layer_metrics(w, tracer, traced, untraced)
        tracer.dump(os.path.join(work_dir, "trace.json"))
        self_line = ", ".join(f"{layer} {metrics[layer + '.self_s'][0]:.3f}" for layer in LAYERS)
        print(f"  self time per op (s): {self_line}")
        print(f"  tracing overhead: {metrics['trace.overhead_s'][0]:+.4f} s per op "
              f"({metrics['trace.overhead_frac'][0]:+.2%} of untraced)")
    elif not trace and untraced:
        metrics = {key: (statistics.median(v) if isinstance(v, list) else v, unit)
                   for key, (v, unit) in figures.items() if key in END_TO_END}
    for path in ("train.csv", "test.csv", "scored.csv"):
        if os.path.exists(os.path.join(work_dir, path)):
            os.remove(os.path.join(work_dir, path))
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    failed = min(w.failed, attempted)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": details["metrics"],
    }))
    return 0 if correct else 1


def run_all(seed, seconds, trace) -> int:
    """Run every workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(f"{name}: no result line (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hbspline", "__init__.py")):
        print(f"error: {SRC}/hbspline not found; run from an hbspline checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, SRC)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
