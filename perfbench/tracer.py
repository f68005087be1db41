"""In-memory span recorder and the timing wrappers it swaps into hbspline.

A span is one call into a layer's public function: its name
("<layer>.<function>"), start and end (time.perf_counter, which reads
CLOCK_MONOTONIC and so is comparable across processes on one host), the
id of the span that was open when it started, and the id of the benchmark
operation it belongs to.  Spans stay in memory and are written out once.

Wrappers replace the attribute that the *calling* module looks up
(e.g. ``hbspline.solver.cho_factor``), so calls a module makes to its own
helpers are not split into spans and nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter

LAYERS = ("cli", "ingest", "selection", "hilbert", "kernels", "solver", "bench", "theory")

# Caller module -> attributes it looks up at call time.  The layer of a
# span is the hbspline module that defines the function, or the caller's
# layer for third-party functions (scipy's cho_factor/cho_solve belong to
# the solver).
WRAP_POINTS = {
    "hbspline.cli": (
        "read_numeric_csv", "append_prediction_csv", "write_manifest",
        "scale_to_unit_cube", "select", "condition5_diagnostic", "gcv_select",
        "save_model", "load_model", "model_predictor_names",
        "predict_with_diagnostics",
    ),
    "hbspline.selection": ("point_to_index", "index_to_center"),
    "hbspline.solver": (
        "gram_matrix", "null_space_eval", "rescale_term_weights",
        "cho_factor", "cho_solve", "apply_scaler",
    ),
    "hbspline.bench": (
        "calibrate_noise", "gen_design", "eval_function", "scale_to_unit_cube",
        "apply_scaler", "condition5_diagnostic", "select", "gcv_select",
        "predict", "mse",
    ),
    "hbspline.theory": (
        "reference_integral", "gen_design", "apply_scaler",
        "dataset_from_unit_cube", "hbs_select", "ubs_select",
        "stratified_integral_estimate",
    ),
}


def _layer_of(fn, caller: str) -> str:
    home = getattr(fn, "__module__", "") or ""
    if home.startswith("hbspline."):
        return home.split(".")[1]
    return caller.split(".")[1]


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(a)


def _count_read(counts, args, kwargs, out):
    counts["ingest.rows_read"] += len(out[0])
    counts["ingest.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_reread(counts, args, kwargs, out):
    # append_prediction_csv parses its input CSV again to copy the rows.
    counts["ingest.bytes_read"] += os.path.getsize(args[0] if args else kwargs["in_path"])


def _count_mapped(counts, args, kwargs, out):
    counts["hilbert.points_mapped"] += _rows(args[0] if args else kwargs["x"])


def _count_gram(counts, args, kwargs, out):
    counts["kernels.gram_entries"] += int(out.size)


COUNTERS = {
    "read_numeric_csv": _count_read,
    "append_prediction_csv": _count_reread,
    "point_to_index": _count_mapped,
    "gram_matrix": _count_gram,
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, op_id: int = 0, parent: str | None = None):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op_id = op_id
        self._stack: list[str | None] = [parent]
        self._prefix = f"p{os.getpid()}-"
        self._next = 0
        self._restore: list[tuple] = []

    def new_id(self) -> str:
        self._next += 1
        return f"{self._prefix}{self._next}"

    def record(self, span_id, name, start, end, parent, error):
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": self.op_id, "error": error,
        })

    def _wrap(self, caller: str, attr: str):
        module = importlib.import_module(caller)
        fn = getattr(module, attr)
        name = f"{_layer_of(fn, caller)}.{attr}"
        count = COUNTERS.get(attr)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        setattr(module, attr, timed)
        self._restore.append((module, attr, fn))

    def install(self):
        """Swap every wrap point for its timing wrapper."""
        for caller, attrs in WRAP_POINTS.items():
            for attr in attrs:
                self._wrap(caller, attr)

    def uninstall(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the enclosed code; nested spans are its children."""
        span_id = self.new_id()
        parent = self._stack[-1]
        self._stack.append(span_id)
        error = True
        start = time.perf_counter()
        try:
            yield
            error = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.record(span_id, name, start, end, parent, error)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def merge(self, path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        self.spans.extend(obj["spans"])
        self.counts.update(obj["counts"])


def self_times(spans) -> dict:
    """Self time per span id: duration minus the time its children cover.

    Spans are recorded by single-threaded code, so the children of one
    span never overlap and their durations simply add.
    """
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}
