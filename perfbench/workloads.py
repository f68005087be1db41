"""The benchmark's three workloads.

Each workload is closed loop with one client: the next operation starts
when the previous one has finished, all from one process (fit-large spawns
one CLI process at a time).  BLAS runs one thread (set in run.py and
recorded with every result); ``run_experiment`` runs with ``jobs=1``.

A workload object has
  - ``setup()``: make the inputs from the seed and warm up; timed as setup_s;
  - ``op(tracer)``: one operation, returning its wall time in seconds, or
    None when it failed; with a tracer, every layer call in it is a span;
  - ``finish()``: correctness checks that need the last outputs.
Failures of any check are recorded with ``fail()`` and count against the
operations attempted.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import hbspline.bench
import hbspline.theory
from hbspline.bench import ExperimentConfig, calibrate_noise, eval_function, gen_design
from hbspline.selection import apply_scaler
from hbspline.solver import load_model, mse, predict

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")
CLI_BOOT = "import sys; from hbspline.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60.0


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_csv(path, header, rows):
    # repr() of a Python float round-trips exactly, so the CLI parses the
    # same doubles the benchmark holds in memory.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(map(repr, row)) for row in rows.tolist()))
        fh.write("\n")


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


class Workload:
    name = ""
    why = ""
    rstar_bytes = 0
    # setup_s is the median of this many set-ups; fewer where one is slow.
    setup_repeats = 5

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrate_s: list[float] = []
        self.op_rows: list[int] = []
        self.op_failed_rows: list[int] = []
        self.first_digest = None

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def check_repeat(self, digest, what: str):
        """Outputs of every operation in a run must be byte-identical."""
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.fail(f"{what} differs between repeats")

    def setup(self):
        raise NotImplementedError

    def op(self, tracer) -> float | None:
        raise NotImplementedError

    def finish(self):
        pass

    def peak_rss_mib(self) -> float:
        """Peak RSS of the process that did the work; here, this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report(self) -> dict:
        """Workload-specific end-to-end figures for the human-readable report."""
        return {}


class FitLarge(Workload):
    """`hbspline fit` then `hbspline predict`, each in a fresh process."""

    name = "fit-large"
    why = (
        "CLI fit (hbs, q=200) then predict on 20000 d4/f4 rows, fresh processes: "
        "kernel assembly dominates; keeps start-up, ingest and peak RSS"
    )
    DIST, FN, D, SNR = "d4", "f4", 4, 2.0
    N_TRAIN = N_TEST = 20_000
    Q = 200
    rstar_bytes = N_TRAIN * Q * 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.train_csv = os.path.join(work_dir, "train.csv")
        self.test_csv = os.path.join(work_dir, "test.csv")
        self.model_json = os.path.join(work_dir, "model.json")
        self.scored_csv = os.path.join(work_dir, "scored.csv")
        self.fit_s: list[float] = []
        self.predict_s: list[float] = []
        self.fit_rss: list[float] = []
        self.predict_rss: list[float] = []
        self.test_mse = float("nan")

    def setup(self):
        s_cal, s_train, s_test, s_noise = np.random.SeedSequence(self.seed).spawn(4)
        t0 = time.perf_counter()
        sigma = calibrate_noise(self.FN, self.DIST, self.SNR, s_cal)
        self.calibrate_s.append(time.perf_counter() - t0)
        raw_train = gen_design(self.DIST, self.N_TRAIN, self.D, s_train)
        raw_test = gen_design(self.DIST, self.N_TEST, self.D, s_test)
        # The CLI scales by the training rows' min/max; so does the truth.
        scaler = np.vstack([raw_train.min(axis=0), raw_train.max(axis=0)])
        eta_train = eval_function(self.FN, apply_scaler(raw_train, scaler)[0])
        noise = np.random.Generator(np.random.Philox(s_noise)).standard_normal(self.N_TRAIN)
        y = eta_train + sigma * noise
        names = [f"x{j + 1}" for j in range(self.D)]
        _write_csv(self.train_csv, names + ["y"], np.column_stack([raw_train, y]))
        _write_csv(self.test_csv, names, raw_test)
        self.raw_test = raw_test
        self.eta_test = eval_function(self.FN, apply_scaler(raw_test, scaler)[0])

    def _cli(self, args, tracer, span_name) -> tuple[bool, float, float]:
        """Run one CLI process; returns (ok, wall seconds, peak RSS MiB)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_BOOT, *args]
        else:
            root_id = tracer.new_id()
            spans_path = os.path.join(self.work_dir, f"spans-{root_id}.json")
            cmd = [sys.executable, CLI_CHILD, spans_path, root_id, str(tracer.op_id), *args]
        log_path = os.path.join(self.work_dir, f"{args[0]}.log")
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.fail(f"hbspline {args[0]} exited {proc.returncode}; see {log_path}")
        if tracer is not None:
            tracer.record(root_id, span_name, t0, t1, None, not ok)
            if os.path.exists(spans_path):
                tracer.merge(spans_path)
                os.remove(spans_path)
        return ok, t1 - t0, usage.ru_maxrss / 1024.0

    def op(self, tracer) -> float | None:
        self.attempted += 2
        ok, fit_s, fit_rss = self._cli(
            ["fit", "--data", self.train_csv, "--response", "y", "--method", "hbs",
             "--q", str(self.Q), "--seed", str(self.seed), "--out", self.model_json],
            tracer, "cli.fit",
        )
        if not ok:
            self.fail("predict skipped after a failed fit")
            return None
        ok, predict_s, predict_rss = self._cli(
            ["predict", "--model", self.model_json, "--data", self.test_csv,
             "--out", self.scored_csv],
            tracer, "cli.predict",
        )
        if not ok:
            return None
        if tracer is None:
            self.fit_s.append(fit_s)
            self.predict_s.append(predict_s)
            self.fit_rss.append(fit_rss)
            self.predict_rss.append(predict_rss)
        self.check_repeat((_digest(self.model_json), _digest(self.scored_csv)),
                          "model JSON or scored CSV")
        return fit_s + predict_s

    def finish(self):
        if self.first_digest is None:
            return
        with open(self.scored_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("prediction")
        scored = np.array([float(r[col]) for r in rows[1:]])
        expected = predict(load_model(self.model_json), self.raw_test)
        if not np.array_equal(scored, expected):
            self.fail("scored CSV differs from in-process hbspline.solver.predict")
        self.test_mse = mse(scored, self.eta_test)
        bound = float(np.var(self.eta_test))
        if not (np.isfinite(self.test_mse) and self.test_mse < bound):
            self.fail(f"test_mse {self.test_mse!r} not below surface variance {bound!r}")

    def peak_rss_mib(self) -> float:
        return _median([max(a, b) for a, b in zip(self.fit_rss, self.predict_rss)])

    def report(self):
        return {
            "fit_s": (self.fit_s, "s"),
            "predict_s": (self.predict_s, "s"),
            "fit_peak_rss_mib": (_median(self.fit_rss), "MiB"),
            "predict_peak_rss_mib": (_median(self.predict_rss), "MiB"),
            "test_mse": (self.test_mse, "y^2"),
        }


class _Calibrated:
    """Stand-in for ``calibrate_noise`` that returns a value computed at set-up.

    Set-up pays for the Monte Carlo calibration once; any call with other
    arguments goes to the real function.
    """

    def __init__(self, real, args, sigma):
        self.real, self.args, self.sigma = real, args, sigma
        self.__module__ = real.__module__

    @staticmethod
    def key(fn, dist, snr, seed, n_mc=100_000, d2_variant="mixture"):
        return (fn, dist, snr, seed.entropy, tuple(seed.spawn_key), n_mc, d2_variant)

    def __call__(self, *args, **kwargs):
        if self.key(*args, **kwargs) == self.args:
            return self.sigma
        return self.real(*args, **kwargs)


class BenchSmall(Workload):
    """`hbspline.bench.run_experiment`: many small fits, in-process."""

    name = "bench-small"
    why = (
        "run_experiment d4/f1 n=2000 q 40-100 hbs+ubs jobs=1: the solver's "
        "per-lambda Cholesky and trace solves dominate many small fits"
    )
    REPLICATES = 2
    CFG = dict(distribution="d4", function="f1", n=2000, q_grid=(40, 60, 80, 100),
               methods=("hbs", "ubs"), snr=2.0)
    rstar_bytes = 2000 * 100 * 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cfg = ExperimentConfig(**self.CFG, replicates=self.REPLICATES, seed=seed)
        self.real_calibrate = hbspline.bench.calibrate_noise
        self.cells_per_s: list[float] = []
        self.result = None
        self.test_mse = float("nan")

    def setup(self):
        cfg = self.cfg
        args = (cfg.function, cfg.distribution, cfg.snr,
                np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
        t0 = time.perf_counter()
        self.sigma = self.real_calibrate(*args, d2_variant=cfg.d2_variant)
        self.calibrate_s.append(time.perf_counter() - t0)
        hbspline.bench.calibrate_noise = _Calibrated(
            self.real_calibrate, _Calibrated.key(*args, d2_variant=cfg.d2_variant), self.sigma
        )
        hbspline.bench.run_experiment(dataclasses.replace(cfg, replicates=1), jobs=1)

    def op(self, tracer) -> float:
        t0 = time.perf_counter()
        with _span(tracer, "bench.run_experiment"):
            result = hbspline.bench.run_experiment(self.cfg, jobs=1)
        wall = time.perf_counter() - t0
        rows = len(result.rows)
        bad = sum(1 for r in result.rows if not np.isfinite(r.mse))
        self.attempted += rows
        self.op_rows.append(rows)
        self.op_failed_rows.append(bad)
        for _ in range(bad):
            self.fail("run_experiment row with NaN mse")
        if tracer is None:
            self.cells_per_s.append(rows / wall)
        self.check_repeat(hashlib.sha256(result.to_csv().encode()).hexdigest(),
                          "run_experiment CSV")
        self.result = result
        return wall

    def finish(self):
        if self.result is None:
            return
        values = [r.mse for r in self.result.rows if np.isfinite(r.mse)]
        if values:
            self.test_mse = float(np.median(values))
        # calibrate_noise sets sigma^2 = var(surface) / snr over the design.
        bound = self.sigma**2 * self.cfg.snr
        if not (np.isfinite(self.test_mse) and self.test_mse < bound):
            self.fail(f"median test_mse {self.test_mse!r} not below surface variance {bound!r}")

    def report(self):
        return {
            "fits_per_s": (self.cells_per_s, "1/s"),
            "test_mse": (self.test_mse, "y^2"),
        }


class TheorySelect(Workload):
    """`hbspline.theory.variance_scaling_study`: Hilbert mapping and selection only."""

    name = "theory-select"
    why = (
        "variance_scaling_study d4 d=2 n=100000: Hilbert mapping and selection "
        "only, no kernels or solver; the no-change control for them"
    )
    REPLICATES = 5
    setup_repeats = 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.study_s: list[float] = []

    def _study(self, replicates):
        return hbspline.theory.variance_scaling_study(
            "d4", 2, replicates=replicates, seed=self.seed, n=100_000
        )

    def setup(self):
        # Two replicates: the study's standard error needs at least two.
        self._study(2)

    def op(self, tracer) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        with _span(tracer, "theory.variance_scaling_study"):
            report = self._study(self.REPLICATES)
        wall = time.perf_counter() - t0
        if tracer is None:
            self.study_s.append(wall)
        values = np.array(report.mse_strat + report.mse_rand + (report.slope_strat, report.slope_rand))
        if not (np.all(np.isfinite(values)) and min(report.mse_strat + report.mse_rand) > 0):
            self.fail("scaling study produced a non-finite or zero error")
        self.check_repeat(hashlib.sha256(report.to_csv().encode()).hexdigest(),
                          "scaling study CSV")
        return wall

    def report(self):
        return {"study_s": (self.study_s, "s")}


WORKLOADS = {w.name: w for w in (FitLarge, BenchSmall, TheorySelect)}
