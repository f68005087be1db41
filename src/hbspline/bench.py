"""Synthetic regression benchmark: designs, test functions, MSE runs.

Four predictor designs of increasing difficulty (uniform cube, bimodal
t mixture, strongly correlated Gaussian, banana-shaped curved ridge)
are crossed with four regression surfaces (a sharply varying 2-d wave,
a two-bump 2-d density-like surface, a smooth 3-d additive-ish field,
and a 4-d additive mix of polynomial and oscillatory pieces).  Noise
is calibrated to a target signal-to-noise ratio by seeded Monte Carlo,
and each replicate fits every (method, q) cell on a fresh train/test
draw, scoring the prediction mean squared error against the noiseless
surface on the test points.

Every run is a pure function of its config: data, noise, and selector
streams are split off one counter-based root seed, so re-running a
config (at any worker count) reproduces the result table byte for
byte.  Wall-clock timings are recorded only when explicitly requested,
keeping default outputs deterministic.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularSystemError, as_int, as_points, as_real
from .kernels import default_spec
from .selection import (
    METHODS,
    SelectionConfig,
    _rng,
    _subseed,
    apply_scaler,
    condition5_diagnostic,
    scale_to_unit_cube,
    select,
)
from .solver import gcv_select, mse, predict

__all__ = [
    "DISTRIBUTIONS",
    "FUNCTIONS",
    "FUNCTION_DIMS",
    "ExperimentConfig",
    "ResultRow",
    "ExperimentResult",
    "gen_design",
    "eval_function",
    "calibrate_noise",
    "run_experiment",
    "CSV_HEADER",
]

DISTRIBUTIONS = ("d1", "d2", "d3", "d4")
FUNCTIONS = ("f1", "f2", "f3", "f4")
FUNCTION_DIMS = {"f1": 2, "f2": 2, "f3": 3, "f4": 4}
BENCH_METHODS = METHODS + ("full",)

CSV_HEADER = "distribution,function,method,q,replicate,mse,fit_seconds,lambda,cond5"

_CALIBRATE_BLOCK = 4096  # design rows that calibrate_noise scales and evaluates at once


def gen_design(dist: str, n: int, d: int, seed, d2_variant: str = "mixture") -> np.ndarray:
    """Draw n raw design points from one of the synthetic distributions.

    Parameters
    ----------
    dist : str
        'd1' uniform on the unit cube; 'd2' coordinates i.i.d. from an
        equal mixture of t(10) shifted to -5 and +5; 'd3' Gaussian with
        covariance 0.9^|i-j|; 'd4' banana shape (Z1, Z2 + Z1^2/1.2, ...,
        Zd + Z1^2/1.2) with Z standard normal.
    n, d : int
        Sample size and dimension.
    seed : int, SeedSequence or Generator
        Randomness source; an int or a SeedSequence (its entropy and
        spawn key) seeds a Philox stream.
    d2_variant : str
        'mixture' draws each coordinate from one randomly chosen
        component; 'average' instead averages two independent t draws
        with opposite shifts (a unimodal alternative reading).

    Returns
    -------
    ndarray
        Raw (n, d) sample, unscaled.
    """
    if dist not in DISTRIBUTIONS:
        raise InvalidConfigError(f"unknown distribution {dist!r}")
    n, d = as_int("n", n), as_int("d", d)
    if n < 0 or d < 1:
        raise InvalidConfigError(f"n={n} must be >= 0 and dimension d={d} >= 1")
    if dist == "d4" and d < 2:
        raise InvalidConfigError("banana design needs d >= 2")
    if isinstance(seed, np.random.SeedSequence):
        seed = _rng(seed.entropy, *seed.spawn_key)
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    if dist == "d1":
        return rng.random((n, d))
    if dist == "d2":
        t = rng.standard_t(10, size=(n, d))
        if d2_variant == "mixture":
            shift = np.where(rng.random((n, d)) < 0.5, -5.0, 5.0)
            return t + shift
        if d2_variant == "average":
            t2 = rng.standard_t(10, size=(n, d))
            return ((t - 5.0) + (t2 + 5.0)) / 2.0
        raise InvalidConfigError(f"unknown d2_variant {d2_variant!r}")
    return _from_normal(dist, d)(rng.standard_normal((n, d)))


def _from_normal(dist: str, d: int):
    """d3's or d4's map from standard-normal (n, d) rows Z to the design.

    d3 is Z C' with C C' = 0.9^|i-j|; d4 adds Z1^2/1.2 to Z's other columns
    in place.  Worker threads call it, so perfbench's tracer must not wrap it.
    """
    if dist == "d3":
        cov = 0.9 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        chol_t = np.linalg.cholesky(cov).T
        return lambda Z: Z @ chol_t

    def banana(Z):
        Z[:, 1:] += (Z[:, :1] ** 2) / 1.2
        return Z
    return banana


def eval_function(fn: str, x) -> np.ndarray:
    """Evaluate a test surface at points of the unit cube.

    'f1' (d=2): sin(10 / (x1 + x2 + 0.15)).
    'f2' (d=2): two Gaussian bumps with widths 0.1 and 0.2, amplitude
        0.75/(pi*0.1*0.2) each, centered at (0.2, 0.3) and (0.7, 0.5).
    'f3' (d=3): sin(pi (x1+x2+x3)/3) - x1 - x2^2.
    'f4' (d=4): x1 + (2 x2 - 1)^2 / 2
        + [sin(10 pi x3) / (2 - sin(10 pi x3))] / 3
        + [0.1 sin(2 pi x4) + 0.2 cos(4 pi x4) + 0.3 sin(6 pi x4)^2
           + 0.4 cos(8 pi x4)^3 + 0.5 sin(10 pi x4)^3] / 4.
    """
    if fn not in FUNCTIONS:
        raise InvalidConfigError(f"unknown function {fn!r}")
    X = as_points("x", x, FUNCTION_DIMS[fn])
    if fn == "f1":
        out = np.sin(10.0 / (X[:, 0] + X[:, 1] + 0.15))
    elif fn == "f2":
        s1, s2 = 0.1, 0.2
        amp = 0.75 / (np.pi * s1 * s2)
        b1 = amp * np.exp(
            -((X[:, 0] - 0.2) ** 2) / s1**2 - ((X[:, 1] - 0.3) ** 2) / s2**2
        )
        b2 = amp * np.exp(
            -((X[:, 0] - 0.7) ** 2) / s1**2 - ((X[:, 1] - 0.5) ** 2) / s2**2
        )
        out = b1 + b2
    elif fn == "f3":
        out = np.sin(np.pi * (X[:, 0] + X[:, 1] + X[:, 2]) / 3.0) - X[:, 0] - X[:, 1] ** 2
    else:
        x3 = X[:, 2]
        x4 = X[:, 3]
        s10 = np.sin(10.0 * np.pi * x3)
        part3 = (s10 / (2.0 - s10)) / 3.0
        part4 = (
            0.1 * np.sin(2.0 * np.pi * x4)
            + 0.2 * np.cos(4.0 * np.pi * x4)
            + 0.3 * np.sin(6.0 * np.pi * x4) ** 2
            + 0.4 * np.cos(8.0 * np.pi * x4) ** 3
            + 0.5 * np.sin(10.0 * np.pi * x4) ** 3
        ) / 4.0
        out = X[:, 0] + (2.0 * X[:, 1] - 1.0) ** 2 / 2.0 + part3 + part4
    return out if np.asarray(x).ndim > 1 else float(out[0])


def calibrate_noise(
    fn: str,
    dist: str,
    snr: float,
    seed,
    n_mc: int = 100_000,
    d2_variant: str = "mixture",
) -> float:
    """Noise standard deviation hitting a target signal-to-noise ratio.

    Draws n_mc design points, scales them to the unit cube by their own
    column min and max, and sets sigma = sqrt(var(surface) / snr) from the
    Monte Carlo variance of the surface over that scaled sample.
    Deterministic given the seed.  It holds the raw design, one n_mc
    vector of surface values and one block of _CALIBRATE_BLOCK scaled
    rows, never a scaled copy of the whole design.

    Raises
    ------
    InvalidConfigError
        Before any draw, if snr <= 0, fn is unknown or n_mc < 1; after
        it, if the surface is constant on the design.
    """
    snr = as_real("snr", snr)
    if snr <= 0:
        raise InvalidConfigError(f"snr must be positive, got {snr}")
    if fn not in FUNCTIONS:
        raise InvalidConfigError(f"unknown function {fn!r}")
    if (n_mc := as_int("n_mc", n_mc)) < 1:
        raise InvalidConfigError(f"n_mc must be >= 1, got {n_mc}")
    raw = gen_design(dist, n_mc, FUNCTION_DIMS[fn], seed, d2_variant=d2_variant)
    # scale_to_unit_cube's scaler, applied a block at a time: each row's
    # scaling and surface value are elementwise, so values are the same.
    scaler = np.vstack([raw.min(axis=0), raw.max(axis=0)])
    values = np.empty(n_mc)
    for start in range(0, n_mc, _CALIBRATE_BLOCK):
        block = slice(start, start + _CALIBRATE_BLOCK)
        values[block] = eval_function(fn, apply_scaler(raw[block], scaler)[0])
    var = float(np.var(values))
    if var <= 0.0:
        raise InvalidConfigError(f"surface {fn} is constant on design {dist}")
    return float(np.sqrt(var / snr))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of benchmark cells to run.

    Each replicate draws n training and n test rows, and q_grid entries
    must not exceed n.  The 'full' method ignores q and is skipped (rows
    marked failed) past full_cap rows: the full-basis solve is cubic in n.
    """

    distribution: str
    function: str
    n: int = 2000
    q_grid: tuple = (20, 40, 60, 80, 100)
    methods: tuple = METHODS
    replicates: int = 100
    snr: float = 2.0
    seed: int = 0
    full_cap: int = 1000
    d2_variant: str = "mixture"

    def __post_init__(self):
        for name, low in (("n", 2), ("replicates", 1), ("seed", 0), ("full_cap", 0)):
            object.__setattr__(self, name, v := as_int(name, getattr(self, name)))
            if v < low:
                raise InvalidConfigError(f"{name} must be >= {low}")
        object.__setattr__(self, "snr", as_real("snr", self.snr))
        if self.snr <= 0:
            raise InvalidConfigError("snr must be positive")
        for name in ("q_grid", "methods"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise InvalidConfigError(f"{name} must be a list, not {v!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise InvalidConfigError(f"unknown distribution {self.distribution!r}")
        if self.function not in FUNCTIONS:
            raise InvalidConfigError(f"unknown function {self.function!r}")
        # An integral float such as 10.0 counts as an integer; 2.5, "40"
        # and true do not.
        whole = [int(q) if isinstance(q, (float, np.floating)) and q.is_integer() else q
                 for q in self.q_grid]
        try:
            object.__setattr__(self, "q_grid", tuple(as_int("q_grid", q) for q in whole))
        except InvalidConfigError:
            raise InvalidConfigError(f"q_grid must be a list of integers, not {self.q_grid!r}") from None
        object.__setattr__(
            self, "methods", tuple(str(m).lower() for m in self.methods)
        )
        if not self.q_grid:
            raise InvalidConfigError("q_grid is empty")
        for q in self.q_grid:
            if not (1 <= q <= self.n):
                raise InvalidConfigError(f"q={q} outside [1, n={self.n}]")
        if not self.methods:
            raise InvalidConfigError("methods is empty")
        for m in self.methods:
            if m not in BENCH_METHODS:
                raise InvalidConfigError(
                    f"unknown method {m!r}; expected subset of {BENCH_METHODS}"
                )

    @property
    def d(self) -> int:
        return FUNCTION_DIMS[self.function]


@dataclass(frozen=True)
class ResultRow:
    distribution: str
    function: str
    method: str
    q: int
    replicate: int
    mse: float
    fit_seconds: float
    lam: float
    cond5: float

    def to_csv(self) -> str:
        def num(v):
            return "nan" if not np.isfinite(v) else repr(float(v))

        return (
            f"{self.distribution},{self.function},{self.method},{self.q},"
            f"{self.replicate},{num(self.mse)},{num(self.fit_seconds)},"
            f"{num(self.lam)},{num(self.cond5)}"
        )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    sigma: float
    rows: tuple

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [r.to_csv() for r in self.rows]
        return "\n".join(lines) + "\n"

    def median_mse(self, method: str, q: int) -> float:
        vals = [
            r.mse
            for r in self.rows
            if r.method == method and r.q == q and np.isfinite(r.mse)
        ]
        if not vals:
            return float("nan")
        return float(np.median(vals))


def _replicate_rows(cfg: ExperimentConfig, sigma: float, rep: int, timings: bool):
    """All result rows of one replicate; pure function of (cfg, sigma, rep)."""
    d = cfg.d
    raw_train = gen_design(
        cfg.distribution, cfg.n, d, _rng(cfg.seed, 1, rep), d2_variant=cfg.d2_variant
    )
    raw_test = gen_design(
        cfg.distribution, cfg.n, d, _rng(cfg.seed, 2, rep), d2_variant=cfg.d2_variant
    )
    noiseless = scale_to_unit_cube(raw_train, np.zeros(cfg.n))
    noise = sigma * _rng(cfg.seed, 3, rep).standard_normal(cfg.n)
    data = dataclasses.replace(noiseless, y=eval_function(cfg.function, noiseless.X) + noise)
    test_scaled, _ = apply_scaler(raw_test, data.scaler)
    eta0_test = eval_function(cfg.function, test_scaled)
    spec = default_spec(d)

    cond5_cache: dict[int, float] = {}
    rows = []
    for mi, method in enumerate(cfg.methods):
        q_values = (cfg.n,) if method == "full" else cfg.q_grid
        for q in q_values:
            if q not in cond5_cache:
                cond5_cache[q] = condition5_diagnostic(
                    data, SelectionConfig(q=q, method="hbs", seed=0), warn=False
                )
            failed = ResultRow(
                cfg.distribution, cfg.function, method, q, rep,
                float("nan"), 0.0, float("nan"), cond5_cache[q],
            )
            if method == "full" and cfg.n > cfg.full_cap:
                rows.append(failed)
                continue
            sel_cfg = SelectionConfig(
                q=q,
                method="ubs" if method == "full" else method,
                seed=_subseed(cfg.seed, 4, rep, mi, q),
            )
            sel = select(data, sel_cfg)
            t0 = time.perf_counter() if timings else 0.0
            try:
                model = gcv_select(data, sel, spec)
            except SingularSystemError:
                rows.append(failed)
                continue
            fit_seconds = (time.perf_counter() - t0) if timings else 0.0
            err = mse(predict(model, raw_test), eta0_test)
            rows.append(
                dataclasses.replace(failed, mse=err, fit_seconds=fit_seconds, lam=model.lam)
            )
    return rows


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, timings: bool = False) -> ExperimentResult:
    """Run every (method, q, replicate) cell of a benchmark config.

    Parameters
    ----------
    cfg : ExperimentConfig
    jobs : int
        Worker processes for replicates, at least 1; any value yields
        identical results, assembled in a fixed (method, q, replicate) order.
    timings : bool
        Record wall-clock fit time per cell.  Off by default so that
        the output is a deterministic function of the config.

    Returns
    -------
    ExperimentResult
        One row per cell; failed fits carry NaN markers instead of
        aborting the run.
    """
    if (jobs := as_int("jobs", jobs)) < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    sigma = calibrate_noise(
        cfg.function, cfg.distribution, cfg.snr,
        np.random.SeedSequence(cfg.seed, spawn_key=(0,)), d2_variant=cfg.d2_variant,
    )
    reps = range(cfg.replicates)
    if jobs > 1 and cfg.replicates > 1:
        # Imported here: multiprocessing costs every CLI process ~25 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(
                pool.map(_replicate_worker, [(cfg, sigma, r, timings) for r in reps])
            )
    else:
        chunks = [_replicate_rows(cfg, sigma, r, timings) for r in reps]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.method, r.q, r.replicate))
    return ExperimentResult(config=cfg, sigma=sigma, rows=tuple(rows))


def _replicate_worker(args):
    cfg, sigma, rep, timings = args
    return _replicate_rows(cfg, sigma, rep, timings)
