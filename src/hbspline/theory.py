"""Empirical validation of the stratified-estimator variance rate.

The quantity Sum_j (n_j/n) * phi_nu(x*_j) * phi_mu(x*_j), built from
one Hilbert-stratified draw x*_j per histogram bin with bin counts
n_j, estimates the weighted integral of phi_nu * phi_mu against the
design density.  Stratifying along the curve makes the estimator's
squared error shrink like q^(-1-2/d) in the bin count q, whereas a
plain random subsample of size q only achieves q^(-1).  This module
measures both rates: it computes a high-precision quasi-Monte Carlo
reference value of the integral, replays many replicated draws, and
fits log-log slopes of mean squared error versus q.

Cosine products phi_nu(x) = prod_j sqrt(2) cos(pi nu_j x_j) (factor 1
where nu_j = 0) stand in for eigenfunctions: bounded, Lipschitz, and
orthonormal on the unit cube.

The population is pinned down by a fixed scaling map: the min-max
scaler of the quasi-Monte Carlo reference sample is reused to scale
every replicate draw (clamping the rare point that falls outside).
Re-scaling each replicate by its own extremes would perturb the
integrand by the fluctuation of the sample extremes, which does not
shrink with q and would mask the rates being measured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import selection
from .errors import InvalidConfigError, InvalidInputError, as_choice, as_indices, as_int, as_points
from .hilbert import MAX_BITS
from .selection import (
    SOBOL_BITS,
    BasisSelection,
    Dataset,
    SelectionConfig,
    _curve_order,
    _rng,
    _subseed,
    apply_scaler,
    dataset_from_unit_cube,
    hbs_select,
    ubs_select,
)
from .bench import DISTRIBUTIONS, _from_normal, _from_normal_bounds, gen_design

__all__ = [
    "EigenSurrogate",
    "ScalingReport",
    "reference_integral",
    "stratified_integral_estimate",
    "variance_scaling_study",
    "STRAT_SLOPE_WINDOW",
    "RAND_SLOPE_WINDOW",
    "DEFAULT_Q_LIST",
]

# The study's defaults start at q=64: well below that, bins are so
# coarse on curved designs that within-bin variation is still of the
# order of the total variation and the asymptotic exponent has not
# set in yet.
DEFAULT_Q_LIST = (64, 128, 256, 512, 1024)
STRAT_SLOPE_WINDOW = (-2.3, -1.7)
RAND_SLOPE_WINDOW = (-1.2, -0.8)


@dataclass(frozen=True)
class EigenSurrogate:
    """Cosine product phi_nu(x) = prod_j sqrt(2) cos(pi nu_j x_j).

    Coordinates with nu_j = 0 contribute a constant factor 1, so the
    family is orthonormal under the uniform measure on the cube.
    """

    nu: tuple

    def __post_init__(self):
        nu = tuple(as_int("multi-index entry", v, low=0) for v in self.nu)
        object.__setattr__(self, "nu", nu)

    def __call__(self, X) -> np.ndarray:
        X = as_points("X", X, len(self.nu))
        out = None
        for j, nj in enumerate(self.nu):
            if nj:
                f = np.pi * nj * X[:, j]
                np.cos(f, out=f)
                f *= np.sqrt(2.0)
                if out is None:
                    out = f
                else:
                    out *= f
        return np.ones(X.shape[0]) if out is None else out


def _as_phi_pair(phi_pair, d: int) -> tuple:
    """phi_pair as (nu, mu), unless it is not two EigenSurrogates of width d."""
    if not (isinstance(phi_pair, (tuple, list)) and len(phi_pair) == 2 and all(
            isinstance(phi, EigenSurrogate) and len(phi.nu) == d for phi in phi_pair)):
        raise InvalidInputError(
            f"phi_pair must be two EigenSurrogates of width d={d}, not {phi_pair!r}")
    return tuple(phi_pair)


def _t10_mixture_grid() -> tuple[np.ndarray, np.ndarray]:
    """Dense (cdf, x) grid of the equal t(10) mixture centered at -5 and +5."""
    from scipy.special import stdtr  # see _design_maps

    xs = np.linspace(-25.0, 25.0, 1 << 15)
    cdf = 0.5 * stdtr(10.0, xs + 5.0) + 0.5 * stdtr(10.0, xs - 5.0)
    return cdf, xs


def _t10_mixture_quantiles(u: np.ndarray, grid=None) -> np.ndarray:
    """Quantiles of the equal mixture of t(10) shifted by -5 and +5.

    Inverts the mixture CDF by monotone interpolation on a dense grid
    (built here unless passed in from _t10_mixture_grid); tail mass
    beyond +-20 of either center (< 2e-9) is clamped.
    """
    cdf, xs = _t10_mixture_grid() if grid is None else grid
    u = np.clip(u, cdf[0], cdf[-1])
    return np.interp(u, cdf, xs)


# The reference design is drawn, transformed, scaled and evaluated in
# chunks of about this many values (2**15 rows at d = 2), so the working
# memory is O(workers * chunk) at any d and any number of points.
_REFERENCE_CHUNK = 1 << 16

# numpy sums a contiguous float64 vector pairwise, halving it down to
# blocks of this many values, which it sums in eight interleaved lanes.
_PAIRWISE_BLOCK = 128

# The relative margin by which a chunk's bounds are widened, far above
# the rounding of the transforms (a few ulps) and far below the gaps
# between the extremes of different chunks.
_BOUND_MARGIN = 1e-9


def _chunk_rows(d: int) -> int:
    """Rows per reference chunk: a power of two, the largest <= _REFERENCE_CHUNK / d
    but at least _PAIRWISE_BLOCK, so that every chunk sum is one subtree of
    numpy's pairwise sum of the whole column."""
    return max(_PAIRWISE_BLOCK, 1 << ((_REFERENCE_CHUNK // d).bit_length() - 1))


def _usable_cores() -> int:
    """How many cores this process may run on (its CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _design_maps(dist: str, d: int):
    """The reference's map from uniform draws to design rows, and its bounds.

    Returns (transform, bounds).  transform(U) maps clipped uniform (n, d)
    rows to design rows by inverse transforms, overwriting U where it can.
    bounds(lo, hi) maps (m, d) boxes of U, given by their corners, to the
    (m, d) corners of boxes holding every row that transform makes from a
    U inside them: the marginal quantile function is monotone and the
    coupling's interval form (bench._from_normal_bounds) encloses its exact
    image, and _BOUND_MARGIN covers the rounding of both.
    """
    # Imported here so that importing the CLI does not load scipy, which
    # is slow to import and which predict never needs.
    from scipy.special import ndtri

    if dist == "d2":
        grid = _t10_mixture_grid()

        def marginal(U):
            return _t10_mixture_quantiles(U, grid)
    else:
        def marginal(U):
            return U if dist == "d1" else ndtri(U, out=U)

    if dist in ("d3", "d4"):
        couple, couple_bounds = _from_normal(dist, d), _from_normal_bounds(dist, d)
    else:
        couple, couple_bounds = (lambda Z: Z), (lambda lo, hi: (lo, hi))

    def transform(U):
        return couple(marginal(U))

    def bounds(lo, hi):
        lo, hi = couple_bounds(marginal(lo.copy()), marginal(hi.copy()))
        return lo - _BOUND_MARGIN * (1 + np.abs(lo)), hi + _BOUND_MARGIN * (1 + np.abs(hi))

    return transform, bounds


def _column_extremes(X: np.ndarray) -> np.ndarray:
    """(2, d) column minima and maxima of X.

    Column by column: a reduction along axis 0 of a C-ordered chunk is an
    order of magnitude slower.
    """
    cols = [X[:, j] for j in range(X.shape[1])]
    return np.array([[c.min() for c in cols], [c.max() for c in cols]])


def reference_integral(
    dist: str,
    d: int,
    phi_pair: tuple,
    seed: int = 0,
    log2_points: int = 23,
) -> tuple[float, np.ndarray]:
    """High-precision value of the integral of phi_nu phi_mu f_X.

    Uses 2**log2_points scrambled Sobol draws of the design pushed
    through its min-max scaler.  Returns (value, scaler); the scaler
    defines the population and must be reused to scale every sample
    whose estimates are compared against the value.  log2_points is in
    [1, SOBOL_BITS]: the Sobol sequence holds 2**SOBOL_BITS points.
    phi_pair must be two EigenSurrogates of width d (InvalidInputError).

    The stream is cut into chunks of about 2**16 values (2**15 rows at
    d = 2), each one task for a pool of one thread per usable core (the
    process's CPU affinity, so ``taskset`` limits it) or per chunk if fewer.
    A Sobol point depends only on its index, so every task draws its own
    chunk, and no design is stored.  Pass 1 takes the scaler: each task
    keeps only its chunk's per-column box of uniform draws, which bounds
    the chunk's design values (_design_maps); then, round by round, the
    pool transforms for each of the 2d extremes the untransformed chunk
    whose bound reaches furthest past the best extreme found so far, until
    no bound reaches past one.  Pass 2 draws, transforms, scales and
    evaluates every chunk and sums its products; the chunk sums, a power
    of two of them, are added in pairs, which is numpy's pairwise order
    for the mean of the whole product column.  So the value and scaler
    are bitwise those of one draw of the whole design, on any number of
    threads.

    Memory: one chunk per worker, plus about 2 KiB of task bookkeeping per
    chunk, at any log2_points.  Pass 1 transforms a few chunks for d1, d2
    and d4, but every chunk for d3, whose correlated coordinates' bounds
    are loose, so d3 transforms every chunk twice.
    """
    as_choice("distribution", dist, DISTRIBUTIONS)
    d, seed = as_int("d", d, low=1), as_int("seed", seed, low=0)
    log2_points = as_int("log2_points", log2_points, low=1, high=SOBOL_BITS)
    nu, mu = _as_phi_pair(phi_pair, d)
    # Imported here, as in bench.run_experiment, so that importing the
    # CLI does not load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    keep = [j for j in range(d) if nu.nu[j] or mu.nu[j]] or [0]
    nu_kept = EigenSurrogate(tuple(nu.nu[j] for j in keep))
    mu_kept = EigenSurrogate(tuple(mu.nu[j] for j in keep))
    n = 1 << log2_points
    step = min(n, _chunk_rows(d))
    starts = range(0, n, step)
    # One engine, built here, serves every thread: points only reads it.
    points = selection._sobol(d, seed & (2**63 - 1), step)
    transform, bounds = _design_maps(dist, d)
    eps = 2.0**-53

    def draw(start):
        U = points(start, step)
        return np.clip(U, eps, 1.0 - eps, out=U)

    # Clipping commutes with the extremes, so a chunk's box of uniform
    # draws is clipped after them rather than draw by draw.
    def box(start):
        return _column_extremes(points(start, step))

    def extremes(chunk):
        return _column_extremes(transform(draw(starts[chunk])))

    # The scaler is the selection module's: perfbench's tracer wraps this
    # module's names and expects their spans from one thread.
    def chunk_sum(start):
        scaled, _ = selection.apply_scaler(transform(draw(start))[:, keep], kept_scaler)
        return np.add.reduce(nu_kept(scaled) * mu_kept(scaled))

    with ThreadPoolExecutor(max_workers=min(_usable_cores(), len(starts))) as pool:
        boxes = np.clip(np.array(list(pool.map(box, starts))), eps, 1.0 - eps)
        lo, hi = bounds(boxes[:, 0], boxes[:, 1])
        scaler = np.array([np.full(d, np.inf), np.full(d, -np.inf)])
        pending = np.ones(len(starts), dtype=bool)
        while True:
            # A NaN bound reaches: only a transform can tell.
            below = pending[:, None] & ~(lo >= scaler[0])
            above = pending[:, None] & ~(hi <= scaler[1])
            picks = np.union1d(
                np.argmin(np.where(below, lo, np.inf), axis=0)[below.any(axis=0)],
                np.argmax(np.where(above, hi, -np.inf), axis=0)[above.any(axis=0)],
            )
            if not len(picks):
                break
            pending[picks] = False
            for low, high in pool.map(extremes, picks):
                np.minimum(scaler[0], low, out=scaler[0])
                np.maximum(scaler[1], high, out=scaler[1])
        kept_scaler = scaler[:, keep]
        sums = np.array(list(pool.map(chunk_sum, starts)))
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0] / n), scaler


def stratified_integral_estimate(
    data: Dataset, sel: BasisSelection, phi_pair: tuple
) -> float:
    """Weighted-sum estimate Sum_j w_j phi_nu(x*_j) phi_mu(x*_j).

    w_j is the selection's bin weight: (bin count)/(n * draws from the
    bin) for stratified selections, 1/q for plain subsamples, so the
    weights total (points in non-empty bins)/n.

    Raises
    ------
    InvalidInputError
        If phi_pair is not two EigenSurrogates of the data's width, an
        index is not a row of data (errors.as_indices), or the weights are
        not one positive finite number per index (read by errors.as_points
        as one column).
    """
    nu, mu = _as_phi_pair(phi_pair, data.d)
    indices = as_indices("sel.indices", sel.indices, data.n)
    weights = as_points("sel.bin_weight", sel.bin_weight, d=1, column=True).ravel()
    if weights.shape[0] != indices.shape[0]:
        raise InvalidInputError(f"{weights.shape[0]} weights for {indices.shape[0]} indices")
    if np.any(weights <= 0):
        raise InvalidInputError("selection weights must be positive")
    if float(weights.sum()) > 1.0 + 1e-9:
        raise InvalidInputError("selection weights sum above 1")
    pts = data.X[indices]
    return float(np.sum(weights * nu(pts) * mu(pts)))


@dataclass(frozen=True)
class ScalingReport:
    """Measured error decay of both estimators across q."""

    dist: str
    d: int
    q_list: tuple
    mse_strat: tuple
    mse_rand: tuple
    mean_strat: tuple
    se_strat: tuple
    slope_strat: float
    slope_rand: float
    reference_value: float
    n: int
    replicates: int

    def passes(self) -> bool:
        return (
            STRAT_SLOPE_WINDOW[0] <= self.slope_strat <= STRAT_SLOPE_WINDOW[1]
            and RAND_SLOPE_WINDOW[0] <= self.slope_rand <= RAND_SLOPE_WINDOW[1]
        )

    def to_csv(self) -> str:
        lines = ["q,method,mean_sq_error,mean_estimate,std_error"]
        for i, q in enumerate(self.q_list):
            lines.append(
                f"{q},stratified,{self.mse_strat[i]!r},"
                f"{self.mean_strat[i]!r},{self.se_strat[i]!r}"
            )
            lines.append(f"{q},random,{self.mse_rand[i]!r},nan,nan")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        status = "PASS" if self.passes() else "FAIL"
        return (
            f"{status}: stratified slope {self.slope_strat:.3f} "
            f"(window [{STRAT_SLOPE_WINDOW[0]}, {STRAT_SLOPE_WINDOW[1]}]), "
            f"random slope {self.slope_rand:.3f} "
            f"(window [{RAND_SLOPE_WINDOW[0]}, {RAND_SLOPE_WINDOW[1]}])"
        )


def variance_scaling_study(
    dist: str,
    d: int,
    q_list: tuple = DEFAULT_Q_LIST,
    replicates: int = 200,
    seed: int = 0,
    n: int = 100_000,
) -> ScalingReport:
    """Measure both estimators' squared-error decay in q.

    For each replicate and each q: draw n design points, scale them by
    the fixed reference scaler, select q points by Hilbert
    stratification (C = q bins) and by simple random sampling, and
    record each estimate's squared deviation from the reference
    integral.  Slopes are ordinary least squares on log(mean squared
    error) versus log(q).

    The integrand is the product of the first two nonconstant
    coordinate cosines, nu = (1, 0, ...) and mu = (0, 1, 0, ...), and
    the curve order is min(12, MAX_BITS // d), so bins are unions of many
    fine cells at every q in the default list.

    Parameters
    ----------
    dist, d : str, int
        Design distribution and dimension, d >= 2 for the pair's two
        coordinates.
    q_list : tuple
        Strictly increasing bin counts.
    replicates : int
        At least 2, for a standard error.
    """
    d, n = as_int("d", d, low=2), as_int("n", n)
    replicates = as_int("replicates", replicates, low=2)
    seed = as_int("seed", seed, low=0)
    q_list = tuple(as_int("q_list entry", q) for q in q_list)
    if len(q_list) < 2 or any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise InvalidConfigError("q_list must be strictly increasing, length >= 2")
    if max(q_list) > n:
        raise InvalidConfigError(f"max q {max(q_list)} exceeds n={n}")
    nu = tuple(1 if j == 0 else 0 for j in range(d))
    mu = tuple(1 if j == 1 else 0 for j in range(d))
    phi_pair = (EigenSurrogate(nu), EigenSurrogate(mu))
    k = min(12, MAX_BITS // d)
    # The checks each hbs selection would make, with their messages, made
    # here so that a bad q or curve order fails before the reference draw.
    # The curve's own come first: they name a d that it cannot take, for
    # which the order may be 0.
    for q in q_list:
        _curve_order(q, k, d)
    SelectionConfig(q=q_list[0], method="hbs", k=k)

    I_ref, scaler = reference_integral(dist, d, phi_pair, seed=_subseed(seed, 0))

    sq_strat = np.empty((replicates, len(q_list)))
    est_strat = np.empty((replicates, len(q_list)))
    sq_rand = np.empty((replicates, len(q_list)))
    for r in range(replicates):
        raw = gen_design(dist, n, d, _rng(seed, 1, r))
        scaled, _ = apply_scaler(raw, scaler)
        data = dataset_from_unit_cube(scaled)
        for qi, q in enumerate(q_list):
            hs = _subseed(seed, 2, r, qi)
            sel = hbs_select(data, SelectionConfig(q=q, method="hbs", seed=hs, C=q, k=k))
            est = stratified_integral_estimate(data, sel, phi_pair)
            est_strat[r, qi] = est
            sq_strat[r, qi] = (est - I_ref) ** 2
            us = _subseed(seed, 3, r, qi)
            usel = ubs_select(data, SelectionConfig(q=q, method="ubs", seed=us))
            uest = stratified_integral_estimate(data, usel, phi_pair)
            sq_rand[r, qi] = (uest - I_ref) ** 2

    mse_strat = sq_strat.mean(axis=0)
    mse_rand = sq_rand.mean(axis=0)
    lq = np.log(np.asarray(q_list, dtype=np.float64))
    slope_strat = float(np.polyfit(lq, np.log(mse_strat), 1)[0])
    slope_rand = float(np.polyfit(lq, np.log(mse_rand), 1)[0])
    return ScalingReport(
        dist=dist,
        d=d,
        q_list=q_list,
        mse_strat=tuple(float(v) for v in mse_strat),
        mse_rand=tuple(float(v) for v in mse_rand),
        mean_strat=tuple(float(v) for v in est_strat.mean(axis=0)),
        se_strat=tuple(
            float(v) for v in est_strat.std(axis=0, ddof=1) / np.sqrt(replicates)
        ),
        slope_strat=slope_strat,
        slope_rand=slope_rand,
        reference_value=I_ref,
        n=n,
        replicates=replicates,
    )
