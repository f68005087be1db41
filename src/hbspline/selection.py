"""Basis-point selection for large-sample smoothing splines.

Fitting cost is controlled by restricting the kernel expansion to q
selected observations.  The main selector stratifies along a Hilbert
curve: every point is mapped to the center of its curve interval, the
centers are histogrammed into C equal-width bins of [0,1], and roughly
q/C' points are sampled from each of the C' non-empty bins.  Because
curve intervals with equal length cover equal volumes, the bins
partition space into equal-volume tubes along the curve, so the
selected points track the data density while spreading through its
support.

Three baselines share the interface: uniform random sampling, a
response-stratified variant (equal-width response slices), and a
space-filling variant (greedy nearest data point to a scrambled Sobol
target sequence).

All selectors are deterministic functions of (data, config): random
draws come from a counter-based generator seeded with the config seed.
"""

from __future__ import annotations

import functools
import importlib.util
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, as_array, as_choice, as_int, as_points
from .hilbert import MAX_BITS, CurveOrder, index_to_center, point_to_index

__all__ = [
    "Dataset",
    "SelectionConfig",
    "BasisSelection",
    "METHODS",
    "scale_to_unit_cube",
    "apply_scaler",
    "dataset_from_unit_cube",
    "hilbert_bins",
    "hbs_select",
    "ubs_select",
    "abs_select",
    "sbs_select",
    "select",
    "condition5_diagnostic",
]

logger = logging.getLogger(__name__)

METHODS = ("hbs", "ubs", "abs", "sbs")

# Above this bin-balance value the stratification guarantee degrades;
# see condition5_diagnostic.
BALANCE_WARN_THRESHOLD = 10.0

# Bits per coordinate of a Sobol point (scipy.stats.qmc.Sobol's default), so
# one sequence holds 2**SOBOL_BITS points.
SOBOL_BITS = 30


@dataclass(frozen=True)
class Dataset:
    """Predictors scaled to the unit cube plus responses.

    Attributes
    ----------
    X : ndarray
        (n, d) matrix with every entry in [0, 1].
    y : ndarray
        Length-n response vector.
    scaler : ndarray
        (2, d) array holding the per-column (min, max) of the raw data;
        columns with min == max were constant and scale to 0.5.
    """

    X: np.ndarray
    y: np.ndarray
    scaler: np.ndarray
    # Curve index of every row per curve order k, filled by hilbert_bins.
    # Valid for the dataset's life because X is read-only.
    _curve_index: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.X.setflags(write=False)
        self.y.setflags(write=False)
        self.scaler.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _rows(raw, y, cube=False):
    """Predictors as a new (n, d) float64 array, a 1-D input read as one
    column, and y as a float64 vector (zeros when None), both by as_points'
    rule; rejects an empty X and a wrong-length y."""
    X = np.array(as_points("predictor", raw, cube=cube, column=True))
    yv = np.zeros(len(X)) if y is None else as_points("response", y, column=True).ravel()
    if X.shape[0] < 1:
        raise InvalidInputError("empty dataset")
    if yv.shape[0] != X.shape[0]:
        raise InvalidInputError(f"{X.shape[0]} predictor rows but {yv.shape[0]} responses")
    return X, yv


def scale_to_unit_cube(raw, y) -> Dataset:
    """Min-max scale raw predictors columnwise onto [0,1]^d.

    Parameters
    ----------
    raw : array_like
        (n, d) predictor matrix, finite entries.
    y : array_like
        Length-n response vector, finite entries.

    Returns
    -------
    Dataset
        Scaled predictors, responses, and the per-column (min, max)
        scaler.  Constant columns map to 0.5 everywhere.

    Raises
    ------
    InvalidInputError
        On any non-finite entry; message carries row and column.
    """
    X, yv = _rows(raw, y)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    scaler = np.vstack([lo, hi])
    scaled, _ = apply_scaler(X, scaler)
    return Dataset(X=scaled, y=yv.copy(), scaler=scaler)


def apply_scaler(raw, scaler) -> tuple[np.ndarray, int]:
    """Apply a stored (min, max) scaler to finite points with its number of
    columns (as_points); clamp out-of-range results.

    Returns the scaled matrix and how many entries had to be clamped
    into [0, 1].  Constant columns (min == max) map to 0.5.
    """
    X = as_points("raw", raw, np.shape(scaler)[1])
    lo, hi = scaler[0], scaler[1]
    span = hi - lo
    const = span <= 0
    safe_span = np.where(const, 1.0, span)
    scaled = (X - lo) / safe_span
    scaled[:, const] = 0.5
    clamp = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
    if clamp:
        scaled = np.clip(scaled, 0.0, 1.0)
    return scaled, clamp


def dataset_from_unit_cube(X, y=None) -> Dataset:
    """Wrap already-scaled predictors as a Dataset (identity scaler);
    rejects input as scale_to_unit_cube does, and points outside [0,1]^d."""
    X, yv = _rows(X, y, cube=True)
    scaler = np.vstack([np.zeros(X.shape[1]), np.ones(X.shape[1])])
    return Dataset(X=X, y=yv.copy(), scaler=scaler)


@dataclass(frozen=True)
class SelectionConfig:
    """How many basis points to pick and how.

    Attributes
    ----------
    q : int
        Number of basis points, 1 <= q <= n.
    method : str
        One of 'hbs', 'ubs', 'abs', 'sbs'.
    seed : int
        Non-negative 64-bit seed; identical (data, config) pairs give
        identical selections.
    C : int or None
        Histogram bin count, 'hbs' only; defaults to q.
    k : int or None
        Curve order, 'hbs' only; defaults to max(ceil(log2(C)/d) + 2, 4),
        capped so that d*k <= hilbert.MAX_BITS.

    q, seed, C and k take integers only (numpy's too), never truncated.
    """

    q: int
    method: str = "hbs"
    seed: int = 0
    C: int | None = None
    k: int | None = None

    def __post_init__(self):
        as_choice("method", self.method, METHODS)
        for name, low in (("q", 1), ("seed", 0), ("C", 1), ("k", 1)):
            v = getattr(self, name)
            if v is not None or name in ("q", "seed"):
                object.__setattr__(self, name, as_int(name, v, low=low))
        unused = [name for name in ("C", "k") if getattr(self, name) is not None]
        if unused and self.method != "hbs":
            raise InvalidConfigError(
                f"method {self.method!r} takes no {' or '.join(unused)}; only 'hbs' does"
            )

    def resolved_C(self) -> int:
        return self.q if self.C is None else self.C

    def resolved_k(self, d: int) -> int:
        if self.k is not None:
            return self.k
        C = self.resolved_C()
        k = max(math.ceil(math.log2(max(C, 2)) / d) + 2, 4)
        return min(k, MAX_BITS // d)


@dataclass(frozen=True)
class BasisSelection:
    """The q selected rows plus stratification metadata.

    bin_weight[j] is the fraction of the sample represented by selected
    point j: (points in j's bin) / (n * points selected from that bin)
    for the Hilbert selector, and 1/q for the baselines.  Weights of a
    selection sum to (points falling in non-empty bins)/n, which is 1
    whenever every point is binned.  indices and bin_weight are read-only
    copies of at least one axis (a scalar is one entry), checked against the
    data where they are used.
    """

    indices: np.ndarray
    bin_weight: np.ndarray
    nonempty_bins: int
    shortfall_moved: int = 0

    def __post_init__(self):
        for name in ("indices", "bin_weight"):
            frozen = np.atleast_1d(as_array(name, getattr(self, name))).copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

    @property
    def q(self) -> int:
        return int(self.indices.shape[0])


def _check_q(data: Dataset, cfg: SelectionConfig):
    if data.n < 1:
        raise InvalidInputError("empty dataset")
    if cfg.q > data.n:
        raise InvalidConfigError(f"q={cfg.q} exceeds sample size n={data.n}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Philox stream of SeedSequence(seed, spawn_key=key).

    Every Philox stream in the package comes from here, so one root
    seed splits into independent streams by key.
    """
    sequence = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(sequence))


def _subseed(seed: int, *key: int) -> int:
    """A 64-bit seed derived from SeedSequence(seed, spawn_key=key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _curve_order(C: int, k: int, d: int) -> CurveOrder:
    """The order-k curve in d dimensions, checked to have at least C cells."""
    order = CurveOrder(k=k, d=d)
    if C > order.total_cells:
        raise InvalidConfigError(
            f"C={C} exceeds the {order.total_cells} curve cells at k={k}"
        )
    return order


def hilbert_bins(data: Dataset, C: int, k: int) -> np.ndarray:
    """Assign every row its histogram bin along the Hilbert curve.

    Maps each point to the center of its curve interval at order k and
    bins the centers into C equal-width bins of [0,1].  Returns the
    length-n int64 bin array with values in [0, C).  The curve indices
    are computed once per (dataset, k) and kept on the dataset, so
    selections and diagnostics at several C share one mapping.
    """
    order = _curve_order(C, k, data.d)
    idx = data._curve_index.get(k)
    if idx is None:
        idx = point_to_index(data.X, order)
        idx.setflags(write=False)
        data._curve_index[k] = idx
    centers = index_to_center(idx, order)
    return np.minimum((centers * C).astype(np.int64), C - 1)


def _allocate_quotas(pops: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Split q draws across groups with populations pops (> 0 each).

    Base quota is floor(q / groups); the remainder goes one-each to the
    groups with the largest populations, ties to the lower group index.
    Groups smaller than their quota contribute everything and the
    shortfall is re-spread by the same largest-population rule over
    groups still below capacity, never past a population.  Returns the
    per-group counts and how many draws shortfall handling moved.
    """
    g = len(pops)
    base, rem = divmod(q, g)
    quota = np.full(g, base, dtype=np.int64)
    if rem:
        order = np.lexsort((np.arange(g), -pops))
        quota[order[:rem]] += 1
    over = quota > pops
    moved = deficit = int((quota[over] - pops[over]).sum())
    quota[over] = pops[over]
    capacity = pops - quota
    while deficit > 0:
        eligible = np.flatnonzero(capacity > 0)
        take = eligible[np.lexsort((eligible, -pops[eligible]))]
        take = take[: min(deficit, len(take))]
        quota[take] += 1
        capacity[take] -= 1
        deficit -= len(take)
    return quota, moved


def _stratified_draw(
    groups: np.ndarray, q: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Sample q rows stratified by a group label per row.

    Returns (indices, weights, nonempty_groups, shortfall_moved); the
    weight of a selected row is pop(group) / (n * drawn(group)).
    """
    # One stable sort gives every group's member list in row order; the
    # group sizes come from a count, so the labels are not sorted again.
    # Sorted as the narrowest unsigned type that holds them, labels below
    # 2**16 take numpy's radix sort; the order is the same at any width.
    keys = groups.astype(np.min_scalar_type(int(groups.max())))
    row_order = np.argsort(keys, kind="stable")
    counts = np.bincount(groups)
    pops = counts[counts > 0]
    nonempty = int(pops.size)
    starts = np.cumsum(pops) - pops
    quota, moved = _allocate_quotas(pops, q)
    drawn = quota > 0
    pops, starts, quota = pops[drawn], starts[drawn], quota[drawn]
    picked = []
    for start, pop, s in zip(starts.tolist(), pops.tolist(), quota.tolist()):
        members = row_order[start : start + pop]
        if s < pop:
            members = np.sort(rng.choice(members, size=s, replace=False))
        picked.append(members)
    indices = np.concatenate(picked)
    w = np.repeat(pops / (n * quota), quota)
    return indices, w, nonempty, moved


def hbs_select(data: Dataset, cfg: SelectionConfig) -> BasisSelection:
    """Select q rows stratified along the Hilbert curve.

    Parameters
    ----------
    data : Dataset
        Scaled sample.
    cfg : SelectionConfig
        Must have method 'hbs'; C defaults to q and k to the rule in
        SelectionConfig.resolved_k.

    Returns
    -------
    BasisSelection
        q distinct row indices with per-bin weights; at most
        ceil(q/C') rows come from any non-empty bin unless shortfall
        redistribution was required (recorded in shortfall_moved).
    """
    if cfg.method != "hbs":
        raise InvalidConfigError(f"hbs_select got method {cfg.method!r}")
    _check_q(data, cfg)
    bins = hilbert_bins(data, cfg.resolved_C(), cfg.resolved_k(data.d))
    rng = _rng(cfg.seed)
    indices, w, nonempty, moved = _stratified_draw(bins, cfg.q, data.n, rng)
    if moved:
        logger.info(
            "hbs: %d draws moved between bins (some bins smaller than quota)",
            moved,
        )
    return BasisSelection(
        indices=indices,
        bin_weight=w,
        nonempty_bins=nonempty,
        shortfall_moved=moved,
    )


def ubs_select(data: Dataset, cfg: SelectionConfig) -> BasisSelection:
    """Select q rows by simple random sampling without replacement."""
    if cfg.method != "ubs":
        raise InvalidConfigError(f"ubs_select got method {cfg.method!r}")
    _check_q(data, cfg)
    rng = _rng(cfg.seed)
    indices = np.sort(rng.choice(data.n, size=cfg.q, replace=False))
    return BasisSelection(
        indices=indices.astype(np.int64),
        bin_weight=np.full(cfg.q, 1.0 / cfg.q),
        nonempty_bins=cfg.q,
    )


def abs_select(data: Dataset, cfg: SelectionConfig) -> BasisSelection:
    """Select q rows stratified by response value.

    The response range is split into ceil(sqrt(q)) equal-width slices
    and rows are drawn evenly across the non-empty slices with the same
    quota rule as the Hilbert selector.  With a constant response there
    is a single slice and this reduces to uniform sampling.
    """
    if cfg.method != "abs":
        raise InvalidConfigError(f"abs_select got method {cfg.method!r}")
    _check_q(data, cfg)
    K = math.ceil(math.sqrt(cfg.q))
    y = data.y
    lo, hi = float(y.min()), float(y.max())
    if hi > lo:
        slices = np.minimum(((y - lo) / (hi - lo) * K).astype(np.int64), K - 1)
    else:
        slices = np.zeros(data.n, dtype=np.int64)
    rng = _rng(cfg.seed)
    indices, _, nonempty, moved = _stratified_draw(slices, cfg.q, data.n, rng)
    return BasisSelection(
        indices=indices,
        bin_weight=np.full(cfg.q, 1.0 / cfg.q),
        nonempty_bins=nonempty,
        shortfall_moved=moved,
    )


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, SOBOL_BITS) int64 Sobol direction numbers of dimensions 0..d-1.

    Built from the Joe & Kuo (2008) primitive polynomials and initial
    numbers in the table that ships with scipy, found without importing
    scipy: importing scipy.stats would add about 65 MiB to the process.
    Entry (i, j) is bit column j of dimension i, left-aligned in
    SOBOL_BITS bits.  Cached, so the table is read once per process and d.
    """
    spec = importlib.util.find_spec("scipy")
    path = os.path.join(os.path.dirname(spec.origin), "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        if d > len(table["poly"]):
            raise InvalidConfigError(
                f"d={d} exceeds the {len(table['poly'])} dimensions of the Sobol table"
            )
        poly, vinit = table["poly"][:d].tolist(), table["vinit"][:d].tolist()
    rows = [[1] * SOBOL_BITS]
    for p, v in zip(poly[1:], vinit[1:]):
        m = p.bit_length() - 1
        v = v[:m]
        for j in range(m, SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    out = np.array(rows, dtype=np.int64) << np.arange(SOBOL_BITS - 1, -1, -1)
    out.setflags(write=False)
    return out


def _sobol(d: int, seed: int, rows: int):
    """A scrambled Sobol sequence in [0, 1)^d as points(start, n).

    points(start, n) returns points start .. start+n-1 as a Fortran-
    ordered (n, d) float64 array (1 <= n <= rows and start + n <=
    2**SOBOL_BITS, which callers check), bitwise those of
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)`` after
    ``fast_forward(start)``: Matousek's linear matrix scrambling plus a
    digital shift, drawn from numpy.random.default_rng(seed) in scipy's
    order.  Point k is the shift XOR the scrambled direction columns
    selected by the bits of gray(k) = k ^ (k >> 1), so any run starts
    directly at its first index.  points only reads the engine's arrays,
    so threads may share one engine.
    """
    rng = np.random.default_rng(seed)
    shift_bits = rng.integers(0, 2, (d, SOBOL_BITS), np.uint32)
    ltm = np.tril(rng.integers(0, 2, (d, SOBOL_BITS, SOBOL_BITS), np.uint32))
    ltm[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
    msb_first = np.arange(SOBOL_BITS - 1, -1, -1)
    # Bit SOBOL_BITS-1-p of a scrambled column is the parity of row p of
    # the lower-triangular matrix against the column's bits, MSB first.
    v_bits = _sobol_directions(d)[:, :, None] >> msb_first & 1
    parity = np.einsum("ipk,ijk->ijp", ltm.astype(np.int64), v_bits) & 1
    # int32 holds the SOBOL_BITS = 30 bits, and numpy converts it to
    # float64 faster than uint32.
    columns = (parity << msb_first).sum(axis=2).astype(np.int32)  # (dim, bit)
    shift = (shift_bits.astype(np.int64) << np.arange(SOBOL_BITS)).sum(axis=1).astype(np.int32)
    # For a multiple a of 2**m and i < 2**m, gray(a + i) is gray(a) XOR
    # gray(i), so point a + i is point a XOR table[:, i], the XOR of the
    # columns that gray(i) selects.  The Gray code's reflection doubles the
    # table: gray(h + i) = h XOR gray(h - 1 - i) for i < h = 2**b.  It is
    # stored (d, 2**m) so that every XOR runs along contiguous rows.
    m = (rows - 1).bit_length()
    table = np.zeros((d, 1 << m), dtype=np.int32)
    for b in range(m):
        h = 1 << b
        np.bitwise_xor(table[:, h - 1 :: -1], columns[:, b, None], out=table[:, h : 2 * h])

    def first(a: int) -> np.ndarray:
        """Point a as a (d, 1) int32 column of its bits."""
        out = shift.copy()
        gray = a ^ a >> 1
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                out ^= columns[:, b]
        return out[:, None]

    def points(start: int, n: int) -> np.ndarray:
        # The run spans at most two blocks of 2**m: the one holding start,
        # and the next.
        r = start % (1 << m)
        head = min(n, (1 << m) - r)
        out = np.empty((d, n), dtype=np.int32)
        np.bitwise_xor(table[:, r : r + head], first(start - r), out=out[:, :head])
        if head < n:
            np.bitwise_xor(table[:, : n - head], first(start - r + (1 << m)), out=out[:, head:])
        return (out * 2.0**-SOBOL_BITS).T

    return points


def sbs_select(data: Dataset, cfg: SelectionConfig) -> BasisSelection:
    """Select the q data points greedily nearest a low-discrepancy set.

    Generates q scrambled Sobol targets in the unit cube and, in
    sequence order, matches each target with its nearest not yet
    selected row in Euclidean distance.
    """
    if cfg.method != "sbs":
        raise InvalidConfigError(f"sbs_select got method {cfg.method!r}")
    _check_q(data, cfg)
    targets = _sobol(data.d, cfg.seed & (2**63 - 1), cfg.q)(0, cfg.q)
    X = data.X
    taken = np.zeros(data.n, dtype=bool)
    picked = np.empty(cfg.q, dtype=np.int64)
    for t in range(cfg.q):
        diff = X - targets[t]
        dist = np.einsum("ij,ij->i", diff, diff)
        dist[taken] = np.inf
        j = int(np.argmin(dist))
        picked[t] = j
        taken[j] = True
    picked = np.sort(picked)
    return BasisSelection(
        indices=picked,
        bin_weight=np.full(cfg.q, 1.0 / cfg.q),
        nonempty_bins=cfg.q,
    )


_SELECTORS = {
    "hbs": hbs_select,
    "ubs": ubs_select,
    "abs": abs_select,
    "sbs": sbs_select,
}


def select(data: Dataset, cfg: SelectionConfig) -> BasisSelection:
    """Dispatch to the selector named by cfg.method."""
    return _SELECTORS[cfg.method](data, cfg)


def condition5_diagnostic(data: Dataset, cfg: SelectionConfig, warn: bool = True) -> float:
    """Bin-balance diagnostic max_i q*n_i/n over the histogram bins.

    Values near 1 mean the bins split the sample evenly (the regime in
    which stratified selection provably helps); large values flag a
    near-degenerate density piling into few bins.  Logged as a warning
    above BALANCE_WARN_THRESHOLD unless warn=False (for callers that
    record the value themselves).
    """
    C = cfg.resolved_C()
    k = cfg.resolved_k(data.d)
    bins = hilbert_bins(data, C, k)
    counts = np.bincount(bins, minlength=C)
    value = float(cfg.q * counts.max() / data.n)
    if warn and value > BALANCE_WARN_THRESHOLD:
        logger.warning(
            "bin balance %.2f exceeds %.1f: density concentrates in few bins",
            value,
            BALANCE_WARN_THRESHOLD,
        )
    return value
