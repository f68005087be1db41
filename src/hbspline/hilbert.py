"""Exact d-dimensional Hilbert curve of order k.

The order-k curve visits the 2^(d*k) subcubes obtained by splitting
[0,1]^d into 2^k slices per axis, assigning each subcube a unique
integer index in [0, 2^(d*k)) such that consecutive indices are
face-adjacent cells.  This realizes a bijection between the dyadic
intervals of [0,1] and the dyadic subcubes of [0,1]^d that is
locality-preserving: points close on the curve are close in space.

The conversion uses the Gray-code bit-transpose construction, which is
exact integer arithmetic, O(d*k) per point, and vectorizes over point
batches.  Orientation is pinned so that index 0 always occupies the
cell at the origin; in one dimension the curve is the identity
ordering.  The index of a point is stable under refinement: the
order-k index equals the order-k' index right-shifted by d*(k'-k)
for any k' > k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, as_indices, as_int, as_points

__all__ = [
    "CurveOrder",
    "encode",
    "decode",
    "point_to_index",
    "index_to_center",
    "locality_bound_check",
    "LocalityReport",
    "MAX_BITS",
]

# Most bits a curve index may have (d*k): an int64 with headroom.
MAX_BITS = 62


@dataclass(frozen=True)
class CurveOrder:
    """Resolution of the discrete curve: k bits per axis, d axes.

    Parameters
    ----------
    k : int
        Bits of resolution per dimension; the axis is split into 2**k slices.
    d : int
        Spatial dimension.

    Raises
    ------
    InvalidConfigError
        If d is outside [1, 16], or k outside [1, MAX_BITS // d] (d*k
        index bits fit a 64-bit signed integer with headroom).
    """

    k: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", d := as_int("d", self.d, low=1, high=16))
        object.__setattr__(self, "k", as_int("k", self.k, low=1, high=MAX_BITS // d))

    @property
    def cells_per_dim(self) -> int:
        return 1 << self.k

    @property
    def total_cells(self) -> int:
        return 1 << (self.d * self.k)


def encode(cell, order: CurveOrder):
    """Map cell coordinates to their position along the curve.

    Parameters
    ----------
    cell : array_like
        Integer coordinates, shape (d,) for a single cell or (m, d)
        for a batch; each coordinate in [0, 2**k - 1] (errors.as_indices).
    order : CurveOrder
        Curve resolution.

    Returns
    -------
    int or ndarray
        Curve index in [0, 2**(d*k) - 1]; scalar for a single cell,
        int64 array of shape (m,) for a batch.
    """
    cells = as_indices("cell", cell, order.cells_per_dim, order.d)
    k, d = order.k, order.d
    # The narrowest signed type that holds a coordinate: every update
    # below is exact, stays in [0, 2**k) and runs in place on d + 2
    # buffers of that type.
    X = [cells[:, i].astype(np.min_scalar_type(-(1 << k))) for i in range(d)]
    m = np.empty_like(X[0])
    t = np.empty_like(X[0])

    # Undo the Gray-code/reflection bookkeeping, most significant bit
    # first.  Where bit b of X[i] is set, the low bits of X[0] are
    # inverted; elsewhere they are swapped with those of X[i].
    for b in range(k - 1, 0, -1):
        P = (1 << b) - 1
        for i in range(d):
            np.right_shift(X[i], b, out=m)
            m &= 1
            m *= P  # P where bit b is set, else 0
            X[0] ^= m
            if i:
                m ^= P  # P where bit b is clear
                np.bitwise_xor(X[0], X[i], out=t)
                t &= m
                X[0] ^= t
                X[i] ^= t
    for i in range(1, d):
        X[i] ^= X[i - 1]
    # Bit j of the correction is the parity of the bits of X[d-1] above
    # j: the inverse Gray code of X[d-1] >> 1, by doubling shifts.
    np.right_shift(X[d - 1], 1, out=t)
    s = 1
    while s < k:
        np.right_shift(t, s, out=m)
        t ^= m
        s <<= 1
    for i in range(d):
        X[i] ^= t

    # Interleave the transposed bit planes into one index, axis 0 most
    # significant within each bit plane.
    idx = np.zeros(cells.shape[0], dtype=np.int64)
    for b in range(k - 1, -1, -1):
        for i in range(d):
            np.right_shift(X[i], b, out=m)
            m &= 1
            idx <<= 1
            idx |= m
    return int(idx[0]) if np.ndim(cell) == 1 else idx


def decode(index, order: CurveOrder):
    """Map curve positions back to cell coordinates; inverse of encode.

    Parameters
    ----------
    index : array_like
        Curve index in [0, 2**(d*k) - 1]; scalar or shape (m,)
        (errors.as_indices).
    order : CurveOrder
        Curve resolution.

    Returns
    -------
    ndarray
        Cell coordinates, shape (d,) for scalar input else (m, d).
    """
    idx = as_indices("index", index, order.total_cells)
    k, d = order.k, order.d

    # De-interleave the index into d transposed bit columns.
    X = [np.zeros_like(idx) for _ in range(d)]
    pos = d * k
    for b in range(k - 1, -1, -1):
        for i in range(d):
            pos -= 1
            X[i] = (X[i] << 1) | ((idx >> pos) & 1)

    t = X[d - 1] >> 1
    for i in range(d - 1, 0, -1):
        X[i] ^= X[i - 1]
    X[0] ^= t
    Q = np.int64(2)
    top = np.int64(1) << k
    while Q != top:
        P = Q - 1
        for i in range(d - 1, -1, -1):
            hi = (X[i] & Q) != 0
            t = np.where(hi, 0, (X[0] ^ X[i]) & P)
            X[0] = np.where(hi, X[0] ^ P, X[0] ^ t)
            X[i] ^= t
        Q <<= 1
    out = np.stack(X, axis=1)
    return out[0] if np.ndim(index) == 0 else out


def point_to_index(x, order: CurveOrder):
    """Locate points of the unit cube on the curve.

    Each coordinate is binned into its 2**k slice (floor(x * 2**k),
    with x = 1 clamped into the top slice) and the resulting cell is
    encoded.  Points sharing a cell share an index.

    Parameters
    ----------
    x : array_like
        Points in [0,1]^d, shape (d,) or (m, d).
    order : CurveOrder
        Curve resolution.

    Returns
    -------
    int or ndarray
        Curve index per point.

    Raises
    ------
    InvalidInputError
        Unless x holds points with d coordinates in [0, 1] (errors.as_points);
        inputs must be scaled to the unit cube first.
    """
    arr = as_points("x", x, order.d, cube=True)
    top = order.cells_per_dim
    cells = (arr * top).astype(np.int64)
    np.minimum(cells, top - 1, out=cells)
    idx = encode(cells, order)
    return int(idx[0]) if np.ndim(x) == 1 else idx


def index_to_center(index, order: CurveOrder):
    """Center of the curve interval owning an index (as in decode): (i + 0.5) / 2**(d*k)."""
    idx = as_indices("index", index, order.total_cells)
    centers = (idx + 0.5) / float(order.total_cells)
    return float(centers[0]) if np.ndim(index) == 0 else centers


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of an exhaustive locality sweep at one curve order."""

    order: CurveOrder
    max_ratio: float
    pairs_checked: int
    passed: bool
    slack: float


def locality_bound_check(order: CurveOrder) -> LocalityReport:
    """Verify the locality inequality over all index pairs at one order.

    For cell centers u_i = center(decode(i)) and interval centers
    t_i = (i + 0.5)/2**(d*k), checks that for every pair (i, j)

        ||u_i - u_j|| <= 2*sqrt(d + 3) * |t_i - t_j|**(1/d) + slack

    where slack = 2*sqrt(d)*2**(-k) absorbs the difference between a
    cell's center and the points it stands in for at finite order.

    Returns
    -------
    LocalityReport
        Maximum observed ratio of left side to (right side without
        slack taken at the continuum), number of pairs, and pass flag.

    Notes
    -----
    Lags whose bound already exceeds the lattice diameter are accepted
    without scanning (the right side is monotone in the lag), so the
    effective cost is far below the nominal all-pairs count.
    """
    N = order.total_cells
    if N > (1 << 16):
        raise InvalidConfigError(
            f"locality sweep over {N} cells is too large; reduce d*k"
        )
    d = order.d
    cells = decode(np.arange(N, dtype=np.int64), order)
    centers = (cells + 0.5) / order.cells_per_dim  # (N, d) spatial centers
    axes = [np.ascontiguousarray(centers[:, a]) for a in range(d)]
    const = 2.0 * np.sqrt(d + 3.0)
    slack = 2.0 * np.sqrt(d) * 2.0 ** (-order.k)

    # Pairs at curve distance L share one bound; sweep lags, not pairs.
    # No center pair can be farther apart than the lattice diameter, so
    # lags whose bound exceeds it hold without inspection.
    lags = np.arange(1, N, dtype=np.int64)
    rhs = const * (lags / float(N)) ** (1.0 / d) + slack
    diameter = np.sqrt(d) * (1.0 - 2.0 ** (-order.k))
    cut = int(np.searchsorted(rhs, diameter))
    max_ratio = 0.0
    passed = True
    for li, L in enumerate(lags[:cut]):
        sq = np.zeros(N - L)
        for a in axes:
            diff = a[L:] - a[:-L]
            sq += diff * diff
        lhs = np.sqrt(sq.max())
        ratio = lhs / rhs[li]
        if ratio > max_ratio:
            max_ratio = ratio
        if lhs > rhs[li] + 1e-12:
            passed = False
    pairs = int(N * (N - 1) // 2)
    return LocalityReport(
        order=order,
        max_ratio=float(max_ratio),
        pairs_checked=pairs,
        passed=passed,
        slack=float(slack),
    )
