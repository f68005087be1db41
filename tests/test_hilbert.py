"""Curve correctness: bijection, adjacency, nesting, locality, measure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from hbspline import (
    CurveOrder,
    decode,
    encode,
    index_to_center,
    locality_bound_check,
    point_to_index,
)
from hbspline.errors import InvalidConfigError, InvalidInputError


def quadrant_walk(k, t):
    """Independent 2-d reference: iterative quadrant walk, origin first.

    Builds the order-k curve bottom-up by rotating/reflecting the
    one-bend order-1 shape, the textbook construction.  Returns the
    (x, y) cell of curve position t.
    """
    n = 1 << k
    x = y = 0
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def encode_reference(cells, k, d):
    """The np.where formulation of encode, kept as its bitwise reference.

    cells is an (m, d) int64 array of in-range coordinates.
    """
    X = [cells[:, i].copy() for i in range(d)]
    Q = np.int64(1) << (k - 1)
    while Q > 1:
        P = Q - 1
        for i in range(d):
            hi = (X[i] & Q) != 0
            t = np.where(hi, 0, (X[0] ^ X[i]) & P)
            X[0] = np.where(hi, X[0] ^ P, X[0] ^ t)
            X[i] ^= t
        Q >>= 1
    for i in range(1, d):
        X[i] ^= X[i - 1]
    t = np.zeros_like(X[0])
    Q = np.int64(1) << (k - 1)
    while Q > 1:
        t = np.where((X[d - 1] & Q) != 0, t ^ (Q - 1), t)
        Q >>= 1
    for i in range(d):
        X[i] ^= t
    idx = np.zeros(cells.shape[0], dtype=np.int64)
    for b in range(k - 1, -1, -1):
        for i in range(d):
            idx = (idx << 1) | ((X[i] >> b) & 1)
    return idx


class TestCurveOrder:
    def test_fields(self):
        order = CurveOrder(k=3, d=2)
        assert order.cells_per_dim == 8
        assert order.total_cells == 64

    @pytest.mark.parametrize(
        "k,d",
        [(3, 0), (3, 17), (0, 2), (-1, 2), (32, 2),
         # Non-integers that int() would truncate or convert.
         (2.5, 2), (3, 2.0), (True, 2), (3, np.True_), ("3", 2), (float("nan"), 2)],
    )
    def test_rejects_bad_orders(self, k, d):
        with pytest.raises(InvalidConfigError):
            CurveOrder(k=k, d=d)

    def test_numpy_integers_are_plain_ints(self):
        order = CurveOrder(k=np.int64(3), d=np.uint8(2))
        assert order == CurveOrder(k=3, d=2)
        assert type(order.k) is int and type(order.d) is int

    def test_boundary_orders_accepted(self):
        CurveOrder(k=62, d=1)
        CurveOrder(k=31, d=2)
        CurveOrder(k=1, d=16)


class TestEncodeDecode:
    def test_d1_is_identity(self):
        order = CurveOrder(k=3, d=1)
        assert encode(np.array([5]), order) == 5
        values = np.arange(8)
        assert np.array_equal(encode(values[:, None], order), values)
        assert np.array_equal(decode(values, order)[:, 0], values)

    def test_d2_k1_visits_quadrants_in_order(self):
        order = CurveOrder(k=1, d=2)
        path = [tuple(decode(i, order)) for i in range(4)]
        assert path == [(0, 0), (0, 1), (1, 1), (1, 0)]
        for i, cell in enumerate(path):
            assert encode(np.array(cell), order) == i

    @pytest.mark.parametrize("k", range(1, 7))
    def test_d2_matches_quadrant_walk(self, k):
        order = CurveOrder(k=k, d=2)
        n = order.total_cells
        ours = decode(np.arange(n), order)
        ref = np.array([quadrant_walk(k, t) for t in range(n)])
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("d,k", [(1, 10), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_roundtrip_exhaustive(self, d, k):
        order = CurveOrder(k=k, d=d)
        idx = np.arange(order.total_cells)
        assert np.array_equal(encode(decode(idx, order), order), idx)

    @pytest.mark.parametrize("d,k", [(2, 4), (3, 2), (3, 3), (4, 2)])
    def test_consecutive_cells_face_adjacent(self, d, k):
        order = CurveOrder(k=k, d=d)
        cells = decode(np.arange(order.total_cells), order)
        steps = np.abs(np.diff(cells, axis=0))
        assert np.all(steps.sum(axis=1) == 1)
        assert np.all(steps.max(axis=1) == 1)

    def test_refinement_keeps_block_assignment(self, rng):
        # Order-k index is the order-k' index truncated: a point never
        # changes blocks as the curve is refined.
        pts = rng.random((500, 3))
        coarse = point_to_index(pts, CurveOrder(k=3, d=3))
        fine = point_to_index(pts, CurveOrder(k=6, d=3))
        assert np.array_equal(fine >> (3 * 3), coarse)

    def test_encode_rejects_out_of_range(self):
        order = CurveOrder(k=2, d=2)
        with pytest.raises(InvalidInputError):
            encode(np.array([4, 0]), order)
        with pytest.raises(InvalidInputError):
            encode(np.array([0, -1]), order)
        with pytest.raises(InvalidInputError):
            encode(np.array([0.5, 0.0]), order)

    @pytest.mark.parametrize(
        "convert, value",
        [(encode, ["1", "2"]), (encode, [True, False]), (encode, [1.5, 2.0]),
         (encode, [None, 1]), (decode, "3"), (decode, True), (decode, [2.5])],
    )
    def test_rejects_non_integer_input(self, convert, value):
        with pytest.raises(InvalidInputError, match="(cell|index) must hold integers, not"):
            convert(value, CurveOrder(k=2, d=2))

    def test_integral_floats_are_accepted(self):
        order = CurveOrder(k=2, d=2)
        assert encode([1.0, 2.0], order) == encode([1, 2], order)
        assert np.array_equal(decode(np.array([3.0, 5.0]), order), decode([3, 5], order))

    def test_decode_rejects_out_of_range(self):
        order = CurveOrder(k=2, d=2)
        with pytest.raises(InvalidInputError):
            decode(16, order)
        with pytest.raises(InvalidInputError):
            decode(-1, order)

    def test_scalar_and_batch_agree(self):
        order = CurveOrder(k=3, d=2)
        batch = decode(np.arange(10), order)
        for i in range(10):
            assert np.array_equal(decode(i, order), batch[i])
            assert encode(batch[i], order) == encode(batch, order)[i]

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_roundtrip_property(self, d, k, raw_index):
        order = CurveOrder(k=k, d=d)
        index = raw_index % order.total_cells
        cell = decode(index, order)
        assert np.all(cell >= 0) and np.all(cell < order.cells_per_dim)
        assert encode(cell, order) == index


class TestEncodeMatchesReference:
    @pytest.mark.parametrize(
        "d, k",
        [
            (d, k)
            for d in range(1, 17)
            for k in sorted({1, 2, 3, 62 // d})
            if d * k <= 62
        ],
    )
    def test_bitwise_equal_to_reference(self, d, k):
        order = CurveOrder(k=k, d=d)
        top = (1 << k) - 1
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([d, k])))
        cells = np.vstack(
            [
                np.zeros((1, d), dtype=np.int64),
                np.full((1, d), top, dtype=np.int64),
                gen.integers(0, top, size=(500, d), endpoint=True),
            ]
        )
        got = encode(cells, order)
        assert got.dtype == np.int64
        assert np.array_equal(got, encode_reference(cells, k, d))
        assert encode(cells[0], order) == 0
        assert encode(cells[1], order) == int(encode_reference(cells[1:2], k, d)[0])
        empty = encode(np.empty((0, d), dtype=np.int64), order)
        assert empty.shape == (0,) and empty.dtype == np.int64


class TestPointToIndex:
    def test_origin_cell_is_index_zero(self):
        assert point_to_index(np.array([0.1, 0.2]), CurveOrder(k=1, d=2)) == 0

    def test_upper_boundary_clamps_into_top_cell(self):
        order = CurveOrder(k=3, d=2)
        idx = point_to_index(np.array([1.0, 1.0]), order)
        assert idx == encode(np.array([7, 7]), order)

    def test_same_block_same_index(self, rng):
        order = CurveOrder(k=2, d=2)
        base = np.array([0.26, 0.51])  # cell (1, 2) spans [0.25,0.5)x[0.5,0.75)
        jitter = base + rng.random((50, 2)) * 0.23  # stays inside the cell
        indices = point_to_index(jitter, order)
        assert np.all(indices == point_to_index(base, order))

    def test_rejects_unscaled_input(self):
        order = CurveOrder(k=2, d=2)
        with pytest.raises(InvalidInputError):
            point_to_index(np.array([1.2, 0.0]), order)
        with pytest.raises(InvalidInputError):
            point_to_index(np.array([-0.1, 0.0]), order)
        with pytest.raises(InvalidInputError):
            point_to_index(np.array([np.nan, 0.0]), order)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2))
    def test_matches_explicit_cell_encoding(self, coords):
        order = CurveOrder(k=3, d=2)
        point = np.array(coords)
        cell = np.minimum((point * 8).astype(np.int64), 7)
        assert point_to_index(point, order) == encode(cell, order)


class TestIndexToCenter:
    def test_frozen_values(self):
        assert index_to_center(0, CurveOrder(k=1, d=2)) == 0.125
        assert index_to_center(3, CurveOrder(k=1, d=2)) == 0.875
        assert index_to_center(31, CurveOrder(k=2, d=3)) == 31.5 / 64

    def test_vector_form(self):
        order = CurveOrder(k=1, d=2)
        centers = index_to_center(np.arange(4), order)
        assert np.allclose(centers, [0.125, 0.375, 0.625, 0.875])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            index_to_center(4, CurveOrder(k=1, d=2))


class TestLocality:
    @pytest.mark.parametrize("d,k", [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4)])
    def test_bound_holds(self, d, k):
        report = locality_bound_check(CurveOrder(k=k, d=d))
        assert report.passed
        assert 0.0 < report.max_ratio <= 1.0
        n = CurveOrder(k=k, d=d).total_cells
        assert report.pairs_checked == n * (n - 1) // 2

    def test_sweep_size_guard(self):
        with pytest.raises(InvalidConfigError):
            locality_bound_check(CurveOrder(k=9, d=2))


class TestMeasurePreservation:
    def test_uniform_points_fill_cells_uniformly(self):
        # Equal-length curve intervals own equal-volume cells, so
        # uniform draws must spread evenly over all 64 cells.
        order = CurveOrder(k=3, d=2)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        pts = gen.random((100_000, 2))
        counts = np.bincount(point_to_index(pts, order), minlength=64)
        assert counts.size == 64
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001
