"""One rule for every index array from outside (errors.as_indices).

Each public function that takes curve cells, curve indices or basis
indices rejects the same bad inputs with an InvalidInputError naming its
argument and the first bad entry: a bool, string, object or ragged array,
NaN, inf, a fraction, an entry outside [0, high), and one axis too many.
None of them lets numpy warn on the way.  Whole floats and every integer
dtype give the same output as int64.
"""

import warnings

import numpy as np
import pytest

from hbspline.errors import InvalidInputError, as_indices
from hbspline.hilbert import CurveOrder, decode, encode, index_to_center
from hbspline.kernels import default_spec
from hbspline.selection import BasisSelection, scale_to_unit_cube
from hbspline.solver import FittedModel, fit_fixed_lambda, gcv_select
from hbspline.theory import EigenSurrogate, stratified_integral_estimate

ORDER = CurveOrder(k=2, d=2)
SPEC = default_spec(2)
PAIR = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
_gen = np.random.Generator(np.random.Philox(11))
DATA = scale_to_unit_cube(_gen.random((50, 2)), _gen.standard_normal(50))


def _selection(indices):
    """indices with equal weights; a list counts its rows, so a ragged one may pass."""
    q = len(indices) if isinstance(indices, list) else np.size(indices)
    return BasisSelection(indices, np.full(q, 1.0 / q), nonempty_bins=1)


# (argument name, its bound high, takes cells of d columns, caller)
ROUTED = {
    "encode": ("cell", 4, True, lambda x: encode(x, ORDER)),
    "decode": ("index", 16, False, lambda x: decode(x, ORDER)),
    "index_to_center": ("index", 16, False, lambda x: index_to_center(x, ORDER)),
    "gcv_select": (r"sel\.indices", 50, False, lambda x: gcv_select(DATA, _selection(x), SPEC)),
    "fit_fixed_lambda": (
        r"sel\.indices", 50, False, lambda x: fit_fixed_lambda(DATA, _selection(x), SPEC, 1e-3)
    ),
    "stratified_integral_estimate": (
        r"sel\.indices", 50, False, lambda x: stratified_integral_estimate(DATA, _selection(x), PAIR)
    ),
}

# (entries [good, bad], message): the bad entry is row 1's; a caller that
# takes cells gets it as column 1 of [[good, good], [good, bad]].
# "high" stands for the caller's bound.
BAD_ENTRIES = {
    "bool": ([False, True], "{name} must hold integers, not bool"),
    "string": (["0", "1"], "{name} must hold integers, not <U1"),
    "object": ([0, None], "{name} must hold integers, not object"),
    "nan": ([0.0, np.nan], "{name} must hold integers, not nan at {at}"),
    "inf": ([0.0, np.inf], "{name} must hold integers, not inf at {at}"),
    "-inf": ([0.0, -np.inf], "{name} must hold integers, not -inf at {at}"),
    "1e30": ([0.0, 1e30], r"{name} at {at} is 1e\+30, outside \[0, {high}\)"),
    "fraction": ([0.0, 2.5], "{name} must hold integers, not 2.5 at {at}"),
    "negative": ([0, -1], r"{name} at {at} is -1, outside \[0, {high}\)"),
    "high": ([0, "high"], r"{name} at {at} is {high}, outside \[0, {high}\)"),
}


def _bad_input(entries, high, cells):
    good, bad = (high if v == "high" else v for v in entries)
    return [[good, good], [good, bad]] if cells else [good, bad]


def _call_quietly(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(x)


@pytest.mark.parametrize("case", BAD_ENTRIES)
@pytest.mark.parametrize("fn", ROUTED)
def test_bad_entries_are_named(fn, case):
    name, high, cells, call = ROUTED[fn]
    entries, message = BAD_ENTRIES[case]
    at = "row 1, column 1" if cells else "row 1"
    with pytest.raises(InvalidInputError, match=message.format(name=name, at=at, high=high)):
        _call_quietly(call, _bad_input(entries, high, cells))


@pytest.mark.parametrize("fn", ROUTED)
def test_one_axis_too_many_is_named(fn):
    name, _, cells, call = ROUTED[fn]
    x, message = (
        (np.zeros((2, 2, 1), dtype=np.int64), f"{name} has 3 axes, not 1 or 2") if cells
        else (np.zeros((2, 1), dtype=np.int64), f"{name} has 2 axes, not 0 or 1")
    )
    with pytest.raises(InvalidInputError, match=message):
        _call_quietly(call, x)


@pytest.mark.parametrize("fn", ROUTED)
def test_ragged_input_is_named(fn):
    name, _, cells, call = ROUTED[fn]
    # A BasisSelection holds an array, so it names its own field.
    name = "indices" if "sel" in name else name
    x = [[0, 1], [1]] if cells else [[0], [1, 2]]
    with pytest.raises(InvalidInputError, match=f"{name} must be a rectangular array, not ragged"):
        _call_quietly(call, x)


def test_cells_need_d_columns():
    with pytest.raises(InvalidInputError, match="cell has 3 columns, expected 2"):
        encode([[0, 1, 2]], ORDER)


def _same(a, b):
    if isinstance(a, FittedModel):
        return (a.lam == b.lam and np.array_equal(a.alpha, b.alpha)
                and np.array_equal(a.beta, b.beta))
    return type(a) is type(b) and np.array_equal(a, b)


VALID = {"encode": [[0, 3], [2, 1], [3, 3]], "decode": [15, 0, 7],
         "index_to_center": [15, 0, 7], "gcv_select": [3, 41, 17, 8],
         "fit_fixed_lambda": [3, 41, 17, 8], "stratified_integral_estimate": [3, 41, 17, 8]}


@pytest.mark.parametrize("dtype", [np.float64, np.uint8, np.int32, list])
@pytest.mark.parametrize("fn", ROUTED)
def test_every_dtype_reads_as_int64(fn, dtype):
    call = ROUTED[fn][3]
    valid = np.array(VALID[fn], dtype=np.int64)
    other = valid.tolist() if dtype is list else valid.astype(dtype)
    assert _same(_call_quietly(call, valid), _call_quietly(call, other))


@pytest.mark.parametrize("fn", ROUTED)
def test_a_scalar_reads_as_int64(fn):
    call = ROUTED[fn][3]
    first = np.array(VALID[fn], dtype=np.int64)[0]
    expected = call(first)
    for scalar in (first.tolist(), float(first) if first.ndim == 0 else first.astype(float)):
        assert _same(expected, _call_quietly(call, scalar))


def test_a_single_index_or_cell_gives_a_scalar_back():
    assert type(encode([2, 1], ORDER)) is int
    assert decode(7, ORDER).shape == (2,)
    assert type(index_to_center(7.0, ORDER)) is float
    assert np.array_equal(decode(7, ORDER), decode([7], ORDER)[0])


class TestAsIndices:
    def test_never_copies_int64(self):
        vector = np.arange(10, dtype=np.int64)
        cells = np.arange(12, dtype=np.int64).reshape(6, 2)[::2]
        assert as_indices("i", vector, 10) is vector
        assert as_indices("c", cells, 12, d=2) is cells

    def test_other_dtypes_come_back_int64(self):
        for x in ([1, 2], np.array([1, 2], dtype=np.uint16), np.array([1.0, 2.0])):
            out = as_indices("i", x, 3)
            assert out.dtype == np.int64 and out.tolist() == [1, 2]

    def test_uint64_beyond_int64_is_out_of_range(self):
        with pytest.raises(InvalidInputError, match=r"i at row 0 is 18446744073709551615"):
            _call_quietly(lambda x: as_indices("i", x, 5), np.array([2**64 - 1], dtype=np.uint64))

    def test_empty_input_is_no_indices(self):
        assert as_indices("i", [], 0).shape == (0,)
        assert as_indices("c", np.empty((0, 2)), 4, d=2).shape == (0, 2)


class TestBasisSelection:
    def test_freezes_copies_not_the_callers_arrays(self):
        indices, weights = np.array([0, 3]), np.array([0.5, 0.5])
        sel = BasisSelection(indices, weights, nonempty_bins=2)
        indices[0], weights[0] = 1, 0.25
        assert sel.indices.tolist() == [0, 3] and sel.bin_weight.tolist() == [0.5, 0.5]
        assert not sel.indices.flags.writeable and not sel.bin_weight.flags.writeable

    def test_a_scalar_index_is_one_index(self):
        sel = BasisSelection(3, [1.0], nonempty_bins=1)
        assert sel.q == 1 and sel.indices.shape == (1,) and not sel.indices.flags.writeable
        assert BasisSelection(3, 1.0, nonempty_bins=1).bin_weight.shape == (1,)

    def test_takes_lists(self):
        sel = BasisSelection([0, 3], [0.5, 0.5], nonempty_bins=2)
        assert sel.q == 2 and not sel.indices.flags.writeable
        value = stratified_integral_estimate(DATA, sel, PAIR)
        assert value == stratified_integral_estimate(DATA, _selection(np.array([0, 3])), PAIR)
