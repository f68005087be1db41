"""Exception hierarchy shared across the library.

Each class maps onto one process exit code used by the command-line
interface: configuration problems exit 1, data problems exit 2, and
numeric failures exit 3.  as_int and as_real say what counts as an integer (in
a range) or a number, as_choice what counts as a name from a list, as_points
what counts as an array of points, and as_indices what counts as an array of
indices (or of curve cells).
"""

from numbers import Integral, Real

import numpy as np


class HbsplineError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InvalidConfigError(HbsplineError):
    """A configuration value is out of range or internally inconsistent."""

    exit_code = 1


class InvalidInputError(HbsplineError):
    """A numeric argument violates a documented precondition."""

    exit_code = 2


class IngestionError(HbsplineError):
    """Tabular input could not be parsed; message carries row/column."""

    exit_code = 2


class SingularSystemError(HbsplineError):
    """An eigendecomposition of the GCV scan did not converge.

    A non-finite (overflowed) system causes it.  A singular one does not:
    the scan drops null directions by its rank rule, and always keeps the
    constant term's, so it never has nothing to keep.
    """

    exit_code = 3


def as_int(name, value, error=InvalidConfigError, low=None, high=None) -> int:
    """value as a plain int: Python and numpy integers, never bools or truncated.

    With low, the int must be >= low; with high, <= high; with both, in
    [low, high].
    """
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, not {value!r}")
    v = int(value)
    if low is not None and high is not None and not low <= v <= high:
        raise error(f"{name}={v} must be in [{low}, {high}]")
    if low is not None and v < low:
        raise error(f"{name}={v} must be >= {low}")
    if high is not None and v > high:
        raise error(f"{name}={v} must be <= {high}")
    return v


def as_choice(name, value, choices) -> str:
    """value if it is a str among choices (a tuple of names)."""
    if isinstance(value, str) and value in choices:
        return value
    raise InvalidConfigError(f"unknown {name} {value!r}; expected one of {choices}")


def as_real(name, value, error=InvalidConfigError) -> float:
    """value as a float: Python and numpy ints and floats; no bool, string or NaN."""
    if isinstance(value, Real) and not isinstance(value, bool) and value == value:
        return float(value)
    raise error(f"{name} must be a number, not {value!r}")


def as_array(name, x) -> np.ndarray:
    """np.asarray(x), with a ragged input an InvalidInputError naming it."""
    try:
        return np.asarray(x)
    except ValueError:
        raise InvalidInputError(f"{name} must be a rectangular array, not ragged") from None


def as_points(name, x, d=None, cube=False, column=False) -> np.ndarray:
    """x as a float64 (n, d) array of points, never a copy of a float64 array.

    Only integer and float dtypes: no bool, string, object or ragged input.
    At most two axes; a 1-D input is one point, or one column when column
    is set.  d columns (any number when d is None).  Every entry finite, or
    in [0, 1] when cube is set; the first bad cell is named by row and column.
    """
    X = as_array(name, x)
    if X.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must hold integers or floats, not {X.dtype}")
    if X.ndim > 2:
        raise InvalidInputError(f"{name} has {X.ndim} axes, not 1 or 2")
    X = X.reshape(-1, 1) if column and X.ndim < 2 else np.atleast_2d(X)
    X = X.astype(np.float64, copy=False)
    if d is not None and X.shape[1] != d:
        raise InvalidInputError(f"{name} has {X.shape[1]} columns, expected {d}")
    ok = (X >= 0.0) & (X <= 1.0) if cube else np.isfinite(X)
    if not ok.all():
        r, c = np.argwhere(~ok)[0]
        v = float(X[r, c])
        if np.isfinite(v):
            raise InvalidInputError(f"{name} at row {r}, column {c} is {v}, outside [0, 1]")
        raise InvalidInputError(f"non-finite {name} at row {r}, column {c}")
    return X


def as_indices(name, x, high, d=None) -> np.ndarray:
    """x as an int64 array of indices in [0, high), never a copy of an int64 array.

    Integer dtypes and whole finite floats: no bool, string, object or ragged
    input.  Without d, at most one axis, a scalar being one index; with d, at
    most two axes of d columns, a 1-D input being one row (a cell).  The first
    bad entry is named by row (and column) and value, checked before any cast.
    """
    X = as_array(name, x)
    if X.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must hold integers, not {X.dtype}")
    axes = 1 if d is None else 2
    if X.ndim > axes:
        raise InvalidInputError(f"{name} has {X.ndim} axes, not {axes - 1} or {axes}")
    X = np.atleast_1d(X) if d is None else np.atleast_2d(X)
    if d is not None and X.shape[1] != d:
        raise InvalidInputError(f"{name} has {X.shape[1]} columns, expected {d}")
    # One pass over int64: read as uint64, a negative int64 is at least 2**63.
    if X.dtype == np.int64 and X.view(np.uint64).max(initial=0) < high:
        return X
    ok = (X >= 0) & (X < high)
    if X.dtype.kind == "f":
        ok &= X == np.floor(X)
    if ok.all():
        return X.astype(np.int64)
    first = np.argwhere(~ok)[0]
    where = f"row {first[0]}" if d is None else f"row {first[0]}, column {first[1]}"
    v = X[tuple(first)].item()
    if isinstance(v, float) and not v.is_integer():
        raise InvalidInputError(f"{name} must hold integers, not {v} at {where}")
    raise InvalidInputError(f"{name} at {where} is {v}, outside [0, {high})")
