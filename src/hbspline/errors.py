"""Exception hierarchy shared across the library.

Each class maps onto one process exit code used by the command-line
interface: configuration problems exit 1, data problems exit 2, and
numeric failures exit 3.  as_int and as_real say what counts as an integer or a
number, and as_points what counts as an array of points.
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


def as_int(name, value, error=InvalidConfigError) -> int:
    """value as a plain int: Python and numpy integers, never bools or truncated."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, not {value!r}")


def as_real(name, value, error=InvalidConfigError) -> float:
    """value as a float: Python and numpy ints and floats; no bool, string or NaN."""
    if isinstance(value, Real) and not isinstance(value, bool) and value == value:
        return float(value)
    raise error(f"{name} must be a number, not {value!r}")


def as_points(name, x, d=None, cube=False, column=False) -> np.ndarray:
    """x as a float64 (n, d) array of points, never a copy of a float64 array.

    Only integer and float dtypes: no bool, string, object or ragged input.
    At most two axes; a 1-D input is one point, or one column when column
    is set.  d columns (any number when d is None).  Every entry finite, or
    in [0, 1] when cube is set; the first bad cell is named by row and column.
    """
    try:
        X = np.asarray(x)
    except ValueError:
        raise InvalidInputError(f"{name} must be a rectangular array, not ragged") from None
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
