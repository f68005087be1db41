"""Exception hierarchy shared across the library.

Each class maps onto one process exit code used by the command-line
interface: configuration problems exit 1, data problems exit 2, and
numeric failures exit 3.  as_int and as_real say what counts as an integer or a number.
"""

from numbers import Integral, Real


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
