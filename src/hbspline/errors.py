"""Exception hierarchy shared across the library.

Each class maps onto one process exit code used by the command-line
interface: configuration problems exit 1, data problems exit 2, and
numeric failures exit 3.
"""


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
