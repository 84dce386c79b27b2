"""Exception hierarchy, and ``check_entries``, the one model input check.

Every error class carries a distinct process exit code so that scripted
callers of the command line tool can tell failure modes apart.  Exit codes
0 (all checks passed), 1 (a check failed) and 2 (usage error, raised by
argparse) are reserved and never used by exceptions.
"""

import numpy as np


class CycleflowError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 70

    def __init__(self, message, field=None):
        if field is not None:
            message = "%s: %s" % (field, message)
        super().__init__(message)
        self.field = field


class FileAccessError(CycleflowError):
    """An input file is missing or unreadable, or an output path is bad."""

    exit_code = 3


class ModelParseError(CycleflowError):
    """An input file is not valid JSON."""

    exit_code = 4


class UnknownKindError(CycleflowError):
    """A model file declares a kind this package does not implement."""

    exit_code = 5


class InvariantError(CycleflowError):
    """A structural invariant of a model is violated (bad shape, negative
    weight, map out of range, rows not summing to one, ...)."""

    exit_code = 6


def check_entries(values, field, size=None):
    """Return ``values`` as an array, or refuse its first entry in C order
    that is not finite, else the first negative one, else the first at
    or above ``size``: an ``InvariantError`` on ``field[i]`` (``field[i][j]``
    for a matrix).  Fraction and Python-int object arrays are finite."""
    values = np.asarray(values)
    if values.dtype != object:
        _refuse(~np.isfinite(values), "entry is not finite", field)
    _refuse(values < 0, "entry is negative", field)
    if size is not None:
        _refuse(values >= size, "entry is out of range (%d points)" % size,
                field)
    return values


def _refuse(bad, message, field):
    if bad.any():
        index = np.unravel_index(bad.argmax(), bad.shape)
        raise InvariantError(message, field=field + "".join(
            "[%d]" % i for i in index))


class PreconditionError(CycleflowError):
    """An operation was called on a model that does not satisfy the
    operation's stated preconditions."""

    exit_code = 7


class UnsupportedOperationError(CycleflowError):
    """The operation needs structure the model does not have, e.g.
    backward iteration of a non-invertible map."""

    exit_code = 8


class OutputError(CycleflowError):
    """A report could not be written."""

    exit_code = 9


class BudgetExceededError(CycleflowError):
    """A simulation exceeded its step budget before producing the
    requested number of cycles."""

    exit_code = 10


class InfeasibleMinorizationError(CycleflowError):
    """No positive minorization constant exists for the requested set and
    block length."""

    exit_code = 11


class InternalInconsistencyError(CycleflowError):
    """A quantity that must be finite or nonnegative under the model's
    declared properties came out otherwise; the model contradicts itself."""

    exit_code = 12
