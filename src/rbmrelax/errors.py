"""Exception hierarchy, and the domain checks that raise ParameterError.

ValueError subclasses cover bad user input (parameters, config files); they
map to CLI exit code 1.  SingularityError covers a condition that arises
from valid input (resonant divergence) and maps to exit code 2, as does a
non-converged fit, which is reported in its result rather than raised.

Each input is checked once, where it enters: a config value by the
scenario schema, a predict override against its key's range, a table by
its loader, a CLI grid by the CLI.  The checks take Python floats and numpy
arrays alike; NaN fails every check.
"""

import math
import sys

import numpy as np


class ParameterError(ValueError):
    """A physical parameter is out of its valid domain."""


class ConfigError(ValueError):
    """A scenario config file is malformed or violates the schema."""


class SingularityError(ArithmeticError):
    """Evaluation at or too close to a removable divergence."""


def positive(value):
    """True where value is finite and > 0 (a bool, or a boolean array)."""
    return (value > 0.0) & (value < math.inf)


def nonnegative(value):
    """True where value is finite and >= 0 (a bool, or a boolean array)."""
    return (value >= 0.0) & (value < math.inf)


def power_finite(value, n: int):
    """True where value**n is finite (a bool, or a boolean array).

    The bound is on |value|, so the check cannot itself overflow the way a
    Python float power does (OverflowError)."""
    return abs(value) < sys.float_info.max ** (1.0 / n)


def allocate(shape, what: str, error=ParameterError):
    """np.empty(shape), or an error naming what when no array of that shape
    can be held.  Called before other work, so that a count too large to
    hold fails at once, touching no memory."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError) as exc:
        raise error(f"{what} is too large: {exc}") from None


def require(ok, message: str, value=None) -> None:
    """Raise ParameterError unless ok holds for every element.

    ok is a bool or a boolean array.  When value is given, message carries
    one ``{!r}`` placeholder, filled with the first element of value where
    ok fails, so a bad array element is named the way a bad scalar is.
    """
    if ok is True or (ok is not False and ok.all()):
        return
    if value is not None:
        values, fine = np.broadcast_arrays(value, ok)
        message = message.format(values[~fine][0].item())
    raise ParameterError(message)
