"""Exception types shared across the package, and the scalar argument rules
that word their one-line messages: ``_integer``, ``_finite_real`` and
``_describe``.  No numpy is imported here: a numpy scalar exists only once
numpy is in ``sys.modules``, so the rules look numpy's types up there."""

import math
import numbers
import sys


class QfcError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(QfcError):
    pass


class ShapeMismatch(QfcError):
    pass


class InvalidState(QfcError):
    pass


class UnknownLabel(QfcError):
    pass


class NotNormalized(QfcError):
    pass


class ZeroConversionProbability(QfcError):
    pass


class OutOfRange(QfcError):
    pass


class GridTooCoarse(QfcError):
    pass


class DivisionByZero(QfcError):
    pass


class InvalidSeed(QfcError, TypeError):
    """A random seed of the wrong type; a TypeError too, as numpy raises one."""


class NotInformationallyComplete(QfcError):
    pass


class ZeroTotalCounts(QfcError):
    pass


class ConfigError(QfcError):
    pass


def _numpy_type(name: str):
    """numpy's type ``name`` once numpy is loaded, else () (an isinstance that
    matches nothing): a value of that type cannot exist before numpy does."""
    np = sys.modules.get("numpy")
    return () if np is None else getattr(np, name)


def _integer(x) -> bool:
    """True for a Python or numpy integer; False for bools (numpy's too), for
    floats of any kind, integral or not, and for every other type."""
    return isinstance(x, (int, _numpy_type("integer"))) and not isinstance(x, bool)


def _finite_real(x) -> bool:
    """True for a finite real number; False for bools, NaN, +-inf, arrays and
    other types (numpy would compute with True in float16)."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


# Longest str that _describe quotes whole; a longer one is cut there
_SHOWN_CHARS = 100


def _describe(x) -> str:
    """One-line description of a rejected argument: None's or a string's repr
    (a string cut after _SHOWN_CHARS characters, with its full length), another
    scalar as str prints it (nan, not np.float64(nan)), else its type.  A
    scalar is what ``numpy.isscalar`` calls one."""
    if isinstance(x, str) and len(x) > _SHOWN_CHARS:
        return f"{x[:_SHOWN_CHARS]!r}... ({len(x)} characters)"
    if x is None or isinstance(x, str):
        return repr(x)
    if _integer(x) and not -sys.float_info.max <= x <= sys.float_info.max:
        return type(x).__name__  # beyond the float range; str raises past 4300 digits
    scalar = (isinstance(x, (numbers.Number, _numpy_type("generic")))
              or type(x) in (bytes, memoryview))
    return str(x) if scalar else type(x).__name__
