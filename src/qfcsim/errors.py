"""Exception types shared across the package."""


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
