"""The argument rules (integers, finite reals, finite real arrays, complex
arrays, unit norm, one rounding tolerance), SVD and the two-qubit partial trace."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import InvalidState, NoConvergence, NotNormalized, OutOfRange, ShapeMismatch

# Largest |rho - rho^dag| entry, |Tr rho - 1| and negative eigenvalue that a
# density matrix may carry as rounding noise; also |x|^2 - 1 for unit_norm
_TOL = 1e-10


def _integer(x) -> bool:
    """True for a Python or numpy integer; False for bools (numpy's too), for
    floats of any kind, integral or not, and for every other type."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    scalar as str prints it (nan, not np.float64(nan)), else its type."""
    if isinstance(x, str) and len(x) > _SHOWN_CHARS:
        return f"{x[:_SHOWN_CHARS]!r}... ({len(x)} characters)"
    if x is None or isinstance(x, str):
        return repr(x)
    if _integer(x) and not -sys.float_info.max <= x <= sys.float_info.max:
        return type(x).__name__  # beyond the float range; str raises past 4300 digits
    return str(x) if np.isscalar(x) else type(x).__name__


def _real_array(x, what: str) -> np.ndarray:
    """``x`` as a float array of finite entries; OutOfRange otherwise, naming
    ``what`` and either the rejected argument or its first NaN or +-inf entry.
    None, str, bytes and complex numbers are rejected as arguments and as entries;
    bools, integers and other real numbers are read as floats."""
    try:
        raw = np.asarray(x)
        # float() would read None as NaN and a str or bytes as the number it
        # spells, and a complex cast would drop the imaginary part
        if raw.dtype.kind in "SUc" or (raw.dtype.kind == "O" and any(
                v is None or isinstance(v, (str, bytes)) for v in raw.flat)):
            raise TypeError
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
        raise OutOfRange(f"{what} must be real numbers, got {_describe(x)}") from None
    finite = np.isfinite(arr)
    if not finite.all():
        raise OutOfRange(f"{what} must be finite, got {arr.flat[np.argmin(finite)]}")
    return arr


def as_complex(m) -> np.ndarray:
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise InvalidState(f"expected a numeric matrix, got {type(m).__name__}: "
                           f"{exc}") from exc


def unit_norm(x, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a complex array of exactly ``shape`` with |x|^2 = Tr(x x^dag)
    within ``_TOL`` of 1 (Frobenius for a matrix; NaN fails); NotNormalized otherwise."""
    try:
        arr = as_complex(x)
    except InvalidState:
        raise NotNormalized(f"{what} must be numeric, got {type(x).__name__}") from None
    if arr.shape != shape:
        raise NotNormalized(f"{what} must have shape {shape}, got {arr.shape}")
    norm = np.linalg.norm(arr)
    if not abs(norm * norm - 1.0) <= _TOL:
        raise NotNormalized(f"{what} has norm {norm}, expected 1")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., m, n) stack."""
    return m.conj().swapaxes(-1, -2)


def svd(m):
    """Singular value decomposition M = U diag(s) V^dag.

    Returns (U, s, V) with singular values descending and V (not V^dag).
    An argument of fewer than 2 dimensions raises ShapeMismatch.
    """
    m = as_complex(m)
    if m.ndim < 2:
        raise ShapeMismatch(f"svd expects a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix contains non-finite entries")
    return _finite_svd(m)


def _finite_svd(m: np.ndarray):
    """``svd`` of a complex array the caller has already found finite."""
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return u, s, dagger(vh)


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit (4x4) operator.

    ``keep`` is 1 or 2, the subsystem to keep, with the 4-dim index
    ordered as 2*q1 + q2.
    """
    rho = as_complex(rho)
    if rho.shape != (4, 4):
        raise ShapeMismatch(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    if not (_integer(keep) and keep in (1, 2)):  # an array would compare entry by entry
        raise ShapeMismatch(f"keep must be 1 or 2, got {_describe(keep)}")
    # keep 1 traces out the axes (1, 3) of qubit 2, keep 2 the axes (0, 2) of qubit 1
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=2 - keep, axis2=4 - keep)
