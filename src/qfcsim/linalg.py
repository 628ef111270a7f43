"""The array argument rules (finite real arrays, complex arrays, unit norm,
one rounding tolerance), SVD and the two-qubit partial trace; the scalar
rules live in ``errors``."""

from __future__ import annotations

import numpy as np

from .errors import (InvalidState, NoConvergence, NotNormalized, OutOfRange, ShapeMismatch,
                     _describe, _integer)

# Largest |rho - rho^dag| entry, |Tr rho - 1| and negative eigenvalue that a
# density matrix may carry as rounding noise; also |x|^2 - 1 for unit_norm
_TOL = 1e-10


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
