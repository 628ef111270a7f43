"""Classical drive-field preparation.

The drive is a 2x2 complex matrix ``a`` with unit Frobenius norm;
``a[i, j]`` is the amplitude of polarization i (x, y) in spatial mode j
(HG10, HG01).  A quarter-wave plate at angle theta followed by a vortex
half-wave plate turns an x-polarized Gaussian beam into such a field.
"""

from __future__ import annotations

import numpy as np

from .errors import NotNormalized
from .states import assert_density_matrix


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def qwp_jones(theta: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at ``theta``.

    R(theta) diag(1, i) R(-theta); the global phase is fixed by the
    diag(1, i) convention.
    """
    return _rotation(theta) @ np.diag([1.0, 1.0j]) @ _rotation(-theta)


def vwp_transform(e) -> np.ndarray:
    """Drive matrix produced by the vortex wave plate from a Jones vector.

    The plate maps HG00*x -> (HG10*x + HG01*y)/sqrt(2) and
    HG00*y -> (HG01*x - HG10*y)/sqrt(2), so an input (ex, ey) gives
    A = [[ex, ey], [-ey, ex]] / sqrt(2).
    """
    try:
        e = np.asarray(e, dtype=complex).reshape(2)
    except (TypeError, ValueError):
        raise NotNormalized(f"Jones vector must be 2 numbers, got {type(e).__name__}") from None
    norm = np.sqrt(np.sum(np.abs(e) ** 2))
    if not abs(norm - 1.0) <= 1e-10:
        raise NotNormalized(f"Jones vector has norm {norm}, expected 1")
    ex, ey = e
    return np.array([[ex, ey], [-ey, ex]], dtype=complex) / np.sqrt(2)


def drive_from_theta(theta: float) -> np.ndarray:
    """Drive matrix for QWP angle ``theta`` (radians) and x-polarized input."""
    e = qwp_jones(theta) @ np.array([1.0, 0.0], dtype=complex)
    return vwp_transform(e)


def check_drive(a) -> np.ndarray:
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise NotNormalized(f"drive matrix must be numeric, got {type(a).__name__}") from None
    if a.shape != (2, 2):
        raise NotNormalized(f"drive matrix must be 2x2, got {a.shape}")
    norm = np.linalg.norm(a)
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= 1e-10:
        raise NotNormalized(f"drive matrix has Frobenius norm {norm}, expected 1")
    return a


def coherence_matrix(a) -> np.ndarray:
    """Rank-1 coherence matrix of the drive, rho_D = alpha alpha^dag.

    alpha is the row-major flattening (a11, a12, a21, a22); polarization
    is the first (major) index, spatial mode the second.
    """
    a = check_drive(a)
    alpha = a.reshape(4)
    rho = np.outer(alpha, alpha.conj())
    return assert_density_matrix(rho, dim=4)


def drive_concurrence(a) -> float:
    """Non-separability of the drive field: 2 |det A|."""
    a = check_drive(a)
    return float(min(2.0 * abs(np.linalg.det(a)), 1.0))
