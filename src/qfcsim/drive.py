"""Classical drive-field preparation.

The drive is a 2x2 complex matrix ``a`` with unit Frobenius norm;
``a[i, j]`` is the amplitude of polarization i (x, y) in spatial mode j
(HG10, HG01).  A quarter-wave plate at angle theta followed by a vortex
half-wave plate turns an x-polarized Gaussian beam into such a field.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange, _describe, _finite_real
from .linalg import unit_norm
from .states import assert_density_matrix


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def qwp_jones(theta: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at ``theta``.

    R(theta) diag(1, i) R(-theta); the overall phase is fixed by the
    diag(1, i) convention.  OutOfRange unless ``theta`` is a finite real number.
    """
    if not _finite_real(theta):
        raise OutOfRange(f"QWP angle theta must be a finite real number, "
                         f"got {_describe(theta)}")
    return _rotation(theta) @ np.diag([1.0, 1.0j]) @ _rotation(-theta)


def vwp_transform(e) -> np.ndarray:
    """Drive matrix produced by the vortex wave plate from a Jones vector.

    The plate maps HG00*x -> (HG10*x + HG01*y)/sqrt(2) and
    HG00*y -> (HG01*x - HG10*y)/sqrt(2), so an input (ex, ey) gives
    A = [[ex, ey], [-ey, ex]] / sqrt(2).
    """
    return _vwp(*unit_norm(e, (2,), "Jones vector"))


def _vwp(ex, ey) -> np.ndarray:
    return np.array([[ex, ey], [-ey, ex]], dtype=complex) / np.sqrt(2)


def drive_from_theta(theta: float) -> np.ndarray:
    """Drive matrix for QWP angle ``theta`` (radians) and x-polarized input.

    The plate's Jones vector is the first column of ``qwp_jones(theta)``,
    e = (c^2 + i s^2, s c - i c s) with c, s = cos(theta), sin(theta).  It
    is built from those floats, bit for bit equal to the complex product
    ``qwp_jones(theta) @ (1, 0)``, signed zeros included: the ``+ 0.0`` and
    ``0.0 -`` repeat the zeros that the product's complex arithmetic adds.
    OutOfRange unless ``theta`` is a finite real number.
    """
    if not _finite_real(theta):
        raise OutOfRange(f"QWP angle theta must be a finite real number, "
                         f"got {_describe(theta)}")
    # float64, as the complex rotation matrices of qwp_jones hold them
    c, s = float(np.cos(theta)), float(np.sin(theta))
    # a unitary plate keeps the input's unit norm, so the vector skips unit_norm
    return _vwp(complex(c * c, s * s), complex(s * c + 0.0, 0.0 - c * s))


def check_drive(a) -> np.ndarray:
    return unit_norm(a, (2, 2), "drive matrix")


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
