"""Dense complex linear algebra for small matrices and medium grids.

Conventions used throughout the package:
  * eigenvalues and singular values come back in descending order,
  * eigenvectors / singular vectors are the columns of the returned matrices,
  * a matrix function of a Hermitian PSD matrix is evaluated through its
    eigendecomposition, with tiny negative eigenvalues clipped to zero.
"""

from __future__ import annotations

import numpy as np

from .errors import (InvalidState, NegativeEigenvalue, NoConvergence, NotHermitian,
                     ShapeMismatch)

# Eigenvalues of a PSD matrix above -PSD_CLIP are treated as rounding noise
# and clipped to zero; anything more negative is a genuine error.
PSD_CLIP = 1e-10
# Largest max|H - H^dag| accepted as rounding noise in a Hermitian matrix
HERMITIAN_TOL = 1e-10


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def check_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix contains non-finite entries")


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, eigenvector columns).  Raises
    InvalidState for non-finite entries and NotHermitian if max|H - H^dag|
    exceeds HERMITIAN_TOL.
    """
    h = as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {h.shape}")
    check_finite(h)
    if np.max(np.abs(h - dagger(h))) > HERMITIAN_TOL:
        raise NotHermitian(f"matrix is not Hermitian within tol={HERMITIAN_TOL}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def svd(m):
    """Singular value decomposition M = U diag(s) V^dag.

    Returns (U, s, V) with singular values descending and V (not V^dag).
    """
    m = as_complex(m)
    check_finite(m)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return u, s, dagger(vh)


def func_psd(h, f) -> np.ndarray:
    """Apply a real scalar function to a Hermitian PSD matrix.

    Eigenvalues in [-PSD_CLIP, 0) are clipped to zero before ``f`` is
    applied, so that e.g. sqrt of a numerically-PSD matrix stays real.
    """
    w, v = herm_eig(h)
    if w[-1] < -PSD_CLIP:
        raise NegativeEigenvalue(f"matrix has eigenvalue {w[-1]} < -{PSD_CLIP}")
    w = np.clip(w, 0.0, None)
    fw = np.array([f(x) for x in w], dtype=float)
    return (v * fw) @ dagger(v)


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_complex(a), as_complex(b))


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit (4x4) operator.

    ``keep`` is 1 or 2, the subsystem to keep, with the 4-dim index
    ordered as 2*q1 + q2.
    """
    rho = as_complex(rho)
    if rho.shape != (4, 4):
        raise ShapeMismatch(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.trace(r, axis1=1, axis2=3)
    if keep == 2:
        return np.trace(r, axis1=0, axis2=2)
    raise ShapeMismatch(f"keep must be 1 or 2, got {keep}")
