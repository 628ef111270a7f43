"""Dense complex linear algebra: conversion, SVD and the two-qubit partial trace."""

from __future__ import annotations

import numpy as np

from .errors import InvalidState, NoConvergence, ShapeMismatch


def as_complex(m) -> np.ndarray:
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidState(f"expected a numeric matrix, got {type(m).__name__}: "
                           f"{exc}") from exc


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def svd(m):
    """Singular value decomposition M = U diag(s) V^dag.

    Returns (U, s, V) with singular values descending and V (not V^dag).
    """
    m = as_complex(m)
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix contains non-finite entries")
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
    r = rho.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.trace(r, axis1=1, axis2=3)
    if keep == 2:
        return np.trace(r, axis1=0, axis2=2)
    raise ShapeMismatch(f"keep must be 1 or 2, got {keep}")
