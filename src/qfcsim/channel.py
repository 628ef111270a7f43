"""Quantum frequency conversion channel built from a classical drive matrix.

The interaction couples the input polarization modes a_j to the
upconverted spatial modes b_k with amplitudes a[j, k], a multiport
beam-splitter Hamiltonian of overall strength kt.  Projecting onto the
upconverted frequency leaves a single-Kraus (generally trace-decreasing)
map on the qubit.

Everything is derived from the singular value decomposition
A = U diag(s+, s-) V^dag, which stays regular when A is singular:

  * the Kraus matrix K satisfies K^dag = U sin(kt S) V^dag, so
    K^dag -> kt A as kt -> 0,
  * because a[j, k] carries (polarization, spatial) indices, the matrix
    that maps a polarization-basis column vector to the spatial basis is
    the transpose family: the applied conversion operator is
    K^dag^T = conj(K) ~ kt A^T,
  * the Choi state of the channel is then the flattening of K^dag and
    converges to the drive coherence matrix at low efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drive import check_drive, coherence_matrix
from .errors import OutOfRange, ZeroConversionProbability
from .linalg import _describe, _finite_real, _finite_svd, dagger, partial_trace
from .states import I2, _one_matrix, assert_density_matrix, bell_state, concurrence

# success probabilities at or below this are treated as zero conversion
PROB_FLOOR = 1e-15


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Drive matrix plus dimensionless interaction strength kt.

    ``a`` is kept as a read-only copy of the drive, so that a later change
    to the caller's array cannot reach the channel, and its SVD is taken
    once here for the kernels below.  Specs compare and hash by identity.
    """

    a: np.ndarray
    kt: float
    _svd: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = check_drive(self.a).copy()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        if not _finite_real(self.kt) or self.kt < 0:
            raise OutOfRange(f"kt must be finite and >= 0, got {_describe(self.kt)}")
        factors = _finite_svd(a)  # check_drive has rejected a non-finite drive
        for factor in factors:
            factor.flags.writeable = False
        object.__setattr__(self, "_svd", factors)


@dataclass(frozen=True, eq=False)
class ModeTransfer:
    """Blocks of the unitary mapping (a^dag, b^dag)(0) -> (a^dag, b^dag)(t).

    Row-vector convention: a^dag(t) = a^dag(0) caa + b^dag(0) cba and
    b^dag(t) = a^dag(0) cab + b^dag(0) cbb, i.e. c_xy is the block from
    source x to destination y.
    """

    caa: np.ndarray
    cab: np.ndarray
    cba: np.ndarray
    cbb: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Assembled 4x4 transfer matrix [[caa, cab], [cba, cbb]]."""
        top = np.hstack([self.caa, self.cab])
        bot = np.hstack([self.cba, self.cbb])
        return np.vstack([top, bot])


def _kraus_dagger(spec: ChannelSpec) -> np.ndarray:
    u, s, v = spec._svd
    return (u * np.sin(spec.kt * s)) @ dagger(v)


def kraus_from_drive(spec: ChannelSpec) -> np.ndarray:
    """Kraus matrix K of the conversion channel, K^dag = U sin(kt S) V^dag."""
    return dagger(_kraus_dagger(spec))


def _conversion_operator(spec: ChannelSpec) -> np.ndarray:
    # spatial <- polarization matrix conj(K) = (K^dag)^T; see module docstring
    return _kraus_dagger(spec).T


def mode_transfer(spec: ChannelSpec) -> ModeTransfer:
    """Heisenberg-picture solution of the coupled-mode equations.

    Solves d a^dag/dt = kappa b^dag A^dag, d b^dag/dt = -kappa a^dag A
    (row-vector form); the assembled 4x4 matrix equals
    expm(t [[0, -kappa A], [kappa A^dag, 0]]) and is unitary.
    """
    u, s, v = spec._svd
    cos_s = np.cos(spec.kt * s)
    sin_s = np.sin(spec.kt * s)
    return ModeTransfer(
        caa=(u * cos_s) @ dagger(u),
        cab=-(u * sin_s) @ dagger(v),
        cba=(v * sin_s) @ dagger(u),
        cbb=(v * cos_s) @ dagger(v),
    )


def _herald(op: np.ndarray, rho: np.ndarray, spec: ChannelSpec):
    """(op rho op^dag / p, p) with p = Tr(op rho op^dag) the success probability."""
    out = op @ rho @ dagger(op)
    p = float(out.trace().real)
    if p <= PROB_FLOOR:
        raise ZeroConversionProbability(
            f"conversion probability {p} <= {PROB_FLOOR} (kt={spec.kt})")
    return assert_density_matrix(out / p, dim=len(rho)), p


def apply_channel(rho_in, spec: ChannelSpec):
    """Convert a single-qubit state; returns (rho_out, success_prob)."""
    rho_in = assert_density_matrix(_one_matrix(rho_in), dim=2)
    return _herald(_conversion_operator(spec), rho_in, spec)


def one_sided_apply(rho0, spec: ChannelSpec):
    """Convert qubit 2 of a two-qubit state; returns (rho, success_prob).

    Qubit 1 is the untouched (heralding) qubit.
    """
    rho0 = assert_density_matrix(_one_matrix(rho0), dim=4)
    op = np.zeros((4, 4), dtype=complex)          # I x M, block diagonal
    op[:2, :2] = op[2:, 2:] = _conversion_operator(spec)
    return _herald(op, rho0, spec)


def choi_state(spec: ChannelSpec) -> np.ndarray:
    """Choi state: the channel applied to half of a maximally entangled pair."""
    rho, _ = one_sided_apply(bell_state("phi+"), spec)
    return rho


def drive_singular_values(c_d: float):
    """Singular values (s+, s-) of a unit-norm drive with finite concurrence c_d."""
    if not _finite_real(c_d):
        raise OutOfRange(f"drive concurrence must be a finite real number, "
                         f"got {_describe(c_d)}")
    c_d = min(max(c_d, 0.0), 1.0)
    root = np.sqrt(max(1.0 - c_d ** 2, 0.0))
    return np.sqrt((1.0 + root) / 2.0), np.sqrt((1.0 - root) / 2.0)


def choi_concurrence_closed(spec: ChannelSpec) -> float:
    """Concurrence of the (pure) Choi state in closed form.

    2 |sin(s+ kt) sin(s- kt)| / (sin^2(s+ kt) + sin^2(s- kt)) with s+- the
    drive singular values, taken from the SVD directly; expressing them
    through the drive concurrence (see drive_singular_values) is exact but
    loses precision near a maximally non-separable drive.
    """
    _, s, _ = spec._svd
    sp = np.sin(s[0] * spec.kt)
    sm = np.sin(s[1] * spec.kt)
    denom = sp ** 2 + sm ** 2
    if denom <= PROB_FLOOR:
        raise ZeroConversionProbability(
            f"both sine terms vanish (kt={spec.kt}), channel undefined")
    return float(min(2.0 * abs(sp * sm) / denom, 1.0))


def duality_distance(spec: ChannelSpec) -> float:
    """Frobenius distance between the Choi state and the drive coherence matrix."""
    return float(np.linalg.norm(choi_state(spec) - coherence_matrix(spec.a)))


def konrad_check(rho0, spec: ChannelSpec):
    """Entanglement bound for one-sided conversion.

    Returns (c_out, bound, holds) with bound = C(choi) * C(rho0); ``holds``
    allows c_out to exceed the bound by 1e-9 of rounding noise.  For
    input states whose converted-qubit marginal is I/2 the bound is an
    equality; heralding on conversion of states biased toward the weakly
    converted mode can concentrate entanglement past it (see tests).
    """
    rho0 = assert_density_matrix(_one_matrix(rho0), dim=4)
    rho_out, _ = one_sided_apply(rho0, spec)
    c_out = concurrence(rho_out)
    bound = choi_concurrence_closed(spec) * concurrence(rho0)
    return c_out, bound, bool(c_out <= bound + 1e-9)


def converted_marginal_is_mixed(rho0, tol: float = 1e-10) -> bool:
    """True when the qubit-2 marginal equals I/2 within ``tol``, a finite real >= 0."""
    if not _finite_real(tol) or tol < 0:
        raise OutOfRange(f"tol must be finite and >= 0, got {_describe(tol)}")
    reduced = partial_trace(assert_density_matrix(_one_matrix(rho0), dim=4), keep=2)
    return bool(np.max(np.abs(reduced - I2 / 2)) <= tol)
