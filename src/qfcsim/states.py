"""Two-qubit states and entanglement / nonlocality metrics.

Density matrices are plain complex ndarrays in the computational basis,
with two-qubit indices ordered as 2*q1 + q2 (qubit 1 major).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import InvalidSeed, InvalidState, OutOfRange, ShapeMismatch, UnknownLabel
from .linalg import _TOL, _describe, _finite_real, as_complex, dagger

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

_SYSY = np.kron(SY, SY)
# P_p^T for P_p = sigma_i x sigma_j, p = 3 i + j; its row r holds one nonzero, so
# Tr[rho P_p] sums rho[r, _PAULI_COLS[p, r]] * _PAULI_VALS[p, r] over r
_PAULI_T = np.array([np.kron(si, sj).T for si in (SX, SY, SZ) for sj in (SX, SY, SZ)])
_PAULI_COLS = np.nonzero(_PAULI_T)[2].reshape(9, 4)
_PAULI_VALS = _PAULI_T[np.nonzero(_PAULI_T)].reshape(9, 4)
_FOUR = np.arange(4)

# Largest expected pair count per measurement; numpy's Poisson sampler
# rejects means above ~9.2e18, so the cap stays well below that.
MAX_MEAN_PAIRS = 1e15

# spawn-key purpose code of each sampler that draws from a child_rng stream
STREAM_CHSH = 1

_BELL_KETS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def assert_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as ndarray.

    ``rho`` is one d x d matrix or a (..., d, d) stack.  A stack is checked
    as a whole, with one batched ``eigvalsh``, and raises if any of its
    matrices would raise alone.

    The bytes of the 8 most recently used single 4x4 matrices that passed
    are remembered (``_check_4x4``), and a matrix with the same bytes
    passes without a second check.  One exact theta point makes four
    checks of two matrices: its input and its output in
    ``one_sided_apply``, and its output again in ``concurrence`` and
    ``chsh_max``; 8 entries hold a few points.  ``mle_reconstruct`` checks
    its one estimate here, and the metrics on it look it up.  The bytes
    alone decide the verdict, so a remembered matrix that is edited in
    place is checked again, and a failing one raises on every call.
    Stacks and other shapes are checked on every call.
    """
    rho = as_complex(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidState(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise InvalidState(f"expected dimension {dim}, got {rho.shape[-1]}")
    if rho.shape == (4, 4):
        _check_4x4(rho.tobytes())
    else:
        _check(rho)
    return rho


# a sweeps benchmark pass makes 73% of its checks on bytes already checked
@functools.lru_cache(maxsize=8)
def _check_4x4(rho_bytes: bytes) -> None:
    """``_check`` of the complex 4x4 matrix ``rho_bytes``, its ``tobytes()``;
    ``lru_cache`` keeps no exception, so a failing matrix raises on every call."""
    _check(np.frombuffer(rho_bytes, dtype=complex).reshape(4, 4))


def _check(rho: np.ndarray) -> None:
    """The checks of ``assert_density_matrix`` on a square complex matrix or stack."""
    # ndarray methods rather than np.* functions, and Python scalars for one
    # matrix: this runs thousands of times per sweep on single 4x4 matrices;
    # initial=0.0 lets an empty stack pass
    if not np.isfinite(rho).all():
        raise InvalidState("density matrix has non-finite entries")
    rho_dag = dagger(rho)
    if np.abs(rho - rho_dag).max(initial=0.0) > _TOL:
        raise InvalidState("density matrix is not Hermitian")
    if rho.ndim == 2:
        tr = complex(rho.trace())
        if abs(tr.real - 1.0) > _TOL or abs(tr.imag) > _TOL:
            raise InvalidState(f"trace is {tr}, expected 1")
        w = float(np.linalg.eigvalsh((rho + rho_dag) / 2)[0])
    else:
        tr = rho.trace(axis1=-2, axis2=-1)
        bad = (abs(tr.real - 1.0) > _TOL) | (abs(tr.imag) > _TOL)
        if bad.any():
            raise InvalidState(f"trace is {np.ravel(tr)[np.argmax(bad)]}, expected 1")
        w = np.linalg.eigvalsh((rho + rho_dag) / 2)[..., 0].min(initial=0.0)
    if w < -_TOL:
        raise InvalidState(f"density matrix has eigenvalue {w} < -{_TOL}")


def _one_matrix(rho) -> np.ndarray:
    """``rho`` as an ndarray, for a kernel that takes one matrix, not a stack;
    ``assert_density_matrix`` rejects fewer than two dimensions."""
    rho = as_complex(rho)
    if rho.ndim > 2:
        raise InvalidState(f"expects one density matrix, got a stack of shape {rho.shape}")
    return rho


def born_probabilities(rho, kets) -> np.ndarray:
    """Born probabilities max(Re <psi|rho|psi>, 0) for a (..., d) stack of kets.

    ``rho`` is not validated here; callers check it once.  Both products are
    matmuls, so every probability rounds exactly as the per-ket
    ``ket.conj() @ rho @ ket`` does.  Poisson streams drawn from them then do
    not depend on the batching: a zero that rounded to 1e-18 instead would
    make the sampler consume one more random number.
    """
    kets = np.asarray(kets)
    bra_rho = np.conj(kets) @ rho
    p = (bra_rho[..., None, :] @ kets[..., :, None])[..., 0, 0].real
    return np.maximum(p, 0.0)


def check_mean_pairs(mean_pairs) -> float:
    """Validate an expected pair count for Poisson sampling; return it as float.

    It must be positive (InvalidState otherwise), and a finite real number
    at most MAX_MEAN_PAIRS (OutOfRange otherwise).
    """
    if not _finite_real(mean_pairs) or mean_pairs > MAX_MEAN_PAIRS:
        raise OutOfRange(f"mean_pairs must be finite and at most {MAX_MEAN_PAIRS:g}, "
                         f"got {_describe(mean_pairs)}")
    if mean_pairs <= 0:
        raise InvalidState(f"mean_pairs must be positive, got {mean_pairs}")
    return float(mean_pairs)


def _seed_word(x) -> int:
    message = f"seed must be a non-negative integer or a sequence of them, got {_describe(x)}"
    if isinstance(x, (bool, np.bool_)):
        raise InvalidSeed(message)
    try:
        # takes Python and numpy integers and refuses floats
        n = operator.index(x)
    except TypeError:
        raise InvalidSeed(message) from None
    if n < 0:
        raise OutOfRange(message)
    return n


def check_seed(seed):
    """Validate a random seed; return it as an int or a tuple of ints.

    A seed is a non-negative Python or numpy integer, or a non-empty flat
    sequence of them. A negative integer or an empty sequence raises
    OutOfRange; bool, float and any other type raise InvalidSeed.

    Appending an index, ``default_rng([seed, i])``, does not give an
    independent stream: ``SeedSequence`` pads its entropy with zero words,
    so ``[7]`` and ``[7, 0]``, or ``[7, 3]`` and ``[7, 3, 0]``, draw the
    same numbers. ``simulate_counts`` draws from the root
    ``default_rng(seed)`` and sampled ``chsh_sweep`` from ``child_rng``.
    ``monte_carlo_metric`` (resample i) and the sampled ``sweep-theta``
    command (point i) still draw from ``[seed, i]``, so MC resample 0
    repeats the counts of ``simulate_counts`` with the same seed; they move
    to ``child_rng`` together with the benchmark's pinned Werner MC std,
    which was read from the ``[seed, i]`` stream.
    """
    if isinstance(seed, (list, tuple)) or (isinstance(seed, np.ndarray) and seed.ndim == 1):
        if len(seed) == 0:
            raise OutOfRange("seed sequence must not be empty")
        return tuple(_seed_word(x) for x in seed)
    return _seed_word(seed)


def child_rng(seed, purpose: int) -> np.random.Generator:
    """Generator on the spawn-key child ``SeedSequence(seed, spawn_key=(purpose,))``
    of a ``check_seed`` value, with one ``purpose`` code per sampler.

    The child pads the seed to four 32-bit words and appends the key, so
    for a shorter seed it differs from ``default_rng(seed)``, ``[seed, i]``
    and ``[seed, i, j]``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose,)))


def bell_state(label: str) -> np.ndarray:
    """Density matrix of one of the four Bell states ('phi+', 'phi-', 'psi+', 'psi-')."""
    key = label.lower() if isinstance(label, str) else None
    if key not in _BELL_KETS:
        raise UnknownLabel(f"unknown Bell label {_describe(label)}; "
                           f"use one of {sorted(_BELL_KETS)}")
    ket = _BELL_KETS[key]
    return np.outer(ket, ket.conj())


def werner_state(p: float) -> np.ndarray:
    """p |phi+><phi+| + (1-p) I/4, of eigenvalues (1 + 3p)/4 and (1 - p)/4;
    OutOfRange unless p is a finite real number in [-1/3, 1], where both are >= 0."""
    if not (_finite_real(p) and -1 / 3 <= p <= 1):
        raise OutOfRange(f"Werner weight p must be a finite real number in [-1/3, 1], "
                         f"got {_describe(p)}")
    p = float(p)
    return p * bell_state("phi+") + (1 - p) * np.eye(4, dtype=complex) / 4


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    """sqrt(rho) of a validated density matrix or (..., d, d) stack of them;
    rounding-noise eigenvalues < 0 give 0."""
    w, v = np.linalg.eigh(rho)
    w, v = w[..., ::-1], v[..., ::-1]
    root = np.sqrt(np.maximum(w, 0.0))
    return (v * root[..., None, :]) @ dagger(v)


def purity(rho):
    """Tr rho^2 of a density matrix (a float) or of each matrix of a
    (..., d, d) stack (an array of the leading shape)."""
    rho = assert_density_matrix(rho)
    p = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return float(p) if rho.ndim == 2 else p


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix (a float) or of
    each matrix of a (..., 4, 4) stack (an array of the leading shape).

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy); conjugation is
    element-wise in the computational basis.  The l_k are evaluated as the
    singular values of sqrt(rho) (sy x sy) sqrt(rho)^T, which avoids the
    square-root amplification of rounding noise near rank-deficient states.
    A stack runs the same LAPACK and BLAS call on each matrix, so its values
    equal those of the matrices one by one.
    """
    rho = assert_density_matrix(rho, dim=4)
    sqrt_rho = _sqrt_psd(rho)
    lam = np.linalg.svd(sqrt_rho @ _SYSY @ sqrt_rho.swapaxes(-1, -2), compute_uv=False)
    if rho.ndim == 2:
        l1, l2, l3, l4 = lam.tolist()
        return min(max(l1 - l2 - l3 - l4, 0.0), 1.0)
    return np.minimum(np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0), 1.0)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2."""
    rho = assert_density_matrix(_one_matrix(rho))
    sigma = assert_density_matrix(_one_matrix(sigma))
    if rho.shape != sigma.shape:
        raise ShapeMismatch(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sqrt_rho = _sqrt_psd(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    w = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
    root = float(np.sum(np.sqrt(np.maximum(w, 0.0))))
    return float(min(max(root ** 2, 0.0), 1.0))


def pauli_correlations(rho) -> np.ndarray:
    """3x3 matrix T_ij = Tr[rho (sigma_i x sigma_j)] of a two-qubit density
    matrix, or a (..., 3, 3) array of them for a (..., 4, 4) stack."""
    rho = assert_density_matrix(rho, dim=4)
    # a contiguous copy, so that a stack sums each row as one matrix does
    terms = np.ascontiguousarray(rho[..., _FOUR, _PAULI_COLS]) * _PAULI_VALS
    return terms.sum(axis=-1).real.reshape(rho.shape[:-2] + (3, 3))


def chsh_max(rho):
    """Horodecki maximum of the CHSH polynomial: 2 sqrt(m1 + m2), a float
    for one two-qubit density matrix and an array of the leading shape for
    a (..., 4, 4) stack.

    m1 >= m2 are the two largest eigenvalues of T^T T with T the Pauli
    correlation matrix.
    """
    t = pauli_correlations(rho)
    m = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    if t.ndim == 2:
        _, m2, m1 = m.tolist()
        return 2.0 * math.sqrt(max(m1 + m2, 0.0))
    return 2.0 * np.sqrt(np.maximum(m[..., -1] + m[..., -2], 0.0))
