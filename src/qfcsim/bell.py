"""CHSH Bell test: correlation estimator, polynomial, and the phi sweep.

Measurement bases follow the two-colour experiment: qubit 1 (heralding
polarization) is measured in the computational and the pi/4-rotated
basis; qubit 2 (converted spatial mode) in bases rotated by phi and
phi + pi/4.  R(phi) = exp(i phi Y) rotates around the Bloch y axis.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange, ZeroTotalCounts
from .states import (I2, STREAM_CHSH, SY, _one_matrix, assert_density_matrix,
                     born_probabilities, check_mean_pairs, check_seed, child_rng)


def rotation_r(phi) -> np.ndarray:
    """exp(i phi Y) in closed form: cos(phi) I + i sin(phi) Y.

    An array of angles gives a stack of rotations with shape (..., 2, 2).
    """
    phi = _angles(phi)[..., None, None]
    return np.cos(phi) * I2 + 1j * np.sin(phi) * SY


def _angles(phi) -> np.ndarray:
    """``phi`` as a float array; OutOfRange unless every entry is a finite number."""
    try:
        phi = np.asarray(phi, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"angle phi must be a real number or an array of them, "
                         f"got {type(phi).__name__}: {exc}") from None
    finite = np.isfinite(phi)
    if not finite.all():
        raise OutOfRange(f"angle phi must be finite, got {phi.flat[np.argmin(finite)]}")
    return phi


def _correlations(n: np.ndarray) -> np.ndarray:
    """(N00 + N11 - N01 - N10) / total over the last two axes of ``n``."""
    total = n.sum(axis=(-2, -1))
    if np.any(total <= 0):
        raise ZeroTotalCounts("no coincidences recorded for this basis pair")
    return (n[..., 0, 0] + n[..., 1, 1] - n[..., 0, 1] - n[..., 1, 0]) / total


def chsh_polynomial(e_ab, e_abp, e_apb, e_apbp):
    """|E(a,b) - E(a,b') + E(a',b) + E(a',b')|, elementwise for arrays.

    OutOfRange unless each correlation is a finite real number or an array
    of them.
    """
    try:
        es = [np.asarray(e, dtype=float) for e in (e_ab, e_abp, e_apb, e_apbp)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"correlations must be real numbers or arrays of them: "
                         f"{exc}") from None
    if not all(np.isfinite(e).all() for e in es):
        raise OutOfRange("correlations must be finite")
    e_ab, e_abp, e_apb, e_apbp = es
    return abs(e_ab - e_abp + e_apb + e_apbp)


def _pair_kets(phis: np.ndarray) -> np.ndarray:
    """Product kets of the four basis pairs (a,b), (a,b'), (a',b), (a',b').

    Element [n, pair, i, j] is column i of the qubit-1 basis times column j
    of the qubit-2 basis at phis[n], flattened to 4 entries as 2*q1 + q2.
    """
    a_prime = rotation_r(np.pi / 4)
    basis_1 = np.array([I2, I2, a_prime, a_prime])
    b, b_prime = rotation_r(phis), rotation_r(phis + np.pi / 4)
    basis_2 = np.stack([b, b_prime, b, b_prime], axis=1)
    kets = np.einsum("pki,nplj->npijkl", basis_1, basis_2)
    return kets.reshape(len(phis), 4, 2, 2, 4)


def chsh_sweep(rho, phi_list, mean_pairs: float | None = None, seed: int | None = None):
    """CHSH polynomial versus phi.

    Exact mode (mean_pairs is None) evaluates the four correlations
    directly from rho.  Sampled mode draws Poisson coincidence counts with
    the given expected total per basis pair, all in one draw over the
    (n_phi, 4, 2, 2) means from the child stream ``child_rng(seed,
    STREAM_CHSH)``, which differs from the root and ``[seed, i]`` streams
    (see ``states.child_rng``).  Sampled mode needs a seed, as every
    sampler does; exact mode ignores it.  Returns a list of (phi, B)
    tuples, or (phi, B, B_std) in sampled mode with a Poisson-propagated
    standard deviation.
    """
    rho = assert_density_matrix(_one_matrix(rho), dim=4)
    if mean_pairs is not None:
        mean_pairs = check_mean_pairs(mean_pairs)
    phis = _angles(phi_list).reshape(-1)
    probs = born_probabilities(rho, _pair_kets(phis))         # (n_phi, 4, 2, 2)
    if mean_pairs is None:
        b_vals = chsh_polynomial(*np.moveaxis(_correlations(probs), -1, 0))
        return [(float(phi), float(b)) for phi, b in zip(phis, b_vals)]
    counts = child_rng(check_seed(seed), STREAM_CHSH).poisson(mean_pairs * probs).astype(float)
    es = _correlations(counts)
    totals = counts.sum(axis=(-2, -1))
    # float_power rounds as Python's float ** 2 does (libm pow, not x * x),
    # so B_std keeps the digits of the per-pair scalar formula
    variances = np.maximum(1.0 - np.float_power(es, 2), 1.0 / totals) / totals
    b_vals = chsh_polynomial(*np.moveaxis(es, -1, 0))
    b_std = np.sqrt(variances.sum(axis=-1))
    return [(float(phi), float(b), float(s)) for phi, b, s in zip(phis, b_vals, b_std)]
