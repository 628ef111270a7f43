"""Shared random-object generators and reference implementations for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np


def _fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter, with src/ and tests/ on the path
    and ``env`` in its environment."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_python(code: str, *args: str) -> str:
    """The last line ``code`` prints when run with ``args`` in a fresh
    interpreter, with src/ and tests/ on the path."""
    proc = _fresh("-c", code, *args)
    proc.check_returncode()
    return proc.stdout.splitlines()[-1]


def fresh_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m qfcsim.cli argv`` in a fresh interpreter where, as in every
    process of tests/cli_runs.py, a RuntimeWarning is an error."""
    return _fresh("-m", "qfcsim.cli", *argv, PYTHONWARNINGS="error::RuntimeWarning")


def random_unitary(rng, dim=2):
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng, dim, rank=None):
    rank = rank or dim
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_drive(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a / np.linalg.norm(a)


def random_bell_diagonal_rotated(rng):
    """Mixture of Bell states under random local unitaries.

    These states have maximally mixed single-qubit marginals.
    """
    from qfcsim.states import bell_state

    w = rng.dirichlet(np.ones(4))
    rho = sum(wi * bell_state(lbl) for wi, lbl in zip(w, ("phi+", "phi-", "psi+", "psi-")))
    u = np.kron(random_unitary(rng), random_unitary(rng))
    return u @ rho @ u.conj().T


def pure_state_concurrence_from_marginal(rho):
    """For pure two-qubit states, C = 2 sqrt(det of either marginal)."""
    from qfcsim.linalg import partial_trace

    det = np.linalg.det(partial_trace(rho, keep=1)).real
    return float(2.0 * np.sqrt(max(det, 0.0)))


def chsh_bases(phi):
    """CHSH bases a = I, a' = R(pi/4), b = R(phi), b' = R(phi + pi/4).

    Columns of each 2x2 array are the basis states.
    """
    from qfcsim.bell import rotation_r

    return np.eye(2), rotation_r(np.pi / 4), rotation_r(phi), rotation_r(phi + np.pi / 4)


def poisson_limit_std(rho, settings, mean_pairs, metric, h=1e-6):
    """Delta-method std of ``metric`` for Poisson counts of the settings.

    rho = (I + sum_ab r_ab sigma_a (x) sigma_b) / 4 with 15 Pauli
    coefficients r; record k has mean mu_k = s N <psi_k|rho|psi_k> with a
    free rate s (the rate the MLE profiles out), evaluated at s = 1.  The
    Fisher matrix F = sum_k d mu_k d mu_k^T / mu_k over (r, s) is inverted
    and the metric's gradient g in r (central differences, step h) gives
    sqrt(g^T (F^-1)_rr g).  Deterministic: no sampling, no MLE.
    """
    from qfcsim.states import I2, SX, SY, SZ

    paulis = (I2, SX, SY, SZ)
    # sigma_a (x) sigma_b for the 15 (a, b) != (0, 0)
    pairs = np.array([np.kron(a, b) for a in paulis for b in paulis][1:])
    rho = np.asarray(rho, dtype=complex)
    r = np.einsum("pij,ji->p", pairs, rho).real
    kets = np.array([s.ket for s in settings])
    # <psi_k| sigma_a (x) sigma_b |psi_k>, the derivative of 4 p_k in r
    expect = np.einsum("ki,pij,kj->kp", kets.conj(), pairs, kets).real
    p = (1 + expect @ r) / 4
    mu = mean_pairs * p
    dmu = np.hstack([mean_pairs * expect / 4, p[:, None] * mean_pairs])
    fisher = dmu.T @ (dmu / mu[:, None])
    cov_r = np.linalg.inv(fisher)[:15, :15]

    def metric_at(rv):
        return metric((np.eye(4) + np.einsum("p,pij->ij", rv, pairs)) / 4)

    g = np.array([(metric_at(r + step) - metric_at(r - step)) / (2 * h)
                  for step in h * np.eye(15)])
    return float(np.sqrt(g @ cov_r @ g))


def jsonschema_config_message(cfg, command):
    """The message of the ConfigError that ``cli._validate_config`` should raise.

    None if ``cfg`` is a valid config of ``command``.  This is the config
    check computed with jsonschema, the reference implementation that the
    in-repo validator must agree with message for message.
    """
    from qfcsim.cli import _schema

    schema = _schema("config.schema.json")
    validator = jsonschema.Draft7Validator({**schema, "$ref": f"#/properties/{command}"})
    error = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    if error is None:
        return None
    where = ".".join(map(str, error.absolute_path)) or "config"
    if error.validator == "required":
        missing = sorted(set(error.validator_value) - set(error.instance))
        return f"missing key(s) {missing} in {where}"
    if error.validator == "additionalProperties":
        unknown = sorted(set(error.instance) - set(error.schema.get("properties", {})))
        return f"unknown key(s) {unknown} in {where}"
    return f"{where}: {error.validator} {json.dumps(error.validator_value)}"


# The metric formulas before they were rewritten with fewer numpy calls: nine
# broadcast matmuls and a trace for T, np.clip for the eigenvalue floor, and
# numpy scalars for one matrix.  The rewrite must give the same bytes.

def _sqrt_psd_reference(rho):
    w, v = np.linalg.eigh(rho)
    w, v = w[..., ::-1], v[..., ::-1]
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root[..., None, :]) @ v.conj().swapaxes(-1, -2)


def pauli_correlations_reference(rho):
    from qfcsim.states import SX, SY, SZ

    pairs = np.array([[np.kron(si, sj) for sj in (SX, SY, SZ)] for si in (SX, SY, SZ)])
    return np.trace(rho[..., None, None, :, :] @ pairs, axis1=-2, axis2=-1).real


def chsh_max_reference(rho):
    t = pauli_correlations_reference(rho)
    m = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    return 2.0 * np.sqrt(np.maximum(m[..., -1] + m[..., -2], 0.0))


def concurrence_reference(rho):
    from qfcsim.states import SY

    sqrt_rho = _sqrt_psd_reference(rho)
    lam = np.linalg.svd(sqrt_rho @ np.kron(SY, SY) @ sqrt_rho.swapaxes(-1, -2),
                        compute_uv=False)
    return np.minimum(np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0), 1.0)


def fidelity_reference(rho, sigma):
    sqrt_rho = _sqrt_psd_reference(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    root = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return float(min(max(root ** 2, 0.0), 1.0))
