import numpy as np
import pytest

from qfcsim.errors import ShapeMismatch
from qfcsim.linalg import partial_trace, svd

from helpers import random_density_matrix, random_unitary


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 0.0]))
        assert np.allclose(s, [3, 0])

    def test_scaled_identity(self):
        _, s, _ = svd(np.eye(2) / np.sqrt(2))
        assert np.allclose(s, [1 / np.sqrt(2)] * 2)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, s, v = svd(m)
            assert np.linalg.norm((u * s) @ v.conj().T - m) < 1e-12
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
            assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-12

    def test_unitary_has_unit_singulars(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            _, s, _ = svd(random_unitary(rng, 4))
            assert np.allclose(s, 1.0, atol=1e-12)


class TestPartialTrace:
    def test_phi_plus_marginal(self):
        from qfcsim.states import bell_state

        rho = bell_state("phi+")
        for keep in (1, 2):
            assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)

    def test_product_state_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ra = random_density_matrix(rng, 2)
            rb = random_density_matrix(rng, 2)
            scale = rng.uniform(0.5, 2.0)
            rho = np.kron(ra, rb * scale)
            assert np.allclose(partial_trace(rho, 1), ra * scale, atol=1e-12)
            assert np.allclose(partial_trace(rho, 2), rb * scale, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(29)
        rho = random_density_matrix(rng, 4)
        for keep in (1, 2):
            assert abs(np.trace(partial_trace(rho, keep)) - np.trace(rho)) < 1e-12

    def test_marginals_are_density_matrices(self):
        from qfcsim.states import assert_density_matrix

        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            for keep in (1, 2):
                assert_density_matrix(partial_trace(rho, keep), dim=2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            partial_trace(np.eye(2), 1)
        with pytest.raises(ShapeMismatch):
            partial_trace(np.eye(4), 3)
