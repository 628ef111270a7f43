import numpy as np
import pytest

from qfcsim.errors import InvalidState, NegativeEigenvalue, NotHermitian, ShapeMismatch
from qfcsim.linalg import func_psd, herm_eig, kron, partial_trace, svd

from helpers import random_density_matrix, random_hermitian, random_unitary


class TestHermEig:
    def test_identity(self):
        w, v = herm_eig(np.eye(2))
        assert np.allclose(w, [1, 1])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_pauli_z(self):
        w, v = herm_eig(np.diag([1.0, -1.0]))
        assert np.allclose(w, [1, -1])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        w, _ = herm_eig(random_hermitian(rng, 4))
        assert np.all(np.diff(w) <= 0)

    def test_reconstruction_random_4x4(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            w, v = herm_eig(h)
            recon = (v * w) @ v.conj().T
            assert np.linalg.norm(recon - h) <= 1e-12 * max(np.linalg.norm(h), 1)
            assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12

    def test_reconstruction_relative_error(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = random_hermitian(rng, 4) * rng.uniform(0.1, 100)
            w, v = herm_eig(h)
            err = np.linalg.norm((v * w) @ v.conj().T - h) / np.linalg.norm(h)
            assert err < 1e-11

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_raises(self):
        with pytest.raises(ShapeMismatch):
            herm_eig(np.zeros((2, 3)))

    def test_nan_raises(self):
        with pytest.raises(InvalidState):
            herm_eig(np.array([[np.nan, 0], [0, 1.0]]))


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


class TestFuncPsd:
    def test_sin_diagonal(self):
        out = func_psd(np.diag([0.0, np.pi / 2]), np.sin)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)

    def test_sqrt_identity(self):
        assert np.allclose(func_psd(np.eye(3), np.sqrt), np.eye(3), atol=1e-14)

    def test_identity_function(self):
        rng = np.random.default_rng(13)
        h = random_density_matrix(rng, 4) * 3
        assert np.linalg.norm(func_psd(h, lambda x: x) - h) < 1e-12

    def test_sin_matches_taylor_series(self):
        # independent oracle: 12-term Taylor series of sin evaluated with
        # explicit matrix powers
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = random_density_matrix(rng, 4)
            h = h / max(np.linalg.eigvalsh(h)) * rng.uniform(0.3, 1.0)
            series = np.zeros_like(h)
            power = h.copy()
            fact = 1.0
            for k in range(12):
                n = 2 * k + 1
                if k > 0:
                    power = power @ h @ h
                    fact *= (n - 1) * n
                series += (-1) ** k * power / fact
            assert np.linalg.norm(func_psd(h, np.sin) - series) < 1e-10

    def test_commuting_function_identity(self):
        rng = np.random.default_rng(19)
        h = random_density_matrix(rng, 4) * 2
        lhs = func_psd(h, np.sin) @ func_psd(h, np.cos)
        rhs = func_psd(h, lambda x: np.sin(x) * np.cos(x))
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_negative_eigenvalue_raises(self):
        with pytest.raises(NegativeEigenvalue):
            func_psd(np.diag([1.0, -0.5]), np.sqrt)

    def test_tiny_negative_clipped(self):
        out = func_psd(np.diag([1.0, -1e-11]), np.sqrt)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


class TestKronPartialTrace:
    def test_kron_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

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
            rho = kron(ra, rb * scale)
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
