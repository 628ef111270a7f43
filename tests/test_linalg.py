import numpy as np
import pytest

from qfcsim.bell import chsh_sweep
from qfcsim.errors import InvalidSeed, InvalidState, OutOfRange, ShapeMismatch
from qfcsim.linalg import _integer, partial_trace, svd
from qfcsim.spectral import GridSpec, SpectralDensity, hg_mode_probabilities
from qfcsim.states import purity, werner_state
from qfcsim.tomography import monte_carlo_metric, projector_set, simulate_counts

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


RHO = werner_state(0.9)
RECORDS = simulate_counts(RHO, projector_set(16), 1e3, seed=1)
SPECTRUM = SpectralDensity(axis=2.4e15 + 1e12 * np.arange(-32, 32), mat=np.eye(64) / 64)
# every integer parameter of the package: a call that passes it, a value it
# takes, and the error it raises for a value of another type
INTEGER_PARAMETERS = {
    "GridSpec-points": (lambda n: GridSpec(points=n), 64, OutOfRange),
    "hg_mode_probabilities-n_modes": (lambda n: hg_mode_probabilities(SPECTRUM, 220.0, n), 2,
                                      OutOfRange),
    "monte_carlo_metric-n_samples": (lambda n: monte_carlo_metric(RECORDS, purity, n, 2), 3,
                                     InvalidState),
    "projector_set-kind": (projector_set, 16, ShapeMismatch),
    "partial_trace-keep": (lambda n: partial_trace(RHO, n), 1, ShapeMismatch),
    "simulate_counts-seed": (lambda n: simulate_counts(RHO, projector_set(16), 1e3, n), 7,
                             InvalidSeed),
    "chsh_sweep-seed": (lambda n: chsh_sweep(RHO, [0.0], mean_pairs=1e3, seed=n), 7,
                        InvalidSeed),
    "monte_carlo_metric-seed": (lambda n: monte_carlo_metric(RECORDS, purity, 2, n), 7,
                                InvalidSeed),
}
# the value of another type that stands in for a valid value v
NOT_INTEGERS = {
    "bool": lambda v: True,
    "numpy-bool": lambda v: np.True_,
    "integral-float": float,
    "float64": np.float64,
    "str": str,
    "None": lambda v: None,
}


class TestIntegerRule:
    """linalg._integer is the one test of an integer argument: a Python or numpy
    integer passes, a bool or a float of any value does not."""

    @pytest.mark.parametrize("x", [0, -3, 10 ** 400, np.int64(5), np.uint8(1), np.int32(-2)])
    def test_integers(self, x):
        assert _integer(x)

    @pytest.mark.parametrize("x", [True, np.False_, 1.0, np.float64(2), np.float32(3), 1 + 0j,
                                   "1", None, np.array(1), [1]])
    def test_not_integers(self, x):
        assert not _integer(x)

    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_parameter_takes_python_and_numpy_integers(self, name, kind):
        call, valid, _ = INTEGER_PARAMETERS[name]
        call(kind(valid))

    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
    @pytest.mark.parametrize("other", sorted(NOT_INTEGERS))
    def test_parameter_refuses_other_types(self, name, other):
        call, valid, error = INTEGER_PARAMETERS[name]
        with pytest.raises(error) as err:
            call(NOT_INTEGERS[other](valid))
        assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize("call,message", [
        (lambda: partial_trace(RHO, True), "keep must be 1 or 2, got True"),
        (lambda: projector_set(16.0), "kind must be 16 or 36, got 16.0"),
        (lambda: projector_set(np.float64(36)), "kind must be 16 or 36, got 36.0"),
    ], ids=["keep-True", "kind-16.0", "kind-float64-36"])
    def test_a_value_equal_to_a_valid_one_is_refused_by_type(self, call, message):
        with pytest.raises(ShapeMismatch) as err:
            call()
        assert str(err.value) == message

    def test_numpy_integer_keep_picks_the_same_qubit(self):
        for keep in (1, 2):
            assert np.array_equal(partial_trace(RHO, np.int64(keep)), partial_trace(RHO, keep))
