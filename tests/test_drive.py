import numpy as np
import pytest

from qfcsim.channel import ChannelSpec, duality_distance
from qfcsim.drive import (_vwp, check_drive, coherence_matrix, drive_concurrence,
                          drive_from_theta, qwp_jones, vwp_transform)
from qfcsim.errors import NotNormalized, OutOfRange
from qfcsim.states import bell_state, concurrence, purity

from helpers import random_drive


class TestQwp:
    def test_axis_aligned(self):
        assert np.allclose(qwp_jones(0.0), np.diag([1.0, 1.0j]), atol=1e-15)

    def test_quarter_wave_at_45deg_gives_circular(self):
        e = qwp_jones(np.pi / 4) @ np.array([1.0, 0.0])
        assert abs(abs(e[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(e[1]) - 1 / np.sqrt(2)) < 1e-12
        # relative phase of +-pi/2
        assert abs(abs(np.angle(e[1] / e[0])) - np.pi / 2) < 1e-12

    def test_unitarity_100_angles(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-np.pi, np.pi, 100):
            j = qwp_jones(theta)
            assert np.linalg.norm(j.conj().T @ j - np.eye(2)) < 1e-12


class TestVwp:
    def test_x_input_gives_maximally_nonseparable(self):
        a = vwp_transform([1.0, 0.0])
        assert np.allclose(a, np.eye(2) / np.sqrt(2))
        assert abs(drive_concurrence(a) - 1.0) < 1e-12

    def test_circular_input_gives_separable_vortex(self):
        a = vwp_transform(np.array([1.0, 1.0j]) / np.sqrt(2))
        assert drive_concurrence(a) < 1e-12

    def test_diagonal_input_determinant_identity(self):
        e = np.array([1.0, 1.0]) / np.sqrt(2)
        a = vwp_transform(e)
        # det A = (ex^2 + ey^2) / 2
        assert abs(np.linalg.det(a) - (e[0] ** 2 + e[1] ** 2) / 2) < 1e-12
        assert abs(drive_concurrence(a) - 1.0) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = rng.normal(size=2) + 1j * rng.normal(size=2)
            e /= np.linalg.norm(e)
            assert abs(np.linalg.norm(vwp_transform(e)) - 1.0) < 1e-12

    def test_unnormalized_raises(self):
        with pytest.raises(NotNormalized):
            vwp_transform([1.0, 1.0])

    def test_nan_jones_vector_raises(self):
        with pytest.raises(NotNormalized):
            vwp_transform([np.nan, 0.0])


class TestDriveFromTheta:
    @pytest.mark.parametrize("theta_deg,expected", [(0.0, 1.0), (45.0, 0.0),
                                                    (22.5, 1 / np.sqrt(2))])
    def test_reference_angles(self, theta_deg, expected):
        c = drive_concurrence(drive_from_theta(np.deg2rad(theta_deg)))
        assert abs(c - expected) < 1e-10

    def test_cos2theta_on_degree_grid(self):
        for theta_deg in np.arange(0.0, 180.1, 1.0):
            theta = np.deg2rad(theta_deg)
            c = drive_concurrence(drive_from_theta(theta))
            assert abs(c - abs(np.cos(2 * theta))) < 1e-10

    def test_closed_form_equals_the_plate_product_bit_for_bit(self):
        # signed zeros included: the drives at 0 and 45 degrees have zero entries
        rng = np.random.default_rng(41)
        angles = [*np.deg2rad(np.arange(-3600, 3601) / 10), 0.0, -0.0, np.pi / 2,
                  *rng.uniform(-1e3, 1e3, 10 ** 4), *rng.uniform(-10, 10, 100).astype(np.float32)]
        x = np.array([1.0, 0.0], dtype=complex)
        for theta in angles:
            assert drive_from_theta(theta).tobytes() == _vwp(*(qwp_jones(theta) @ x)).tobytes()

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, 1j, "0.5", None,
                                       np.array([0.5]), 10 ** 400])
    def test_non_finite_or_non_real_angle_raises_the_plate_message(self, theta):
        with pytest.raises(OutOfRange) as expected:
            qwp_jones(theta)
        with pytest.raises(OutOfRange) as got:
            drive_from_theta(theta)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("QWP angle theta must be a finite real number, got ")


class TestCoherenceMatrix:
    def test_identity_drive_flattens_to_phi_plus(self):
        rho = coherence_matrix(np.eye(2) / np.sqrt(2))
        assert np.allclose(rho, bell_state("phi+"), atol=1e-12)

    def test_always_pure(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = coherence_matrix(random_drive(rng))
            assert abs(purity(rho) - 1.0) < 1e-12
            assert np.linalg.matrix_rank(rho, tol=1e-10) == 1

    def test_wootters_vs_determinant_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_drive(rng)
            assert abs(concurrence(coherence_matrix(a)) - drive_concurrence(a)) < 1e-10

    def test_rank1_drive_has_zero_concurrence(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert drive_concurrence(a) == 0.0

    def test_unnormalized_drive_raises(self):
        with pytest.raises(NotNormalized):
            drive_concurrence(np.eye(2))

    # |a|^2 is Tr(a a^dag), the trace that assert_density_matrix checks on the
    # coherence matrix, so a drive check_drive accepts is one it accepts
    @pytest.mark.parametrize("excess", [9e-11, -9e-11])
    def test_norm_beyond_the_trace_tolerance_raises(self, excess):
        with pytest.raises(NotNormalized, match="has norm .*, expected 1$"):
            check_drive(np.eye(2) / np.sqrt(2) * (1 + excess))

    @pytest.mark.parametrize("excess", [4.9e-11, -4.9e-11])
    def test_norm_within_the_trace_tolerance_reaches_the_duality_check(self, excess):
        a = np.eye(2) / np.sqrt(2) * (1 + excess)
        assert abs(np.trace(coherence_matrix(a)) - 1.0) <= 1e-10
        assert duality_distance(ChannelSpec(a=a, kt=1e-3)) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_drive_raises(self, bad):
        with pytest.raises(NotNormalized):
            check_drive([[bad, 0], [0, 1]])
        with pytest.raises(NotNormalized):
            drive_concurrence([[bad, 0], [0, 1]])
        with pytest.raises(NotNormalized):
            ChannelSpec(np.array([[bad, 0], [0, 1]]), 0.5)
