import numpy as np
import pytest

from qfcsim.channel import (ChannelSpec, apply_channel, choi_concurrence_closed,
                            choi_state, converted_marginal_is_mixed, duality_distance,
                            drive_singular_values, konrad_check, kraus_from_drive,
                            mode_transfer, one_sided_apply)
from qfcsim.drive import drive_concurrence, drive_from_theta
from qfcsim.errors import ZeroConversionProbability
from qfcsim.linalg import dagger
from qfcsim.states import bell_state, concurrence, purity, werner_state

from helpers import (random_bell_diagonal_rotated, random_density_matrix,
                     random_drive, random_unitary)

RT2 = np.sqrt(2)


def rk4_transfer(a, kt, steps=400):
    """Independent oracle: RK4 integration of the coupled-mode equations
    d a^dag/dt = kappa b^dag A^dag, d b^dag/dt = -kappa a^dag A, as the
    matrix ODE X' = X G with X(0) = I."""
    g = np.zeros((4, 4), dtype=complex)
    g[2:, :2] = kt * dagger(a)   # b-source feeding a-destination
    g[:2, 2:] = -kt * a          # a-source feeding b-destination
    x = np.eye(4, dtype=complex)
    h = 1.0 / steps
    for _ in range(steps):
        k1 = x @ g
        k2 = (x + 0.5 * h * k1) @ g
        k3 = (x + 0.5 * h * k2) @ g
        k4 = (x + h * k3) @ g
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class TestKraus:
    def test_full_conversion_identity(self):
        k = kraus_from_drive(ChannelSpec(a=np.eye(2) / RT2, kt=np.pi / RT2))
        assert np.allclose(k, np.eye(2), atol=1e-12)

    def test_zero_kt_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        k = kraus_from_drive(ChannelSpec(a=random_drive(rng), kt=0.0))
        assert np.allclose(k, 0.0, atol=1e-15)

    def test_rank1_drive(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        k = kraus_from_drive(ChannelSpec(a=a, kt=1.0))
        assert np.allclose(dagger(k), np.diag([np.sin(1.0), 0.0]), atol=1e-12)

    def test_small_kt_linearization_bound(self):
        rng = np.random.default_rng(1)
        for kt in (1e-3, 1e-2, 0.1):
            for _ in range(10):
                a = random_drive(rng)
                k = kraus_from_drive(ChannelSpec(a=a, kt=kt))
                err = np.linalg.norm(dagger(k) - kt * a)
                assert err <= kt ** 3 * np.linalg.norm(a) / 6 + 1e-12

    def test_spectral_norm_at_most_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            spec = ChannelSpec(a=random_drive(rng), kt=rng.uniform(0, 6))
            k = kraus_from_drive(spec)
            assert np.linalg.norm(k, 2) <= 1 + 1e-10


class TestModeTransfer:
    def test_zero_kt_identity(self):
        rng = np.random.default_rng(3)
        m = mode_transfer(ChannelSpec(a=random_drive(rng), kt=0.0))
        assert np.allclose(m.matrix, np.eye(4), atol=1e-14)

    def test_balanced_drive_is_pairwise_beam_splitter(self):
        kt = 0.8
        m = mode_transfer(ChannelSpec(a=np.eye(2) / RT2, kt=kt))
        assert np.allclose(m.caa, np.cos(kt / RT2) * np.eye(2), atol=1e-12)
        assert np.allclose(m.cbb, np.cos(kt / RT2) * np.eye(2), atol=1e-12)
        assert np.allclose(m.cba, np.sin(kt / RT2) * np.eye(2), atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = mode_transfer(ChannelSpec(a=random_drive(rng), kt=rng.uniform(0, 4)))
            mat = m.matrix
            assert np.linalg.norm(dagger(mat) @ mat - np.eye(4)) < 1e-10

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_drive(rng)
            kt = rng.uniform(0.05, 2.0)
            closed = mode_transfer(ChannelSpec(a=a, kt=kt)).matrix
            numeric = rk4_transfer(a, kt)
            assert np.linalg.norm(closed - numeric) < 1e-8

    def test_matches_matrix_exponential(self):
        import scipy.linalg

        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_drive(rng)
            kt = rng.uniform(0.05, 3.0)
            g = np.zeros((4, 4), dtype=complex)
            g[2:, :2] = kt * dagger(a)
            g[:2, 2:] = -kt * a
            closed = mode_transfer(ChannelSpec(a=a, kt=kt)).matrix
            assert np.linalg.norm(closed - scipy.linalg.expm(g)) < 1e-12


class TestApplyChannel:
    def test_balanced_drive_is_identity_channel(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(rng, 2)
        for kt in np.linspace(0.1, np.pi * RT2 - 0.1, 7):
            out, p = apply_channel(rho, ChannelSpec(a=np.eye(2) / RT2, kt=kt))
            assert np.linalg.norm(out - rho) < 1e-12
            assert 0 < p <= 1

    def test_rank1_drive_on_mixed_input(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out, p = apply_channel(np.eye(2) / 2, ChannelSpec(a=a, kt=1.0))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(p - np.sin(1.0) ** 2 / 2) < 1e-12

    def test_zero_kt_raises(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ZeroConversionProbability):
            apply_channel(np.eye(2) / 2, ChannelSpec(a=random_drive(rng), kt=0.0))

    def test_kernel_input_raises(self):
        # x-polarized photon cannot convert when the drive only couples y
        a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ZeroConversionProbability):
            apply_channel(rho, ChannelSpec(a=a, kt=0.7))

    def test_coupling_orientation(self):
        # drive x (x) HG01 converts an x photon into spatial mode 1
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        out, _ = apply_channel(np.diag([1.0, 0.0]).astype(complex),
                               ChannelSpec(a=a, kt=0.9))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


class TestOneSidedApply:
    def test_balanced_drive_preserves_bell_state(self):
        rho, p = one_sided_apply(bell_state("phi+"), ChannelSpec(a=np.eye(2) / RT2, kt=0.9))
        assert np.linalg.norm(rho - bell_state("phi+")) < 1e-12
        assert abs(concurrence(rho) - 1.0) < 1e-10

    def test_separable_drive_kills_entanglement(self):
        spec = ChannelSpec(a=drive_from_theta(np.pi / 4), kt=0.5)
        rho, _ = one_sided_apply(bell_state("phi+"), spec)
        assert concurrence(rho) < 1e-10

    def test_product_input_stays_product(self):
        rng = np.random.default_rng(13)
        ra = random_density_matrix(rng, 2)
        rb = random_density_matrix(rng, 2)
        spec = ChannelSpec(a=random_drive(rng), kt=0.8)
        rho, _ = one_sided_apply(np.kron(ra, rb), spec)
        rb_out, _ = apply_channel(rb, spec)
        assert np.linalg.norm(rho - np.kron(ra, rb_out)) < 1e-12
        assert concurrence(rho) < 1e-10

    def test_success_prob_for_mixed_marginal(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = ChannelSpec(a=random_drive(rng), kt=rng.uniform(0.1, 2.5))
            rho0 = random_bell_diagonal_rotated(rng)
            k = kraus_from_drive(spec)
            _, p = one_sided_apply(rho0, spec)
            assert 0 < p <= 1
            assert abs(p - np.trace(dagger(k) @ k).real / 2) < 1e-10


class TestChoi:
    def test_balanced_drive_choi_is_phi_plus(self):
        rho = choi_state(ChannelSpec(a=np.eye(2) / RT2, kt=1.1))
        assert np.linalg.norm(rho - bell_state("phi+")) < 1e-12

    def test_choi_is_pure(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            spec = ChannelSpec(a=random_drive(rng), kt=rng.uniform(0.1, 3))
            assert abs(purity(choi_state(spec)) - 1.0) < 1e-10

    def test_low_efficiency_duality(self):
        rng = np.random.default_rng(23)
        a = random_drive(rng)
        assert duality_distance(ChannelSpec(a=a, kt=1e-3)) < 1e-5

    def test_duality_second_order_convergence(self):
        rng = np.random.default_rng(29)
        kts = np.array([0.2, 0.1, 0.05, 0.025])
        for _ in range(10):
            a = random_drive(rng)
            d = np.array([duality_distance(ChannelSpec(a=a, kt=kt)) for kt in kts])
            slopes = np.diff(np.log(d)) / np.diff(np.log(kts))
            assert np.all(slopes >= 1.9)

    def test_singular_value_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_drive(rng)
            s = np.linalg.svd(a, compute_uv=False)
            sp, sm = drive_singular_values(drive_concurrence(a))
            assert abs(s[0] - sp) < 1e-10
            assert abs(s[1] - sm) < 1e-10

    def test_closed_form_cases(self):
        # maximally non-separable drive: concurrence 1 for every kt
        for kt in (0.05, 0.7, 2.2):
            spec = ChannelSpec(a=np.eye(2) / RT2, kt=kt)
            assert abs(choi_concurrence_closed(spec) - 1.0) < 1e-12
        # separable drive: concurrence 0
        spec = ChannelSpec(a=drive_from_theta(np.pi / 4), kt=0.8)
        assert choi_concurrence_closed(spec) < 1e-12

    def test_closed_form_matches_wootters_grid(self):
        rng = np.random.default_rng(37)
        for c_d in np.linspace(0.0, 1.0, 20):
            sp, sm = drive_singular_values(c_d)
            u, v = random_unitary(rng), random_unitary(rng)
            a = (u * np.array([sp, sm])) @ v.conj().T
            for kt in np.linspace(0.15, np.pi, 20):
                spec = ChannelSpec(a=a, kt=kt)
                try:
                    closed = choi_concurrence_closed(spec)
                except ZeroConversionProbability:
                    continue
                assert abs(closed - concurrence(choi_state(spec))) < 1e-10

    def test_both_sines_vanish_raises(self):
        with pytest.raises(ZeroConversionProbability):
            choi_concurrence_closed(ChannelSpec(a=np.eye(2) / RT2, kt=np.pi * RT2))


class TestSpecOwnsItsDrive:
    def _outputs(self, spec):
        rho, p = one_sided_apply(werner_state(0.9), spec)
        transfer = mode_transfer(spec).matrix
        return [kraus_from_drive(spec), transfer, rho, np.array(p),
                np.array(choi_concurrence_closed(spec))]

    def test_caller_mutation_changes_no_output(self):
        rng = np.random.default_rng(41)
        a = random_drive(rng)
        spec = ChannelSpec(a=a, kt=0.7)
        before = self._outputs(spec)
        a[:] = drive_from_theta(np.pi / 4)
        assert all(np.array_equal(x, y) for x, y in zip(self._outputs(spec), before))
        assert all(np.array_equal(x, y) for x, y in
                   zip(self._outputs(ChannelSpec(a=spec.a, kt=0.7)), before))

    def test_drive_is_read_only(self):
        spec = ChannelSpec(a=drive_from_theta(0.3), kt=0.5)
        assert not spec.a.flags.writeable
        with pytest.raises(ValueError):
            spec.a[0, 0] = 1.0


class TestKonrad:
    def test_bell_input_theta_sweep_traces_cos2theta(self):
        rho0 = bell_state("phi+")
        for theta_deg in np.arange(0.0, 90.1, 5.0):
            theta = np.deg2rad(theta_deg)
            spec = ChannelSpec(a=drive_from_theta(theta), kt=1e-4)
            c_out, bound, holds = konrad_check(rho0, spec)
            assert holds
            assert abs(c_out - abs(np.cos(2 * theta))) < 1e-7

    def test_werner_equality_case(self):
        rho0 = werner_state(0.94)
        assert abs(concurrence(rho0) - 0.91) < 1e-12
        spec = ChannelSpec(a=drive_from_theta(0.0), kt=0.3)
        c_out, bound, holds = konrad_check(rho0, spec)
        assert holds
        assert abs(c_out - 0.91) < 1e-9
        assert abs(c_out - bound) < 1e-9

    def test_property_sweep_maximally_mixed_marginals(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            rho0 = random_bell_diagonal_rotated(rng)
            spec = ChannelSpec(a=random_drive(rng), kt=rng.uniform(0.05, 2.0))
            c_out, bound, holds = konrad_check(rho0, spec)
            assert holds
            assert converted_marginal_is_mixed(rho0, tol=1e-8)
            assert abs(c_out - bound) < 1e-9

    def test_equality_needs_mixed_marginal(self):
        # heralded filtering toward the weakly converted mode concentrates
        # entanglement past the bound: the bound applies to inputs with a
        # maximally mixed converted-qubit marginal
        psi = np.array([0.2, 0.0, 0.0, 1.0], dtype=complex)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        a = np.diag([1.0, 0.1]).astype(complex)
        a /= np.linalg.norm(a)
        spec = ChannelSpec(a=a, kt=0.6)
        assert not converted_marginal_is_mixed(rho0)
        c_out, bound, holds = konrad_check(rho0, spec)
        assert not holds
        assert c_out > bound
