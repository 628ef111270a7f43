import numpy as np
import pytest

from qfcsim.bell import _correlations, chsh_polynomial, chsh_sweep, rotation_r
from qfcsim.errors import InvalidState, OutOfRange, ZeroTotalCounts
from qfcsim.states import bell_state, chsh_max, werner_state

from helpers import chsh_bases, random_density_matrix

RT2 = np.sqrt(2)

# regression: exact-sweep maximum locations for phi+ on a dense grid; the
# mirrored angle 180 - 67.5 = 112.5 deg corresponds to the opposite
# rotation handedness of the spatial projection
PHI_PLUS_ARGMAX_DEG = (22.5, 112.5)


class TestRotation:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_r(0.0), np.eye(2), atol=1e-15)

    def test_quarter_turn_matches_expm(self):
        import scipy.linalg

        from qfcsim.states import SY

        for phi in (np.pi / 2, 0.3, -1.1):
            expected = scipy.linalg.expm(1j * phi * SY)
            assert np.linalg.norm(rotation_r(phi) - expected) < 1e-12

    def test_half_pi_flips_basis(self):
        out = rotation_r(np.pi / 2) @ np.array([1.0, 0.0])
        assert np.allclose(out, [0.0, -1.0], atol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p1, p2 = rng.uniform(-np.pi, np.pi, 2)
            lhs = rotation_r(p1) @ rotation_r(p2)
            assert np.linalg.norm(lhs - rotation_r(p1 + p2)) < 1e-12

    def test_unitary(self):
        j = rotation_r(0.7)
        assert np.linalg.norm(j.conj().T @ j - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_non_finite_angle(self, phi):
        with pytest.raises(OutOfRange) as err:
            rotation_r(phi)
        assert len(str(err.value).splitlines()) == 1


def correlation(counts) -> float:
    """The correlation estimate of one 2x2 count or probability table."""
    return float(_correlations(np.asarray(counts, dtype=float)))


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation(np.diag([50, 50])) == 1.0

    def test_perfect_anticorrelation(self):
        assert correlation(np.array([[0, 50], [50, 0]])) == -1.0

    def test_uncorrelated(self):
        assert correlation(np.full((2, 2), 25)) == 0.0

    def test_zero_counts_raise(self):
        with pytest.raises(ZeroTotalCounts):
            correlation(np.zeros((2, 2)))


class TestPolynomial:
    def test_algebraic_maximum(self):
        assert chsh_polynomial(1, -1, 1, 1) == 4.0

    def test_tsirelson_configuration(self):
        val = chsh_polynomial(1 / RT2, -1 / RT2, 1 / RT2, 1 / RT2)
        assert abs(val - 2 * RT2) < 1e-12

    def test_zero(self):
        assert chsh_polynomial(0, 0, 0, 0) == 0.0


class TestSweep:
    def test_phi_plus_peaks_at_tsirelson(self):
        phis = np.deg2rad(np.arange(0.0, 180.0, 0.5))
        sweep = chsh_sweep(bell_state("phi+"), phis)
        b = np.array([row[1] for row in sweep])
        assert abs(b.max() - 2 * RT2) < 1e-9
        assert abs(b.max() - chsh_max(bell_state("phi+"))) < 1e-9

    def test_argmax_regression(self):
        phis = np.deg2rad(np.arange(0.0, 180.0, 0.1))
        sweep = chsh_sweep(bell_state("phi+"), phis)
        b = np.array([row[1] for row in sweep])
        peaks = np.rad2deg(phis[np.abs(b - b.max()) < 1e-9])
        assert sorted(np.round(peaks, 6)) == list(PHI_PLUS_ARGMAX_DEG)

    def test_maximally_mixed_is_flat_zero(self):
        sweep = chsh_sweep(np.eye(4) / 4, np.deg2rad(np.arange(0, 180, 5.0)))
        assert all(abs(row[1]) < 1e-12 for row in sweep)

    def test_periodicity_pi(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, 4)
        phis = np.deg2rad(np.array([10.0, 70.0, 130.0]))
        b1 = [row[1] for row in chsh_sweep(rho, phis)]
        b2 = [row[1] for row in chsh_sweep(rho, phis + np.pi)]
        assert np.allclose(b1, b2, atol=1e-10)

    def test_horodecki_dominates_sweep(self):
        rng = np.random.default_rng(5)
        phis = np.deg2rad(np.arange(0.0, 180.0, 0.1))
        for _ in range(3):
            rho = random_density_matrix(rng, 4)
            sweep = chsh_sweep(rho, phis)
            b_max = max(row[1] for row in sweep)
            assert b_max <= chsh_max(rho) + 1e-6

    def test_werner_critical_visibility(self):
        # no CHSH violation below p = 1/sqrt(2) in this basis family
        phis = np.deg2rad(np.arange(0.0, 180.0, 1.0))
        below = max(row[1] for row in chsh_sweep(werner_state(0.70), phis))
        above = max(row[1] for row in chsh_sweep(werner_state(0.75), phis))
        assert below < 2.0
        assert above > 2.0


def reference_pair_probabilities(rho, phi):
    """4 basis pairs x 2 x 2 probabilities from explicit np.kron product kets."""
    a, a_prime, b, b_prime = chsh_bases(phi)
    pairs = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    out = np.empty((4, 2, 2))
    for k, (b1, b2) in enumerate(pairs):
        for i in range(2):
            for j in range(2):
                ket = np.kron(b1[:, i], b2[:, j])
                out[k, i, j] = max(float(np.real(ket.conj() @ rho @ ket)), 0.0)
    return out


class TestBatchedSweep:
    def test_exact_matches_kron_reference(self):
        rng = np.random.default_rng(17)
        phis = rng.uniform(0.0, 2 * np.pi, 50)
        for _ in range(5):
            rho = random_density_matrix(rng, 4)
            sweep = chsh_sweep(rho, phis)
            for (phi_out, b), phi in zip(sweep, phis):
                e = [correlation(p) for p in reference_pair_probabilities(rho, phi)]
                assert phi_out == phi
                assert abs(b - chsh_polynomial(*e)) <= 1e-12

    def test_sampled_matches_per_pair_draws(self):
        # one generator per (seed, phi index, pair index), drawn pair by pair;
        # checked on the last 40 points, where point 698 has an e with
        # e ** 2 != e * e in the last bit
        rho = werner_state(0.9)
        phis = np.deg2rad(np.arange(0.0, 180.0, 0.25))
        seed, mean_pairs, first = 7, 300.0, 680
        expected = []
        for i_phi, phi in enumerate(phis[first:], start=first):
            es, var = [], 0.0
            for i_pair, p in enumerate(reference_pair_probabilities(rho, phi)):
                counts = np.random.default_rng([seed, i_phi, i_pair]).poisson(mean_pairs * p)
                e = correlation(counts)
                es.append(e)
                var += max(1.0 - e ** 2, 1.0 / counts.sum()) / counts.sum()
            expected.append((float(phi), chsh_polynomial(*es), float(np.sqrt(var))))
        assert chsh_sweep(rho, phis, mean_pairs=mean_pairs, seed=seed)[first:] == expected

    def test_scalar_phi_list(self):
        assert chsh_sweep(bell_state("phi+"), [np.pi / 8]) == \
            chsh_sweep(bell_state("phi+"), np.array([np.pi / 8]))

    def test_empty_phi_list(self):
        assert chsh_sweep(bell_state("phi+"), []) == []
        assert chsh_sweep(bell_state("phi+"), [], mean_pairs=10.0, seed=1) == []

    @pytest.mark.parametrize("mean_pairs", [1e30, float("nan"), float("inf")])
    def test_mean_pairs_out_of_range(self, mean_pairs):
        with pytest.raises(OutOfRange):
            chsh_sweep(bell_state("phi+"), [0.0], mean_pairs=mean_pairs, seed=1)

    @pytest.mark.parametrize("phi", [np.nan, np.inf])
    @pytest.mark.parametrize("sampling", [{}, {"mean_pairs": 100.0, "seed": 1}],
                             ids=["exact", "sampled"])
    def test_non_finite_phi(self, phi, sampling):
        with pytest.raises(OutOfRange) as err:
            chsh_sweep(bell_state("phi+"), [0.0, phi], **sampling)
        assert len(str(err.value).splitlines()) == 1

    def test_mean_pairs_not_positive(self):
        with pytest.raises(InvalidState):
            chsh_sweep(bell_state("phi+"), [0.0], mean_pairs=0.0, seed=1)


class TestSampledSweep:
    def test_deterministic_given_seed(self):
        rho = bell_state("phi+")
        phis = np.deg2rad([22.5, 45.0])
        a = chsh_sweep(rho, phis, mean_pairs=500.0, seed=11)
        b = chsh_sweep(rho, phis, mean_pairs=500.0, seed=11)
        assert a == b

    def test_converges_to_exact(self):
        rho = werner_state(0.9)
        phis = np.deg2rad(np.arange(0.0, 180.0, 15.0))
        exact = np.array([row[1] for row in chsh_sweep(rho, phis)])
        sampled = np.array([row[1] for row in
                            chsh_sweep(rho, phis, mean_pairs=1e6, seed=13)])
        assert np.max(np.abs(exact - sampled)) < 0.05

    def test_std_scale_at_low_rates(self):
        # ~300 pairs per basis pair (5 Hz for one minute): spread of order 0.1
        rho = bell_state("phi+")
        phi_peak = np.deg2rad([22.5])
        draws = np.array([chsh_sweep(rho, phi_peak, mean_pairs=300.0, seed=s)[0][1]
                          for s in range(60)])
        assert 0.03 <= draws.std(ddof=1) <= 0.3
        reported_std = chsh_sweep(rho, phi_peak, mean_pairs=300.0, seed=1)[0][2]
        assert 0.03 <= reported_std <= 0.3

    def test_bases_are_orthonormal(self):
        for b in chsh_bases(0.4):
            assert np.linalg.norm(b.conj().T @ b - np.eye(2)) < 1e-10


class TestNonNumericAngles:
    @pytest.mark.parametrize("phi", ["abc", [0.0, "x"], [[0.0], [1.0, 2.0]], None])
    def test_rotation_r(self, phi):
        with pytest.raises(OutOfRange) as err:
            rotation_r(phi)
        assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize("phi", ["abc", [0.0, "x"], [[0.0], [1.0, 2.0]]])
    @pytest.mark.parametrize("sampling", [{}, {"mean_pairs": 100.0, "seed": 1}],
                             ids=["exact", "sampled"])
    def test_chsh_sweep(self, phi, sampling):
        with pytest.raises(OutOfRange) as err:
            chsh_sweep(bell_state("phi+"), phi, **sampling)
        assert len(str(err.value).splitlines()) == 1
