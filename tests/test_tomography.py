import numpy as np
import pytest

from qfcsim.channel import ChannelSpec, one_sided_apply
from qfcsim.drive import drive_from_theta
from qfcsim.errors import (InvalidState, NoConvergence, NotInformationallyComplete,
                           OutOfRange, ShapeMismatch)
from qfcsim.states import bell_state, concurrence, fidelity, werner_state
from qfcsim.tomography import (CountRecord, MeasurementSetting, STATE_VECTORS, _BASIS,
                               _kets, _mle_stack, _start, expected_probability,
                               mle_reconstruct, monte_carlo_metric, projector_set,
                               records_from_csv, records_to_csv, simulate_counts)

from helpers import random_density_matrix


def exact_records(rho, settings, mean_pairs):
    """Noiseless records: counts = rounded expected means."""
    return [CountRecord(setting=s, counts=int(round(mean_pairs * expected_probability(rho, s))),
                        rate_scale_hz=mean_pairs)
            for s in settings]


class TestProjectorSet:
    def test_16_unique(self):
        settings = projector_set(16)
        assert len(settings) == 16
        kets = [s.ket for s in settings]
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(kets[i] - kets[j]) > 1e-6

    def test_36_overcomplete_rank(self):
        kets = np.array([s.ket for s in projector_set(36)])
        projs = np.einsum("ki,kj->kij", kets, kets.conj()).reshape(36, 16)
        design = np.hstack([projs.real, projs.imag])
        assert np.linalg.matrix_rank(design, tol=1e-10) == 16

    def test_all_normalized(self):
        for s in projector_set(36):
            assert abs(np.linalg.norm(s.proj_a) - 1) < 1e-12
            assert abs(np.linalg.norm(s.proj_b) - 1) < 1e-12

    def test_bad_kind(self):
        with pytest.raises(ShapeMismatch):
            projector_set(25)

    def test_ket_is_kron_of_projectors(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        custom = MeasurementSetting(v[0] / np.linalg.norm(v[0]), v[1] / np.linalg.norm(v[1]))
        for s in projector_set(36) + [custom]:
            assert np.array_equal(s.ket, np.kron(s.proj_a, s.proj_b))


class TestSimulateCounts:
    def test_orthogonal_projector_gives_zero(self):
        settings = [MeasurementSetting.from_names("H", "V")]
        records = simulate_counts(bell_state("phi+"), settings, 1e4, seed=0)
        assert records[0].counts == 0

    def test_poisson_mean(self):
        settings = [MeasurementSetting.from_names("H", "H")]
        rho = bell_state("phi+")
        mean_pairs = 1e4
        draws = np.array([simulate_counts(rho, settings, mean_pairs, seed=s)[0].counts
                          for s in range(1000)])
        mu = mean_pairs / 2
        assert abs(draws.mean() - mu) < 3 * np.sqrt(mu / 1000)

    def test_deterministic(self):
        settings = projector_set(16)
        rho = werner_state(0.9)
        a = simulate_counts(rho, settings, 1e5, seed=42)
        b = simulate_counts(rho, settings, 1e5, seed=42)
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_bad_mean_pairs(self):
        with pytest.raises(InvalidState):
            simulate_counts(bell_state("phi+"), projector_set(16), 0.0, seed=1)

    @pytest.mark.parametrize("mean_pairs", [1e30, float("nan"), float("inf")])
    def test_mean_pairs_out_of_range(self, mean_pairs):
        with pytest.raises(OutOfRange):
            simulate_counts(bell_state("phi+"), projector_set(16), mean_pairs, seed=1)

    def test_matches_scalar_loop(self):
        # one generator drawn setting by setting, from per-setting kron kets;
        # the converted state at 45 deg has an exactly-zero probability, where
        # a rounding difference would shift every later draw
        spec = ChannelSpec(a=drive_from_theta(np.deg2rad(45.0)), kt=0.3)
        converted, _ = one_sided_apply(werner_state(0.946), spec)
        rng = np.random.default_rng(19)
        states = [converted, bell_state("psi-"), random_density_matrix(rng, 4)]
        for rho in states:
            for n_settings, mean_pairs, seed in ((36, 1e4, 4), (16, 2e3, [7, 2])):
                settings = projector_set(n_settings)
                gen = np.random.default_rng(seed)
                ref = []
                for s in settings:
                    ket = np.kron(s.proj_a, s.proj_b)
                    p = max(float(np.real(ket.conj() @ rho @ ket)), 0.0)
                    ref.append(int(gen.poisson(mean_pairs * p)))
                got = simulate_counts(rho, settings, mean_pairs, seed)
                assert [r.counts for r in got] == ref


class TestMle:
    def test_noiseless_consistency(self):
        rho = bell_state("phi+")
        records = exact_records(rho, projector_set(36), 1e6)
        rec = mle_reconstruct(records)
        assert fidelity(rec, rho) > 0.9999

    def test_round_trip_random_state(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 4)
        records = simulate_counts(rho, projector_set(36), 1e6, seed=9)
        rec = mle_reconstruct(records)
        assert fidelity(rec, rho) > 0.995

    def test_all_zero_counts_raise(self):
        records = [CountRecord(setting=s, counts=0) for s in projector_set(36)]
        with pytest.raises(NoConvergence):
            mle_reconstruct(records)

    def test_rank_deficient_settings_raise(self):
        settings = [MeasurementSetting.from_names(a, b)
                    for a in "HV" for b in "HV"]
        records = exact_records(bell_state("phi+"), settings, 1e5)
        with pytest.raises(NotInformationallyComplete):
            mle_reconstruct(records)

    def test_output_is_physical(self):
        from qfcsim.states import assert_density_matrix

        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng, 4, rank=1)
        records = simulate_counts(rho, projector_set(36), 500.0, seed=3)
        rec = mle_reconstruct(records)
        assert_density_matrix(rec, dim=4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        records = simulate_counts(werner_state(0.8), projector_set(36), 1e4, seed=13)
        rec1 = mle_reconstruct(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        rec2 = mle_reconstruct(shuffled)
        assert np.linalg.norm(rec1 - rec2) < 1e-6

    def test_step_cap_raises(self):
        records = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=3)
        with pytest.raises(NoConvergence):
            mle_reconstruct(records, max_iter=2)

    def test_fidelity_monotone_in_mean_pairs(self):
        rho = werner_state(0.9)
        settings = projector_set(36)
        means = []
        for mean_pairs in (1e2, 1e3, 1e4, 1e5, 1e6):
            fids = []
            for seed in range(20):
                records = simulate_counts(rho, settings, mean_pairs, seed=seed)
                fids.append(fidelity(mle_reconstruct(records), rho))
            means.append(np.mean(fids))
        assert np.all(np.diff(means) > -1e-4)


def kkt_residuals(records, rho):
    """Optimality of rho for the rate-profiled Poisson likelihood, per count.

    With Pi_k the projectors, p_k = Tr(Pi_k rho) and F = sum_k Pi_k, a
    maximum over density matrices has R rho = 0 and R <= 0 for
    R = sum_k (n_k / p_k) Pi_k - (N / Tr F rho) F.  Returns ||R rho|| / N
    and lambda_max(R) / N.
    """
    kets = np.array([rec.setting.ket for rec in records])
    n = np.array([rec.counts for rec in records], dtype=float)
    projs = np.einsum("ki,kj->kij", kets, kets.conj())
    p = np.einsum("kij,ji->k", projs, rho).real
    f_op = projs.sum(axis=0)
    n_tot = n.sum()
    ratio = np.divide(n, p, out=np.zeros_like(n), where=n > 0)
    r = (np.einsum("k,kij->ij", ratio, projs)
         - n_tot / np.trace(f_op @ rho).real * f_op)
    return (np.linalg.norm(r @ rho) / n_tot,
            np.linalg.eigvalsh(r).max() / n_tot)


def _converted_state():
    rho0 = werner_state((2 * 0.92 + 1) / 3)
    spec = ChannelSpec(a=drive_from_theta(np.deg2rad(22.5)), kt=0.3)
    return one_sided_apply(rho0, spec)[0]


class TestOptimality:
    @pytest.mark.parametrize("rho,n_settings,mean_pairs", [
        (werner_state((2 * 0.92 + 1) / 3), 36, 1.56e5),
        (_converted_state(), 36, 1e4),
        (bell_state("phi+"), 16, 2e3),     # some counts are zero
        (werner_state(0.9), 16, 1e4),      # rank-deficient optima
    ], ids=["werner36", "converted36", "phi_plus16", "werner_p0.9_16"])
    def test_kkt_conditions_hold(self, rho, n_settings, mean_pairs):
        for seed in range(30):
            records = simulate_counts(rho, projector_set(n_settings), mean_pairs, seed)
            stationarity, top = kkt_residuals(records, mle_reconstruct(records))
            assert stationarity <= 1e-5
            assert top <= 1e-5


class TestStack:
    def test_stack_equals_rows_alone(self):
        records = simulate_counts(_converted_state(), projector_set(36), 1e4, seed=8)
        kets = _kets(records)
        observed = np.array([rec.counts for rec in records])
        stack = np.array([np.random.default_rng([4, i]).poisson(observed)
                          for i in range(12)], dtype=float)
        together = _mle_stack(kets, stack, 1000, 1e-12)
        alone = np.array([_mle_stack(kets, row[None], 1000, 1e-12)[0] for row in stack])
        assert np.max(np.abs(together - alone)) <= 1e-10

    def test_zero_count_resample_raises(self):
        settings = projector_set(16)
        records = [CountRecord(setting=s, counts=int(k == 0)) for k, s in enumerate(settings)]
        with pytest.raises(NoConvergence):
            monte_carlo_metric(records, concurrence, n_samples=20, seed=1)


def _edge_rows():
    pairs = [(a, b) for a in "HVDR" for b in "HVDR"]
    kets16 = np.array([MeasurementSetting.from_names(a, b).ket for a, b in pairs])
    # counts on D/R settings only: the linear-inversion estimate has trace 0
    yield kets16, np.array([[100.0 * (a in "DR" and b in "DR") for a, b in pairs]])
    # a single count
    yield np.array([s.ket for s in projector_set(36)]), np.eye(36)[5:6]
    # noiseless rank-1 records
    records = exact_records(bell_state("phi+"), projector_set(36), 1e4)
    yield _kets(records), np.array([[rec.counts for rec in records]], dtype=float)


class TestStart:
    def test_edge_rows_give_a_valid_start(self):
        for kets, counts in _edge_rows():
            t = _start(kets, counts)
            assert np.all(np.isfinite(t))
            # T built from t is lower triangular with a real diagonal
            tri = np.einsum("bj,jrc->brc", t, _BASIS)[0]
            assert np.all(np.diag(tri).real > 0)
            q = np.abs(kets @ tri.T) ** 2
            assert abs(q.sum() - counts.sum()) <= 1e-10 * counts.sum()

    def test_newton_iterations_from_the_start(self, monkeypatch):
        # one 16x16 Hessian eigh per Newton iteration, the last one included
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            if np.shape(a)[-1] == 16:
                calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rho = werner_state((2 * 0.92 + 1) / 3)
        for seed in range(30):
            records = simulate_counts(rho, projector_set(36), 1.56e5, seed)
            calls.clear()
            mle_reconstruct(records)
            assert len(calls) <= 8


class TestMonteCarlo:
    def test_trace_metric_has_no_spread(self):
        records = simulate_counts(bell_state("phi+"), projector_set(36), 1e4, seed=17)
        est = monte_carlo_metric(records, lambda rho: float(np.trace(rho).real),
                                 n_samples=20, seed=19)
        assert abs(est.value - 1.0) < 1e-9
        assert est.std < 1e-9

    def test_bit_reproducible_at_100_samples(self):
        records = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=23)
        a = monte_carlo_metric(records, concurrence, n_samples=100, seed=29)
        b = monte_carlo_metric(records, concurrence, n_samples=100, seed=29)
        assert a.value == b.value
        assert a.std == b.std

    def test_std_scales_with_inverse_sqrt_counts(self):
        rho = werner_state((2 * 0.92 + 1) / 3)
        settings = projector_set(36)
        scales = np.array([1e3, 1e4, 1e5])
        stds = []
        for mean_pairs in scales:
            records = simulate_counts(rho, settings, mean_pairs, seed=31)
            est = monte_carlo_metric(records, concurrence, n_samples=60, seed=37)
            stds.append(est.std)
        slope = np.polyfit(np.log10(scales), np.log10(stds), 1)[0]
        assert abs(slope + 0.5) < 0.1

    def test_n_samples_validated(self):
        records = simulate_counts(bell_state("phi+"), projector_set(16), 1e3, seed=1)
        with pytest.raises(InvalidState):
            monte_carlo_metric(records, concurrence, n_samples=1, seed=2)


class TestSerialization:
    def test_named_roundtrip(self, tmp_path):
        records = simulate_counts(werner_state(0.8), projector_set(36), 1e4, seed=41)
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        back = records_from_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.counts == b.counts
            assert np.allclose(a.setting.ket, b.setting.ket, atol=1e-12)
        header = path.read_text().splitlines()[0]
        assert header == "proj_a_spec,proj_b_spec,counts,integration_time_s"

    def test_explicit_vector_roundtrip(self, tmp_path):
        v = np.array([np.cos(0.3), np.exp(1.2j) * np.sin(0.3)])
        records = [CountRecord(setting=MeasurementSetting(v, STATE_VECTORS["H"]),
                               counts=5)]
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        back = records_from_csv(path)
        assert np.allclose(back[0].setting.proj_a, v, atol=1e-12)
