import os
import sys
import threading

import numpy as np
import pytest

import qfcsim.states
import qfcsim.tomography as tomo_mod
from qfcsim.channel import ChannelSpec, one_sided_apply
from qfcsim.drive import drive_from_theta
from qfcsim.errors import (InvalidState, NoConvergence, NotInformationallyComplete,
                           NotNormalized, OutOfRange, ShapeMismatch)
from qfcsim.states import bell_state, concurrence, fidelity, purity, werner_state
from qfcsim.tomography import (CountRecord, MeasurementSetting, STATE_VECTORS, _BASIS,
                               _kets, _mle_stack, _resampled_mle, _start,
                               expected_probability,
                               mle_reconstruct, monte_carlo_metric, projector_set,
                               records_from_csv, records_to_csv, simulate_counts)

from helpers import random_density_matrix


@pytest.fixture
def solves(monkeypatch):
    """Row counts of the _mle_stack solves made while a test runs."""
    calls = []
    mle_stack = tomo_mod._mle_stack

    def spy(kets, counts, max_iter, tol):
        calls.append(len(counts))
        return mle_stack(kets, counts, max_iter, tol)

    monkeypatch.setattr(tomo_mod, "_mle_stack", spy)
    return calls


def exact_records(rho, settings, mean_pairs):
    """Noiseless records: counts = rounded expected means."""
    return [CountRecord(setting=s, counts=int(round(mean_pairs * expected_probability(rho, s))))
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

    def test_nan_component_raises(self):
        with pytest.raises(NotNormalized):
            MeasurementSetting([np.nan, 0], [1, 0])
        with pytest.raises(NotNormalized):
            MeasurementSetting([1, 0], [0, np.nan])


class TestCountRecord:
    @pytest.mark.parametrize("counts", [float("nan"), float("inf"), 2.5, np.float64(0.5),
                                        "3", None])
    def test_counts_that_are_not_whole_numbers(self, counts):
        with pytest.raises(InvalidState):
            CountRecord(setting=projector_set(16)[0], counts=counts)

    @pytest.mark.parametrize("counts", [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)])
    def test_whole_counts_of_any_numeric_type(self, counts):
        assert CountRecord(setting=projector_set(16)[0], counts=counts).counts == 3


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
        kets = _kets(records)
        counts = np.array([[rec.counts for rec in records]], dtype=float)
        with pytest.raises(NoConvergence):
            _mle_stack(kets, counts, 2, 1e-12)

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

    def test_bit_reproducible_at_100_samples(self, solves):
        records = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=23)
        a = monte_carlo_metric(records, concurrence, n_samples=100, seed=29)
        tomo_mod._last_resample = None  # compare two solves, not a kept stack
        b = monte_carlo_metric(records, concurrence, n_samples=100, seed=29)
        assert solves == [100, 100]
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

    # one kept resample stack behind monte_carlo_metric

    @staticmethod
    def records():
        return simulate_counts(werner_state(0.9), projector_set(36), 1e4, seed=43)

    def test_second_metric_reuses_the_stack(self, solves):
        records = self.records()
        c = monte_carlo_metric(records, concurrence, n_samples=20, seed=5)
        p = monte_carlo_metric(records, purity, n_samples=20, seed=5)
        assert solves == [20]
        tomo_mod._last_resample = None
        assert monte_carlo_metric(records, concurrence, n_samples=20, seed=5) == c
        tomo_mod._last_resample = None
        assert monte_carlo_metric(records, purity, n_samples=20, seed=5) == p
        assert solves == [20, 20, 20]

    @pytest.mark.parametrize("change", ["seed", "n_samples", "count", "setting"])
    def test_changed_input_solves_again(self, solves, change):
        records = self.records()
        monte_carlo_metric(records, purity, n_samples=8, seed=5)
        n_samples, seed = 8, 5
        if change == "seed":
            seed = 6
        elif change == "n_samples":
            n_samples = 9
        elif change == "count":
            records[7] = CountRecord(setting=records[7].setting, counts=records[7].counts + 1)
        else:
            records[7] = CountRecord(setting=records[8].setting, counts=records[7].counts)
        monte_carlo_metric(records, purity, n_samples=n_samples, seed=seed)
        assert solves == [8, n_samples]

    def test_one_entry(self, solves):
        a, b = self.records(), simulate_counts(werner_state(0.8), projector_set(36), 1e4, 44)
        for records in (a, b, a):
            monte_carlo_metric(records, purity, n_samples=8, seed=5)
        assert solves == [8, 8, 8]

    def test_stack_is_read_only(self):
        records = self.records()
        rhos = _resampled_mle(records, 8, 5)
        assert not rhos.flags.writeable
        with pytest.raises(ValueError):
            rhos[0, 0, 0] = 0.0
        assert _resampled_mle(records, 8, 5) is rhos

    def test_writing_metric_raises_and_the_stack_survives(self, solves):
        records = self.records()
        ref = monte_carlo_metric(records, purity, n_samples=8, seed=5)

        def scribble(rho):
            rho[0, 0] = 1.0
            return 0.0

        with pytest.raises(ValueError):
            monte_carlo_metric(records, scribble, n_samples=8, seed=5)
        assert monte_carlo_metric(records, purity, n_samples=8, seed=5) == ref
        assert solves == [8]

    def test_failed_solve_keeps_nothing(self, monkeypatch):
        records = self.records()
        with pytest.raises(InvalidState):
            monte_carlo_metric(records, purity, n_samples=1, seed=5)
        assert tomo_mod._last_resample is None
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 2)
        slow = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=3)
        with pytest.raises(NoConvergence):
            monte_carlo_metric(slow, purity, n_samples=8, seed=5)
        assert tomo_mod._last_resample is None
        # nor does it evict the stack kept before it
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 1000)
        monte_carlo_metric(records, purity, n_samples=8, seed=5)
        kept = tomo_mod._last_resample
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence):
            monte_carlo_metric(slow, purity, n_samples=8, seed=5)
        assert tomo_mod._last_resample is kept

    def test_concurrent_callers_get_their_own_stack(self):
        # threads that replace each other's kept stack still each get the
        # values of a fresh solve of their own inputs
        records = self.records()
        refs = []
        for seed in range(4):
            tomo_mod._last_resample = None
            refs.append(monte_carlo_metric(records, purity, n_samples=4, seed=seed))
        results = []

        def worker(seed):
            for _ in range(5):
                results.append((seed, monte_carlo_metric(records, purity, 4, seed)))

        threads = [threading.Thread(target=worker, args=(i % 4,))
                   for i in range(min((os.cpu_count() or 1) + 1, 16))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 5 * len(threads)  # no worker raised
        assert all(est == refs[seed] for seed, est in results)

    def test_float_seed_is_not_truncated(self):
        records = self.records()
        monte_carlo_metric(records, purity, n_samples=8, seed=5)
        with pytest.raises(TypeError):
            monte_carlo_metric(records, purity, n_samples=8, seed=5.5)

    def test_stack_validated_once(self, monkeypatch):
        # the solved stack is checked in one call, however many samples it has
        calls = []
        check = qfcsim.states.assert_density_matrix

        def counting(rho, dim=None):
            calls.append(np.shape(rho))
            return check(rho, dim)

        monkeypatch.setattr(qfcsim.states, "assert_density_matrix", counting)
        monkeypatch.setattr(tomo_mod, "assert_density_matrix", counting)
        records = self.records()
        for n_samples in (4, 40):
            calls.clear()
            monte_carlo_metric(records, lambda rho: float(np.trace(rho).real),
                               n_samples=n_samples, seed=5)
            assert calls == [(n_samples, 4, 4)]


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

    def test_nan_component_raises(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        "nan+0j;1+0j,H,5,1.0\n")
        with pytest.raises(NotNormalized):
            records_from_csv(path)
