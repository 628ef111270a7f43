import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest

import qfcsim.states
import qfcsim.tomography as tomo_mod
from qfcsim.channel import ChannelSpec, one_sided_apply
from qfcsim.cli import _schema
from qfcsim.drive import drive_from_theta
from qfcsim.errors import (InvalidState, NoConvergence, NotInformationallyComplete,
                           NotNormalized, OutOfRange, ShapeMismatch)
from qfcsim.states import (bell_state, born_probabilities, concurrence, fidelity,
                           pauli_correlations, purity, werner_state)
from qfcsim.tomography import (MAX_MC_SAMPLES, STATE_VECTORS, _BASIS, CountRecord,
                               MeasurementSetting, _arrays, _basis_order, _linear_inversion,
                               _mle_stack, _newton, _pinv, _resampled_mle, _start, _tensor,
                               mle_reconstruct, monte_carlo_metric, projector_set,
                               records_from_csv, records_to_csv, simulate_counts)

from helpers import random_density_matrix


@pytest.fixture
def solves(monkeypatch):
    """Row counts of the _mle_stack solves made while a test runs."""
    calls = []
    mle_stack = tomo_mod._mle_stack

    def spy(kets, counts):
        calls.append(len(counts))
        return mle_stack(kets, counts)

    monkeypatch.setattr(tomo_mod, "_mle_stack", spy)
    return calls


def resampled_stack(records, n_samples, seed):
    """The cached Monte-Carlo stack ``monte_carlo_metric`` uses for these inputs."""
    kets, observed = _arrays(records)
    return _resampled_mle(kets.tobytes(), observed.tobytes(), n_samples, seed)


def exact_records(rho, settings, mean_pairs):
    """Noiseless records: counts = rounded expected means."""
    return [CountRecord(setting=s,
                        counts=int(round(mean_pairs * born_probabilities(rho, s.ket))))
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
        stored = CountRecord(setting=projector_set(16)[0], counts=counts).counts
        assert stored == 3 and type(stored) is int

    def test_cap_is_the_largest_integer_float64_holds(self):
        setting = projector_set(16)[0]
        assert CountRecord(setting, tomo_mod.MAX_COUNTS).counts == 2 ** 53
        with pytest.raises(OutOfRange, match=r"^counts must be at most 2\*\*53, got 1e\+23$"):
            CountRecord(setting, 1e23)

    def test_counts_at_the_mean_pairs_cap_stay_below_it_and_resample(self):
        records = simulate_counts(werner_state(0.9), projector_set(16),
                                  qfcsim.states.MAX_MEAN_PAIRS, seed=1)
        assert max(rec.counts for rec in records) < tomo_mod.MAX_COUNTS / 10
        est = monte_carlo_metric(records, purity, n_samples=2, seed=2)
        assert abs(est.value - purity(werner_state(0.9))) < 1e-6


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
        for _ in range(2):  # a failed table build is not kept
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

    @pytest.mark.parametrize("cap,value,message", [
        ("_MAX_ITER", 2, "^MLE did not converge in 2 Newton steps$"),
        ("_MAX_HALVINGS", 0, "^MLE line search found no decrease$")])
    def test_step_cap_raises(self, monkeypatch, cap, value, message):
        monkeypatch.setattr(tomo_mod, cap, value)
        records = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=3)
        kets, counts = _arrays(records)
        with pytest.raises(NoConvergence, match=message):
            _mle_stack(kets, counts[None])

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
    kets, n = _arrays(records)
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


def _product_state(name_a, name_b):
    ket = MeasurementSetting.from_names(name_a, name_b).ket
    return np.outer(ket, ket.conj())


# states whose optima sit on the boundary of the state space, with optimum
# support that misses some basis index: the ones an MLE in a fixed basis
# order failed on; the pairs of the ROADMAP's table
BOUNDARY_STATES = {
    "psi-": (bell_state("psi-"), 1.56e5),
    "psi+": (bell_state("psi+"), 1.56e5),
    "HH": (_product_state("H", "H"), 1e5),
    "HD": (_product_state("H", "D"), 1e5),
}


class TestOptimality:
    @pytest.mark.parametrize("rho,n_settings,mean_pairs", [
        (werner_state((2 * 0.92 + 1) / 3), 36, 1.56e5),
        (_converted_state(), 36, 1e4),
        (bell_state("phi+"), 16, 2e3),     # some counts are zero
        (werner_state(0.9), 16, 1e4),      # rank-deficient optima
        *((BOUNDARY_STATES[name][0], n_settings, 2e6)
          for name in BOUNDARY_STATES for n_settings in (16, 36)),
    ], ids=["werner36", "converted36", "phi_plus16", "werner_p0.9_16",
            *(f"{name}_{n}" for name in BOUNDARY_STATES for n in (16, 36))])
    def test_kkt_conditions_hold(self, rho, n_settings, mean_pairs):
        for seed in range(30):
            records = simulate_counts(rho, projector_set(n_settings), mean_pairs, seed)
            stationarity, top = kkt_residuals(records, mle_reconstruct(records))
            assert stationarity <= 1e-5
            assert top <= 1e-5


def _count_steps(monkeypatch) -> list:
    """A list whose last entry counts Newton steps: one _has_factor call each."""
    steps = [0]
    has_factor = tomo_mod._has_factor

    def spy(hess):
        steps[-1] += 1
        return has_factor(hess)

    monkeypatch.setattr(tomo_mod, "_has_factor", spy)
    return steps


def _rows_alone(kets, stack, steps=None) -> np.ndarray:
    """Each row of ``stack`` solved alone in the stack's basis order, as
    ``_mle_stack`` solves it in the stack; a new ``steps`` entry per row."""
    x = _linear_inversion(kets, stack)
    order = _basis_order(x)
    back = np.argsort(order)
    kets, x = kets[:, order], x[:, order][:, :, order]
    rows = []
    for b, row in enumerate(stack[:, None]):
        if steps is not None:
            steps.append(0)
        rho = _newton(kets, row, _start(kets, row, x[b:b + 1]))[0]
        rows.append(rho[np.ix_(back, back)])
    return np.array(rows)


class TestBoundaryStates:
    @pytest.mark.parametrize("n_settings", [16, 36])
    @pytest.mark.parametrize("name", sorted(BOUNDARY_STATES))
    def test_library_path_solves_every_seed(self, name, n_settings):
        # simulate_counts, then mle_reconstruct, then a 100-sample
        # monte_carlo_metric, for seeds 0-9: 80 cases over the parameters
        rho, mean_pairs = BOUNDARY_STATES[name]
        for seed in range(10):
            records = simulate_counts(rho, projector_set(n_settings), mean_pairs, seed)
            mle_reconstruct(records)
            monte_carlo_metric(records, concurrence, n_samples=100, seed=seed)

    @pytest.mark.parametrize("mean_pairs", [1e3, 1e5, 1.56e5, 2e6])
    @pytest.mark.parametrize("n_settings", [16, 36])
    @pytest.mark.parametrize("name", [*sorted(BOUNDARY_STATES), "werner_p0.9"])
    def test_single_solves_never_raise(self, name, n_settings, mean_pairs):
        # seeds 0-39: the 1600-call grid on which a fixed-basis MLE raised 76 times
        rho = werner_state(0.9) if name == "werner_p0.9" else BOUNDARY_STATES[name][0]
        for seed in range(40):
            mle_reconstruct(simulate_counts(rho, projector_set(n_settings), mean_pairs, seed))


class TestStack:
    def test_stack_equals_rows_alone(self, monkeypatch):
        # and a row in a stack takes the steps it takes alone in the same
        # basis order: the stack iterates as long as its slowest row
        steps = _count_steps(monkeypatch)
        records = simulate_counts(_converted_state(), projector_set(36), 1e4, seed=8)
        kets, observed = _arrays(records)
        stack = np.array([np.random.default_rng([4, i]).poisson(observed)
                          for i in range(12)], dtype=float)
        together = _mle_stack(kets, stack)
        alone = _rows_alone(kets, stack, steps)
        assert np.max(np.abs(together - alone)) <= 1e-10
        assert steps[0] == max(steps[1:])

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
    kets, counts = _arrays(records)
    yield kets, counts[None]


class TestStart:
    def test_edge_rows_give_a_valid_start(self):
        for kets, counts in _edge_rows():
            t = _start(kets, counts, _linear_inversion(kets, counts))
            assert np.all(np.isfinite(t))
            # T built from t is lower triangular with a real diagonal
            tri = np.einsum("bj,jrc->brc", t, _BASIS)[0]
            assert np.all(np.diag(tri).real > 0)
            q = np.abs(kets @ tri.T) ** 2
            assert abs(q.sum() - counts.sum()) <= 1e-10 * counts.sum()

    def test_newton_iterations_from_the_start(self, monkeypatch):
        # Newton iterations, the last one included
        steps = _count_steps(monkeypatch)
        rho = werner_state((2 * 0.92 + 1) / 3)
        for seed in range(30):
            records = simulate_counts(rho, projector_set(36), 1.56e5, seed)
            steps.append(0)
            mle_reconstruct(records)
            assert steps[-1] <= 8


def _hessian_spy(monkeypatch, name, wrap):
    """Replace np.linalg.<name> on 16x16 matrices by ``wrap(original, a, *args)``."""
    original = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        if np.shape(a)[-1] == 16:
            return wrap(original, a, *args)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)


def _seeded_rows(rho, n_settings, mean_pairs):
    """One-row count stacks of seeds 0-4."""
    for seed in range(5):
        kets, counts = _arrays(simulate_counts(rho, projector_set(n_settings), mean_pairs, seed))
        yield kets, counts[None]


class TestEighRoute:
    """The saddle-free eigh step, taken where the Hessian has no Cholesky
    factor, is the reference for the LU step."""

    @pytest.mark.parametrize("rows", [
        lambda: _seeded_rows(werner_state((2 * 0.92 + 1) / 3), 36, 1.56e5),
        lambda: _seeded_rows(_converted_state(), 36, 1e4),
        lambda: _seeded_rows(bell_state("phi+"), 16, 2e3),
        lambda: _seeded_rows(werner_state(0.9), 16, 1e4),
        _edge_rows,
    ], ids=["werner36", "converted36", "phi_plus16", "werner_p0.9_16", "edge_rows"])
    def test_eigh_on_every_step_gives_the_default_solve(self, monkeypatch, rows):
        # the TestOptimality cases, and the edge rows of the start
        rows = list(rows())
        default = [_mle_stack(kets, counts) for kets, counts in rows]

        def indefinite(cholesky, a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        _hessian_spy(monkeypatch, "cholesky", indefinite)
        for (kets, counts), rho in zip(rows, default):
            assert np.max(np.abs(_mle_stack(kets, counts) - rho)) <= 1e-10

    def test_indefinite_steps_take_the_eigh_route(self, monkeypatch):
        # eigh sees exactly the Hessians without a Cholesky factor, and the
        # LU solve exactly those with one
        seen = {"eigh": [], "solve": []}

        def recording(name):
            def wrap(original, a, *args):
                seen[name].extend(a)
                return original(a, *args)
            return wrap

        def has_factor(h):
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                return False
            return True

        for name in seen:
            _hessian_spy(monkeypatch, name, recording(name))
        for kets, counts in [*_edge_rows(), *_seeded_rows(
                werner_state((2 * 0.92 + 1) / 3), 36, 1.56e5)]:
            _mle_stack(kets, counts)
        assert len(seen["eigh"]) >= 1   # the first H of edge row 0 (a start of trace 0)
        assert not any(has_factor(h) for h in seen["eigh"])
        assert all(has_factor(h) for h in seen["solve"])

    def test_only_the_row_without_a_factor_takes_eigh(self, monkeypatch):
        # Werner rows of seeds 0-4: in the stack's basis order, the first
        # Hessian of seed 4's row alone has no Cholesky factor
        rows = list(_seeded_rows(werner_state((2 * 0.92 + 1) / 3), 36, 1.56e5))
        kets, stack = rows[0][0], np.concatenate([counts for _, counts in rows])
        seen = []

        def recording(eigh, a):
            seen.append(a.copy())
            return eigh(a)

        _hessian_spy(monkeypatch, "eigh", recording)
        together = _mle_stack(kets, stack)
        assert [a.shape for a in seen] == [(1, 16, 16)]
        alone = _rows_alone(kets, stack)
        assert len(seen) == 2 and np.allclose(seen[1], seen[0], rtol=1e-9, atol=0)
        assert np.max(np.abs(together - alone)) <= 1e-10


class TestTablesBuiltOnce:
    @pytest.mark.parametrize("n_settings", [16, 36])
    def test_cached_tables_give_the_fresh_table_solve(self, monkeypatch, n_settings):
        records = simulate_counts(_converted_state(), projector_set(n_settings), 1e4, seed=5)
        other_set = projector_set(36 if n_settings == 16 else 16)
        other = simulate_counts(werner_state(0.9), other_set, 1e4, seed=6)

        def solve():
            _resampled_mle.cache_clear()
            mc = monte_carlo_metric(records, concurrence, n_samples=12, seed=7)
            return mle_reconstruct(records), resampled_stack(records, 12, 7), mc

        # one table build per key: a pseudo-inverse per set, and a tensor
        # per basis order of it that a stack is solved in
        keys = {}
        for table in (_pinv, _tensor):
            keys[table] = set()
            monkeypatch.setattr(tomo_mod, table.__name__,
                                lambda b, table=table: keys[table].add(b) or table(b))
            table.cache_clear()
        rho, stack, mc = solve()
        assert _pinv.cache_info().misses == len(keys[_pinv]) == 1
        assert _tensor.cache_info().misses == len(keys[_tensor]) >= 1
        mle_reconstruct(other)  # a second projector set in the cache
        again, stack_again, mc_again = solve()
        assert _pinv.cache_info().misses == len(keys[_pinv]) == 2
        assert _tensor.cache_info().misses == len(keys[_tensor])
        assert np.array_equal(again, rho)
        assert np.array_equal(stack_again, stack)
        assert (mc_again.value, mc_again.std) == (mc.value, mc.std)

    def test_tables_are_read_only(self):
        kets, _ = _arrays(simulate_counts(werner_state(0.9), projector_set(16), 1e3, seed=1))
        for table in (_pinv, _tensor):
            assert not table(kets.tobytes()).flags.writeable


class TestMonteCarlo:
    def test_trace_metric_has_no_spread(self):
        records = simulate_counts(bell_state("phi+"), projector_set(36), 1e4, seed=17)
        est = monte_carlo_metric(records, lambda rhos: np.trace(rhos, axis1=1, axis2=2).real,
                                 n_samples=20, seed=19)
        assert abs(est.value - 1.0) < 1e-9
        assert est.std < 1e-9

    def test_bit_reproducible_at_100_samples(self, solves):
        records = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=23)
        a = monte_carlo_metric(records, concurrence, n_samples=100, seed=29)
        _resampled_mle.cache_clear()  # compare two solves, not a cached stack
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

    def test_samples_cap_is_the_config_schema_maximum(self):
        tomo = _schema("config.schema.json")["properties"]["tomo"]["properties"]
        assert tomo["mc_samples"]["maximum"] == MAX_MC_SAMPLES

    def test_n_samples_validated(self):
        records = simulate_counts(bell_state("phi+"), projector_set(16), 1e3, seed=1)
        with pytest.raises(InvalidState):
            monte_carlo_metric(records, concurrence, n_samples=1, seed=2)

    # one cached resample stack behind monte_carlo_metric

    @staticmethod
    def records():
        return simulate_counts(werner_state(0.9), projector_set(36), 1e4, seed=43)

    def test_second_metric_reuses_the_stack(self, solves):
        records = self.records()
        c = monte_carlo_metric(records, concurrence, n_samples=20, seed=5)
        p = monte_carlo_metric(records, purity, n_samples=20, seed=5)
        assert solves == [20]
        _resampled_mle.cache_clear()
        assert monte_carlo_metric(records, concurrence, n_samples=20, seed=5) == c
        _resampled_mle.cache_clear()
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
        assert _resampled_mle.cache_info().currsize == 1

    def test_stack_is_read_only(self):
        records = self.records()
        rhos = resampled_stack(records, 8, 5)
        assert not rhos.flags.writeable
        with pytest.raises(ValueError):
            rhos[0, 0, 0] = 0.0
        assert resampled_stack(records, 8, 5) is rhos

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

    def test_failed_solve_keeps_nothing(self, monkeypatch, solves):
        records = self.records()
        with pytest.raises(InvalidState):
            monte_carlo_metric(records, purity, n_samples=1, seed=5)
        assert _resampled_mle.cache_info().currsize == 0
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 2)
        slow = simulate_counts(werner_state(0.9), projector_set(16), 1e4, seed=3)
        with pytest.raises(NoConvergence):
            monte_carlo_metric(slow, purity, n_samples=8, seed=5)
        assert _resampled_mle.cache_info().currsize == 0
        # nor does it evict the stack cached before it
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 1000)
        kept = resampled_stack(records, 8, 5)
        monkeypatch.setattr(tomo_mod, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence):
            monte_carlo_metric(slow, purity, n_samples=8, seed=5)
        assert _resampled_mle.cache_info().currsize == 1
        assert resampled_stack(records, 8, 5) is kept
        assert solves == [8, 8, 8]

    def test_concurrent_callers_get_their_own_stack(self):
        # threads that replace each other's cached stack still each get the
        # values of a fresh solve of their own inputs
        records = self.records()
        refs = []
        for seed in range(4):
            _resampled_mle.cache_clear()
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
            monte_carlo_metric(records, lambda rhos: np.trace(rhos, axis1=1, axis2=2).real,
                               n_samples=n_samples, seed=5)
            assert calls == [(n_samples, 4, 4)]
            # concurrence checks the stack once more, in one call
            _resampled_mle.cache_clear()
            calls.clear()
            monte_carlo_metric(records, concurrence, n_samples=n_samples, seed=5)
            assert calls == [(n_samples, 4, 4), (n_samples, 4, 4)]

    def test_metric_is_called_once_on_the_read_only_stack(self):
        records = self.records()
        seen = []

        def metric(rhos):
            seen.append(rhos)
            return purity(rhos)

        est = monte_carlo_metric(records, metric, n_samples=8, seed=5)
        stack = resampled_stack(records, 8, 5)
        assert len(seen) == 1 and seen[0] is stack
        assert seen[0].shape == (8, 4, 4) and not seen[0].flags.writeable
        values = np.array([purity(rho) for rho in stack])
        assert (est.value, est.std) == (float(values.mean()), float(values.std(ddof=1)))

    @pytest.mark.parametrize("metric", [
        lambda rhos: purity(rhos)[:-1], lambda rhos: purity(rhos[0]),
        lambda rhos: np.zeros((len(rhos), 1)), pauli_correlations],
        ids=["short", "scalar", "column", "matrices"])
    def test_metric_of_the_wrong_shape_raises(self, metric):
        with pytest.raises(ShapeMismatch, match=r"must return 8 values .* got shape"):
            monte_carlo_metric(self.records(), metric, n_samples=8, seed=5)


# The error bars over seeds, fixed before any result was seen: counts seed s for
# s in 0-99, the Monte-Carlo resampling seed 10000 + s, 100 resamples, 1.56e5
# pairs for each setting (criterion 10's rate).
COVERAGE_SEEDS = range(100)
MC_SEED_OFFSET = 10_000


def _estimates_over_seeds(rho, n_settings) -> tuple:
    """The concurrence estimates Ĉ and their MC stds σ_MC, one per seed."""
    c_hat, sigma = [], []
    for seed in COVERAGE_SEEDS:
        records = simulate_counts(rho, projector_set(n_settings), 1.56e5, seed)
        c_hat.append(concurrence(mle_reconstruct(records)))
        sigma.append(monte_carlo_metric(records, concurrence, n_samples=100,
                                        seed=MC_SEED_OFFSET + seed).std)
    return np.array(c_hat), np.array(sigma)


def _binomial_band(n: int, p: float, mass: float) -> tuple:
    """The central interval [lo, hi] of Binomial(n, p) whose tails outside it
    each hold at most (1 - mass) / 2."""
    cdf = list(itertools.accumulate(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                                    for k in range(n + 1)))
    tail = (1 - mass) / 2
    lo = next(k for k in range(n + 1) if cdf[k] > tail)
    hi = next(k for k in range(n + 1) if cdf[k] >= 1 - tail)
    return lo, hi


class TestErrorBarsOverSeeds:
    """Criterion 10 checks one draw's MC std against the Poisson limit; these
    check how often the error bars cover the truth, and what they do on the
    boundary of the state space, where the MLE is biased (Schwemmer et al.,
    PRL 114, 080403, 2015)."""

    @pytest.mark.parametrize("n_settings", [36, 16])
    def test_werner_error_bar_is_calibrated(self, n_settings):
        c_true = 0.919
        c_hat, sigma = _estimates_over_seeds(werner_state((2 * c_true + 1) / 3), n_settings)
        # a 2-sigma bar covers P(|Z| <= 2) = 95.45% of seeds; the band holds 95%
        # of Binomial(100, 0.9545): [91, 99] of the 100 seeds
        lo, hi = _binomial_band(len(c_hat), math.erf(2 / math.sqrt(2)), 0.95)
        assert (lo, hi) == (91, 99)
        assert lo <= np.sum(np.abs(c_hat - c_true) <= 2 * sigma) <= hi
        # the typical bar is the spread of the estimate, within criterion 10's factor
        assert abs(np.log(np.median(sigma) / c_hat.std(ddof=1))) <= np.log(1.3)

    def test_psi_minus_error_bar_is_conservative_not_calibrated(self):
        # C = 1 is the largest concurrence, so every estimate lies at or below
        # it and the estimate is biased low; the MC std exceeds the estimates'
        # spread (by ~1.7x here), so this bar is conservative, not calibrated
        c_hat, sigma = _estimates_over_seeds(bell_state("psi-"), 36)
        assert np.mean(c_hat) - 1.0 < 0
        assert np.median(sigma) >= c_hat.std(ddof=1)


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
        # whole-number float counts are written, and read back, as integers
        records = [CountRecord(setting=MeasurementSetting(v, STATE_VECTORS["H"]), counts=counts)
                   for counts in (5, 5.0, np.float64(5))]
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        back = records_from_csv(path)
        assert np.allclose(back[0].setting.proj_a, v, atol=1e-12)
        assert [rec.counts for rec in back] == [5, 5, 5]

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = simulate_counts(werner_state(0.8), projector_set(16), 1e4, seed=41)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        records_to_csv(records, first)
        records_to_csv(records_from_csv(first), second)
        assert second.read_bytes() == first.read_bytes()
        assert all(line.endswith(",1.0") for line in first.read_text().splitlines()[1:])

    @pytest.mark.parametrize("time_s", ["nan", "2.0", "-1", "abc", ""])
    def test_unequal_integration_time_raises(self, tmp_path, time_s):
        # the likelihood fits one rate to every record, so it cannot weigh
        # records counted for different times
        path = tmp_path / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        f"H,H,5,1.0\nH,V,5,{time_s}\n")
        with pytest.raises(InvalidState, match="^line 3: integration_time_s") as err:
            records_from_csv(path)
        assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize("counts,error,message", [
        ("abc", InvalidState, "counts must be an integer, got 'abc'"),
        ("-5", InvalidState, "counts must be >= 0, got -5"),
        (str(2 ** 53 + 1), OutOfRange, "counts must be at most 2**53, got 9007199254740993"),
    ], ids=["text", "negative", "above-cap"])
    def test_rejected_count_names_its_line(self, tmp_path, counts, error, message):
        path = tmp_path / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        f"H,H,5,1.0\nH,V,{counts},1.0\n")
        with pytest.raises(error) as err:
            records_from_csv(path)
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("data,message", [
        (b"H,H,5,1.0\nH,V,\xff5,1.0\n",
         "line 3: 'utf-8' codec can't decode byte 0xff in position 64: invalid start byte"),
        (b"H,H,5,1.0\nH,V," + b"1" * 200000 + b",1.0\n",
         "line 3: field larger than field limit (131072)"),
    ], ids=["not-utf8", "field-past-csv-limit"])
    def test_unreadable_row_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"proj_a_spec,proj_b_spec,counts,integration_time_s\n" + data)
        with pytest.raises(InvalidState) as err:
            records_from_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("header", [b"proj_a_spec,\xfe", b"proj_a_spec," + b"x" * 200000],
                             ids=["not-utf8", "field-past-csv-limit"])
    def test_unreadable_header_is_line_1(self, tmp_path, header):
        path = tmp_path / "counts.csv"
        path.write_bytes(header + b"\nH,H,5,1.0\n")
        with pytest.raises(InvalidState, match="^line 1: "):
            records_from_csv(path)

    def test_missing_file_raises_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            records_from_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("row,field,error,message", [
        # a count past int()'s 4300 digits is read as a number out of range, not as text
        ("H,V,{},1.0", "1" * 5000, OutOfRange, "counts must be at most 2**53, got"),
        ("H,V,{},1.0", "+" + "1" * 4999, OutOfRange, "counts must be at most 2**53, got"),
        ("H,V,{},1.0", "-" + "1" * 4999, InvalidState, "counts must be >= 0, got"),
        ("H,V,5,{}", "1" * 5000, InvalidState, "integration_time_s must be 1.0, got"),
        # an empty last component
        ("{},V,5,1.0", "1" * 4999 + ";", InvalidState, "malformed vector spec"),
    ], ids=["counts", "plus-counts", "minus-counts", "integration-time", "vector-spec"])
    def test_a_5000_character_field_is_cut_in_the_message(self, tmp_path, row, field, error,
                                                          message):
        path = tmp_path / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        f"H,H,5,1.0\n{row.format(field)}\n")
        with pytest.raises(error) as err:
            records_from_csv(path)
        assert str(err.value) == f"line 3: {message} {field[:100]!r}... (5000 characters)"

    def test_nan_component_raises(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        "nan+0j;1+0j,H,5,1.0\n")
        with pytest.raises(NotNormalized):
            records_from_csv(path)
