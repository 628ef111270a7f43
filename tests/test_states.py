import numpy as np
import pytest
import scipy.linalg

from qfcsim.bell import chsh_sweep
from qfcsim.channel import (ChannelSpec, choi_concurrence_closed, kraus_from_drive,
                            mode_transfer, one_sided_apply)
from qfcsim.drive import drive_from_theta
from qfcsim.errors import InvalidState, OutOfRange, ShapeMismatch, UnknownLabel
from qfcsim.linalg import partial_trace
from qfcsim.states import (MAX_MEAN_PAIRS, SX, SY, SZ, _check_4x4, _sqrt_psd,
                           assert_density_matrix, bell_state, born_probabilities,
                           check_mean_pairs, chsh_max, concurrence, fidelity, pauli_correlations,
                           purity, werner_state)
from qfcsim.tomography import (_arrays, _pinv, _resampled_mle, mle_reconstruct, projector_set,
                               simulate_counts)

from helpers import (pure_state_concurrence_from_marginal, random_density_matrix,
                     random_pure_state, random_unitary)

RT2 = np.sqrt(2)


class TestBellStates:
    def test_phi_plus_matrix(self):
        expect = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
        assert np.allclose(bell_state("phi+"), expect)

    def test_pure_and_maximally_entangled(self):
        for label in ("phi+", "phi-", "psi+", "psi-"):
            rho = bell_state(label)
            assert abs(purity(rho) - 1.0) < 1e-12
            assert abs(concurrence(rho) - 1.0) < 1e-12

    def test_psi_minus_marginals(self):
        rho = bell_state("psi-")
        for keep in (1, 2):
            assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)

    def test_orthogonal_fidelity(self):
        assert fidelity(bell_state("phi+"), bell_state("phi-")) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            bell_state("omega+")

    @pytest.mark.parametrize("label", [5, None, b"phi+"])
    def test_non_string_label(self, label):
        with pytest.raises(UnknownLabel):
            bell_state(label)


class TestConcurrence:
    def test_product_state_is_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
            assert concurrence(rho) < 1e-8

    def test_werner_eigenvalue_vs_closed_form(self):
        # closed form max(0, (3p-1)/2) cross-checks the eigenvalue route
        for p in (0.2, 1 / 3, 0.5, 0.75, 0.9, 1.0):
            expected = max(0.0, (3 * p - 1) / 2)
            assert abs(concurrence(werner_state(p)) - expected) < 1e-10

    def test_werner_09(self):
        assert abs(concurrence(werner_state(0.9)) - 0.85) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    def test_pure_state_det_marginal_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_pure_state(rng, 4)
            assert abs(concurrence(rho)
                       - pure_state_concurrence_from_marginal(rho)) < 1e-10

    def test_invalid_state_raises(self):
        with pytest.raises(InvalidState):
            concurrence(np.diag([1.0, 1.0, 0.0, 0.0]))  # trace 2
        with pytest.raises(InvalidState):
            concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue


class TestSqrtPsd:
    def test_sqrt_identity(self):
        assert np.allclose(_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_tiny_negative_clipped(self):
        out = _sqrt_psd(np.diag([1.0, -1e-11]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_square_is_rho(self):
        rng = np.random.default_rng(43)
        for rank in (1, 2, 3, 4) * 5:
            rho = random_density_matrix(rng, 4, rank)
            root = _sqrt_psd(rho)
            assert np.linalg.norm(root @ root - rho) < 1e-12
            assert np.linalg.norm(root - root.conj().T) < 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(rng, 4)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert abs(fidelity(rho, np.eye(2) / 2) - 0.5) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_against_scipy_sqrtm_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            sq = scipy.linalg.sqrtm(a)
            inner = scipy.linalg.sqrtm(sq @ b @ sq)
            expected = float(np.real(np.trace(inner))) ** 2
            assert abs(fidelity(a, b) - expected) < 1e-10

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            if np.linalg.norm(a - b) < 1e-8:
                assert abs(fidelity(a, b) - 1) < 1e-8
            else:
                assert fidelity(a, b) < 1 - 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fidelity(np.eye(2) / 2, np.eye(4) / 4)


class TestChshMax:
    def test_phi_plus_tsirelson(self):
        assert abs(chsh_max(bell_state("phi+")) - 2 * RT2) < 1e-12

    def test_maximally_mixed(self):
        assert chsh_max(np.eye(4) / 4) < 1e-12

    def test_werner_grid_search_oracle(self):
        # brute-force CHSH maximization: for fixed (b, b') the optimal a, a'
        # give |T(b-b')| + |T(b+b')|; scan (b, b') over sphere grids
        p = 0.8
        rho = werner_state(p)
        t = pauli_correlations(rho)
        theta = np.linspace(0, np.pi, 25)
        phi = np.linspace(0, 2 * np.pi, 49, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                         np.cos(tt)], axis=-1).reshape(-1, 3)
        tb = dirs @ t.T
        best = 0.0
        for i in range(len(dirs)):
            diff = np.linalg.norm(tb[i] - tb, axis=1)
            summ = np.linalg.norm(tb[i] + tb, axis=1)
            best = max(best, float(np.max(diff + summ)))
        horodecki = chsh_max(rho)
        assert abs(horodecki - 2 * RT2 * p) < 1e-9
        assert best <= horodecki + 1e-9
        assert best > horodecki - 0.02  # grid-resolution slack

    def test_bounded_by_concurrence_relation(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            rho = random_density_matrix(rng, 4)
            c = concurrence(rho)
            assert chsh_max(rho) <= 2 * np.sqrt(1 + c ** 2) + 1e-9


class TestPurityAndCorrelations:
    def test_purity_maximally_mixed(self):
        assert abs(purity(np.eye(2) / 2) - 0.5) < 1e-12

    def test_purity_pure(self):
        rng = np.random.default_rng(31)
        assert abs(purity(random_pure_state(rng, 4)) - 1.0) < 1e-12

    def test_purity_range(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            assert 0.25 - 1e-12 <= purity(rho) <= 1 + 1e-12

    def test_tmatrix_phi_plus(self):
        t = pauli_correlations(bell_state("phi+"))
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_tmatrix_entries_bounded(self):
        rng = np.random.default_rng(41)
        t = pauli_correlations(random_density_matrix(rng, 4))
        assert np.all(np.abs(t) <= 1 + 1e-10)

    def test_tmatrix_matches_explicit_trace_loop(self):
        rng = np.random.default_rng(43)
        paulis = (SX, SY, SZ)
        for rank in (1, 2, 4):
            rho = random_density_matrix(rng, 4, rank=rank)
            ref = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in paulis]
                            for si in paulis])
            assert np.max(np.abs(pauli_correlations(rho) - ref)) <= 1e-14


class TestBornProbabilities:
    def test_matches_per_ket_expectation(self):
        rng = np.random.default_rng(47)
        rho = random_density_matrix(rng, 4)
        kets = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
        p = born_probabilities(rho, kets)
        assert p.shape == (3, 5)
        ref = np.array([[np.real(k.conj() @ rho @ k) for k in row] for row in kets])
        assert np.max(np.abs(p - ref)) <= 1e-14

    def test_negative_expectation_is_clipped(self):
        # rho is not validated by the kernel; a negative diagonal gives 0
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        p = born_probabilities(rho, np.eye(4, dtype=complex))
        assert p.tolist() == [1.5, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("mean_pairs", [1e30, np.inf, np.nan, 2 * MAX_MEAN_PAIRS])
    def test_mean_pairs_out_of_range(self, mean_pairs):
        with pytest.raises(OutOfRange):
            check_mean_pairs(mean_pairs)

    def test_mean_pairs_cap_is_accepted(self):
        assert check_mean_pairs(MAX_MEAN_PAIRS) == MAX_MEAN_PAIRS


class TestNoKronOnHotPath:
    def test_kernels_run_without_kron(self, monkeypatch):
        # module constants are built at import; no call may build a ket or
        # an operator with kron
        rho = werner_state(0.9)
        spec = ChannelSpec(a=drive_from_theta(np.deg2rad(22.5)), kt=0.3)

        def no_kron(*args, **kwargs):
            raise AssertionError("kron called on a per-call path")

        monkeypatch.setattr(np, "kron", no_kron)
        phis = np.deg2rad([0.0, 22.5, 45.0])
        chsh_sweep(rho, phis)
        chsh_sweep(rho, phis, mean_pairs=1e3, seed=1)
        records = simulate_counts(rho, projector_set(36), 1e4, seed=2)
        mle_reconstruct(records)
        one_sided_apply(rho, spec)
        chsh_max(rho)


class TestNoRepeatedSetupOnHotPath:
    def test_channel_kernels_reuse_the_drive_svd(self, monkeypatch):
        # the drive is decomposed once, when the spec is built
        rho = werner_state(0.9)
        spec = ChannelSpec(a=drive_from_theta(np.deg2rad(22.5)), kt=0.3)

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called after the ChannelSpec was built")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        kraus_from_drive(spec)
        mode_transfer(spec)
        choi_concurrence_closed(spec)
        one_sided_apply(rho, spec)

    def test_second_mle_on_a_projector_set_builds_no_tables(self, monkeypatch):
        records = simulate_counts(werner_state(0.9), projector_set(36), 1e4, seed=2)
        mle_reconstruct(records)
        hits, misses = _pinv.cache_info().hits, _pinv.cache_info().misses

        def no_svd(*args, **kwargs):
            raise AssertionError("design matrix decomposed again")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        mle_reconstruct(records)
        assert _pinv.cache_info().misses == misses
        assert _pinv.cache_info().hits > hits


def reference_assert_density_matrix(rho, dim=None):
    """The validation rules of ``assert_density_matrix`` written out with
    array operations only, every check over the whole array in turn."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidState(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise InvalidState(f"expected dimension {dim}, got {rho.shape[-1]}")
    if not np.isfinite(rho).all():
        raise InvalidState("density matrix has non-finite entries")
    rho_dag = np.swapaxes(rho.conj(), -1, -2)
    if np.abs(rho - rho_dag).max(initial=0.0) > 1e-10:
        raise InvalidState("density matrix is not Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = (np.abs(tr.real - 1.0) > 1e-10) | (np.abs(tr.imag) > 1e-10)
    if bad.any():
        raise InvalidState(f"trace is {np.ravel(tr)[np.argmax(bad)]}, expected 1")
    w = np.linalg.eigvalsh((rho + rho_dag) / 2)[..., 0].min(initial=0.0)
    if w < -1e-10:
        raise InvalidState(f"density matrix has eigenvalue {w} < -1e-10")
    return rho


def _with(rho, index, value):
    rho = rho.copy()
    rho[index] = value
    return rho


_W = werner_state(0.9)
# one faulty matrix for each check and non-finite entry
_FAULTY = {
    "nan-diagonal": _with(_W, (1, 1), np.nan),
    "nan-off-diagonal": _with(_W, (0, 3), np.nan),
    "nan-imaginary": _with(_W, (2, 1), complex(0.0, np.nan)),
    "inf-diagonal": _with(_W, (2, 2), np.inf),
    "minus-inf-diagonal": _with(_W, (0, 0), -np.inf),
    "inf-off-diagonal": _with(_with(_W, (0, 3), np.inf), (3, 0), np.inf),
    "minus-inf-off-diagonal": _with(_W, (1, 2), -np.inf),
    "non-hermitian": _with(_W, (0, 1), 1e-3),
    "trace-real": 1.2 * _W,
    # each diagonal entry within the Hermiticity tolerance, their sum beyond it
    "trace-imaginary": _W + 0.4e-10j * np.eye(4),
    "trace-small": 0.5 * _W,
    "negative-eigenvalue": np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex),
}


class TestValidationMatchesReference:
    @pytest.mark.parametrize("name", sorted(_FAULTY))
    def test_same_error_on_a_matrix_and_a_stack(self, name):
        rho = _FAULTY[name]
        good = np.array([_W, bell_state("psi-")])
        for arg in (rho, np.array([good[0], rho, good[1]]), np.array([[rho], [good[0]]])):
            with pytest.raises(InvalidState) as expected:
                reference_assert_density_matrix(arg, dim=4)
            for _ in range(2):  # a failing matrix is not remembered
                with pytest.raises(InvalidState) as got:
                    assert_density_matrix(arg, dim=4)
                assert type(got.value) is type(expected.value)
                assert str(got.value) == str(expected.value)

    def test_same_result_on_valid_and_empty_input(self):
        rng = np.random.default_rng(12)
        stack = np.array([random_density_matrix(rng, 4, rank=r) for r in (1, 2, 4)])
        for arg in (stack[0], stack, np.zeros((0, 4, 4)), np.zeros((2, 0, 4, 4))):
            assert np.array_equal(assert_density_matrix(arg, dim=4),
                                  reference_assert_density_matrix(arg, dim=4))

    def test_rounding_noise_passes_as_before(self):
        # a trace or a negative eigenvalue just inside the tolerance passes
        # on one matrix and in a stack alike
        inside = np.diag([0.5 + 0.9e-10, 0.5, 0.0, -0.9e-10]).astype(complex)
        for arg in (inside, inside[None]):
            assert np.array_equal(assert_density_matrix(arg, dim=4),
                                  reference_assert_density_matrix(arg, dim=4))


class TestValidation:
    def test_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidState):
            assert_density_matrix(bad)

    def test_wrong_dim(self):
        with pytest.raises(InvalidState):
            assert_density_matrix(np.eye(2) / 2, dim=4)
        with pytest.raises(InvalidState):
            assert_density_matrix(np.array([np.eye(2) / 2] * 3), dim=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, bad):
        rho = bell_state("phi+")
        rho[0, 3] = rho[3, 0] = bad
        with pytest.raises(InvalidState, match="non-finite"):
            assert_density_matrix(rho)
        with pytest.raises(InvalidState, match="non-finite"):
            concurrence(rho)
        with pytest.raises(InvalidState, match="non-finite"):
            chsh_sweep(rho, [0.0])

    @pytest.mark.parametrize("rho", ["abc", [["a", "b"], ["c", "d"]], {"rho": 1}])
    def test_non_numeric_input(self, rho):
        with pytest.raises(InvalidState):
            concurrence(rho)

    def test_single_matrix_messages(self):
        cases = [(np.diag([0.6, 0.6]), "trace is (1.2+0j), expected 1"),
                 (np.diag([1.2, -0.2]), "density matrix has eigenvalue -0.2 < -1e-10"),
                 (np.ones(4) / 4, "density matrix must be square, got shape (4,)")]
        for rho, message in cases:
            with pytest.raises(InvalidState) as err:
                assert_density_matrix(rho)
            assert str(err.value) == message


class TestRememberedChecks:
    def test_repeated_bytes_are_checked_once(self, monkeypatch):
        rho = werner_state(0.9)
        assert_density_matrix(rho, dim=4)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("checked again")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        hits = _check_4x4.cache_info().hits
        for arg in (rho, rho.copy(), rho.tolist()):
            assert_density_matrix(arg, dim=4)
        assert _check_4x4.cache_info().hits == hits + 3

    def test_the_callers_complex_array_is_returned(self):
        rho = werner_state(0.9)
        for _ in range(2):
            assert assert_density_matrix(rho, dim=4) is rho
        stack = np.array([rho, rho])
        assert assert_density_matrix(stack, dim=4) is stack

    @pytest.mark.parametrize("index,value,match", [((0, 1), 1e-3, "not Hermitian"),
                                                   ((2, 2), np.nan, "non-finite")])
    def test_a_passed_matrix_edited_in_place_raises(self, index, value, match):
        rho = werner_state(0.9)
        assert_density_matrix(rho, dim=4)
        rho[index] += value
        with pytest.raises(InvalidState) as expected:
            reference_assert_density_matrix(rho, dim=4)
        with pytest.raises(InvalidState, match=match) as got:
            assert_density_matrix(rho, dim=4)
        assert str(got.value) == str(expected.value)

    def test_a_stack_with_a_passed_matrix_and_a_bad_one_raises(self):
        assert_density_matrix(_W, dim=4)
        with pytest.raises(InvalidState, match="not Hermitian"):
            assert_density_matrix(np.array([_W, _FAULTY["non-hermitian"]]), dim=4)


def _non_hermitian(rho):
    rho[0, 1] += 1e-3
    return rho


# each turns a valid matrix into one that fails a different check
SPOILERS = pytest.mark.parametrize("spoil, match", [
    (_non_hermitian, "not Hermitian"),
    (lambda rho: 1.1 * rho, "trace"),
    (lambda rho: np.diag([0.7, 0.4, 0.0, -0.1]), "eigenvalue"),
    (lambda rho: np.full_like(rho, np.nan), "non-finite"),
], ids=["non_hermitian", "wrong_trace", "negative", "non_finite"])


class TestStackValidation:
    def test_valid_stack_equals_matrix_loop(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_density_matrix(rng, 4, rank=r) for r in (1, 2, 4, 4, 3, 4)])
        loop = np.array([assert_density_matrix(rho, dim=4) for rho in stack])
        assert np.array_equal(assert_density_matrix(stack, dim=4), loop)
        grid = stack.reshape(2, 3, 4, 4)
        assert np.array_equal(assert_density_matrix(grid, dim=4), grid)
        assert assert_density_matrix(np.zeros((0, 4, 4)), dim=4).shape == (0, 4, 4)

    @SPOILERS
    def test_one_bad_matrix_fails_the_stack(self, spoil, match):
        rng = np.random.default_rng(6)
        stack = np.array([random_density_matrix(rng, 4) for _ in range(5)])
        bad = spoil(stack[3].copy())
        with pytest.raises(InvalidState, match=match) as alone:
            assert_density_matrix(bad)
        stack[3] = bad
        with pytest.raises(type(alone.value), match=match):
            assert_density_matrix(stack)

    def test_single_matrix_kernels_reject_stacks(self):
        rho = werner_state(0.9)
        spec = ChannelSpec(a=drive_from_theta(np.deg2rad(22.5)), kt=0.3)
        kernels = [lambda r: fidelity(r, rho), lambda r: fidelity(rho, r),
                   lambda r: chsh_sweep(r, [0.0]),
                   lambda r: one_sided_apply(r, spec),
                   lambda r: simulate_counts(r, projector_set(16), 1e3, seed=1)]
        for n in (1, 3):
            for kernel in kernels:
                with pytest.raises(InvalidState, match=r"^expects one density matrix, "
                                                       rf"got a stack of shape \({n}, 4, 4\)$"):
                    kernel(np.array([rho] * n))


STACK_KERNELS = [concurrence, purity, pauli_correlations, chsh_max]


def _resample_stack(settings, seed):
    """A 100-row Monte-Carlo resample stack of Werner-state counts."""
    records = simulate_counts(werner_state(0.9), projector_set(settings), 1e4, seed=seed)
    kets, observed = _arrays(records)
    return _resampled_mle(kets.tobytes(), observed.tobytes(), 100, 11)


class TestStackedKernels:
    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    def test_stack_equals_matrix_loop(self, kernel):
        rng = np.random.default_rng(8)
        stacks = [np.array([random_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
                            for _ in range(n)]) for n in (1, 3, 25, 100)]
        stacks += [_resample_stack(36, 43), _resample_stack(16, 3)]
        for stack in stacks:
            values = kernel(stack)
            assert np.array_equal(values, np.array([kernel(rho) for rho in stack]))
            assert values.shape == (len(stack),) + np.shape(kernel(stack[0]))

    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    def test_one_matrix_gives_a_float_or_a_3x3_array(self, kernel):
        value = kernel(werner_state(0.9))
        if kernel is pauli_correlations:
            assert value.shape == (3, 3)
        else:
            assert type(value) is float

    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    def test_leading_shape_is_kept(self, kernel):
        rng = np.random.default_rng(9)
        grid = np.array([random_density_matrix(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        values = kernel(grid)
        assert np.array_equal(values.reshape((6,) + values.shape[2:]),
                              kernel(grid.reshape(6, 4, 4)))
        one = np.shape(kernel(grid[0, 0]))  # () or (3, 3)
        assert values.shape == (2, 3) + one
        assert kernel(np.zeros((0, 4, 4))).shape == (0,) + one

    @pytest.mark.parametrize("kernel", STACK_KERNELS)
    @SPOILERS
    def test_one_bad_matrix_fails_the_stack_as_alone(self, kernel, spoil, match):
        rng = np.random.default_rng(6)
        stack = np.array([random_density_matrix(rng, 4) for _ in range(5)])
        bad = spoil(stack[3].copy())
        with pytest.raises(InvalidState, match=match) as alone:
            kernel(bad)
        stack[3] = bad
        with pytest.raises(type(alone.value)) as err:
            kernel(stack)
        assert str(err.value) == str(alone.value)


from qfcsim.errors import InvalidSeed, QfcError
from qfcsim.states import check_seed
from qfcsim.tomography import monte_carlo_metric

# the three seeded entry points, each called with a seed s
SEEDED = {
    "simulate_counts": lambda s: [r.counts for r in simulate_counts(
        werner_state(0.9), projector_set(16), 1e3, s)],
    "chsh_sweep": lambda s: chsh_sweep(werner_state(0.9), [0.0, 0.4], mean_pairs=1e3,
                                       seed=s),
    "monte_carlo_metric": lambda s: monte_carlo_metric(
        simulate_counts(werner_state(0.9), projector_set(16), 1e3, 1), purity, 4, s),
}


class TestSeed:
    @pytest.mark.parametrize("seed, expected", [
        (7, 7), (np.int64(7), 7), (np.uint32(2 ** 32 - 1), 2 ** 32 - 1), (0, 0),
        ([7, 2], (7, 2)), ((np.int32(7), 2), (7, 2)), (np.array([7, 2]), (7, 2))])
    def test_accepted_seeds(self, seed, expected):
        got = check_seed(seed)
        assert got == expected
        assert all(type(w) is int for w in (got if isinstance(got, tuple) else (got,)))

    @pytest.mark.parametrize("seed, error", [
        (-1, OutOfRange), ([3, -1], OutOfRange), ([], OutOfRange),
        (1.5, InvalidSeed), (2.0, InvalidSeed), (np.float64(3.0), InvalidSeed),
        (True, InvalidSeed), (np.True_, InvalidSeed), ([1, False], InvalidSeed),
        ("7", InvalidSeed), ([[1, 2]], InvalidSeed),
        (np.zeros((2, 2), dtype=int), InvalidSeed)])
    @pytest.mark.parametrize("caller", sorted(SEEDED))
    def test_rejected_seeds_raise_one_line_errors(self, caller, seed, error):
        with pytest.raises(error) as err:
            SEEDED[caller](seed)
        assert isinstance(err.value, QfcError)
        assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize("caller", sorted(SEEDED))
    def test_no_seed_is_rejected_by_every_sampler(self, caller):
        with pytest.raises(InvalidSeed, match="got None$"):
            SEEDED[caller](None)

    def test_exact_chsh_sweep_ignores_the_seed(self):
        rho, phis = werner_state(0.9), [0.0, 0.4]
        assert chsh_sweep(rho, phis) == chsh_sweep(rho, phis, seed=None) == \
            chsh_sweep(rho, phis, seed=3)

    @pytest.mark.parametrize("caller", sorted(SEEDED))
    def test_numpy_integer_and_sequence_seeds(self, caller):
        call = SEEDED[caller]
        assert call(np.int64(5)) == call(5)
        assert call(np.array([5, 3])) == call([5, 3]) == call((5, 3))
        assert call([5, 3]) != call(5)

    def test_sequence_seed_is_the_flattened_generator_seed(self):
        rho, settings = werner_state(0.9), projector_set(16)
        records = simulate_counts(rho, settings, 1e3, [5, 3])
        probs = born_probabilities(rho, np.array([s.ket for s in settings]).reshape(-1, 4))
        expected = np.random.default_rng([5, 3]).poisson(1e3 * probs)
        assert [r.counts for r in records] == expected.tolist()


class TestWernerStateArguments:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf"), "x", None,
                                   [0.5], 1j, 10 ** 400])
    def test_rejects_non_finite_and_non_real(self, p):
        with pytest.raises(OutOfRange) as err:
            werner_state(p)
        assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize("p", [0.9, np.float64(0.9), 1, np.int64(0)])
    def test_real_numbers_give_the_same_matrix_as_floats(self, p):
        expected = float(p) * bell_state("phi+") + (1 - float(p)) * np.eye(4) / 4
        assert werner_state(p).tobytes() == expected.astype(complex).tobytes()
