"""Library calls that must raise a one-line QfcError for malformed arguments."""

import functools
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfcsim.bell import chsh_polynomial, chsh_sweep, rotation_r
from qfcsim.channel import (ChannelSpec, converted_marginal_is_mixed, drive_singular_values,
                            mode_transfer)
from qfcsim.drive import (check_drive, coherence_matrix, drive_concurrence, drive_from_theta,
                          qwp_jones, vwp_transform)
from qfcsim.errors import (InvalidState, NoConvergence, NotInformationallyComplete,
                           NotNormalized, OutOfRange, QfcError, ShapeMismatch, UnknownLabel)
from qfcsim.linalg import partial_trace, svd
from qfcsim.spectral import (INTERACTIONS, LITHIUM_NIOBATE, CrystalSpec, GridSpec, JSAGrid,
                             PumpSpec, SchmidtDecomposition, SpectralDensity, compute_jsa,
                             estimate_efficiency, hg_mode_probabilities, jsa_from_binary,
                             jsa_to_binary, phase_mismatch, pump_overlap, reduced_density,
                             refractive_index, schmidt, temporal_intensity)
from qfcsim.states import (MAX_MEAN_PAIRS, bell_state, check_mean_pairs, check_seed, purity,
                           werner_state)
from qfcsim.tomography import (MAX_MC_SAMPLES, CountRecord, MeasurementSetting,
                               mle_reconstruct, monte_carlo_metric, projector_set,
                               records_from_csv, simulate_counts)

DRIVE = np.eye(2, dtype=complex) / np.sqrt(2)
CRYSTAL = CrystalSpec(length_mm=10.0, poling_period_um=20.3, temperature_c=25.5,
                      interaction="type1_ooe")
# a flat 64-point spectrum; the duration check comes before any grid check
SPECTRUM = SpectralDensity(axis=2.4e15 + 1e12 * np.arange(-32, 32), mat=np.eye(64) / 64)


PUMP = PumpSpec(center_wavelength_nm=780.0, duration_fs=220.0)
HUGE = 10 ** 400  # an int beyond the float range
LONG = 10 ** 5000  # an int whose str exceeds Python's 4300-digit limit
T_S = np.linspace(-2e-12, 2e-12, 101)


@functools.lru_cache(maxsize=None)
def _warped_type1_density():
    """The idler density of configs/fig_s2_type1.json on its axis remapped as
    t -> t + 0.2 t (1 - t), t in [0, 1] across the span: same ends, unequal steps."""
    rho = reduced_density(compute_jsa(PUMP, CRYSTAL, 12.0, GridSpec(512, 80.0)), "idler")
    lo, span = rho.axis[0], rho.axis[-1] - rho.axis[0]
    t = (rho.axis - lo) / span
    return SpectralDensity(axis=lo + span * (t + 0.2 * t * (1 - t)), mat=rho.mat)


def _spectrum_of(points):
    return SpectralDensity(axis=SPECTRUM.axis[:points], mat=np.eye(points) / max(points, 1))


def _counts_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text(text)
        return records_from_csv(path)


def _counts_csv_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(data)
        return records_from_csv(path)


def _jsa_binary(keep):
    """Read back the first ``keep`` fraction of the bytes of a 3x4 ``jsa.bin``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "jsa.bin"
        jsa_to_binary(JSAGrid(np.arange(3.0), np.arange(4.0), np.ones((3, 4))), path)
        data = path.read_bytes()
    return _jsa_binary_of(data[:int(len(data) * keep)])


def _jsa_binary_of(data):
    """Read a ``jsa.bin`` that holds the bytes ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "jsa.bin"
        path.write_bytes(data)
        return jsa_from_binary(path)


def _counts_with_pairs(mean_pairs):
    return simulate_counts(werner_state(0.9), projector_set(16), mean_pairs, seed=1)


def _metric_with_samples(n_samples):
    records = simulate_counts(werner_state(0.9), projector_set(16), 1e3, seed=1)
    return monte_carlo_metric(records, purity, n_samples, seed=2)


def _jsa_with(crystal=CRYSTAL, filter_fwhm_nm=12.0, grid=(128, 80.0)):
    return compute_jsa(PUMP, crystal, filter_fwhm_nm, GridSpec(*grid))


def _records_from_line(line):
    """Read a counts CSV whose second record is ``line``."""
    return _counts_csv(f"proj_a_spec,proj_b_spec,counts,integration_time_s\nH,H,3,1.0\n{line}\n")


ESCAPES = {
    "drive_singular_values-nan": (lambda: drive_singular_values(float("nan")), OutOfRange),
    "drive_singular_values-inf": (lambda: drive_singular_values(float("inf")), OutOfRange),
    "drive_singular_values-str": (lambda: drive_singular_values("x"), OutOfRange),
    "drive_singular_values-None": (lambda: drive_singular_values(None), OutOfRange),
    "ChannelSpec-kt-str": (lambda: ChannelSpec(a=DRIVE, kt="x"), OutOfRange),
    "ChannelSpec-kt-None": (lambda: ChannelSpec(a=DRIVE, kt=None), OutOfRange),
    "ChannelSpec-kt-array": (lambda: ChannelSpec(a=DRIVE, kt=np.zeros(300)), OutOfRange),
    "check_drive-str": (lambda: check_drive("abc"), NotNormalized),
    "coherence_matrix-str": (lambda: coherence_matrix("abc"), NotNormalized),
    "drive_concurrence-str": (lambda: drive_concurrence("abc"), NotNormalized),
    "ChannelSpec-a-str": (lambda: ChannelSpec(a="abc", kt=0.5), NotNormalized),
    "vwp_transform-str": (lambda: vwp_transform("ab"), NotNormalized),
    "vwp_transform-three": (lambda: vwp_transform([1.0, 0.0, 0.0]), NotNormalized),
    "converted_marginal_is_mixed-str": (lambda: converted_marginal_is_mixed("abc"),
                                        InvalidState),
    "converted_marginal_is_mixed-nan": (
        lambda: converted_marginal_is_mixed(np.full((4, 4), np.nan)), InvalidState),
    "converted_marginal_is_mixed-tol-nan": (
        lambda: converted_marginal_is_mixed(werner_state(0.9), tol=float("nan")), OutOfRange),
    "monte_carlo_metric-float": (lambda: _metric_with_samples(2.5), InvalidState),
    "monte_carlo_metric-str": (lambda: _metric_with_samples("3"), InvalidState),
    "records_from_csv-counts": (lambda: _records_from_line("H,H,abc,1.0"), InvalidState),
    "records_from_csv-vector": (lambda: _records_from_line("1+0j;x,H,3,1.0"), InvalidState),
    "MeasurementSetting-three": (lambda: MeasurementSetting([1, 0, 0], [1, 0]), NotNormalized),
    "MeasurementSetting-str": (lambda: MeasurementSetting("ab", [1, 0]), NotNormalized),
    "hg_mode_probabilities-nan": (lambda: hg_mode_probabilities(SPECTRUM, float("nan"), 3),
                                  OutOfRange),
    "refractive_index-nan": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], float("nan"), 25.0), OutOfRange),
    "phase_mismatch-nan": (lambda: phase_mismatch(CRYSTAL, float("nan"), 1e15), OutOfRange),
    "purity-overflow": (lambda: purity([[HUGE, 0], [0, 0]]), InvalidState),
    "vwp_transform-overflow": (lambda: vwp_transform([HUGE, 0]), NotNormalized),
    "check_drive-overflow": (lambda: check_drive([[HUGE, 0], [0, 0]]), NotNormalized),
    "MeasurementSetting-overflow": (lambda: MeasurementSetting([HUGE, 0], [1, 0]),
                                    NotNormalized),
    "vwp_transform-column": (lambda: vwp_transform([[1.0], [0.0]]), NotNormalized),
    "vwp_transform-row": (lambda: vwp_transform([[1.0, 0.0]]), NotNormalized),
    "MeasurementSetting-column": (lambda: MeasurementSetting([1, 0], [[1], [0]]), NotNormalized),
    "MeasurementSetting-row": (lambda: MeasurementSetting([[1, 0]], [1, 0]), NotNormalized),
    "MeasurementSetting.from_names-unknown": (
        lambda: MeasurementSetting.from_names("X", "H"), UnknownLabel),
    "MeasurementSetting.from_names-lowercase": (
        lambda: MeasurementSetting.from_names("H", "v"), UnknownLabel),
    "MeasurementSetting.from_names-None": (
        lambda: MeasurementSetting.from_names(None, "H"), UnknownLabel),
    "MeasurementSetting.from_names-list": (
        lambda: MeasurementSetting.from_names(["H"], "H"), UnknownLabel),
    "hg_mode_probabilities-warped-axis": (
        lambda: hg_mode_probabilities(_warped_type1_density(), 220.0, 10), OutOfRange),
    "pump_overlap-warped-axis": (lambda: pump_overlap(_warped_type1_density(), PUMP),
                                 OutOfRange),
    "hg_mode_probabilities-1-point": (lambda: hg_mode_probabilities(_spectrum_of(1), 220.0, 1),
                                      OutOfRange),
    "hg_mode_probabilities-0-points": (
        lambda: hg_mode_probabilities(_spectrum_of(0), 220.0, 1), OutOfRange),
    "temporal_intensity-1-point": (lambda: temporal_intensity(_spectrum_of(1), T_S),
                                   OutOfRange),
    "temporal_intensity-0-points": (lambda: temporal_intensity(_spectrum_of(0), T_S),
                                    OutOfRange),
    "simulate_counts-pairs-str": (lambda: _counts_with_pairs("abc"), OutOfRange),
    "simulate_counts-pairs-list": (lambda: _counts_with_pairs([1e3]), OutOfRange),
    "simulate_counts-pairs-complex": (lambda: _counts_with_pairs(1e3 + 0j), OutOfRange),
    "simulate_counts-pairs-overflow": (lambda: _counts_with_pairs(HUGE), OutOfRange),
    "simulate_counts-pairs-None": (lambda: _counts_with_pairs(None), OutOfRange),
    "chsh_sweep-pairs-str": (lambda: chsh_sweep(werner_state(0.9), [0.0], "abc", 1),
                             OutOfRange),
    "chsh_sweep-pairs-list": (lambda: chsh_sweep(werner_state(0.9), [0.0], [1e3], 1),
                              OutOfRange),
    "chsh_sweep-pairs-complex": (lambda: chsh_sweep(werner_state(0.9), [0.0], 1e3 + 0j, 1),
                                 OutOfRange),
    "chsh_sweep-pairs-overflow": (lambda: chsh_sweep(werner_state(0.9), [0.0], HUGE, 1),
                                  OutOfRange),
    "records_from_csv-other-header": (
        lambda: _counts_csv("a,b,counts,integration_time_s\nH,H,3,1.0\n"), InvalidState),
    "records_from_csv-no-counts": (
        lambda: _counts_csv("proj_a_spec,proj_b_spec,integration_time_s\nH,H,1.0\n"),
        InvalidState),
    "records_from_csv-empty-file": (lambda: _counts_csv(""), InvalidState),
    "records_from_csv-short-row": (
        lambda: _counts_csv("counts,integration_time_s,proj_a_spec,proj_b_spec\n3,1.0,H\n"),
        InvalidState),
    "jsa_from_binary-empty-file": (lambda: _jsa_binary(0.0), ShapeMismatch),
    "jsa_from_binary-half-length": (lambda: _jsa_binary(0.5), ShapeMismatch),
    "PumpSpec-wavelength-str": (lambda: PumpSpec("x", 1.0), OutOfRange),
    "PumpSpec-duration-overflow": (lambda: PumpSpec(780.0, HUGE), OutOfRange),
    "CrystalSpec-length-str": (lambda: CrystalSpec("x", 20.0, 25.0, "type0_eee"), OutOfRange),
    "compute_jsa-filter-str": (lambda: _jsa_with(filter_fwhm_nm="12"), OutOfRange),
    "compute_jsa-filter-overflow": (lambda: _jsa_with(filter_fwhm_nm=HUGE), OutOfRange),
    "compute_jsa-span-str": (lambda: _jsa_with(grid=(128, "80")), OutOfRange),
    "compute_jsa-length-overflow": (
        lambda: _jsa_with(crystal=CrystalSpec(HUGE, 20.3, 25.5, "type1_ooe")), OutOfRange),
    "estimate_efficiency-str": (lambda: estimate_efficiency("1", 1, 0.5, 0.5), OutOfRange),
    "estimate_efficiency-overflow": (lambda: estimate_efficiency(HUGE, 1, 0.5, 0.5),
                                     OutOfRange),
    "estimate_efficiency-ratio-overflow": (lambda: estimate_efficiency(1e308, 1e-308, 1, 1),
                                           OutOfRange),
    "hg_mode_probabilities-duration-str": (lambda: hg_mode_probabilities(SPECTRUM, "220", 3),
                                           OutOfRange),
    "hg_mode_probabilities-modes-float": (
        lambda: hg_mode_probabilities(SPECTRUM, 220.0, 2.5), OutOfRange),
    "hg_mode_probabilities-modes-overflow": (
        lambda: hg_mode_probabilities(SPECTRUM, 220.0, HUGE), OutOfRange),
    "hg_mode_probabilities-modes-uint64": (
        lambda: hg_mode_probabilities(SPECTRUM, 220.0, 2 ** 64), QfcError),
    "hg_mode_probabilities-modes-int64-max": (
        lambda: hg_mode_probabilities(SPECTRUM, 220.0, np.int64(np.iinfo(np.int64).max)),
        QfcError),
    "refractive_index-wavelength-str": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], "abc", 25.0), OutOfRange),
    "refractive_index-wavelength-overflow": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], HUGE, 25.0), OutOfRange),
    "phase_mismatch-str": (lambda: phase_mismatch(CRYSTAL, "abc", 1e15), OutOfRange),
    "phase_mismatch-overflow": (lambda: phase_mismatch(CRYSTAL, HUGE, 1e15), OutOfRange),
    "refractive_index-temperature-str": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], 1.5, "20"), OutOfRange),
    "GridSpec-points-float": (lambda: GridSpec(100.5, 80.0).axis(1560.0), OutOfRange),
    "GridSpec-points-negative": (lambda: GridSpec(-5, 80.0).axis(1560.0), OutOfRange),
    "GridSpec-points-overflow": (lambda: GridSpec(HUGE, 80.0).axis(1560.0), OutOfRange),
    "GridSpec-points-above-cap": (lambda: GridSpec(10 ** 12, 80.0).axis(1560.0), OutOfRange),
    "GridSpec-center-str": (lambda: GridSpec(128, 80.0).axis("1560"), OutOfRange),
    "temporal_intensity-str": (lambda: temporal_intensity(SPECTRUM, "abc"), OutOfRange),
    "werner_state-long-int": (lambda: werner_state(LONG), OutOfRange),
    "check_mean_pairs-long-int": (lambda: check_mean_pairs(LONG), OutOfRange),
    "drive_from_theta-str": (lambda: drive_from_theta("x"), OutOfRange),
    "drive_from_theta-nan": (lambda: drive_from_theta(float("nan")), OutOfRange),
    "drive_from_theta-inf": (lambda: drive_from_theta(float("inf")), OutOfRange),
    "drive_from_theta-None": (lambda: drive_from_theta(None), OutOfRange),
    "drive_from_theta-overflow": (lambda: drive_from_theta(HUGE), OutOfRange),
    "drive_from_theta-array": (lambda: drive_from_theta(np.zeros(3)), OutOfRange),
    "qwp_jones-str": (lambda: qwp_jones("x"), OutOfRange),
    "qwp_jones-nan": (lambda: qwp_jones(np.float64("nan")), OutOfRange),
    "chsh_polynomial-str": (lambda: chsh_polynomial("a", 1, 1, 1), OutOfRange),
    "chsh_polynomial-None": (lambda: chsh_polynomial(1, None, 1, 1), OutOfRange),
    "chsh_polynomial-nan": (lambda: chsh_polynomial(1, 1, float("nan"), 1), OutOfRange),
    "chsh_polynomial-overflow": (lambda: chsh_polynomial(1, 1, 1, HUGE), OutOfRange),
    "rotation_r-overflow": (lambda: rotation_r(HUGE), OutOfRange),
    "rotation_r-None": (lambda: rotation_r(None), OutOfRange),
    "rotation_r-numeric-str": (lambda: rotation_r("1.5"), OutOfRange),
    "rotation_r-None-entry": (lambda: rotation_r([0.0, None]), OutOfRange),
    "chsh_sweep-phi-numeric-str": (lambda: chsh_sweep(werner_state(0.9), ["0"]), OutOfRange),
    "refractive_index-wavelength-numeric-str": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], "1.5", 25.0), OutOfRange),
    "reduced_density-array": (
        lambda: reduced_density(JSAGrid(np.arange(3.0), np.arange(4.0), np.ones((3, 4))),
                                np.eye(3)), ShapeMismatch),
    "partial_trace-array": (lambda: partial_trace(werner_state(0.9), np.eye(3)), ShapeMismatch),
    "CrystalSpec-interaction-array": (lambda: CrystalSpec(10.0, 20.3, 25.5, np.eye(3)),
                                      OutOfRange),
    "bell_state-array": (lambda: bell_state(np.eye(3)), UnknownLabel),
    "projector_set-array": (lambda: projector_set(np.eye(3)), ShapeMismatch),
    "CountRecord-array": (lambda: CountRecord(projector_set(16)[0], np.eye(2)), InvalidState),
    "rotation_r-complex": (lambda: rotation_r(1j), OutOfRange),
    "mle_reconstruct-empty": (lambda: mle_reconstruct([]), NotInformationallyComplete),
    "CountRecord-negative": (lambda: CountRecord(projector_set(16)[0], -1), InvalidState),
    "werner_state-above-one": (lambda: werner_state(2.0), OutOfRange),
    "werner_state-below-minus-third": (lambda: werner_state(-0.5), OutOfRange),
    "records_from_csv-vector-length": (lambda: _records_from_line("H,1;0;0,5,1.0"),
                                       NotNormalized),
    "monte_carlo_metric-above-cap": (lambda: _metric_with_samples(MAX_MC_SAMPLES + 1),
                                     OutOfRange),
    "rotation_r-inf": (lambda: rotation_r([0.0, float("inf")]), OutOfRange),
    "chsh_sweep-phi-nan": (lambda: chsh_sweep(werner_state(0.9), [0.0, float("nan")]),
                           OutOfRange),
    "chsh_polynomial-inf": (lambda: chsh_polynomial(1, [0.5, -float("inf")], 1, 1), OutOfRange),
    "refractive_index-inf": (
        lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], float("inf"), 25.0), OutOfRange),
    "phase_mismatch-inf": (lambda: phase_mismatch(CRYSTAL, [float("inf")], [1.2e15]),
                           OutOfRange),
    "temporal_intensity-nan": (lambda: temporal_intensity(SPECTRUM, [0.0, float("nan"), 2e-15]),
                               OutOfRange),
    "svd-nan": (lambda: svd([[float("nan"), 0.0], [0.0, 1.0]]), InvalidState),
    "JSAGrid-amp-shape": (lambda: JSAGrid(np.arange(3.0), np.arange(4.0), np.ones((4, 3))),
                          ShapeMismatch),
    "JSAGrid-decreasing-axis": (
        lambda: JSAGrid(np.arange(3.0)[::-1], np.arange(4.0), np.ones((3, 4))), OutOfRange),
    "jsa_from_binary-negative-length": (
        lambda: _jsa_binary_of(np.array([-1, 4], dtype="<i4").tobytes()), ShapeMismatch),
    "schmidt-nan": (lambda: schmidt(JSAGrid(np.arange(64.0), np.arange(64.0),
                                            np.full((64, 64), np.nan))), NoConvergence),
    # numpy computes with a bool in float16: qwp_jones(True) was unitary to 3e-5 only
    "qwp_jones-bool": (lambda: qwp_jones(True), OutOfRange),
    "drive_from_theta-bool": (lambda: drive_from_theta(True), OutOfRange),
    "werner_state-bool": (lambda: werner_state(True), OutOfRange),
    "ChannelSpec-kt-bool": (lambda: ChannelSpec(a=DRIVE, kt=True), OutOfRange),
    "GridSpec-points-bool": (lambda: GridSpec(True, 80.0).axis(1560.0), OutOfRange),
    # a bool passes isinstance(x, int): True was a count of 1 and failed n_samples by value
    "CountRecord-counts-bool": (lambda: CountRecord(projector_set(16)[0], True), InvalidState),
    "monte_carlo_metric-n_samples-bool": (lambda: _metric_with_samples(True), InvalidState),
    # counts past 2**53 made monte_carlo_metric raise numpy's "lam value too
    # large" and mle_reconstruct an OverflowError
    "CountRecord-above-2**53": (lambda: CountRecord(projector_set(16)[0], 2 ** 53 + 1),
                                OutOfRange),
    "CountRecord-float-1e23": (lambda: CountRecord(projector_set(16)[0], 1e23), OutOfRange),
    "CountRecord-huge": (lambda: CountRecord(projector_set(16)[0], HUGE), OutOfRange),
    "CountRecord-long": (lambda: CountRecord(projector_set(16)[0], LONG), OutOfRange),
    "CountRecord-negative-long": (lambda: CountRecord(projector_set(16)[0], -LONG),
                                  InvalidState),
    "records_from_csv-negative-counts": (lambda: _records_from_line("H,V,-5,1.0"),
                                         InvalidState),
    "records_from_csv-huge-counts": (lambda: _records_from_line(f"H,V,{HUGE},1.0"),
                                     OutOfRange),
    # a byte that is not UTF-8 raised UnicodeDecodeError, a field past the csv
    # reader's 131072-character limit _csv.Error
    "records_from_csv-not-utf8": (
        lambda: _counts_csv_bytes(b"proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                                  b"H,H,3,1.0\nH,V,\xff5,1.0\n"), InvalidState),
    "records_from_csv-field-past-csv-limit": (
        lambda: _records_from_line("H,V," + "1" * 200000 + ",1.0"), InvalidState),
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_malformed_argument_raises_one_line_qfc_error(name):
    call, error = ESCAPES[name]
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, QfcError)
    assert len(str(err.value).splitlines()) == 1


@pytest.mark.parametrize("name", sorted(n for n in ESCAPES if n.endswith("-bool")))
def test_bool_is_named_as_str_prints_it(name):
    call, error = ESCAPES[name]
    with pytest.raises(error, match=r"got True( and 80\.0)?$"):
        call()


@pytest.mark.parametrize("value", [True, np.True_])
@pytest.mark.parametrize("call,message", [
    (lambda v: CountRecord(projector_set(16)[0], v), "counts must be a whole number, got True"),
    (_metric_with_samples, "n_samples must be an integer, got True"),
], ids=["counts", "n_samples"])
def test_a_bool_count_or_sample_size_gets_the_numpy_bool_message(call, message, value):
    with pytest.raises(InvalidState) as err:
        call(value)
    assert str(err.value) == message


def test_seed_beyond_the_float_range_is_valid():
    assert check_seed(LONG) == LONG


@pytest.mark.parametrize("n_samples,error", [(2.5, InvalidState),
                                             (MAX_MC_SAMPLES + 1, OutOfRange)])
def test_n_samples_is_checked_before_any_solve(monkeypatch, n_samples, error):
    import qfcsim.tomography as tomo_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a stack for a malformed n_samples")

    monkeypatch.setattr(tomo_mod, "_mle_stack", no_solve)
    with pytest.raises(error):
        _metric_with_samples(n_samples)


# a NaN or +-inf entry in each kind of array argument, by the rule linalg._real_array
NON_FINITE_ENTRY = {
    "rotation_r-angles": lambda x: rotation_r([0.0, x]),
    "chsh_sweep-angles": lambda x: chsh_sweep(werner_state(0.9), [0.0, x]),
    "chsh_polynomial-correlations": lambda x: chsh_polynomial(1, 1, [0.5, x], 1),
    "refractive_index-wavelengths": (
        lambda x: refractive_index(LITHIUM_NIOBATE["mgcln_e"], [1.5, x], 25.0)),
    "phase_mismatch-signal": lambda x: phase_mismatch(CRYSTAL, [1.2e15, x], 1.2e15),
    "phase_mismatch-idler": lambda x: phase_mismatch(CRYSTAL, 1.2e15, [x]),
    "temporal_intensity-time-points": lambda x: temporal_intensity(SPECTRUM, [0.0, x, 2e-15]),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", sorted(NON_FINITE_ENTRY))
def test_non_finite_array_entry_is_named_without_a_warning(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange) as err:
            NON_FINITE_ENTRY[name](value)
    assert re.fullmatch(rf"[a-z ]+ must be finite, got {value}", str(err.value))


@pytest.mark.parametrize("line,error", [
    ("H,H,abc,1.0", InvalidState),
    ("1+0j;x,H,3,1.0", InvalidState),
    ("H,1;0;0,5,1.0", NotNormalized),
    ("H,nan+0j;1+0j,5,1.0", NotNormalized),
    ("2;0,H,5,1.0", NotNormalized),
], ids=["counts", "vector-spec", "vector-length", "vector-nan", "vector-norm"])
def test_counts_csv_row_error_starts_with_its_line(line, error):
    with pytest.raises(error, match="^line 3: ") as err:
        _records_from_line(line)
    assert len(str(err.value).splitlines()) == 1


@pytest.mark.parametrize("call,message", [
    (lambda: projector_set("16"), "kind must be 16 or 36, got '16'"),
    (lambda: projector_set(17), "kind must be 16 or 36, got 17"),
    (lambda: partial_trace(np.eye(4), "2"), "keep must be 1 or 2, got '2'"),
    (lambda: partial_trace(np.eye(4), 3), "keep must be 1 or 2, got 3"),
], ids=["projector_set-str", "projector_set-int", "partial_trace-str", "partial_trace-int"])
def test_rejected_choice_is_quoted_when_a_string(call, message):
    with pytest.raises(ShapeMismatch) as err:
        call()
    assert str(err.value) == message


AXIS = np.linspace(1.0, 2.0, 4)


@pytest.mark.parametrize("make", [lambda: ChannelSpec(a=DRIVE, kt=0.5),
                                  lambda: mode_transfer(ChannelSpec(a=DRIVE, kt=0.5)),
                                  lambda: MeasurementSetting([1, 0], [0, 1]),
                                  lambda: JSAGrid(AXIS, AXIS, np.eye(4)),
                                  lambda: SchmidtDecomposition(np.full(4, 0.25)),
                                  lambda: SpectralDensity(AXIS, np.eye(4))],
                         ids=["ChannelSpec", "ModeTransfer", "MeasurementSetting", "JSAGrid",
                              "SchmidtDecomposition", "SpectralDensity"])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    x, y = make(), make()
    assert x == x
    assert x != y  # equal values; comparing their arrays would raise
    assert hash(x) == hash(x)
    assert len({x, y}) == 2


def test_finite_drive_concurrence_is_still_clamped():
    assert drive_singular_values(1.5) == drive_singular_values(1.0)
    assert drive_singular_values(-0.5) == drive_singular_values(0.0)


@pytest.mark.parametrize("column", ["proj_a_spec", "proj_b_spec", "counts",
                                    "integration_time_s"])
def test_missing_csv_column_is_named(column):
    header = ",".join(c for c in ("proj_a_spec", "proj_b_spec", "counts", "integration_time_s")
                      if c != column)
    with pytest.raises(InvalidState, match=f"no '{column}' column"):
        _counts_csv(f"{header}\nH,H,3\n")


@pytest.mark.parametrize("call", [
    lambda: werner_state(np.float64("nan")),
    lambda: drive_singular_values(np.float64("nan")),
    lambda: check_seed(np.float64(1.5)),
    lambda: _metric_with_samples(np.float64(2.5)),
    lambda: ChannelSpec(a=DRIVE, kt=np.float64(-1.0)),
    lambda: _counts_with_pairs(np.float64("nan")),
    lambda: drive_from_theta(np.float64("nan")),
])
def test_numpy_scalar_is_described_as_str_prints_it(call):
    with pytest.raises(QfcError) as err:
        call()
    assert "np." not in str(err.value)
    assert str(err.value).endswith(("got nan", "got 1.5", "got 2.5", "got -1.0"))


@pytest.mark.parametrize("call", [drive_from_theta, werner_state, bell_state, check_seed])
def test_a_long_string_is_cut_in_the_message(call):
    with pytest.raises(QfcError) as err:
        call("1" * 5000)
    assert f" {'1' * 100!r}... (5000 characters)" in str(err.value)
    assert len(str(err.value)) < 250


@pytest.mark.parametrize("call,shape,twice_unit", [
    (check_drive, (2, 2), [[2, 0], [0, 0]]),
    (vwp_transform, (2,), [2, 0]),
    (lambda v: MeasurementSetting(v, [1, 0]), (2,), [2, 0]),
])
def test_unit_norm_messages_share_one_wording(call, shape, twice_unit):
    with pytest.raises(NotNormalized, match="must be numeric, got str$"):
        call("ab")
    with pytest.raises(NotNormalized, match=rf"must have shape {re.escape(str(shape))}, "
                                            r"got \(3,\)$"):
        call(np.zeros(3))
    with pytest.raises(NotNormalized, match="has norm 2.0, expected 1$"):
        call(twice_unit)


# the numbers, strings and containers a caller might pass where one number or
# vector is expected
_ANY_SCALAR = st.one_of(
    st.floats(), st.integers(), st.complex_numbers(), st.text(max_size=3), st.none(),
    st.booleans(), st.sampled_from([HUGE, -HUGE, np.float64("nan"), np.int64(7)]))


@st.composite
def _vector_like(draw):
    """A nested list or array of a shape near (2,) or (2, 2), often of unit norm."""
    shape = draw(st.one_of(st.sampled_from([(2,), (2, 2)]),
                           st.sampled_from([(2, 1), (1, 2), (4,), (3,), (1,), (0,), ()])))
    size = int(np.prod(shape))
    values = draw(st.lists(st.one_of(st.floats(-10, 10), _ANY_SCALAR),
                           min_size=size, max_size=size))
    try:
        arr = np.asarray(values, dtype=complex).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        return draw(st.sampled_from([values, "ab", None]))
    norm = np.linalg.norm(arr)
    if draw(st.booleans()) and 0 < norm < np.inf:
        arr = arr / norm
    return draw(st.sampled_from([arr, arr.tolist()]))


def _is_unit_of_shape(x, shape):
    try:
        arr = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        return False
    return arr.shape == shape and abs(np.linalg.norm(arr) - 1.0) <= 1e-10


class TestContractFuzz:
    # a finite vector of norm beyond ~1e154 overflows in numpy's norm
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(x=_vector_like())
    def test_unit_norm_entry_points_accept_only_their_shape_at_unit_norm(self, x):
        for call, shape in ((check_drive, (2, 2)), (vwp_transform, (2,)),
                            (lambda v: MeasurementSetting(v, [1, 0]), (2,))):
            try:
                call(x)
            except NotNormalized as exc:
                assert len(str(exc).splitlines()) == 1
            else:
                assert _is_unit_of_shape(x, shape)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(x=st.one_of(_ANY_SCALAR, st.lists(st.floats(), max_size=2),
                       st.floats(min_value=1e-300, max_value=2 * MAX_MEAN_PAIRS)))
    def test_mean_pairs_is_a_bounded_positive_float_or_a_qfc_error(self, x):
        try:
            mean_pairs = check_mean_pairs(x)
        except (OutOfRange, InvalidState) as exc:
            assert len(str(exc).splitlines()) == 1
        else:
            assert type(mean_pairs) is float and 0 < mean_pairs <= MAX_MEAN_PAIRS

    # every scalar a caller might pass, and an int beyond the float range
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pump=st.tuples(_ANY_SCALAR, _ANY_SCALAR),
           crystal=st.tuples(_ANY_SCALAR, _ANY_SCALAR, _ANY_SCALAR,
                             st.one_of(st.sampled_from(INTERACTIONS), _ANY_SCALAR)),
           grid=st.tuples(_ANY_SCALAR, _ANY_SCALAR),
           rates=st.tuples(_ANY_SCALAR, _ANY_SCALAR, _ANY_SCALAR, _ANY_SCALAR))
    def test_spectral_scalars_are_accepted_or_raise_one_line_qfc_error(self, pump, crystal,
                                                                      grid, rates):
        def axis(points, span_nm):
            return GridSpec(points, span_nm).axis(1560.0)

        for call, args in ((PumpSpec, pump), (CrystalSpec, crystal), (axis, grid),
                           (estimate_efficiency, rates)):
            try:
                call(*args)
            except QfcError as exc:
                assert len(str(exc).splitlines()) == 1
