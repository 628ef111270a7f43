"""Library calls that must raise a one-line QfcError for malformed arguments."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from qfcsim.channel import ChannelSpec, converted_marginal_is_mixed, drive_singular_values
from qfcsim.drive import check_drive, coherence_matrix, drive_concurrence, vwp_transform
from qfcsim.errors import InvalidState, NotNormalized, OutOfRange, QfcError
from qfcsim.spectral import (LITHIUM_NIOBATE, CrystalSpec, SpectralDensity,
                             hg_mode_probabilities, phase_mismatch, refractive_index)
from qfcsim.states import purity, werner_state
from qfcsim.tomography import (MeasurementSetting, monte_carlo_metric, projector_set,
                               records_from_csv, simulate_counts)

DRIVE = np.eye(2, dtype=complex) / np.sqrt(2)
CRYSTAL = CrystalSpec(length_mm=10.0, poling_period_um=20.3, temperature_c=25.5,
                      interaction="type1_ooe")
# a flat 64-point spectrum; the duration check comes before any grid check
SPECTRUM = SpectralDensity(axis=2.4e15 + 1e12 * np.arange(-32, 32), mat=np.eye(64) / 64)


def _metric_with_samples(n_samples):
    records = simulate_counts(werner_state(0.9), projector_set(16), 1e3, seed=1)
    return monte_carlo_metric(records, purity, n_samples, seed=2)


def _records_from_line(line):
    """Read a counts CSV whose second record is ``line``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text("proj_a_spec,proj_b_spec,counts,integration_time_s\n"
                        f"H,H,3,1.0\n{line}\n")
        return records_from_csv(path)


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
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_malformed_argument_raises_one_line_qfc_error(name):
    call, error = ESCAPES[name]
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, QfcError)
    assert len(str(err.value).splitlines()) == 1


def test_n_samples_is_checked_before_any_solve(monkeypatch):
    import qfcsim.tomography as tomo_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a stack for a malformed n_samples")

    monkeypatch.setattr(tomo_mod, "_mle_stack", no_solve)
    with pytest.raises(InvalidState):
        _metric_with_samples(2.5)


def test_finite_drive_concurrence_is_still_clamped():
    assert drive_singular_values(1.5) == drive_singular_values(1.0)
    assert drive_singular_values(-0.5) == drive_singular_values(0.0)
