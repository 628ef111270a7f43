"""Library calls that must raise a one-line QfcError for malformed arguments."""

import numpy as np
import pytest

from qfcsim.channel import ChannelSpec, converted_marginal_is_mixed, drive_singular_values
from qfcsim.drive import check_drive, coherence_matrix, drive_concurrence, vwp_transform
from qfcsim.errors import InvalidState, NotNormalized, OutOfRange, QfcError
from qfcsim.states import purity, werner_state
from qfcsim.tomography import monte_carlo_metric, projector_set, simulate_counts

DRIVE = np.eye(2, dtype=complex) / np.sqrt(2)


def _metric_with_samples(n_samples):
    records = simulate_counts(werner_state(0.9), projector_set(16), 1e3, seed=1)
    return monte_carlo_metric(records, purity, n_samples, seed=2)


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
