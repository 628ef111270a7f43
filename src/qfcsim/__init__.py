"""Simulation of quantum frequency conversion driven by spin-orbit light.

The package builds the conversion channel from a classical structured
drive field, propagates entangled two-qubit states through it, checks the
channel-state duality and the classical entanglement bound, and simulates
the measurement chain: tomography with Poisson statistics, CHSH sweeps,
and joint-spectral-amplitude analysis of the photon-pair source.
"""

from .bell import chsh_polynomial, chsh_sweep, rotation_r
from .channel import (ChannelSpec, ModeTransfer, apply_channel, choi_concurrence_closed,
                      choi_state, converted_marginal_is_mixed, drive_singular_values,
                      duality_distance, konrad_check, kraus_from_drive, mode_transfer,
                      one_sided_apply)
from .drive import (coherence_matrix, drive_concurrence, drive_from_theta, qwp_jones,
                    vwp_transform)
from .linalg import partial_trace, svd
from .spectral import (LITHIUM_NIOBATE, CrystalSpec, DispersionModel, GridSpec, JSAGrid,
                       PumpSpec, SchmidtDecomposition, SpectralDensity,
                       coincidence_delay_width, compute_jsa, estimate_efficiency,
                       heralded_purity, hg_mode_probabilities, jsa_from_binary,
                       jsa_to_binary, jsa_to_csv, phase_mismatch, pump_overlap,
                       reduced_density, refractive_index, schmidt, spectral_purity,
                       temporal_intensity)
from .states import (assert_density_matrix, bell_state, chsh_max, concurrence, fidelity,
                     pauli_correlations, purity, werner_state)
from .tomography import (CountRecord, MeasurementSetting, MetricWithError,
                         mle_reconstruct, monte_carlo_metric, projector_set,
                         records_from_csv, records_to_csv, simulate_counts)

__version__ = "0.1.0"
