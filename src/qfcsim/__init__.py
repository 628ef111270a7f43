"""Simulation of quantum frequency conversion driven by spin-orbit light.

The package builds the conversion channel from a classical structured
drive field, propagates entangled two-qubit states through it, checks the
channel-state duality and the classical entanglement bound, and simulates
the measurement chain: tomography with Poisson statistics, CHSH sweeps,
and joint-spectral-amplitude analysis of the photon-pair source.

``import qfcsim`` loads no submodule: each public name below, and each
submodule, is imported on first use (PEP 562), so a program pays only for
the modules it reaches.
"""

import importlib

# submodule -> the public names it defines
_MODULES = {
    "bell": ("chsh_polynomial", "chsh_sweep", "rotation_r"),
    "channel": ("ChannelSpec", "ModeTransfer", "apply_channel", "choi_concurrence_closed",
                "choi_state", "converted_marginal_is_mixed", "drive_singular_values",
                "duality_distance", "konrad_check", "kraus_from_drive", "mode_transfer",
                "one_sided_apply"),
    "drive": ("coherence_matrix", "drive_concurrence", "drive_from_theta", "qwp_jones",
              "vwp_transform"),
    "efficiency": ("estimate_efficiency",),
    "linalg": ("partial_trace", "svd"),
    "spectral": ("LITHIUM_NIOBATE", "CrystalSpec", "DispersionModel", "GridSpec", "JSAGrid",
                 "PumpSpec", "SchmidtDecomposition", "SpectralDensity",
                 "coincidence_delay_width", "compute_jsa", "heralded_purity",
                 "hg_mode_probabilities", "jsa_from_binary", "jsa_to_binary", "jsa_to_csv",
                 "phase_mismatch", "pump_overlap", "reduced_density", "refractive_index",
                 "schmidt", "spectral_purity", "temporal_intensity"),
    "states": ("assert_density_matrix", "bell_state", "chsh_max", "concurrence", "fidelity",
               "pauli_correlations", "purity", "werner_state"),
    "tomography": ("CountRecord", "MeasurementSetting", "MetricWithError", "mle_reconstruct",
                   "monte_carlo_metric", "projector_set", "records_from_csv",
                   "records_to_csv", "simulate_counts"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
# qfcsim.<submodule> stays reachable after a bare ``import qfcsim``, errors included
_SUBMODULES = frozenset(_MODULES) | {"errors"}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds qfcsim.<name>
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
