"""Joint spectral amplitude of quasi-phase-matched photon pairs.

Builds the JSA of a pulse-pumped, periodically poled crystal,
pump_envelope * sinc(dk L / 2) * filter(w_s) * filter(w_i), and derives
from it the Schmidt decomposition, heralded spectral purity, temporal
Hermite-Gauss mode content, pump overlap, and the coincidence-delay
profile against the drive pulse. On the uniform grid w_s + w_i takes only
2n - 1 values, so the pump envelope and the pump wavevector are evaluated
there once and read as Hankel views; the amplitude is the one n x n array
the JSA keeps.

Conventions:
  * Frequency grids are uniform in angular frequency (rad/s).
  * A "duration" D parameterizes a Gaussian field envelope exp(-(t/D)^2):
    the pump spectral amplitude is exp(-D^2 (w_s + w_i - w_p)^2 / 4) and
    temporal modes are H_n(sqrt(2) t / D) exp(-(t/D)^2).
  * Bandpass filters are Gaussian in intensity with the quoted FWHM in
    wavelength; the amplitude filter is its square root.
  * Time-domain quantities use the forward transform exp(-i w t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DivisionByZero, GridTooCoarse, NoConvergence, OutOfRange,
                     ShapeMismatch)
from .linalg import _describe, _finite_real, _integer, _real_array

C_M_S = 299792458.0  # speed of light, m/s


def _positive(x) -> bool:
    return _finite_real(x) and x > 0


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionModel:
    """One refractive-index model n(lambda, T) for a single crystal axis."""

    name: str
    sellmeier: tuple  # (a1, ..., a6)
    thermo: tuple     # (b1, ..., b4)
    valid_um: tuple   # (min, max) wavelength in micrometers


# Refractive-index models of 5% MgO-doped congruent LiNbO3 (the composition
# of commercial PPLN), Gayer et al., Appl. Phys. B 91, 343 (2008):
#   n^2 = a1 + b1 f + (a2 + b2 f) / (lam^2 - (a3 + b3 f)^2)
#         + (a4 + b4 f) / (lam^2 - a5^2) - a6 lam^2
# with lam in micrometers and f = (T - 24.5)(T + 570.82), T in Celsius.
LITHIUM_NIOBATE = {
    "mgcln_e": DispersionModel(
        "mgcln_e", sellmeier=(5.756, 0.0983, 0.2020, 189.32, 12.52, 0.0132),
        thermo=(2.860e-6, 4.7e-8, 6.113e-8, 1.516e-4), valid_um=(0.5, 4.0)),
    "mgcln_o": DispersionModel(
        "mgcln_o", sellmeier=(5.653, 0.1185, 0.2091, 89.61, 10.85, 0.0197),
        thermo=(7.941e-7, 3.134e-8, -4.641e-9, -2.188e-6), valid_um=(0.5, 4.0)),
}


def refractive_index(model: DispersionModel, wavelength_um, temperature_c: float):
    """Sellmeier refractive index with temperature correction.

    ``wavelength_um`` may be a scalar or an ndarray; raises OutOfRange when
    any wavelength falls outside the model's validity window.
    """
    lam = _real_array(wavelength_um, "wavelengths")
    lo, hi = model.valid_um
    # an elementwise test, not min/max, which an empty array has none of
    if not np.all((lo <= lam) & (lam <= hi)):
        raise OutOfRange(
            f"wavelength range [{lam.min():.4g}, {lam.max():.4g}] um outside "
            f"validity [{lo}, {hi}] um of model {model.name}")
    a1, a2, a3, a4, a5, a6 = model.sellmeier
    b1, b2, b3, b4 = model.thermo
    if not _finite_real(temperature_c):
        raise OutOfRange(f"temperature must be finite, got {_describe(temperature_c)}")
    f = (temperature_c - 24.5) * (temperature_c + 570.82)
    try:
        pole = (a3 + b3 * f) ** 2
    except OverflowError:  # Python float power
        pole = np.inf
    if not (np.isfinite(f) and np.isfinite(pole)):
        raise OutOfRange(f"an input is too large to compute with: temperature "
                         f"{temperature_c} C in the Sellmeier terms")
    lam2 = lam ** 2
    n2 = (a1 + b1 * f
          + (a2 + b2 * f) / (lam2 - pole)
          + (a4 + b4 * f) / (lam2 - a5 ** 2)
          - a6 * lam2)
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength_um) else n


# ---------------------------------------------------------------------------
# crystal / pump / grid specifications
# ---------------------------------------------------------------------------

INTERACTIONS = ("type0_eee", "type1_ooe")


@dataclass(frozen=True)
class CrystalSpec:
    """Quasi-phase-matched crystal for collinear three-wave mixing."""

    length_mm: float
    poling_period_um: float
    temperature_c: float
    interaction: str  # "type0_eee" (all extraordinary) or "type1_ooe" (pair ordinary, pump extraordinary)

    def __post_init__(self):
        if not (_positive(self.length_mm) and _positive(self.poling_period_um)):
            raise OutOfRange(f"crystal length and poling period must be positive and finite, got "
                             f"{_describe(self.length_mm)} and {_describe(self.poling_period_um)}")
        if not _finite_real(self.temperature_c):
            raise OutOfRange(f"crystal temperature must be finite, "
                             f"got {_describe(self.temperature_c)}")
        if not (isinstance(self.interaction, str) and self.interaction in INTERACTIONS):
            raise OutOfRange(f"interaction must be one of {INTERACTIONS}")


@dataclass(frozen=True)
class PumpSpec:
    """Transform-limited Gaussian pump/drive pulse.

    ``duration_fs`` is the Gaussian envelope duration D in
    E(t) ~ exp(-(t/D)^2); the intensity FWHM is sqrt(2 ln 2) * D.
    """

    center_wavelength_nm: float
    duration_fs: float

    def __post_init__(self):
        if not (_positive(self.duration_fs) and _positive(self.center_wavelength_nm)):
            raise OutOfRange(f"pump duration and wavelength must be positive and finite, got "
                             f"{_describe(self.duration_fs)} and "
                             f"{_describe(self.center_wavelength_nm)}")
        # a subnormal wavelength underflows to 0 m or gives an infinite frequency
        if not (self.center_wavelength_nm * 1e-9 > 0 and self.omega_rad_s < np.inf):
            raise OutOfRange(f"pump wavelength {self.center_wavelength_nm} nm is too small "
                             f"to compute with")

    @property
    def omega_rad_s(self) -> float:
        return 2 * np.pi * C_M_S / (self.center_wavelength_nm * 1e-9)


# grid points per axis, the config schema's cap: a 4096 x 4096 JSA holds 134 MB
MAX_GRID_POINTS = 4096


@dataclass(frozen=True)
class GridSpec:
    """Uniform angular-frequency grid of ``span_nm`` around a center wavelength."""

    points: int = 512
    span_nm: float = 80.0

    def __post_init__(self):
        if not (_integer(self.points) and 0 <= self.points <= MAX_GRID_POINTS
                and _positive(self.span_nm)):
            raise OutOfRange(f"grid points must be an integer in [0, {MAX_GRID_POINTS}] and the "
                             f"span positive and finite, got {_describe(self.points)} and "
                             f"{_describe(self.span_nm)}")

    def axis(self, center_nm: float) -> np.ndarray:
        if not _finite_real(center_nm):
            raise OutOfRange(f"center wavelength must be finite, got {_describe(center_nm)}")
        lam_lo = (center_nm - self.span_nm / 2) * 1e-9
        lam_hi = (center_nm + self.span_nm / 2) * 1e-9
        if not lam_lo > 0:
            raise OutOfRange(f"grid span {self.span_nm} nm must be less than twice the "
                             f"center wavelength {center_nm} nm")
        w_lo = 2 * np.pi * C_M_S / lam_hi
        w_hi = 2 * np.pi * C_M_S / lam_lo
        return np.linspace(w_lo, w_hi, self.points)


@dataclass(eq=False)
class JSAGrid:
    """Discretized joint spectral amplitude, rows = signal, cols = idler."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray
    amp: np.ndarray

    def __post_init__(self):
        if self.amp.shape != (len(self.signal_axis), len(self.idler_axis)):
            raise ShapeMismatch("amp shape does not match axis lengths")
        for axis in (self.signal_axis, self.idler_axis):
            if np.any(np.diff(axis) <= 0):
                raise OutOfRange("frequency axes must be strictly increasing")


@dataclass(eq=False)
class SchmidtDecomposition:
    """Schmidt weights of a JSA, as ``schmidt`` returns them."""

    probabilities: np.ndarray       # min(ns, ni) weights, descending, sum 1; 0 past the sketch


@dataclass(eq=False)
class SpectralDensity:
    """Single-photon spectral density matrix on a frequency axis."""

    axis: np.ndarray
    mat: np.ndarray


# ---------------------------------------------------------------------------
# phase matching and the JSA
# ---------------------------------------------------------------------------

def _wavevector(crystal: CrystalSpec, omega, pol: str):
    lam_um = 2 * np.pi * C_M_S / np.asarray(omega, dtype=float) * 1e6
    model = LITHIUM_NIOBATE["mgcln_o" if pol == "o" else "mgcln_e"]
    n = refractive_index(model, lam_um, crystal.temperature_c)
    return n * np.asarray(omega, dtype=float) / C_M_S  # rad/m


def _subtract_grating_order(dk, crystal: CrystalSpec, scratch=None):
    """dk - copysign(2 pi / poling period, dk), in place for an array, the
    grating term in ``scratch`` if given: the first-order component whose
    sign best compensates the mismatch (a poled crystal has both +-1 orders)."""
    dk -= np.copysign(2 * np.pi / (crystal.poling_period_um * 1e-6), dk, out=scratch)
    return dk


def phase_mismatch(crystal: CrystalSpec, omega_s, omega_i):
    """Quasi-phase-matched wavevector mismatch in rad/m, k_p - k_s - k_i
    -/+ 2 pi / poling period as ``_subtract_grating_order`` picks the sign."""
    omega_s = _real_array(omega_s, "frequencies")
    omega_i = _real_array(omega_i, "frequencies")
    if np.any(omega_s <= 0) or np.any(omega_i <= 0):
        raise OutOfRange("frequencies must be positive")
    pair_pol = "o" if crystal.interaction == "type1_ooe" else "e"
    dk_mat = (_wavevector(crystal, omega_s + omega_i, "e")
              - _wavevector(crystal, omega_s, pair_pol)
              - _wavevector(crystal, omega_i, pair_pol))
    out = _subtract_grating_order(dk_mat, crystal)
    return float(out) if out.ndim == 0 else out


def compute_jsa(pump: PumpSpec, crystal: CrystalSpec, filter_fwhm_nm: float,
                grid: GridSpec = GridSpec()) -> JSAGrid:
    """Joint spectral amplitude with per-photon Gaussian bandpass filters,
    on a grid centered on the degenerate wavelength 2 lambda_pump.

    The amplitude is real float64, since every factor is real; the Schmidt
    and temporal-mode functions take it, or a complex one such as
    ``jsa_from_binary`` reads, alike.  On the uniform grid w_s + w_i takes
    only 2n - 1 values, so the pump factors are evaluated once on that axis
    and read as Hankel views, and the n x n arrays are built in place.
    """
    if grid.points < 64:
        raise GridTooCoarse(f"need at least 64 points per axis, got {grid.points}")
    if not _positive(filter_fwhm_nm):
        raise OutOfRange(f"filter FWHM must be positive and finite, "
                         f"got {_describe(filter_fwhm_nm)}")
    center_nm = 2 * pump.center_wavelength_nm
    # +-3 sigma of the amplitude filter must fit on the grid
    sigma_nm = filter_fwhm_nm / (2 * np.sqrt(np.log(2)))
    if not 6 * sigma_nm <= grid.span_nm:
        raise OutOfRange(f"grid span {grid.span_nm} nm must cover +-3 filter "
                         f"sigma ({6 * sigma_nm:.1f} nm)")

    w_ax = grid.axis(center_nm)
    n = len(w_ax)
    try:
        t_pump2 = (pump.duration_fs * 1e-15) ** 2
    except OverflowError:  # Python float power
        raise OutOfRange(f"an input is too large to compute with: pump duration "
                         f"{pump.duration_fs} fs") from None
    # on the uniform axis w_s + w_i takes the 2n - 1 values w_sum[j + l], so
    # the factors of the pump frequency are 1-D, read as Hankel views [j, l]
    w_sum = np.linspace(2 * w_ax[0], 2 * w_ax[-1], 2 * n - 1)
    pair_pol = "o" if crystal.interaction == "type1_ooe" else "e"
    k_pair = _wavevector(crystal, w_ax, pair_pol)
    x = sliding_window_view(_wavevector(crystal, w_sum, "e"), n) - k_pair[:, None]
    x -= k_pair
    amp = np.empty_like(x)  # x and amp are the only n x n arrays
    _subtract_grating_order(x, crystal, amp)
    x *= crystal.length_mm * 1e-3 / 2.0
    # sinc(x) = sin(x) / x, and 1 where x == 0 gave 0 / 0 = nan
    np.sin(x, out=amp)
    with np.errstate(invalid="ignore"):
        amp /= x
    amp[x == 0] = 1.0
    del x

    # every factor is real: a transform-limited pump, sinc phase matching
    # and real filters give a real JSA
    amp *= sliding_window_view(np.exp(-t_pump2 * (w_sum - pump.omega_rad_s) ** 2 / 4.0), n)
    filt = np.exp(-2 * np.log(2) * ((2 * np.pi * C_M_S / w_ax * 1e9 - center_nm)
                                    / filter_fwhm_nm) ** 2)
    amp *= filt[:, None]
    amp *= filt
    norm = np.linalg.norm(amp)
    if norm == 0:
        raise OutOfRange("JSA vanished on the grid; check phase matching")
    if not np.isfinite(norm):
        raise OutOfRange("JSA is not finite on the grid; an input is too large to compute with")
    amp /= norm
    return JSAGrid(signal_axis=w_ax, idler_axis=w_ax.copy(), amp=amp)


# ---------------------------------------------------------------------------
# Schmidt analysis
# ---------------------------------------------------------------------------

# randomized range finder behind the Schmidt weights (Halko, Martinsson &
# Tropp, SIAM Rev. 53, 217 (2011), alg. 4.4 from amp^H Omega, then alg. 5.1)
_SKETCH_WIDTH = 64
_SKETCH_SEED = 20111
# largest share of |A|_F^2 the sketch may miss before the reduced density gives the weights
_SKETCH_MISSED_MASS = 1e-13


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _sketched_weights(amp: np.ndarray) -> tuple:
    """Squared singular values of ``amp`` on a k-dimensional subspace of its
    column space, descending, and the share of |amp|_F^2 they miss.

    With a fixed Gaussian Omega (ns x k), Q = qr(amp^H Omega), Z = qr(amp Q)
    and B = Z^H amp, the weights are the eigenvalues of B B^H: those of
    P amp, P = Z Z^H. As amp^H amp = amp^H P amp + amp^H (1 - P) amp, each
    lies at or below its exact value (interlacing) by at most the missed
    mass |(1 - P) amp|_F^2 = |amp|_F^2 - sum of weights (Weyl's inequality).
    When k = min(ns, ni), Z spans the whole column space.
    """
    ns, ni = amp.shape
    k = min(_SKETCH_WIDTH, ns, ni)
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((ns, k))
    # amp^H Omega as (Omega^T amp)^H, so that no n x n conjugate is formed
    q = np.linalg.qr((omega.T @ amp).conj().T)[0]
    z = np.linalg.qr(amp @ q)[0]
    b = z.conj().T @ amp
    w = _eigvalsh(b @ b.conj().T)[::-1]
    total = np.vdot(amp, amp).real
    return w, (total - w.sum()) / total


def schmidt(grid: JSAGrid) -> SchmidtDecomposition:
    """Schmidt weights of the JSA: its squared singular values, normalised
    to sum to 1.

    They come from a randomized range finder of width ``_SKETCH_WIDTH``
    (``_sketched_weights``: three products with the JSA and two thin QRs),
    whose missed share of |amp|_F^2 bounds every weight's error; weights
    past the sketch are 0. When that share exceeds ``_SKETCH_MISSED_MASS``,
    all min(ns, ni) weights come from one Hermitian eigenvalue pass on the
    reduced density of the JSA's smaller side instead. Either way, weights
    below ~1e-13 carry an absolute error of ~1e-16 and lose relative
    accuracy. The sketch runs no SVD and forms no n x n array.
    """
    ns, ni = grid.amp.shape
    w, missed = _sketched_weights(grid.amp)
    if missed <= _SKETCH_MISSED_MASS:
        p = np.zeros(min(ns, ni))
        p[:len(w)] = np.clip(w, 0.0, None)
    else:
        rho = reduced_density(grid, "signal" if ns < ni else "idler")
        p = np.clip(_eigvalsh(rho.mat)[::-1], 0.0, None)
    p = p / p.sum()
    return SchmidtDecomposition(probabilities=p)


def heralded_purity(decomp: SchmidtDecomposition) -> float:
    """Spectral purity of either heralded photon: sum of squared Schmidt
    weights, which equals Tr rho^2 of either reduced density (Law, Walmsley &
    Eberly, PRL 84, 5304, 2000)."""
    return float(np.sum(decomp.probabilities ** 2))


def reduced_density(grid: JSAGrid, which: str = "idler") -> SpectralDensity:
    """Single-photon spectral density matrix from the JSA."""
    # contiguous (a no-op for compute_jsa's grids), so that numpy's product
    # A^T A of a real float A is one BLAS triangle and its mirror: symmetric
    # to the bit, and only a complex or integer product is symmetrised below
    amp = np.ascontiguousarray(grid.amp)
    key = which if isinstance(which, str) else None
    if key == "idler":
        mat = amp.T @ amp.conj()
        axis = grid.idler_axis
    elif key == "signal":
        mat = amp @ amp.conj().T
        axis = grid.signal_axis
    else:
        raise ShapeMismatch(f"which must be 'signal' or 'idler', got {_describe(which)}")
    if mat.dtype.kind != "f":
        mat = (mat + mat.conj().T) / 2
    mat /= np.trace(mat).real
    return SpectralDensity(axis=axis, mat=mat)


def spectral_purity(rho: SpectralDensity) -> float:
    """Tr rho^2, which for Hermitian rho is the sum of |rho_jl|^2."""
    return float(np.vdot(rho.mat, rho.mat).real)


# ---------------------------------------------------------------------------
# temporal modes
# ---------------------------------------------------------------------------

def _central_frequency(rho: SpectralDensity) -> float:
    weights = np.clip(np.diag(rho.mat).real, 0.0, None)
    return float(np.sum(rho.axis * weights) / np.sum(weights))


def _hg_modes(axis: np.ndarray, n_modes: int, tau_s: float, omega0: float) -> np.ndarray:
    """Discretized Hermite-Gauss spectral amplitudes 0..n_modes-1 as rows,
    each of unit norm on the grid.

    Uses the three-term recurrence of the normalized Hermite functions,
    psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}, which stays
    finite where H_k(x) and exp(-x^2/2) alone would overflow or underflow.
    """
    # the first spacing: callers have checked the axis with _uniform_step
    dw = axis[1] - axis[0]
    x = tau_s * (axis - omega0)
    modes = np.empty((n_modes, len(axis)))
    modes[0] = np.sqrt(tau_s * dw) * np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    prev = np.zeros_like(x)
    for k in range(n_modes - 1):
        modes[k + 1] = np.sqrt(2 / (k + 1)) * x * modes[k] - np.sqrt(k / (k + 1)) * prev
        prev = modes[k]
    return modes


def _check_mode_resolution(rho: SpectralDensity, tau_s: float, n_modes: int) -> None:
    dw = _uniform_step(rho.axis, "frequency axis")
    sigma = 1.0 / tau_s  # spectral std of the fundamental mode
    if sigma < 4 * dw:
        raise GridTooCoarse("grid spacing too coarse for the requested mode duration")
    # mode n extends to its classical turning point sqrt(2n+1) sigma
    span = rho.axis[-1] - rho.axis[0]
    if span < 2 * sigma * np.sqrt(2.0 * n_modes):
        raise GridTooCoarse("grid span too narrow for the requested mode set")
    # mode n_modes - 1 oscillates at up to sqrt(2 n_modes - 1) tau rad per
    # rad/s of frequency; its phase step per grid step must stay within pi
    nyquist = np.sqrt(2.0 * n_modes - 1) * tau_s * dw
    if nyquist > np.pi:
        raise GridTooCoarse(f"grid spacing too coarse for {n_modes} modes: the highest "
                            f"needs sqrt(2 n_modes - 1) tau dw <= pi, got {nyquist:.3g}")


def hg_mode_probabilities(rho: SpectralDensity, mode_duration_fs: float,
                          n_modes: int) -> np.ndarray:
    """Populations of temporal Hermite-Gauss modes of the given duration.

    Modes are centered on the photon's mean frequency; mode n has the
    spectral amplitude H_n(tau dw) exp(-tau^2 dw^2 / 2) with
    tau = duration / sqrt(2), matching the envelope convention above.
    Raises OutOfRange for fewer than two or non-uniform frequencies, and
    GridTooCoarse unless the highest mode is Nyquist-sampled,
    sqrt(2 n_modes - 1) tau dw <= pi: past that the sampled modes are not
    orthonormal and their populations can sum past 1.
    """
    if not (_positive(mode_duration_fs) and _integer(n_modes) and _positive(n_modes)):
        raise OutOfRange(f"mode duration must be positive and finite and n_modes an integer >= 1, "
                         f"got {_describe(mode_duration_fs)} and {_describe(n_modes)}")
    tau_s = mode_duration_fs * 1e-15 / np.sqrt(2)
    _check_mode_resolution(rho, tau_s, n_modes)
    modes = _hg_modes(rho.axis, n_modes, tau_s, _central_frequency(rho))
    return np.maximum(np.sum((modes @ rho.mat) * modes, axis=1).real, 0.0)


def pump_overlap(rho: SpectralDensity, pump: PumpSpec) -> float:
    """Population of the transform-limited Gaussian mode of the pump duration.

    The mode is centered at the photon's central frequency, so this is the
    temporal-waveform overlap between photon and pump/drive pulse.
    """
    return float(hg_mode_probabilities(rho, pump.duration_fs, 1)[0])


# ---------------------------------------------------------------------------
# time-domain analysis
# ---------------------------------------------------------------------------

def _fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings."""
    ymax = y.max()
    half = ymax / 2.0
    above = y >= half
    idx = np.where(above)[0]
    if len(idx) == 0 or idx[0] == 0 or idx[-1] == len(y) - 1:
        raise GridTooCoarse("half-maximum crossings fall outside the time window")
    i0, i1 = idx[0], idx[-1]
    # interpolate the left and right half crossings
    left = x[i0 - 1] + (x[i0] - x[i0 - 1]) * (half - y[i0 - 1]) / (y[i0] - y[i0 - 1])
    right = x[i1] + (x[i1 + 1] - x[i1]) * (half - y[i1]) / (y[i1 + 1] - y[i1])
    return float(right - left)


def _uniform_step(x: np.ndarray, what: str) -> float:
    """Step of a uniform 1-D grid; OutOfRange for fewer than 2 points or when
    the spacing varies by more than 1e-9 of the step."""
    if len(x) < 2:
        raise OutOfRange(f"{what} must have at least 2 points, got {len(x)}")
    step = (x[-1] - x[0]) / (len(x) - 1)
    if not np.all(np.abs(np.diff(x) - step) <= 1e-9 * np.abs(step)):
        raise OutOfRange(f"{what} must be uniformly spaced (relative tolerance 1e-9)")
    return float(step)


def _chirp_z(x: np.ndarray, theta: float, m: int) -> np.ndarray:
    """sum_k x[k] exp(-i theta k j) for j = 0..m-1: the chirp-z transform on
    the unit circle (Rabiner, Schafer & Rader, Bell Syst. Tech. J. 48, 1249,
    1969), as one FFT convolution (Bluestein's algorithm, with
    kj = (k^2 + j^2 - (j - k)^2) / 2)."""
    n = len(x)
    size = 1 << (n + m - 2).bit_length()  # >= n + m - 1: no wrap-around
    k = np.arange(max(n, m))
    chirp = np.exp(-0.5j * theta * k * k)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(x * chirp[:n], size) * np.fft.fft(kernel))
    return chirp[:m] * conv[:m]


def _lag_sum(rho: SpectralDensity, t_s, lag_weight=None) -> np.ndarray:
    """Re sum_d w(d dw) c_d exp(-i d dw t) on uniform time points t.

    On the uniform frequency grid w_j = w_0 + j dw, c_d sums the d-th
    diagonal of rho (d = j - l); ``lag_weight`` maps the lag frequencies
    d dw to real weights w, all ones when None. On the uniform time grid
    the sum over d is a chirp-z transform. Raises OutOfRange for fewer than
    two or non-uniform frequencies or time points.
    """
    t = _real_array(t_s, "time points")
    if t.ndim != 1 or len(t) < 2:
        raise OutOfRange("temporal_intensity needs at least 2 time points in a 1-D array")
    n = len(rho.axis)
    dw = _uniform_step(rho.axis, "frequency axis")
    dt = _uniform_step(t, "time points")
    # column-reversed row j added at offset j puts rho_jl at n - 1 + (j - l),
    # row by row in the order of a sum over axis 0 of the shifted rows
    c = np.zeros(2 * n - 1, dtype=rho.mat.dtype)
    for j, row in enumerate(rho.mat[:, ::-1]):
        c[j:j + n] += row
    d = np.arange(1 - n, n)
    if lag_weight is not None:
        c = c * lag_weight(d * dw)
    # with t_m = t_0 + m dt and k = d + n - 1 indexing c:
    # exp(-i d dw t_m) = exp(-i d dw t_0) exp(-i k dw dt m) exp(i (n - 1) dw dt m)
    coeffs = c * np.exp(-1j * d * dw * t[0])
    shift = np.exp(1j * (n - 1) * dw * dt * np.arange(len(t)))
    return (shift * _chirp_z(coeffs, dw * dt, len(t))).real


def temporal_intensity(rho: SpectralDensity, t_s: np.ndarray) -> np.ndarray:
    """Photon temporal intensity I(t), the time-domain diagonal of rho.

    On the uniform frequency grid w_j = w_0 + j dw,
    I(t) = sum_jl rho_jl exp(-i (w_j - w_l) t) = sum_d c_d exp(-i d dw t),
    evaluated by ``_lag_sum``; the overall dw / 2 pi factor is dropped.
    Raises OutOfRange for fewer than two or non-uniform frequencies or time
    points.
    """
    return _lag_sum(rho, t_s)


def coincidence_delay_width(rho: SpectralDensity, drive: PumpSpec) -> float:
    """FWHM (fs) of the photon/drive intensity cross-correlation.

    Cross-correlates the photon's temporal intensity with the drive-pulse
    intensity exp(-2 (t/D)^2) at delays of +-12 ps in 2 fs steps; this is
    the shape of the upconversion signal versus the relative delay of
    photon and drive. The drive
    intensity's Fourier transform is proportional to exp(-w^2 D^2 / 8), so
    the cross-correlation is I(tau) with each lag term c_d weighted by
    exp(-(d dw D)^2 / 8), up to a constant factor the FWHM ignores.
    Raises GridTooCoarse when a half-maximum crossing falls outside the
    delays, naming the frequency step when the profile's period 2 pi / dw
    is shorter than the +-12 ps window.
    """
    t = np.arange(-6000, 6001) * 2.0 * 1e-15
    d = drive.duration_fs * 1e-15
    cc = _lag_sum(rho, t, lambda w: np.exp(-(w * d) ** 2 / 8.0))
    try:
        return _fwhm(t, cc) / 1e-15
    except GridTooCoarse:
        # the lag sum repeats in t every 2 pi / dw; a shorter period than the
        # window lifts the window's edges with aliased copies of the profile
        dw = abs(_uniform_step(rho.axis, "frequency axis"))
        period = 2 * np.pi / dw
        if period < t[-1] - t[0]:
            raise GridTooCoarse(
                f"frequency step {dw:.4g} rad/s repeats the delay profile "
                f"every {period / 1e-12:.3g} ps, less than the {(t[-1] - t[0]) / 1e-12:.3g} "
                f"ps delay window; use a finer frequency grid") from None
        raise


# ---------------------------------------------------------------------------
# efficiency arithmetic
# ---------------------------------------------------------------------------

def estimate_efficiency(r_up_hz: float, r_herald_hz: float,
                        eta_snspd: float, eta_apd: float) -> float:
    """Upconversion efficiency from single/coincidence rates.

    eta = 2 r_up eta_snspd / (r_herald eta_apd); the factor 2 undoes the
    50% loss of projecting the upconverted polarization.  OutOfRange when
    finite rates give an eta beyond the float range.
    """
    for name, val, top in (("r_up_hz", r_up_hz, np.inf), ("r_herald_hz", r_herald_hz, np.inf),
                           ("eta_snspd", eta_snspd, 1.0), ("eta_apd", eta_apd, 1.0)):
        zero_ok = name in ("r_herald_hz", "eta_apd")  # the DivisionByZero below
        if not (_finite_real(val) and (0 < val or zero_ok and val == 0) and val <= top):
            rule = "positive and finite" if top == np.inf else "in (0, 1]"
            raise OutOfRange(f"{name} must be {rule}, got {_describe(val)}")
    denom = r_herald_hz * eta_apd
    if denom == 0:
        raise DivisionByZero("herald rate times APD efficiency is zero")
    eta = 2.0 * r_up_hz * eta_snspd / denom
    if not np.isfinite(eta):
        raise OutOfRange(f"an input is too large to compute with: efficiency {eta} "
                         f"from r_up_hz {r_up_hz} and r_herald_hz {r_herald_hz}")
    return eta


# ---------------------------------------------------------------------------
# JSA export
# ---------------------------------------------------------------------------

def jsa_to_csv(grid: JSAGrid, path) -> None:
    """CSV dump with header row (omega_s, omega_i, re, im)."""
    ns, ni = grid.amp.shape
    ws = np.repeat(grid.signal_axis, ni)
    wi = np.tile(grid.idler_axis, ns)
    flat = grid.amp.reshape(-1)
    data = np.column_stack([ws, wi, flat.real, flat.imag])
    np.savetxt(path, data, delimiter=",", fmt="%.17g",
               header="omega_s,omega_i,re,im", comments="")


def jsa_to_binary(grid: JSAGrid, path) -> None:
    """Compact dump: two little-endian int32 axis lengths, then the signal
    axis, idler axis, and row-major (re, im) pairs, all little-endian f64;
    the pairs are converted in blocks of rows of ~256 kB."""
    with open(path, "wb") as fh:
        np.array(grid.amp.shape, dtype="<i4").tofile(fh)
        grid.signal_axis.astype("<f8").tofile(fh)
        grid.idler_axis.astype("<f8").tofile(fh)
        for rows in np.array_split(grid.amp, max(1, grid.amp.size >> 14)):
            rows.astype("<c16").tofile(fh)


def jsa_from_binary(path) -> JSAGrid:
    """Read a ``jsa_to_binary`` file.  A file shorter or longer than its two
    axis lengths call for raises ShapeMismatch; a missing file raises the OS
    error, as ``tomography.records_from_csv`` does."""
    raw = np.fromfile(path, dtype=np.uint8)
    if len(raw) < 8:
        raise ShapeMismatch(f"JSA binary header: expected 2 int32 axis lengths, "
                            f"read {len(raw) // 4}")
    ns, ni = (int(x) for x in raw[:8].view("<i4"))
    if ns < 0 or ni < 0:
        raise ShapeMismatch(f"JSA binary axis lengths must be >= 0, got ({ns}, {ni})")
    n_values = ns + ni + 2 * ns * ni  # float64 values after the header
    n_bytes = len(raw) - 8
    if n_bytes != 8 * n_values:
        got = n_bytes // 8 if n_bytes % 8 == 0 else f"{n_bytes} bytes"
        raise ShapeMismatch(f"JSA binary of axis lengths ({ns}, {ni}): expected {n_values} "
                            f"float64 values after the header, read {got}")
    body = raw[8:].view("<f8")
    return JSAGrid(signal_axis=body[:ns], idler_axis=body[ns:ns + ni],
                   amp=body[ns + ni:].view("<c16").reshape(ns, ni))
