import importlib.resources
import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import eval_hermite, gammaln

from qfcsim import spectral as spectral_mod
from qfcsim.cli import _schema
from qfcsim.efficiency import estimate_efficiency
from qfcsim.errors import DivisionByZero, GridTooCoarse, OutOfRange
from qfcsim.spectral import (C_M_S, LITHIUM_NIOBATE, CrystalSpec, GridSpec, JSAGrid,
                             PumpSpec, SpectralDensity, _fwhm, _hg_modes,
                             coincidence_delay_width, compute_jsa, heralded_purity,
                             hg_mode_probabilities, jsa_from_binary, jsa_to_binary,
                             jsa_to_csv, phase_mismatch, pump_overlap, reduced_density,
                             refractive_index, schmidt, spectral_purity, temporal_intensity)

PUMP = PumpSpec(center_wavelength_nm=780.0, duration_fs=220.0)
TYPE1 = CrystalSpec(length_mm=10.0, poling_period_um=20.3, temperature_c=25.5,
                    interaction="type1_ooe")
TYPE0 = CrystalSpec(length_mm=10.0, poling_period_um=19.67, temperature_c=25.0,
                    interaction="type0_eee")
W_DEG = 2 * np.pi * C_M_S / 1560e-9
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# regression constants pinned from the bundled dispersion model
NE_1560_25C = 2.1304216885285254
TYPE1_PURITY = 0.8892982862322697
TYPE0_PURITY = 0.21569913459226564
TYPE1_HG_P0 = 0.8773717115568826
TYPE1_DELAY_FS = 478.0927985964993


@pytest.fixture(scope="module")
def jsa_type1():
    return compute_jsa(PUMP, TYPE1, 12.0, GridSpec(512, 80.0))


@pytest.fixture(scope="module")
def jsa_type0():
    return compute_jsa(PUMP, TYPE0, 12.0, GridSpec(512, 80.0))


def complex_copy(grid):
    return JSAGrid(signal_axis=grid.signal_axis, idler_axis=grid.idler_axis,
                   amp=grid.amp.astype(complex))


def gaussian_mode_grid(duration_fs=220.0, points=512, span_nm=80.0, center_nm=1560.0):
    """Rank-1 JSA built from a product of transform-limited Gaussians."""
    axis = GridSpec(points, span_nm).axis(center_nm)
    w0 = 2 * np.pi * C_M_S / (center_nm * 1e-9)
    tau = duration_fs * 1e-15 / np.sqrt(2)
    g = np.exp(-0.5 * tau ** 2 * (axis - w0) ** 2)
    g /= np.linalg.norm(g)
    amp = np.outer(g, g).astype(complex)
    return JSAGrid(signal_axis=axis, idler_axis=axis.copy(), amp=amp)


class TestDispersion:
    def test_pinned_extraordinary_index(self):
        n = refractive_index(LITHIUM_NIOBATE["mgcln_e"], 1.56, 25.0)
        assert abs(n - NE_1560_25C) < 1e-12

    def test_normal_dispersion_monotone(self):
        lams = np.linspace(1.0, 1.6, 61)
        n = refractive_index(LITHIUM_NIOBATE["mgcln_e"], lams, 25.0)
        assert np.all(np.diff(n) < 0)

    def test_deterministic(self):
        a = refractive_index(LITHIUM_NIOBATE["mgcln_o"], 0.78, 50.0)
        b = refractive_index(LITHIUM_NIOBATE["mgcln_o"], 0.78, 50.0)
        assert a == b

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            refractive_index(LITHIUM_NIOBATE["mgcln_e"], 0.2, 25.0)

    @pytest.mark.parametrize("temperature_c,message", [
        (1e100, "too large to compute with"), (-1e100, "too large to compute with"),
        (1e200, "too large to compute with"),
        (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite")])
    def test_absurd_temperature_raises_out_of_range(self, temperature_c, message):
        with pytest.raises(OutOfRange, match=message):
            refractive_index(LITHIUM_NIOBATE["mgcln_e"], 1.56, temperature_c)


@pytest.mark.parametrize("call", [
    lambda: refractive_index(LITHIUM_NIOBATE["mgcln_e"], [], 25.0),
    lambda: phase_mismatch(TYPE1, [], []),
], ids=["refractive_index", "phase_mismatch"])
def test_empty_array_gives_an_empty_result(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call()
    assert out.shape == (0,) and out.dtype == float


def test_compute_jsa_reads_no_package_file(monkeypatch):
    cfg = json.loads((CONFIGS / "fig_s2_type1.json").read_text())

    def refuse(*args, **kwargs):
        raise AssertionError("the spectral path read a package file")

    monkeypatch.setattr(importlib.resources, "files", refuse)
    jsa = compute_jsa(PumpSpec(**cfg["pump"]), CrystalSpec(**cfg["crystal"]),
                      cfg["filter_fwhm_nm"], GridSpec(**cfg["grid"]))
    assert jsa.amp.shape == (512, 512)


class TestPhaseMismatch:
    def test_degenerate_point_within_central_lobe(self):
        for crystal in (TYPE1, TYPE0):
            dk = phase_mismatch(crystal, W_DEG, W_DEG)
            assert abs(dk) * crystal.length_mm * 1e-3 / 2 < np.pi

    def test_signal_idler_symmetry_type1(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d1, d2 = rng.uniform(-2e12, 2e12, 2)
            a = phase_mismatch(TYPE1, W_DEG + d1, W_DEG + d2)
            b = phase_mismatch(TYPE1, W_DEG + d2, W_DEG + d1)
            assert abs(a - b) < 1e-6 * max(abs(a), 1.0)

    def test_temperature_shifts_monotonically(self):
        temps = np.arange(25.0, 40.1, 2.5)
        dks = [phase_mismatch(
            CrystalSpec(10.0, 20.3, t, "type1_ooe"), W_DEG, W_DEG) for t in temps]
        diffs = np.diff(dks)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_nonpositive_frequency_raises(self):
        with pytest.raises(OutOfRange):
            phase_mismatch(TYPE1, -1.0, W_DEG)


class TestComputeJsa:
    def test_normalized(self, jsa_type1):
        assert abs(np.linalg.norm(jsa_type1.amp) - 1.0) < 1e-12

    def test_amplitude_is_real(self, jsa_type1, jsa_type0):
        for grid in (jsa_type1, jsa_type0):
            assert grid.amp.dtype == np.float64

    def test_uniform_axis(self, jsa_type1):
        steps = np.diff(jsa_type1.signal_axis)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_zero_bandwidth_pump_limit(self):
        long_pump = PumpSpec(center_wavelength_nm=780.0, duration_fs=20000.0)
        grid = compute_jsa(long_pump, TYPE1, 12.0, GridSpec(256, 80.0))
        ws = grid.signal_axis[:, None]
        wi = grid.idler_axis[None, :]
        det = np.abs(ws + wi - long_pump.omega_rad_s)
        # all weight collapses onto the energy-conservation anti-diagonal,
        # resolved here to within a few grid steps
        cutoff = 3 * (grid.signal_axis[1] - grid.signal_axis[0])
        off_diag = np.abs(grid.amp[det > cutoff]) ** 2
        assert off_diag.sum() < 1e-6

    def test_morphology_round_vs_antidiagonal(self, jsa_type1, jsa_type0):
        # group-velocity-matched type-I is near-round; dispersive type-0 is a
        # narrow anti-diagonal stripe: compare frequency anticorrelation
        def spectral_correlation(grid):
            w = np.abs(grid.amp) ** 2
            ws = grid.signal_axis[:, None]
            wi = grid.idler_axis[None, :]
            ms = float((w * ws).sum())
            mi = float((w * wi).sum())
            cov = float((w * (ws - ms) * (wi - mi)).sum())
            ss = np.sqrt(float((w * (ws - ms) ** 2).sum()))
            si = np.sqrt(float((w * (wi - mi) ** 2).sum()))
            return cov / (ss * si)

        assert spectral_correlation(jsa_type0) < -0.9
        assert abs(spectral_correlation(jsa_type1)) < 0.6

    def test_too_few_points_raises(self):
        with pytest.raises(GridTooCoarse):
            compute_jsa(PUMP, TYPE1, 12.0, GridSpec(32, 80.0))

    def test_narrow_span_raises(self):
        with pytest.raises(OutOfRange):
            compute_jsa(PUMP, TYPE1, 12.0, GridSpec(128, 20.0))

    def test_absurd_pump_duration_raises_out_of_range(self):
        pump = PumpSpec(center_wavelength_nm=780.0, duration_fs=1e200)
        with pytest.raises(OutOfRange, match="too large to compute with"):
            compute_jsa(pump, TYPE1, 12.0, GridSpec(128, 80.0))

    def test_non_finite_jsa_raises(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "_wavevector",
                            lambda crystal, omega, pol: np.full(np.shape(omega), np.nan))
        with pytest.raises(OutOfRange, match="not finite"):
            compute_jsa(PUMP, TYPE1, 12.0, GridSpec(128, 80.0))

    @pytest.mark.parametrize("points", [128, 512])
    @pytest.mark.parametrize("crystal", [TYPE1, TYPE0], ids=["type1", "type0"])
    def test_sum_frequency_factors_equal_direct_grid_formula(self, crystal, points):
        # the pump factors on the full (w_s, w_i) grid, with np.sinc and an
        # outer-product filter, against their 2n - 1 sum-frequency values
        axis = GridSpec(points, 80.0).axis(2 * PUMP.center_wavelength_nm)
        ws, wi = axis[:, None], axis[None, :]
        pm = np.sinc(phase_mismatch(crystal, ws, wi) * crystal.length_mm * 1e-3 / 2 / np.pi)
        envelope = np.exp(-(PUMP.duration_fs * 1e-15) ** 2
                          * (ws + wi - PUMP.omega_rad_s) ** 2 / 4)
        filt = np.exp(-2 * np.log(2) * ((2 * np.pi * C_M_S / axis * 1e9 - 1560.0) / 12.0) ** 2)
        direct = envelope * pm * np.outer(filt, filt)
        direct /= np.linalg.norm(direct)
        grid = compute_jsa(PUMP, crystal, 12.0, GridSpec(points, 80.0))
        assert np.array_equal(grid.signal_axis, axis)
        assert np.max(np.abs(grid.amp - direct)) <= 1e-11


def reference_jsa(pump, crystal, filter_fwhm_nm, grid):
    """The phase x, the sinc factor and the amplitude of ``compute_jsa`` by its
    earlier formula: the grating term in its own array, then the sinc by
    np.divide(where=x != 0) and amp[x == 0] = 1.0."""
    center_nm = 2 * pump.center_wavelength_nm
    w_ax = grid.axis(center_nm)
    n = len(w_ax)
    w_sum = np.linspace(2 * w_ax[0], 2 * w_ax[-1], 2 * n - 1)
    pair_pol = "o" if crystal.interaction == "type1_ooe" else "e"
    k_pair = spectral_mod._wavevector(crystal, w_ax, pair_pol)
    x = sliding_window_view(spectral_mod._wavevector(crystal, w_sum, "e"), n) - k_pair[:, None]
    x -= k_pair
    x -= np.copysign(2 * np.pi / (crystal.poling_period_um * 1e-6), x)
    x *= crystal.length_mm * 1e-3 / 2.0
    sinc = np.sin(x)
    np.divide(sinc, x, out=sinc, where=x != 0)
    sinc[x == 0] = 1.0
    t_pump2 = (pump.duration_fs * 1e-15) ** 2
    amp = sinc * sliding_window_view(np.exp(-t_pump2 * (w_sum - pump.omega_rad_s) ** 2 / 4.0), n)
    filt = np.exp(-2 * np.log(2) * ((2 * np.pi * C_M_S / w_ax * 1e9 - center_nm)
                                    / filter_fwhm_nm) ** 2)
    amp *= filt[:, None]
    amp *= filt
    amp /= np.linalg.norm(amp)
    return x, sinc, amp


class TestJsaBytes:
    """compute_jsa builds the grating term and the sinc in the amplitude's
    buffer; its bytes are those of the formula with separate arrays."""

    @pytest.mark.parametrize("points", [64, 512, 1024])
    @pytest.mark.parametrize("name", ["fig_s2_type0.json", "fig_s2_type1.json",
                                      "fig_s3_hg_modes.json"])
    def test_bundled_configs(self, name, points):
        cfg = json.loads((CONFIGS / name).read_text())
        args = (PumpSpec(**cfg["pump"]), CrystalSpec(**cfg["crystal"]), cfg["filter_fwhm_nm"],
                GridSpec(points, cfg["grid"]["span_nm"]))
        assert compute_jsa(*args).amp.tobytes() == reference_jsa(*args)[2].tobytes()

    def test_signed_zero_phase_gives_a_sinc_of_one(self, monkeypatch):
        # with a grating term g of 6.3e-14 rad/m and L / 2 = 5e-304 m, a sum
        # wavevector of g leaves x = +0.0, and one an ulp below g leaves
        # -ulp(g), which the length scales to -0.0
        crystal = replace(TYPE1, poling_period_um=1e20, length_mm=1e-300)
        g = 2 * np.pi / (crystal.poling_period_um * 1e-6)

        def wavevector(crystal, omega, pol):
            if len(omega) == 64:  # the pair axis
                return np.zeros(64)
            return np.resize([g, np.nextafter(g, 0.0), -g, 1.0], len(omega))

        monkeypatch.setattr(spectral_mod, "_wavevector", wavevector)
        args = (PUMP, crystal, 12.0, GridSpec(64, 80.0))
        x, sinc, amp = reference_jsa(*args)
        zero = x == 0
        assert np.any(zero & np.signbit(x)) and np.any(zero & ~np.signbit(x))
        assert np.all(sinc[zero] == 1.0)
        assert compute_jsa(*args).amp.tobytes() == amp.tobytes()


class TestGridSpec:
    def test_points_cap_is_the_config_schema_maximum(self):
        grid = _schema("config.schema.json")["properties"]["jsa"]["properties"]["grid"]
        cap = grid["properties"]["points"]["maximum"]
        assert GridSpec(cap, 80.0).points == cap
        with pytest.raises(OutOfRange, match=f"integer in \\[0, {cap}\\]"):
            GridSpec(cap + 1, 80.0)


def jsa_with(field, value):
    """compute_jsa on the type-1 setup with one numeric input replaced."""
    crystal, pump, fwhm, span = TYPE1, PUMP, 12.0, 80.0
    if hasattr(crystal, field):
        crystal = replace(crystal, **{field: value})
    elif hasattr(pump, field):
        pump = replace(pump, **{field: value})
    elif field == "filter_fwhm_nm":
        fwhm = value
    else:
        span = value
    return compute_jsa(pump, crystal, fwhm, GridSpec(128, span))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["length_mm", "poling_period_um", "temperature_c",
                                   "center_wavelength_nm", "duration_fs",
                                   "filter_fwhm_nm", "span_nm"])
def test_non_finite_spectral_input_raises_out_of_range(field, value):
    with pytest.raises(OutOfRange, match="finite"):
        jsa_with(field, value)


class TestSchmidt:
    def test_separable_product_purity_one(self):
        grid = gaussian_mode_grid()
        decomp = schmidt(grid)
        assert abs(heralded_purity(decomp) - 1.0) < 1e-12

    def test_type1_regression(self, jsa_type1):
        assert abs(heralded_purity(schmidt(jsa_type1)) - TYPE1_PURITY) < 1e-4

    def test_type1_in_reported_band(self, jsa_type1):
        assert abs(heralded_purity(schmidt(jsa_type1)) - 0.859) < 0.05

    def test_type0_regression(self, jsa_type0):
        assert abs(heralded_purity(schmidt(jsa_type0)) - TYPE0_PURITY) < 1e-4

    def test_type0_in_reported_band(self, jsa_type0):
        assert abs(heralded_purity(schmidt(jsa_type0)) - 0.184) < 0.05

    def test_probabilities_sum_to_one(self, jsa_type1):
        decomp = schmidt(jsa_type1)
        assert abs(decomp.probabilities.sum() - 1.0) < 1e-10
        assert np.all(np.diff(decomp.probabilities) <= 1e-15)

    def test_probabilities_are_normalized_squared_singular_values(self, jsa_type1,
                                                                  jsa_type0):
        for grid in (jsa_type1, jsa_type0, complex_copy(jsa_type0)):
            s = np.linalg.svd(grid.amp)[1]
            expected = s ** 2 / np.sum(s ** 2)
            assert np.max(np.abs(schmidt(grid).probabilities - expected)) < 1e-12

    def test_svd_vs_trace_purity(self, jsa_type1, jsa_type0):
        for grid in (jsa_type1, jsa_type0):
            p_svd = heralded_purity(schmidt(grid))
            p_tr = spectral_purity(reduced_density(grid, "idler"))
            assert abs(p_svd - p_tr) < 1e-8

    def test_signal_idler_exchange_symmetry(self, jsa_type1):
        p_i = spectral_purity(reduced_density(jsa_type1, "idler"))
        p_s = spectral_purity(reduced_density(jsa_type1, "signal"))
        assert abs(p_i - p_s) < 1e-8

    def test_filter_narrowing_raises_type0_purity(self):
        purities = []
        for fwhm in (4.0, 8.0, 12.0, 20.0):
            grid = compute_jsa(PUMP, TYPE0, fwhm, GridSpec(256, 80.0))
            purities.append(heralded_purity(schmidt(grid)))
        assert np.all(np.diff(purities) < 0)

    @pytest.mark.parametrize("shape", [(96, 128), (128, 96)])
    def test_non_square_complex_weights_match_svd(self, jsa_type1, shape):
        rng = np.random.default_rng(5)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        grid = JSAGrid(signal_axis=jsa_type1.signal_axis[:shape[0]],
                       idler_axis=jsa_type1.idler_axis[:shape[1]], amp=amp)
        p = schmidt(grid).probabilities
        s = np.linalg.svd(amp, compute_uv=False)
        assert p.shape == (min(shape),)
        assert np.max(np.abs(p - s ** 2 / np.sum(s ** 2))) < 1e-12

    def test_weights_need_no_svd(self, jsa_type0, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the Schmidt weights ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        decomp = schmidt(jsa_type0)
        assert abs(decomp.probabilities.sum() - 1.0) < 1e-12
        assert abs(heralded_purity(decomp) - TYPE0_PURITY) < 1e-4

    def test_grid_refinement_stability(self):
        p256 = heralded_purity(schmidt(compute_jsa(PUMP, TYPE1, 12.0, GridSpec(256, 80.0))))
        p512 = heralded_purity(schmidt(compute_jsa(PUMP, TYPE1, 12.0, GridSpec(512, 80.0))))
        assert abs(p256 - p512) < 0.005


def bundled_jsa(name, points):
    cfg = json.loads((CONFIGS / name).read_text())
    return compute_jsa(PumpSpec(**cfg["pump"]), CrystalSpec(**cfg["crystal"]),
                       cfg["filter_fwhm_nm"], GridSpec(points, cfg["grid"]["span_nm"]))


def squared_singular_values(amp):
    s = np.linalg.svd(amp, compute_uv=False)
    return s ** 2 / np.sum(s ** 2)


@pytest.fixture
def density_calls(monkeypatch):
    """Calls of ``reduced_density`` made through the spectral module."""
    calls = []
    original = spectral_mod.reduced_density

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, "reduced_density", counting)
    return calls


class TestSchmidtSketch:
    @pytest.mark.parametrize("name, points", [("fig_s2_type0.json", 512),
                                              ("fig_s2_type1.json", 512),
                                              ("fig_s2_type0.json", 1024)])
    def test_bundled_grids_match_svd_without_reduced_density(self, name, points,
                                                             density_calls):
        grid = bundled_jsa(name, points)
        decomp = schmidt(grid)
        p = decomp.probabilities
        expected = squared_singular_values(grid.amp)
        assert density_calls == []
        assert p.shape == (points,)
        assert np.max(np.abs(p[:64] - expected[:64])) < 1e-12
        assert abs(heralded_purity(decomp) - np.sum(expected ** 2)) < 1e-12

    def test_slow_spectral_decay_falls_back_and_matches_svd(self, density_calls):
        rng = np.random.default_rng(12)
        # singular values ~ j^-1/2: far more than 64 modes carry weight
        amp = ((rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)))
               / np.sqrt(np.arange(1, 257)))
        axis = np.arange(1.0, 257.0)
        grid = JSAGrid(signal_axis=axis, idler_axis=axis.copy(), amp=amp)
        assert spectral_mod._sketched_weights(amp)[1] > spectral_mod._SKETCH_MISSED_MASS
        p = schmidt(grid).probabilities
        assert len(density_calls) == 1
        assert np.max(np.abs(p - squared_singular_values(amp))) < 1e-12

    def test_missed_mass_bounds_every_sketched_weight(self):
        rng = np.random.default_rng(13)
        amp = rng.normal(size=(200, 160)) + 1j * rng.normal(size=(200, 160))
        w, missed = spectral_mod._sketched_weights(amp)
        s2 = np.linalg.svd(amp, compute_uv=False)[:len(w)] ** 2
        total = np.vdot(amp, amp).real
        assert missed > 0.1
        # Cauchy interlacing below, Weyl's inequality above
        assert np.all(w <= s2 * (1 + 1e-12))
        assert np.all(s2 - w <= missed * total * (1 + 1e-12))

    @pytest.mark.parametrize("shape", [(64, 300), (300, 40)])
    def test_sketch_is_exact_when_it_spans_the_smaller_side(self, jsa_type1, shape,
                                                            density_calls):
        rng = np.random.default_rng(14)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        grid = JSAGrid(signal_axis=jsa_type1.signal_axis[:shape[0]],
                       idler_axis=jsa_type1.idler_axis[:shape[1]], amp=amp)
        p = schmidt(grid).probabilities
        assert density_calls == []
        assert np.max(np.abs(p - squared_singular_values(amp))) < 1e-12

    def test_config_grid_matches_svd_whether_certified_or_not(self, density_calls):
        crystals = {"type0": CrystalSpec(**json.loads((CONFIGS / "fig_s2_type0.json")
                                                       .read_text())["crystal"]),
                    "type1": TYPE1}
        fallbacks = 0
        for crystal in crystals.values():
            for length_mm in (1.0, 10.0, 50.0):
                for fwhm_nm in (2.0, 12.0, 30.0):
                    for duration_fs in (100.0, 1000.0):
                        grid = compute_jsa(replace(PUMP, duration_fs=duration_fs),
                                           replace(crystal, length_mm=length_mm), fwhm_nm,
                                           GridSpec(256, 120.0))
                        calls = len(density_calls)
                        p = schmidt(grid).probabilities
                        fallbacks += len(density_calls) - calls
                        assert np.max(np.abs(p - squared_singular_values(grid.amp))) < 1e-12
        # both paths run: the sketch certifies most of the 36 and falls back on some
        assert 0 < fallbacks < 18

    def test_config_at_the_certificate_edge_falls_back(self, density_calls):
        # type-0, 30 mm, 12 nm, 100 fs at 512 points misses 1.16e-13 of the
        # mass, just above the 1e-13 the sketch may miss
        cfg = json.loads((CONFIGS / "fig_s2_type0.json").read_text())
        grid = compute_jsa(replace(PUMP, duration_fs=100.0),
                           CrystalSpec(**dict(cfg["crystal"], length_mm=30.0)), 12.0,
                           GridSpec(512, 80.0))
        missed = spectral_mod._sketched_weights(grid.amp)[1]
        assert spectral_mod._SKETCH_MISSED_MASS < missed < 2e-13
        p = schmidt(grid).probabilities
        assert len(density_calls) == 1
        assert np.max(np.abs(p - squared_singular_values(grid.amp))) < 1e-12

    def test_deterministic_and_leaves_global_random_state(self, jsa_type0):
        before = np.random.get_state()
        first = schmidt(jsa_type0).probabilities.tobytes()
        second = schmidt(jsa_type0).probabilities.tobytes()
        after = np.random.get_state()
        assert first == second
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]


class TestReducedDensity:
    def test_trace_one(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-10

    def test_hermitian_psd(self, jsa_type0):
        rho = reduced_density(jsa_type0, "idler")
        assert np.linalg.norm(rho.mat - rho.mat.conj().T) < 1e-12
        assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12

    @pytest.mark.parametrize("step", [1, 3])
    def test_real_density_is_exactly_symmetric(self, jsa_type0, step):
        # step 3 is a column-strided view, which numpy multiplies without BLAS
        grid = JSAGrid(signal_axis=jsa_type0.signal_axis,
                       idler_axis=jsa_type0.idler_axis[::step], amp=jsa_type0.amp[:, ::step])
        for which in ("idler", "signal"):
            mat = reduced_density(grid, which).mat
            assert np.array_equal(mat, mat.T)

    def test_rank1_jsa_gives_pure_state(self):
        rho = reduced_density(gaussian_mode_grid(), "idler")
        assert abs(spectral_purity(rho) - 1.0) < 1e-10


class TestHgModes:
    def test_matched_gaussian_p0_is_one(self):
        rho = reduced_density(gaussian_mode_grid(duration_fs=220.0), "idler")
        probs = hg_mode_probabilities(rho, 220.0, 3)
        assert abs(probs[0] - 1.0) < 1e-6
        assert probs[1] < 1e-6

    def test_type1_p0_regression_and_band(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        probs = hg_mode_probabilities(rho, 220.0, 10)
        assert abs(probs[0] - TYPE1_HG_P0) < 1e-4
        assert abs(probs[0] - 0.894) < 0.05

    def test_ten_mode_completeness(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        probs = hg_mode_probabilities(rho, 220.0, 10)
        assert probs.sum() >= 0.99
        assert probs.sum() <= 1 + 1e-8
        assert np.all(probs >= 0)

    def test_too_short_mode_duration_raises(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        with pytest.raises(GridTooCoarse):
            hg_mode_probabilities(rho, 5000.0, 10)  # modes unresolvable on grid

    @pytest.mark.parametrize("n_modes", [100, 512, 1000])
    def test_modes_past_the_grid_nyquist_limit_raise(self, jsa_type1, n_modes):
        # at 2908 fs the fundamental spans 4.01 grid steps; sqrt(2n - 1) tau dw
        # reads 1.12 pi at 100 modes, where the modes stop being orthonormal
        rho = reduced_density(jsa_type1, "idler")
        with pytest.raises(GridTooCoarse, match="sqrt\\(2 n_modes - 1\\) tau dw <= pi"):
            hg_mode_probabilities(rho, 2908.0, n_modes)

    def test_modes_within_the_grid_nyquist_limit_sum_below_one(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        probs = hg_mode_probabilities(rho, 2908.0, 64)  # 0.894 pi
        assert 0.9 <= probs.sum() <= 1 + 1e-8

    def test_modes_match_scipy_hermite_oracle(self):
        axis = GridSpec(512, 80.0).axis(1560.0)
        tau = 220e-15 / np.sqrt(2)
        omega0 = axis[200]  # off-center, so that the modes are not symmetric on the grid
        dw = axis[1] - axis[0]
        x = tau * (axis - omega0)
        modes = _hg_modes(axis, 41, tau, omega0)
        for n in range(41):
            log_norm = 0.5 * (np.log(tau) - (n * np.log(2) + gammaln(n + 1)
                                             + 0.5 * np.log(np.pi)))
            oracle = np.exp(log_norm) * eval_hermite(n, x) * np.exp(-0.5 * x ** 2) * np.sqrt(dw)
            assert np.max(np.abs(modes[n] - oracle)) < 1e-12


class TestPumpOverlap:
    def test_matched_gaussian_is_one(self):
        rho = reduced_density(gaussian_mode_grid(duration_fs=220.0), "idler")
        assert abs(pump_overlap(rho, PUMP) - 1.0) < 1e-6

    def test_type1_band(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        assert abs(pump_overlap(rho, PUMP) - 0.921) < 0.05

    def test_overlap_equals_fundamental_of_pump_duration(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        p0 = hg_mode_probabilities(rho, PUMP.duration_fs, 1)[0]
        overlap = pump_overlap(rho, PUMP)
        assert abs(overlap - p0) < 1e-12
        assert p0 - 0.05 <= overlap <= 1.0


class TestDelayWidth:
    def test_gaussian_convolution_identity(self):
        # photon and drive both with 220 fs intensity FWHM give a
        # sqrt(2) * 220 fs wide cross-correlation
        dur = 220.0 / np.sqrt(2 * np.log(2))  # envelope duration for 220 fs FWHM
        rho = reduced_density(gaussian_mode_grid(duration_fs=dur), "idler")
        drive = PumpSpec(center_wavelength_nm=780.0, duration_fs=dur)
        width = coincidence_delay_width(rho, drive)
        assert abs(width - np.sqrt(2) * 220.0) < 5.0

    def test_type1_regression_and_band(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        width = coincidence_delay_width(rho, PUMP)
        assert abs(width - TYPE1_DELAY_FS) < 2.0
        assert 350.0 <= width <= 650.0

    def test_type1_matches_direct_convolution(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        assert abs(coincidence_delay_width(rho, PUMP) - convolved_delay_width(rho, PUMP)) < 1e-6

    def test_matched_gaussian_matches_direct_convolution(self):
        rho = reduced_density(gaussian_mode_grid(duration_fs=220.0), "idler")
        assert abs(coincidence_delay_width(rho, PUMP) - convolved_delay_width(rho, PUMP)) < 1e-6

    def test_aliased_lag_sum_names_the_frequency_step(self):
        # 2 pi / dw = 12.9 ps at 128 points, shorter than the 24 ps delay window
        rho = reduced_density(compute_jsa(PUMP, TYPE0, 12.0, GridSpec(128, 80.0)), "idler")
        with pytest.raises(GridTooCoarse, match="repeats the delay profile every 12.9 ps"):
            coincidence_delay_width(rho, PUMP)

    def test_unaliased_window_keeps_the_crossing_message(self):
        # 2 pi / dw = 62.8 ps exceeds the 24 ps window, and a 50 ps drive
        # pulse puts both half-maximum crossings outside it
        axis = 2.4e15 + 1e11 * np.arange(-32, 32)
        amp = np.exp(-((axis - 2.4e15) / 1e12) ** 2)
        rho = SpectralDensity(axis=axis, mat=np.outer(amp, amp) / (amp @ amp))
        with pytest.raises(GridTooCoarse, match="^half-maximum crossings fall outside"):
            coincidence_delay_width(rho, PumpSpec(780.0, 5e4))

    def test_type1_on_the_coarse_grid_keeps_its_width(self):
        rho = reduced_density(compute_jsa(PUMP, TYPE1, 12.0, GridSpec(128, 80.0)), "idler")
        assert abs(coincidence_delay_width(rho, PUMP) - 478.09) < 0.01

    def test_width_monotone_in_inverse_bandwidth(self):
        # narrower filter -> narrower photon spectrum -> wider time profile
        widths = []
        for fwhm in (16.0, 8.0, 4.0):
            grid = compute_jsa(PUMP, TYPE1, fwhm, GridSpec(256, 160.0))
            rho = reduced_density(grid, "idler")
            widths.append(coincidence_delay_width(rho, PUMP))
        assert np.all(np.diff(widths) > 0)


def convolved_delay_width(rho, drive, window_ps=12.0, step_fs=2.0):
    """Delay FWHM from a direct discrete convolution of the photon and drive
    intensities on the time grid."""
    t = np.arange(-window_ps * 500, window_ps * 500 + 1) * step_fs * 1e-15
    drive_int = np.exp(-2.0 * (t / (drive.duration_fs * 1e-15)) ** 2)
    cc = np.convolve(temporal_intensity(rho, t), drive_int, mode="same")
    return _fwhm(t, cc) / 1e-15


def direct_intensity(rho, t):
    """I(t) = sum_jl rho_jl exp(-i (w_j - w_l) t), summed directly."""
    phase = np.exp(-1j * np.outer(t, rho.axis - rho.axis[0]))
    return np.einsum("tj,jl,tl->t", phase, rho.mat, phase.conj()).real


class TestTemporalIntensity:
    T_S = np.arange(-200, 201) * 20e-15

    def assert_matches_direct_sum(self, rho):
        got = temporal_intensity(rho, self.T_S)
        expected = direct_intensity(rho, self.T_S)
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_type1_equals_direct_double_sum(self, jsa_type1):
        self.assert_matches_direct_sum(reduced_density(jsa_type1, "idler"))

    def test_type0_equals_direct_double_sum(self, jsa_type0):
        self.assert_matches_direct_sum(reduced_density(jsa_type0, "idler"))

    # 2 and 3 are the smallest overlaps of the shifted rows in _lag_sum
    @pytest.mark.parametrize("n", [96, 2, 3])
    def test_complex_hermitian_equals_direct_double_sum(self, jsa_type1, n):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = g @ g.conj().T
        axis = jsa_type1.idler_axis[::4][:n]
        rho = SpectralDensity(axis=axis, mat=mat / np.trace(mat).real)
        self.assert_matches_direct_sum(rho)

    def test_non_uniform_frequency_axis_raises(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        axis = rho.axis.copy()
        axis[100] += 1e-3 * (axis[1] - axis[0])
        with pytest.raises(OutOfRange, match="frequency axis"):
            temporal_intensity(SpectralDensity(axis=axis, mat=rho.mat), self.T_S)

    @pytest.mark.parametrize("t_s", [np.array([]), np.array([1e-13])])
    def test_fewer_than_two_time_points_raise(self, jsa_type1, t_s):
        rho = reduced_density(jsa_type1, "idler")
        with pytest.raises(OutOfRange, match="at least 2 time points"):
            temporal_intensity(rho, t_s)

    def test_non_uniform_time_points_raise(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        t_s = self.T_S.copy()
        t_s[7] += 1e-6 * (t_s[1] - t_s[0])
        with pytest.raises(OutOfRange, match="time points"):
            temporal_intensity(rho, t_s)


def peak_in_grids(call, n):
    """Peak memory that ``call`` allocates, in n x n float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


class TestPeakMemory:
    """Peaks in n x n float64 grids at 512 points: 2.13 for compute_jsa, whose
    sinc holds the phase and the amplitude, 1.00 for reduced_density, 0.7
    for the delay width, which holds no n x n array, and 0.16 for jsa_to_csv."""

    def test_compute_jsa(self):
        call = lambda: compute_jsa(PUMP, TYPE1, 12.0, GridSpec(512, 80.0))  # noqa: E731
        assert peak_in_grids(call, 512) <= 2.5

    def test_reduced_density(self, jsa_type1):
        assert peak_in_grids(lambda: reduced_density(jsa_type1, "idler"), 512) <= 1.25

    def test_coincidence_delay_width(self, jsa_type1):
        rho = reduced_density(jsa_type1, "idler")
        assert peak_in_grids(lambda: coincidence_delay_width(rho, PUMP), 512) <= 1.0

    def test_jsa_to_csv(self, tmp_path, jsa_type1):
        # one signal row of the table at a time, where the whole table took 7.0
        path = tmp_path / "jsa.csv"
        assert peak_in_grids(lambda: jsa_to_csv(jsa_type1, path), 512) <= 0.25


class TestEfficiency:
    def test_reported_singles_rates(self):
        eta = estimate_efficiency(100.0, 60e3, 0.8, 0.6)
        assert abs(eta - 0.004444444444444444) < 1e-12
        assert round(eta, 3) == 0.004

    def test_coincidence_variant(self):
        eta = estimate_efficiency(5.0, 2600.0, 0.8, 0.6)
        assert abs(eta - 0.005128205128205128) < 1e-12

    def test_linear_in_rate(self):
        assert abs(estimate_efficiency(200.0, 60e3, 0.8, 0.6)
                   - 2 * estimate_efficiency(100.0, 60e3, 0.8, 0.6)) < 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(OutOfRange):
            estimate_efficiency(0.0, 60e3, 0.8, 0.6)
        with pytest.raises(OutOfRange):
            estimate_efficiency(100.0, 60e3, 1.5, 0.6)
        with pytest.raises(DivisionByZero):
            estimate_efficiency(100.0, 0.0, 0.8, 0.6)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_rates(self, rate, which):
        rates = [100.0, 60e3]
        rates[which] = rate
        with pytest.raises(OutOfRange, match="positive and finite"):
            estimate_efficiency(*rates, 0.8, 0.6)


class TestExport:
    def test_binary_roundtrip(self, tmp_path, jsa_type0):
        path = tmp_path / "jsa.bin"
        jsa_to_binary(jsa_type0, path)
        back = jsa_from_binary(path)
        assert np.array_equal(back.signal_axis, jsa_type0.signal_axis)
        assert np.array_equal(back.idler_axis, jsa_type0.idler_axis)
        assert np.array_equal(back.amp, jsa_type0.amp)

    def test_binary_bytes_unchanged_for_complex_copy(self, tmp_path, jsa_type0):
        jsa_to_binary(jsa_type0, tmp_path / "real.bin")
        jsa_to_binary(complex_copy(jsa_type0), tmp_path / "complex.bin")
        assert (tmp_path / "real.bin").read_bytes() == (tmp_path / "complex.bin").read_bytes()

    def test_binary_is_written_in_row_blocks(self, tmp_path, jsa_type0):
        # the bytes of one whole-array conversion, with at most a quarter grid
        # of extra memory at 512 points
        for grid in (jsa_type0, complex_copy(jsa_type0)):
            reference = (np.array(grid.amp.shape, dtype="<i4").tobytes()
                         + grid.signal_axis.astype("<f8").tobytes()
                         + grid.idler_axis.astype("<f8").tobytes()
                         + grid.amp.astype("<c16").tobytes())
            path = tmp_path / "jsa.bin"
            assert peak_in_grids(lambda: jsa_to_binary(grid, path), 512) <= 0.25
            assert path.read_bytes() == reference

    def test_csv_bytes_are_those_of_the_whole_table(self, tmp_path):
        # the reference: the whole (omega_s, omega_i, re, im) table in one savetxt
        real = compute_jsa(PUMP, TYPE1, 12.0, GridSpec(128, 80.0))
        for grid in (real, JSAGrid(real.signal_axis, real.idler_axis, real.amp * np.exp(0.5j))):
            ns, ni = grid.amp.shape
            table = np.column_stack([np.repeat(grid.signal_axis, ni),
                                     np.tile(grid.idler_axis, ns),
                                     grid.amp.real.ravel(), grid.amp.imag.ravel()])
            np.savetxt(tmp_path / "reference.csv", table, delimiter=",", fmt="%.17g",
                       header="omega_s,omega_i,re,im", comments="")
            jsa_to_csv(grid, tmp_path / "jsa.csv")
            assert (tmp_path / "jsa.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_header_and_shape(self, tmp_path):
        grid = gaussian_mode_grid(points=64)
        path = tmp_path / "jsa.csv"
        jsa_to_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega_s,omega_i,re,im"
        assert len(lines) == 1 + 64 * 64
