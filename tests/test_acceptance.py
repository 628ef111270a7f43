"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report including measured values and runtimes.
"""

import json
import time

import numpy as np
import pytest

import qfcsim as q
from qfcsim.channel import ChannelSpec, converted_marginal_is_mixed
from qfcsim.cli import main
from qfcsim.spectral import CrystalSpec, GridSpec, PumpSpec, reduced_density

from helpers import poisson_limit_std, random_bell_diagonal_rotated, random_drive

RT2 = np.sqrt(2)
PUMP = PumpSpec(center_wavelength_nm=780.0, duration_fs=220.0)
TYPE1 = CrystalSpec(10.0, 20.3, 25.5, "type1_ooe")
TYPE0 = CrystalSpec(10.0, 19.67, 25.0, "type0_eee")


class Criterion:
    """Collects clause results and prints one summary line at the end."""

    def __init__(self, number, title, runtime_limit_s):
        self.number = number
        self.title = title
        self.limit = runtime_limit_s
        self.clauses = []
        self.t0 = time.perf_counter()

    def check(self, name, ok):
        self.clauses.append((name, bool(ok)))

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        self.check(f"runtime {elapsed:.2f}s < {self.limit}s", elapsed < self.limit)
        ok = all(flag for _, flag in self.clauses)
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {self.number} [{status}] {self.title}")
        for name, flag in self.clauses:
            print(f"    [{'ok' if flag else 'FAIL'}] {name}")
        assert ok, f"criterion {self.number} failed: " + "; ".join(
            name for name, flag in self.clauses if not flag)


def test_criterion_1_fig4_curve(tmp_path):
    crit = Criterion(1, "theta sweep reproduces 0.919*|cos 2 theta|", 1.0)
    cfg = tmp_path / "fig4.json"
    cfg.write_text(json.dumps({
        "theta_deg": {"start": 0.0, "stop": 90.0, "step": 1.0},
        "input_state": {"kind": "werner", "concurrence": 0.919},
        "kt": 1e-06,
    }))
    assert main(["--out", str(tmp_path), "sweep-theta", "--config", str(cfg)]) == 0
    rows = (tmp_path / "sweep_theta.csv").read_text().splitlines()[1:]
    worst = 0.0
    for row in rows:
        cols = row.split(",")
        theta = np.deg2rad(float(cols[0]))
        worst = max(worst, abs(float(cols[1]) - 0.919 * abs(np.cos(2 * theta))))
    crit.check(f"91 grid points, max |C - 0.919 cos2t| = {worst:.2e} <= 1e-9",
               worst <= 1e-9)
    crit.finish()


def test_criterion_2_duality_convergence():
    crit = Criterion(2, "Choi state converges to drive coherence matrix at O(kt^2)", 5.0)
    rng = np.random.default_rng(2024)
    kts = np.array([0.2, 0.1, 0.05, 0.025])
    slopes = []
    for _ in range(50):
        a = random_drive(rng)
        d = np.array([q.duality_distance(ChannelSpec(a=a, kt=kt)) for kt in kts])
        slope = np.polyfit(np.log(kts), np.log(d), 1)[0]
        slopes.append(slope)
    crit.check(f"50 random drives, min log-log slope = {min(slopes):.3f} >= 1.9",
               min(slopes) >= 1.9)
    crit.finish()


def test_criterion_3_choi_concurrence_closed_form():
    crit = Criterion(3, "closed-form Choi concurrence matches Wootters on 20x20 grid", 5.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    n_checked = 0
    for c_d in np.linspace(0.0, 1.0, 20):
        sp, sm = q.channel.drive_singular_values(c_d)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        a = (u * np.array([sp, sm])) @ v.conj().T
        for kt in np.linspace(np.pi / 20, np.pi, 20):
            spec = ChannelSpec(a=a, kt=kt)
            try:
                closed = q.choi_concurrence_closed(spec)
            except q.errors.ZeroConversionProbability:
                # genuinely singular corner (e.g. C_D = 0 at kt = pi: a full
                # Rabi cycle converts nothing); both routes must refuse
                with pytest.raises(q.errors.ZeroConversionProbability):
                    q.choi_state(spec)
                continue
            numeric = q.concurrence(q.choi_state(spec))
            worst = max(worst, abs(closed - numeric))
            n_checked += 1
    crit.check(f"{n_checked} grid points, max |closed - Wootters| = {worst:.2e} <= 1e-10",
               worst <= 1e-10)
    crit.finish()


def test_criterion_4_heisenberg_ode_oracle():
    from test_channel import rk4_transfer

    crit = Criterion(4, "mode transfer matches RK4 integration of coupled-mode ODEs", 10.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a = random_drive(rng)
        kt = rng.uniform(0.0, 2.0)
        closed = q.mode_transfer(ChannelSpec(a=a, kt=kt)).matrix
        worst = max(worst, np.linalg.norm(closed - rk4_transfer(a, kt)))
    crit.check(f"100 random (A, kt<=2), max deviation = {worst:.2e} <= 1e-8",
               worst <= 1e-8)
    crit.finish()


def test_criterion_5_konrad_property_suite():
    """1000 random inputs from the maximally-mixed-marginal family (Bell
    mixtures under local unitaries), random drives, kt in (0, 2]; the
    bound is an equality for this family.  Heralded conversion of inputs
    biased toward the weakly converted mode can exceed the bound
    (entanglement concentration); see test_channel.py and the notes."""
    crit = Criterion(5, "entanglement bound holds with equality at mixed marginals", 30.0)
    rng = np.random.default_rng(5)
    all_hold = True
    eq_worst = 0.0
    for _ in range(1000):
        rho0 = random_bell_diagonal_rotated(rng)
        spec = ChannelSpec(a=random_drive(rng), kt=rng.uniform(0.05, 2.0))
        c_out, bound, holds = q.konrad_check(rho0, spec)
        all_hold &= holds
        if converted_marginal_is_mixed(rho0, tol=1e-8):
            eq_worst = max(eq_worst, abs(c_out - bound))
    crit.check("C(rho) <= C(choi) C(rho0) + 1e-9 on all 1000 samples", all_hold)
    crit.check(f"equality at I/2 marginals, max |c - bound| = {eq_worst:.2e} <= 1e-9",
               eq_worst <= 1e-9)
    crit.finish()


def test_criterion_6_spectral_purities():
    crit = Criterion(6, "JSA purities, HG occupancy and pump overlap", 60.0)
    grid = GridSpec(512, 80.0)
    jsa1 = q.compute_jsa(PUMP, TYPE1, 12.0, grid)
    p1 = q.heralded_purity(q.schmidt(jsa1))
    crit.check(f"type-I purity {p1:.4f} within 0.859 +- 0.05", abs(p1 - 0.859) <= 0.05)
    jsa0 = q.compute_jsa(PUMP, TYPE0, 12.0, grid)
    p0_ = q.heralded_purity(q.schmidt(jsa0))
    crit.check(f"type-0 purity {p0_:.4f} within 0.184 +- 0.05", abs(p0_ - 0.184) <= 0.05)
    rho_i = reduced_density(jsa1, "idler")
    hg0 = q.hg_mode_probabilities(rho_i, 220.0, 10)[0]
    crit.check(f"fundamental HG occupancy {hg0:.4f} within 0.894 +- 0.05",
               abs(hg0 - 0.894) <= 0.05)
    ov = q.pump_overlap(rho_i, PUMP)
    crit.check(f"pump overlap {ov:.4f} within 0.921 +- 0.05", abs(ov - 0.921) <= 0.05)
    # pinned-model regression at 1e-4
    crit.check("regression purity 0.8893 +- 1e-4", abs(p1 - 0.8892982862322697) <= 1e-4)
    crit.check("regression type-0 purity 0.2157 +- 1e-4",
               abs(p0_ - 0.21569913459226564) <= 1e-4)
    crit.finish()


def test_criterion_7_delay_width():
    crit = Criterion(7, "coincidence-delay FWHM against the 220 fs drive", 5.0)
    jsa1 = q.compute_jsa(PUMP, TYPE1, 12.0, GridSpec(512, 80.0))
    width = q.coincidence_delay_width(reduced_density(jsa1, "idler"), PUMP)
    crit.check(f"delay FWHM {width:.0f} fs within 500 +- 150 fs",
               abs(width - 500.0) <= 150.0)
    crit.finish()


def test_criterion_8_efficiency_arithmetic():
    crit = Criterion(8, "upconversion efficiency arithmetic", 0.5)
    eta = q.estimate_efficiency(100.0, 60e3, 0.8, 0.6)
    crit.check(f"singles route: {eta:.6f} = 0.00444 (~0.4%)",
               abs(eta - 0.0044444444444) < 1e-9 and round(eta, 3) == 0.004)
    eta2 = q.estimate_efficiency(5.0, 2600.0, 0.8, 0.6)
    crit.check(f"coincidence route: {eta2:.6f} (~0.5%)",
               abs(eta2 - 0.005128205128) < 1e-9 and round(eta2, 3) == 0.005)
    crit.finish()


def test_criterion_9_chsh_sweep():
    crit = Criterion(9, "CHSH sweep: Tsirelson peak and sampled spread", 60.0)
    phis = np.deg2rad(np.arange(0.0, 180.0, 0.25))
    exact = q.chsh_sweep(q.bell_state("phi+"), phis)
    b_max = max(row[1] for row in exact)
    crit.check(f"exact peak {b_max:.12f} = 2 sqrt(2) within 1e-9",
               abs(b_max - 2 * RT2) <= 1e-9)
    # ~5 Hz pair rate for one minute per basis pair
    phi_peak = [phis[int(np.argmax([row[1] for row in exact]))]]
    draws = np.array([q.chsh_sweep(q.bell_state("phi+"), phi_peak,
                                   mean_pairs=300.0, seed=s)[0][1]
                      for s in range(60)])
    spread = draws.std(ddof=1)
    crit.check(f"sampled spread {spread:.3f} is of order 0.1 (in [0.03, 0.3])",
               0.03 <= spread <= 0.3)
    crit.finish()


def test_criterion_10_tomography_round_trip():
    """The MC error bar must equal the Poisson-limited spread of the MLE.

    At 1.56e5 pairs for each setting, the seed-free delta-method reference
    (``poisson_limit_std``: Poisson Fisher information with a free rate, as
    the MLE profiles it out) gives a concurrence std of 7.07e-4 for the
    36-setting protocol and 5.62e-3 for the 16-setting one.  Each MC std
    must lie within a factor 1.3 of its reference, either way: the error of
    a sample std is symmetric in log, and the band excludes a missing
    resample (std 0), a factor sqrt(2) either way (the old 1e-3 lower
    edge), and a per-setting/total count mix-up (3x or 6x)."""
    crit = Criterion(10, "36-setting tomography round trip with MC error bars", 300.0)
    rho_true = q.werner_state((2 * 0.92 + 1) / 3)
    settings = q.projector_set(36)
    records = q.simulate_counts(rho_true, settings, 1.56e5, seed=10)
    rho_mle = q.mle_reconstruct(records)
    fid = q.fidelity(rho_mle, rho_true)
    crit.check(f"fidelity {fid:.5f} > 0.99", fid > 0.99)
    est = q.monte_carlo_metric(records, q.concurrence, n_samples=100, seed=11)
    ref = poisson_limit_std(rho_true, settings, 1.56e5, q.concurrence)
    crit.check(f"MC concurrence std {est.std:.5f} within a factor 1.3 of the "
               f"36-setting Poisson limit {ref:.5f} (7.07e-4)",
               abs(np.log(est.std / ref)) <= np.log(1.3))
    settings16 = q.projector_set(16)
    est16 = q.monte_carlo_metric(
        q.simulate_counts(rho_true, settings16, 1.56e5, seed=10),
        q.concurrence, n_samples=100, seed=11)
    ref16 = poisson_limit_std(rho_true, settings16, 1.56e5, q.concurrence)
    crit.check(f"16-setting MC concurrence std {est16.std:.5f} within a factor "
               f"1.3 of the 16-setting Poisson limit {ref16:.5f} (5.62e-3)",
               abs(np.log(est16.std / ref16)) <= np.log(1.3))
    crit.finish()


def test_criterion_11_experimental_matrices_not_reproduced():
    crit = Criterion(11, "experimental density matrices are not targets", 0.5)
    crit.check("reported matrices exist only as figures; covered by the "
               "property-based round trips of criteria 1, 5, 9 and 10", True)
    crit.finish()
