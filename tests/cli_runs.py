"""The one table of CLI runs whose artifacts must not change between runs, and
a read-back of what they write. ``PYTHONPATH=src python tests/cli_runs.py OUT``
runs each entry in its own ``python -m qfcsim.cli`` process into ``OUT/<name>``
and reads the artifacts back; two calls write byte-identical trees (``diff -r``).
It imports only the standard library, numpy and qfcsim: no test extras."""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import qfcsim

BUNDLED = Path(__file__).resolve().parent.parent / "configs"
WERNER = {"kind": "werner", "concurrence": 0.919}
PUMP = {"center_wavelength_nm": 780.0, "duration_fs": 220.0}
PHI_SAMPLED = {"state": {"kind": "bell", "label": "phi+"},
               "phi_deg": {"start": 0.0, "stop": 180.0, "step": 1.5},
               "mode": "sampled", "mean_pairs": 10000.0, "seed": 5}

# output directory -> arguments after --out; a dict stands for a config file
# that holds it as one line of JSON
RUNS = {
    "drive": ["drive", "--theta", "22.5"],
    # drives with zero entries, whose signed zeros a closed form can flip
    "drive_0": ["drive", "--theta", "0"],
    "drive_45": ["drive", "--theta", "45"],
    "efficiency": ["efficiency", "100", "60000", "0.8", "0.6"],
    # choi has no bundled config: one drive from a plate angle, one as a matrix
    "choi_theta": ["choi", "--config", {"drive": {"theta_deg": 22.5},
                                        "kt_list": [0.5, 1.0, 1.5707963267948966, 3.0]}],
    "choi_matrix": ["choi", "--config", {
        "drive": {"matrix": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.8]]]},
        "kt_list": [0.5, 1.0, 2.0]}],
    "fig_4": ["sweep-theta", "--config", BUNDLED / "fig_4_theta_sweep.json"],
    "fig_s2_type0": ["jsa", "--config", BUNDLED / "fig_s2_type0.json"],
    "fig_s2_type1": ["jsa", "--config", BUNDLED / "fig_s2_type1.json"],
    "fig_s3": ["jsa", "--config", BUNDLED / "fig_s3_hg_modes.json"],
    "fig_s5": ["bell", "--config", BUNDLED / "fig_s5_phi_sweep.json"],
    "tomo": ["tomo", "--config", BUNDLED / "tomo_rho0.json"],
    # the sampled sweeps and a JSA dumped as CSV, which no bundled config runs
    "theta_sampled": ["sweep-theta", "--config", {
        "theta_deg": {"start": 0.0, "stop": 90.0, "step": 1.0}, "input_state": WERNER,
        "kt": 1e-06, "mode": "sampled", "mean_pairs": 10000.0, "seed": 11}],
    # the exact sweep at the benchmark's 0.1 degree steps: 901 closed-form drives
    "theta_fine": ["sweep-theta", "--config", {
        "theta_deg": {"start": 0.0, "stop": 90.0, "step": 0.1}, "input_state": WERNER,
        "kt": 1e-06, "mode": "exact"}],
    "phi_sampled": ["bell", "--config", PHI_SAMPLED],
    "phi_sampled_seed": ["--seed", "13", "bell", "--config", PHI_SAMPLED],
    "tomo_seed": ["--seed", "9", "tomo", "--config", BUNDLED / "tomo_rho0.json"],
    # tomo_rho0.json at the schema's largest Monte-Carlo stack, on the 16-setting set
    "tomo_cap": ["tomo", "--config", {"state": WERNER, "settings": 16, "mean_pairs": 156000.0,
                                      "seed": 7, "mc_samples": 1000}],
    # a rank-1 state, whose optima sit on the boundary of the state space
    "tomo_phi_plus": ["tomo", "--config", {"state": {"kind": "bell", "label": "phi+"},
                                           "settings": 16, "mean_pairs": 2000.0, "seed": 3,
                                           "mc_samples": 100}],
    # a rank-1 state whose optimum's support misses two basis indices
    "tomo_psi_minus": ["tomo", "--config", {"state": {"kind": "bell", "label": "psi-"},
                                            "settings": 36, "mean_pairs": 156000.0, "seed": 0,
                                            "mc_samples": 100}],
    "jsa_csv": ["jsa", "--config", {
        "crystal": {"length_mm": 10.0, "poling_period_um": 19.67, "temperature_c": 25.0,
                    "interaction": "type0_eee"},
        "pump": PUMP, "filter_fwhm_nm": 12.0, "grid": {"points": 128, "span_nm": 80.0},
        "write_jsa_csv": True}],
    # the benchmark's largest grid, where the JSA is built from its sum-frequency factors
    "jsa_1024": ["jsa", "--config", {
        "crystal": {"length_mm": 10.0, "poling_period_um": 20.3, "temperature_c": 25.5,
                    "interaction": "type1_ooe"},
        "pump": PUMP, "filter_fwhm_nm": 12.0, "grid": {"points": 1024, "span_nm": 80.0},
        "hg_modes": 10, "delay_profile": True}],
}


def run(out: Path, cli) -> None:
    """Run each entry of RUNS into ``out/<name>`` through ``cli(argv)``, which must
    return 0, and read the artifacts back."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            argv = ["--out", str(out / name)]
            for arg in args:
                if isinstance(arg, dict):
                    cfg, arg = arg, Path(tmp) / f"{name}.json"
                    arg.write_text(json.dumps(cfg) + "\n")
                argv.append(str(arg))
            assert cli(argv) == 0, argv
    read_back(out)


def read_back(out: Path) -> None:
    """Read every counts.csv and jsa.bin (square, finite) back; a jsa.csv, whose
    %.17g values round-trip float64, must equal its jsa.bin value for value."""
    counts = sorted(out.glob("*/counts.csv"))
    for path in counts:
        with open(path, newline="") as fh:
            column = [row["counts"] for row in csv.DictReader(fh)]
        assert [str(rec.counts) for rec in qfcsim.records_from_csv(path)] == column, path
    compared = 0
    for path in sorted(out.glob("*/jsa.bin")):
        grid = qfcsim.jsa_from_binary(path)
        ns, ni = grid.amp.shape
        assert ns == ni and np.isfinite(grid.amp).all(), (path, grid.amp.shape)
        if path.with_name("jsa.csv").exists():
            table = np.loadtxt(path.with_name("jsa.csv"), delimiter=",", skiprows=1)
            written = np.column_stack([np.repeat(grid.signal_axis, ni),
                                       np.tile(grid.idler_axis, ns),
                                       grid.amp.real.ravel(), grid.amp.imag.ravel()])
            assert ns == 128 and np.array_equal(table, written), path
            compared += 1
    assert counts and compared, "no counts.csv was read or no jsa.csv compared"


if __name__ == "__main__":
    run(Path(sys.argv[1]), lambda argv: subprocess.run(
        [sys.executable, "-m", "qfcsim.cli", *argv], stdout=subprocess.DEVNULL).returncode)
    print(f"{len(RUNS)} runs written to {sys.argv[1]} and read back")
