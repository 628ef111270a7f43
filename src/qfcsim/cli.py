"""Command-line front end.

Subcommands: drive, sweep-theta, choi, jsa, tomo, bell, efficiency.
Config-driven commands take a strict JSON config (unknown keys rejected);
every run writes a JSON summary validated against the schema shipped in
qfcsim/data/run_summary.schema.json, plus CSV/binary artifacts.  Angles
are accepted in degrees and converted internally.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from . import bell as bell_mod
from . import channel as channel_mod
from . import drive as drive_mod
from . import spectral as spectral_mod
from . import states as states_mod
from . import tomography as tomo_mod
from .errors import ConfigError, QfcError


def _summary_schema() -> dict:
    text = resources.files("qfcsim.data").joinpath("run_summary.schema.json").read_text()
    return json.loads(text)


def _complex_to_json(m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _check_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _as_number(obj, key: str, where: str) -> float:
    if key not in obj:
        raise ConfigError(f"missing key(s) {[key]} in {where}")
    val = obj[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(val)


def _angle_grid(cfg: dict, where: str) -> np.ndarray:
    _check_keys(cfg, {"start", "stop", "step"}, {"start", "stop", "step"}, where)
    start = _as_number(cfg, "start", where)
    stop = _as_number(cfg, "stop", where)
    step = _as_number(cfg, "step", where)
    if step <= 0 or stop < start:
        raise ConfigError(f"{where}: need step > 0 and stop >= start")
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def _state_from_config(cfg: dict, where: str = "state") -> np.ndarray:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    kind = cfg.get("kind")
    if kind == "bell":
        _check_keys(cfg, {"kind", "label"}, {"kind", "label"}, where)
        return states_mod.bell_state(cfg["label"])
    if kind == "werner":
        _check_keys(cfg, {"kind", "p", "concurrence"}, {"kind"}, where)
        has_p = "p" in cfg
        has_c = "concurrence" in cfg
        if has_p == has_c:
            raise ConfigError(f"{where}: give exactly one of 'p' or 'concurrence'")
        p = _as_number(cfg, "p", where) if has_p else (2 * _as_number(cfg, "concurrence", where) + 1) / 3
        if not 0 <= p <= 1:
            raise ConfigError(f"{where}: werner weight {p} outside [0, 1]")
        return states_mod.werner_state(p)
    raise ConfigError(f"{where}.kind must be 'bell' or 'werner', got {kind!r}")


def _drive_from_config(cfg: dict, where: str = "drive") -> np.ndarray:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    if "theta_deg" in cfg:
        _check_keys(cfg, {"theta_deg"}, {"theta_deg"}, where)
        return drive_mod.drive_from_theta(np.deg2rad(_as_number(cfg, "theta_deg", where)))
    if "matrix" in cfg:
        _check_keys(cfg, {"matrix"}, {"matrix"}, where)
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in cfg["matrix"]])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.matrix must be 2x2 of [re, im] pairs") from exc
        if m.shape != (2, 2):
            raise ConfigError(f"{where}.matrix must be 2x2")
        return drive_mod.check_drive(m)
    raise ConfigError(f"{where} needs 'theta_deg' or 'matrix'")


def _crystal_from_config(cfg: dict) -> spectral_mod.CrystalSpec:
    _check_keys(cfg, {"length_mm", "poling_period_um", "temperature_c", "interaction"},
                {"length_mm", "poling_period_um", "temperature_c", "interaction"}, "crystal")
    return spectral_mod.CrystalSpec(
        length_mm=_as_number(cfg, "length_mm", "crystal"),
        poling_period_um=_as_number(cfg, "poling_period_um", "crystal"),
        temperature_c=_as_number(cfg, "temperature_c", "crystal"),
        interaction=cfg["interaction"],
    )


def _pump_from_config(cfg: dict) -> spectral_mod.PumpSpec:
    _check_keys(cfg, {"center_wavelength_nm", "duration_fs"},
                {"center_wavelength_nm", "duration_fs"}, "pump")
    return spectral_mod.PumpSpec(
        center_wavelength_nm=_as_number(cfg, "center_wavelength_nm", "pump"),
        duration_fs=_as_number(cfg, "duration_fs", "pump"),
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_summary(out_dir: Path, command: str, config_sha: str | None,
                   seed: int | None, results: dict, outputs: dict) -> Path:
    summary = {
        "command": command,
        "package_version": __version__,
        "config_sha256": config_sha,
        "seed": seed,
        "results": results,
        "outputs": outputs,
    }
    jsonschema.validate(summary, _summary_schema())
    path = out_dir / f"{command.replace('-', '_')}_summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_drive(args, out_dir: Path) -> None:
    theta = np.deg2rad(args.theta)
    a = drive_mod.drive_from_theta(theta)
    rho_d = drive_mod.coherence_matrix(a)
    conc = drive_mod.drive_concurrence(a)
    results = {
        "theta_deg": args.theta,
        "drive_matrix": _complex_to_json(a),
        "coherence_matrix": _complex_to_json(rho_d),
        "concurrence": conc,
    }
    path = _write_summary(out_dir, "drive", None, None, results, {})
    print(f"theta = {args.theta} deg")
    print(f"drive matrix A:\n{np.array_str(a, precision=6, suppress_small=True)}")
    print(f"concurrence C(rho_D) = {conc:.6f}")
    print(f"summary written to {path}")


def _cmd_sweep_theta(cfg: dict, config_sha: str, seed_override, out_dir: Path) -> None:
    _check_keys(cfg, {"theta_deg", "input_state", "kt", "mode", "mean_pairs", "seed",
                      "settings"},
                {"theta_deg", "input_state", "kt", "mode"}, "config")
    thetas = _angle_grid(cfg["theta_deg"], "theta_deg")
    rho0 = _state_from_config(cfg["input_state"], "input_state")
    kt = _as_number(cfg, "kt", "config")
    mode = cfg["mode"]
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if mode == "sampled":
        if seed is None:
            raise ConfigError("sampled mode needs a seed")
        mean_pairs = _as_number(cfg, "mean_pairs", "config")
        settings = tomo_mod.projector_set(int(cfg.get("settings", 36)))
    rows = []
    for i, theta_deg in enumerate(thetas):
        spec = channel_mod.ChannelSpec(a=drive_mod.drive_from_theta(np.deg2rad(theta_deg)), kt=kt)
        rho_out, _ = channel_mod.one_sided_apply(rho0, spec)
        bound = channel_mod.choi_concurrence_closed(spec) * states_mod.concurrence(rho0)
        if mode == "sampled":
            records = tomo_mod.simulate_counts(rho_out, settings, mean_pairs,
                                               seed=[int(seed), i])
            rho_out = tomo_mod.mle_reconstruct(records)
        rows.append((theta_deg, states_mod.concurrence(rho_out),
                     states_mod.chsh_max(rho_out), bound))
    csv_path = out_dir / "sweep_theta.csv"
    _write_csv(csv_path, ["theta_deg", "concurrence", "chsh_max", "bound"], rows)
    results = {
        "n_points": len(rows),
        "kt": kt,
        "mode": mode,
        "max_concurrence": max(r[1] for r in rows),
        "max_chsh": max(r[2] for r in rows),
    }
    path = _write_summary(out_dir, "sweep-theta", config_sha,
                          None if seed is None else int(seed),
                          results, {"sweep_csv": csv_path.name})
    print(f"wrote {csv_path} and {path}")


def _cmd_choi(cfg: dict, config_sha: str, out_dir: Path) -> None:
    _check_keys(cfg, {"drive", "kt_list"}, {"drive", "kt_list"}, "config")
    a = _drive_from_config(cfg["drive"])
    kt_list = cfg["kt_list"]
    if not isinstance(kt_list, list) or not kt_list:
        raise ConfigError("kt_list must be a non-empty list of numbers")
    rows = []
    for kt in kt_list:
        spec = channel_mod.ChannelSpec(a=a, kt=float(kt))
        rows.append((float(kt), channel_mod.choi_concurrence_closed(spec),
                     channel_mod.duality_distance(spec)))
    csv_path = out_dir / "choi.csv"
    _write_csv(csv_path, ["kt", "choi_concurrence", "duality_distance"], rows)
    results = {
        "drive_concurrence": drive_mod.drive_concurrence(a),
        "n_points": len(rows),
    }
    path = _write_summary(out_dir, "choi", config_sha, None, results,
                          {"choi_csv": csv_path.name})
    print(f"wrote {csv_path} and {path}")


def _cmd_jsa(cfg: dict, config_sha: str, out_dir: Path) -> None:
    _check_keys(cfg, {"crystal", "pump", "filter_fwhm_nm", "grid", "hg_modes",
                      "delay_profile", "write_jsa_csv"},
                {"crystal", "pump", "filter_fwhm_nm", "grid"}, "config")
    crystal = _crystal_from_config(cfg["crystal"])
    pump = _pump_from_config(cfg["pump"])
    grid_cfg = cfg["grid"]
    _check_keys(grid_cfg, {"points", "span_nm"}, {"points", "span_nm"}, "grid")
    grid = spectral_mod.GridSpec(points=int(grid_cfg["points"]),
                                 span_nm=_as_number(grid_cfg, "span_nm", "grid"))
    jsa = spectral_mod.compute_jsa(pump, crystal, _as_number(cfg, "filter_fwhm_nm", "config"),
                                   grid)
    decomp = spectral_mod.schmidt(jsa)
    purity = spectral_mod.heralded_purity(decomp)
    rho_i = spectral_mod.reduced_density(jsa, "idler")
    results = {
        "heralded_purity": purity,
        "schmidt_probabilities": [float(p) for p in decomp.probabilities[:16]],
        "pump_overlap": spectral_mod.pump_overlap(rho_i, pump),
    }
    outputs = {}
    bin_path = out_dir / "jsa.bin"
    spectral_mod.jsa_to_binary(jsa, bin_path)
    outputs["jsa_binary"] = bin_path.name
    schmidt_path = out_dir / "schmidt.csv"
    _write_csv(schmidt_path, ["mode_index", "probability"],
               [(str(i), p) for i, p in enumerate(decomp.probabilities[:64])])
    outputs["schmidt_csv"] = schmidt_path.name
    if cfg.get("write_jsa_csv", False):
        csv_path = out_dir / "jsa.csv"
        spectral_mod.jsa_to_csv(jsa, csv_path)
        outputs["jsa_csv"] = csv_path.name
    n_modes = int(cfg.get("hg_modes", 0))
    if n_modes > 0:
        probs = spectral_mod.hg_mode_probabilities(rho_i, pump.duration_fs, n_modes)
        hg_path = out_dir / "hg_modes.csv"
        _write_csv(hg_path, ["mode_index", "probability"],
                   [(str(i), p) for i, p in enumerate(probs)])
        outputs["hg_modes_csv"] = hg_path.name
        results["hg_mode_probabilities"] = [float(p) for p in probs]
    if cfg.get("delay_profile", False):
        results["delay_fwhm_fs"] = spectral_mod.coincidence_delay_width(rho_i, pump)
    path = _write_summary(out_dir, "jsa", config_sha, None, results, outputs)
    print(f"heralded purity = {purity:.4f}")
    print(f"summary written to {path}")


def _cmd_tomo(cfg: dict, config_sha: str, seed_override, out_dir: Path) -> None:
    _check_keys(cfg, {"state", "settings", "mean_pairs", "seed", "mc_samples"},
                {"state", "settings", "mean_pairs", "seed"}, "config")
    rho_true = _state_from_config(cfg["state"])
    settings = tomo_mod.projector_set(int(cfg["settings"]))
    mean_pairs = _as_number(cfg, "mean_pairs", "config")
    seed = int(seed_override if seed_override is not None else cfg["seed"])
    records = tomo_mod.simulate_counts(rho_true, settings, mean_pairs, seed)
    rho_mle = tomo_mod.mle_reconstruct(records)
    results = {
        "fidelity_to_true": states_mod.fidelity(rho_mle, rho_true),
        "concurrence": states_mod.concurrence(rho_mle),
        "purity": states_mod.purity(rho_mle),
        "chsh_max": states_mod.chsh_max(rho_mle),
        "reconstruction": _complex_to_json(rho_mle),
    }
    n_mc = int(cfg.get("mc_samples", 0))
    if n_mc >= 2:
        # one resampled stack serves both metrics, as two
        # monte_carlo_metric calls with the same seed would solve it twice
        rhos = tomo_mod._resampled_mle(records, n_mc, seed)
        for name, metric in (("concurrence", states_mod.concurrence),
                             ("purity", states_mod.purity)):
            est = tomo_mod._metric_with_error(rhos, metric)
            results[f"{name}_mc"] = {"value": est.value, "std": est.std,
                                     "n_samples": est.n_samples}
    counts_path = out_dir / "counts.csv"
    tomo_mod.records_to_csv(records, counts_path)
    path = _write_summary(out_dir, "tomo", config_sha, seed, results,
                          {"counts_csv": counts_path.name})
    print(f"fidelity to true state = {results['fidelity_to_true']:.6f}")
    print(f"concurrence = {results['concurrence']:.6f}")
    print(f"summary written to {path}")


def _cmd_bell(cfg: dict, config_sha: str, seed_override, out_dir: Path) -> None:
    _check_keys(cfg, {"state", "phi_deg", "mode", "mean_pairs", "seed"},
                {"state", "phi_deg", "mode"}, "config")
    rho = _state_from_config(cfg["state"])
    phis_deg = _angle_grid(cfg["phi_deg"], "phi_deg")
    mode = cfg["mode"]
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if mode == "sampled":
        if seed is None:
            raise ConfigError("sampled mode needs a seed")
        sweep = bell_mod.chsh_sweep(rho, np.deg2rad(phis_deg),
                                    mean_pairs=_as_number(cfg, "mean_pairs", "config"),
                                    seed=int(seed))
        rows = [(deg, row[1], row[2]) for deg, row in zip(phis_deg, sweep)]
    else:
        sweep = bell_mod.chsh_sweep(rho, np.deg2rad(phis_deg))
        rows = [(deg, row[1], "") for deg, row in zip(phis_deg, sweep)]
    csv_path = out_dir / "bell_sweep.csv"
    _write_csv(csv_path, ["phi_deg", "B", "B_std_if_sampled"], rows)
    b_values = [r[1] for r in rows]
    i_max = int(np.argmax(b_values))
    results = {
        "mode": mode,
        "max_B": b_values[i_max],
        "argmax_phi_deg": float(rows[i_max][0]),
        "horodecki_max": states_mod.chsh_max(rho),
    }
    path = _write_summary(out_dir, "bell", config_sha,
                          None if seed is None else int(seed),
                          results, {"sweep_csv": csv_path.name})
    print(f"max |B| = {results['max_B']:.6f} at phi = {results['argmax_phi_deg']} deg")
    print(f"summary written to {path}")


def _cmd_efficiency(args, out_dir: Path) -> None:
    eta = spectral_mod.estimate_efficiency(args.r_up, args.r_herald,
                                           args.eta_snspd, args.eta_apd)
    results = {
        "r_up_hz": args.r_up,
        "r_herald_hz": args.r_herald,
        "eta_snspd": args.eta_snspd,
        "eta_apd": args.eta_apd,
        "efficiency": eta,
    }
    path = _write_summary(out_dir, "efficiency", None, None, results, {})
    print(f"upconversion efficiency = {eta:.6g} ({100 * eta:.3g}%)")
    print(f"summary written to {path}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcsim",
        description="Simulate quantum frequency conversion driven by structured light.")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for stochastic commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_drive = sub.add_parser("drive", help="drive matrix and concurrence for a QWP angle")
    p_drive.add_argument("--theta", type=float, required=True, help="QWP angle in degrees")

    for name in ("sweep-theta", "choi", "jsa", "tomo", "bell"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if name in ("sweep-theta", "bell"):
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--exact", action="store_true",
                              help="override the config mode to exact")
            mode.add_argument("--sampled", action="store_true",
                              help="override the config mode to sampled")

    p_eff = sub.add_parser("efficiency", help="upconversion efficiency from rates")
    p_eff.add_argument("r_up", type=float, help="upconverted singles rate (Hz)")
    p_eff.add_argument("r_herald", type=float, help="herald singles rate (Hz)")
    p_eff.add_argument("eta_snspd", type=float, help="SNSPD detection efficiency")
    p_eff.add_argument("eta_apd", type=float, help="APD detection efficiency")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "drive":
            _cmd_drive(args, out_dir)
        elif args.command == "efficiency":
            _cmd_efficiency(args, out_dir)
        else:
            cfg, sha = _load_config(args.config)
            if getattr(args, "exact", False):
                cfg["mode"] = "exact"
            elif getattr(args, "sampled", False):
                cfg["mode"] = "sampled"
            if args.command == "sweep-theta":
                _cmd_sweep_theta(cfg, sha, args.seed, out_dir)
            elif args.command == "choi":
                _cmd_choi(cfg, sha, out_dir)
            elif args.command == "jsa":
                _cmd_jsa(cfg, sha, out_dir)
            elif args.command == "tomo":
                _cmd_tomo(cfg, sha, args.seed, out_dir)
            elif args.command == "bell":
                _cmd_bell(cfg, sha, args.seed, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
