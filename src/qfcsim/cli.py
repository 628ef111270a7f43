"""Command-line front end.

Subcommands: drive, sweep-theta, choi, jsa, tomo, bell, efficiency.
Config-driven commands take a strict JSON config, validated once against
its command's entry in qfcsim/data/config.schema.json; every run writes a
JSON summary validated against the schema shipped in
qfcsim/data/run_summary.schema.json, plus CSV/binary artifacts.  Both
checks use qfcsim.schema, the in-repo validator for the draft-07 subset
these schemas use, so that a command does not pay for importing
jsonschema.  Angles are accepted in degrees and converted internally.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import bell as bell_mod
from . import channel as channel_mod
from . import drive as drive_mod
# named jsonschema: bench/tracing.py times summaries via cli.jsonschema.validate
from . import schema as jsonschema
from . import spectral as spectral_mod
from . import states as states_mod
from . import tomography as tomo_mod
from .errors import ConfigError, QfcError


def _schema(name: str) -> dict:
    # data/ is a directory of the package, not a module to import
    return json.loads((resources.files("qfcsim") / "data" / name).read_text())


def _summary_schema() -> dict:
    return _schema("run_summary.schema.json")


def _complex_to_json(m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# The one size cap a schema cannot express: 0.1 deg steps over a full turn.
_MAX_ANGLE_POINTS = 3601


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


def _validate_config(cfg: dict, command: str) -> None:
    """Check ``cfg`` against the entry for ``command`` in data/config.schema.json.

    Raises ConfigError with a one-line message for the most relevant
    violation: the missing or unknown keys of an object, or else the dotted
    path of the offending value and the schema rule it breaks.
    """
    schema = _schema("config.schema.json")
    error = jsonschema.best_match(
        jsonschema.iter_errors(cfg, schema["properties"][command], root=schema))
    if error is None:
        return
    where = ".".join(map(str, error.path)) or "config"
    if error.validator == "required":
        missing = sorted(set(error.validator_value) - set(error.instance))
        raise ConfigError(f"missing key(s) {missing} in {where}")
    if error.validator == "additionalProperties":
        unknown = sorted(set(error.instance) - set(error.schema.get("properties", {})))
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    raise ConfigError(f"{where}: {error.validator} {json.dumps(error.validator_value)}")


def _angle_grid(grid: dict, where: str) -> np.ndarray:
    start, stop, step = (float(grid[key]) for key in ("start", "stop", "step"))
    if not (np.all(np.isfinite([start, stop, step])) and step > 0 and stop >= start):
        raise ConfigError(f"{where}: need finite start, stop and step, step > 0 "
                          "and stop >= start")
    n = (stop - start) / step  # inf when the span overflows
    if not n <= _MAX_ANGLE_POINTS - 1:
        raise ConfigError(f"{where}: more than {_MAX_ANGLE_POINTS} points")
    return start + step * np.arange(int(round(n)) + 1)


def _state_from_config(cfg: dict) -> np.ndarray:
    if cfg["kind"] == "bell":
        return states_mod.bell_state(cfg["label"])
    p = cfg["p"] if "p" in cfg else (2 * cfg["concurrence"] + 1) / 3
    return states_mod.werner_state(float(p))


def _drive_from_config(cfg: dict) -> np.ndarray:
    if "matrix" in cfg:
        return drive_mod.check_drive(
            np.array([[complex(re, im) for re, im in row] for row in cfg["matrix"]]))
    return drive_mod.drive_from_theta(np.deg2rad(float(cfg["theta_deg"])))


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


def _cmd_sweep_theta(cfg: dict, config_sha: str, out_dir: Path) -> None:
    thetas = _angle_grid(cfg["theta_deg"], "theta_deg")
    rho0 = _state_from_config(cfg["input_state"])
    kt = float(cfg["kt"])
    mode = cfg["mode"]
    seed = cfg.get("seed")
    if mode == "sampled":
        mean_pairs = float(cfg["mean_pairs"])
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
    a = _drive_from_config(cfg["drive"])
    rows = []
    for kt in cfg["kt_list"]:
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
    crystal = spectral_mod.CrystalSpec(**cfg["crystal"])
    pump = spectral_mod.PumpSpec(**cfg["pump"])
    grid = spectral_mod.GridSpec(points=int(cfg["grid"]["points"]),
                                 span_nm=cfg["grid"]["span_nm"])
    jsa = spectral_mod.compute_jsa(pump, crystal, cfg["filter_fwhm_nm"], grid)
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


def _cmd_tomo(cfg: dict, config_sha: str, out_dir: Path) -> None:
    rho_true = _state_from_config(cfg["state"])
    settings = tomo_mod.projector_set(int(cfg["settings"]))
    mean_pairs = float(cfg["mean_pairs"])
    seed = int(cfg["seed"])
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
        for name, metric in (("concurrence", states_mod.concurrence),
                             ("purity", states_mod.purity)):
            est = tomo_mod.monte_carlo_metric(records, metric, n_mc, seed)
            results[f"{name}_mc"] = {"value": est.value, "std": est.std,
                                     "n_samples": est.n_samples}
    counts_path = out_dir / "counts.csv"
    tomo_mod.records_to_csv(records, counts_path)
    path = _write_summary(out_dir, "tomo", config_sha, seed, results,
                          {"counts_csv": counts_path.name})
    print(f"fidelity to true state = {results['fidelity_to_true']:.6f}")
    print(f"concurrence = {results['concurrence']:.6f}")
    print(f"summary written to {path}")


def _cmd_bell(cfg: dict, config_sha: str, out_dir: Path) -> None:
    rho = _state_from_config(cfg["state"])
    phis_deg = _angle_grid(cfg["phi_deg"], "phi_deg")
    mode = cfg["mode"]
    seed = cfg.get("seed")
    if mode == "sampled":
        sweep = bell_mod.chsh_sweep(rho, np.deg2rad(phis_deg),
                                    mean_pairs=float(cfg["mean_pairs"]), seed=int(seed))
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


_CONFIG_COMMANDS = {"sweep-theta": _cmd_sweep_theta, "choi": _cmd_choi, "jsa": _cmd_jsa,
                    "tomo": _cmd_tomo, "bell": _cmd_bell}

# the commands whose config has a seed, which --seed overrides
_SEEDED_COMMANDS = ("sweep-theta", "tomo", "bell")


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

    for name in _CONFIG_COMMANDS:
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
            if args.seed is not None and args.command in _SEEDED_COMMANDS:
                cfg["seed"] = args.seed
            _validate_config(cfg, args.command)
            _CONFIG_COMMANDS[args.command](cfg, sha, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # Python float arithmetic on a finite but absurd input, such as a
        # temperature of 1e100 C in the Sellmeier terms
        print(f"error: an input is too large to compute with: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
