"""Command-line front end.

Subcommands: drive, sweep-theta, choi, jsa, tomo, bell, efficiency.
Config-driven commands are the entries of qfcsim/data/config.schema.json;
each takes a strict JSON config validated once against its entry, and
--seed reaches those whose entry declares a seed.  Every run writes a JSON
summary validated against the schema shipped in
qfcsim/data/run_summary.schema.json, plus CSV/binary artifacts; its seed
is null unless the run drew counts.  Both checks use qfcsim.schema, the
in-repo validator for the draft-07 subset these schemas use, so that a
command does not pay for importing jsonschema.  The commands call qfcsim's
public names, which the package imports on first use, so a process imports
only the modules its one command runs.  This module does not import numpy
at load time; the physics modules a command calls do.  So ``efficiency``,
whose module is numpy-free, and every run that stops before the physics
(--help, a usage error, an --out that cannot be made, a config that cannot
be read or that its schema rejects) never load numpy.  A command writes into a staging
directory inside --out and prints nothing until its summary is written; only
then are its files moved into --out and its lines printed, so a run that
fails writes nothing.  Every error, a usage error too, is one stderr line.
The ``qfcsim`` console script and ``python -m qfcsim.cli`` enter through
``run()``, which runs without the cyclic garbage collector; ``main()``
called in-process leaves ``gc`` alone.  Angles are in degrees, converted
with ``math.radians``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import qfcsim as q
from . import __version__
# named jsonschema: bench/tracing.py times summaries via cli.jsonschema.validate
from . import schema as jsonschema
from .errors import ConfigError, QfcError


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    # data/ is a directory of the package, not a module to import; callers
    # only read the cached dict
    return json.loads((resources.files("qfcsim") / "data" / name).read_text())


def _complex_to_json(m):
    """A complex matrix (a numpy array) as rows of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in m.tolist()]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# The one size cap a schema cannot express: 0.1 deg steps over a full turn.
_MAX_ANGLE_POINTS = 3601


def _load_config(path: str) -> tuple[dict, str]:
    import hashlib  # OpenSSL's _hashlib: paid only by a run that reads a config

    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an integer past
        # Python's int-string digit limit; RecursionError: nesting too deep
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


def _angle_grid(grid: dict, where: str) -> list:
    start, stop, step = (float(grid[key]) for key in ("start", "stop", "step"))
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
        raise ConfigError(f"{where}: need finite start, stop and step, step > 0 "
                          "and stop >= start")
    n = (stop - start) / step  # inf when the span overflows
    if not n <= _MAX_ANGLE_POINTS - 1:
        raise ConfigError(f"{where}: more than {_MAX_ANGLE_POINTS} points")
    # round down, but keep a last point that the division left just short; each
    # point rounds as start + step * np.arange(k) does, bit for bit
    return [start + step * i for i in range(int(n + 1e-9) + 1)]


def _state_from_config(cfg: dict):
    if cfg["kind"] == "bell":
        return q.bell_state(cfg["label"])
    return q.werner_state((2 * cfg["concurrence"] + 1) / 3)


def _drive_from_config(cfg: dict):
    # ChannelSpec and drive_concurrence convert the nested lists and reject a
    # matrix not of unit norm
    if "matrix" in cfg:
        return [[complex(re, im) for re, im in row] for row in cfg["matrix"]]
    return q.drive_from_theta(math.radians(float(cfg["theta_deg"])))


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
    jsonschema.validate(summary, _schema("run_summary.schema.json"))
    path = out_dir / f"{command.replace('-', '_')}_summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(out_dir: Path, name: str, header: list, rows) -> str:
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])
    return name


# ---------------------------------------------------------------------------
# subcommands: (config, out_dir) -> (summary results, summary outputs)
# ---------------------------------------------------------------------------

def _cmd_drive(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    import numpy as np  # loaded by drive_from_theta already; only printing needs it here

    a = q.drive_from_theta(math.radians(cfg["theta"]))
    rho_d = q.coherence_matrix(a)
    conc = q.drive_concurrence(a)
    print(f"theta = {cfg['theta']} deg")
    print(f"drive matrix A:\n{np.array_str(a, precision=6, suppress_small=True)}")
    print(f"concurrence C(rho_D) = {conc:.6f}")
    results = {
        "theta_deg": cfg["theta"],
        "drive_matrix": _complex_to_json(a),
        "coherence_matrix": _complex_to_json(rho_d),
        "concurrence": conc,
    }
    return results, {}


def _cmd_sweep_theta(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    thetas = _angle_grid(cfg["theta_deg"], "theta_deg")
    rho0 = _state_from_config(cfg["input_state"])
    kt = float(cfg["kt"])
    sampled = "mean_pairs" in cfg  # the schema then asks for a seed
    if sampled:
        mean_pairs = float(cfg["mean_pairs"])
        settings = q.projector_set(int(cfg.get("settings", 36)))
    c_in = q.concurrence(rho0)
    rows = []
    for i, theta_deg in enumerate(thetas):
        spec = q.ChannelSpec(a=q.drive_from_theta(math.radians(theta_deg)), kt=kt)
        rho_out, _ = q.one_sided_apply(rho0, spec)
        bound = q.choi_concurrence_closed(spec) * c_in
        if sampled:
            records = q.simulate_counts(rho_out, settings, mean_pairs,
                                        seed=[int(cfg["seed"]), i])
            rho_out = q.mle_reconstruct(records)
        rows.append((theta_deg, q.concurrence(rho_out), q.chsh_max(rho_out), bound))
    csv_name = _write_csv(out_dir, "sweep_theta.csv",
                          ["theta_deg", "concurrence", "chsh_max", "bound"], rows)
    results = {
        "n_points": len(rows),
        "kt": kt,
        "mode": "sampled" if sampled else "exact",
        "max_concurrence": max(r[1] for r in rows),
        "max_chsh": max(r[2] for r in rows),
    }
    return results, {"sweep_csv": csv_name}


def _cmd_choi(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    a = _drive_from_config(cfg["drive"])
    rows = []
    for kt in cfg["kt_list"]:
        spec = q.ChannelSpec(a=a, kt=float(kt))
        rows.append((float(kt), q.choi_concurrence_closed(spec), q.duality_distance(spec)))
    csv_name = _write_csv(out_dir, "choi.csv",
                          ["kt", "choi_concurrence", "duality_distance"], rows)
    results = {
        "drive_concurrence": q.drive_concurrence(a),
        "n_points": len(rows),
    }
    return results, {"choi_csv": csv_name}


def _cmd_jsa(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    crystal = q.CrystalSpec(**cfg["crystal"])
    pump = q.PumpSpec(**cfg["pump"])
    grid = q.GridSpec(points=int(cfg["grid"]["points"]), span_nm=cfg["grid"]["span_nm"])
    jsa = q.compute_jsa(pump, crystal, cfg["filter_fwhm_nm"], grid)
    decomp = q.schmidt(jsa)
    purity = q.heralded_purity(decomp)
    rho_i = q.reduced_density(jsa, "idler")
    results = {
        "heralded_purity": purity,
        "schmidt_probabilities": [float(p) for p in decomp.probabilities[:16]],
        "pump_overlap": q.pump_overlap(rho_i, pump),
    }
    q.jsa_to_binary(jsa, out_dir / "jsa.bin")
    outputs = {
        "jsa_binary": "jsa.bin",
        "schmidt_csv": _write_csv(out_dir, "schmidt.csv", ["mode_index", "probability"],
                                  [(str(i), p) for i, p in enumerate(decomp.probabilities[:64])]),
    }
    if cfg.get("write_jsa_csv", False):
        q.jsa_to_csv(jsa, out_dir / "jsa.csv")
        outputs["jsa_csv"] = "jsa.csv"
    n_modes = int(cfg.get("hg_modes", 0))
    if n_modes > 0:
        probs = q.hg_mode_probabilities(rho_i, pump.duration_fs, n_modes)
        outputs["hg_modes_csv"] = _write_csv(out_dir, "hg_modes.csv",
                                             ["mode_index", "probability"],
                                             [(str(i), p) for i, p in enumerate(probs)])
        results["hg_mode_probabilities"] = [float(p) for p in probs]
    if cfg.get("delay_profile", False):
        results["delay_fwhm_fs"] = q.coincidence_delay_width(rho_i, pump)
    print(f"heralded purity = {purity:.4f}")
    return results, outputs


def _cmd_tomo(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    rho_true = _state_from_config(cfg["state"])
    settings = q.projector_set(int(cfg["settings"]))
    mean_pairs = float(cfg["mean_pairs"])
    seed = int(cfg["seed"])
    records = q.simulate_counts(rho_true, settings, mean_pairs, seed)
    rho_mle = q.mle_reconstruct(records)
    results = {
        "fidelity_to_true": q.fidelity(rho_mle, rho_true),
        "concurrence": q.concurrence(rho_mle),
        "purity": q.purity(rho_mle),
        "chsh_max": q.chsh_max(rho_mle),
        "reconstruction": _complex_to_json(rho_mle),
    }
    n_mc = int(cfg.get("mc_samples", 0))
    if n_mc > 0:  # monte_carlo_metric rejects a single sample
        for name, metric in (("concurrence", q.concurrence), ("purity", q.purity)):
            est = q.monte_carlo_metric(records, metric, n_mc, seed)
            results[f"{name}_mc"] = {"value": est.value, "std": est.std,
                                     "n_samples": est.n_samples}
    q.records_to_csv(records, out_dir / "counts.csv")
    print(f"fidelity to true state = {results['fidelity_to_true']:.6f}")
    print(f"concurrence = {results['concurrence']:.6f}")
    return results, {"counts_csv": "counts.csv"}


def _cmd_bell(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    rho = _state_from_config(cfg["state"])
    phis_deg = _angle_grid(cfg["phi_deg"], "phi_deg")
    sampled = "mean_pairs" in cfg  # the schema then asks for a seed
    sweep = q.chsh_sweep(rho, [math.radians(deg) for deg in phis_deg],
                         mean_pairs=float(cfg["mean_pairs"]) if sampled else None,
                         seed=int(cfg["seed"]) if sampled else None)
    rows = [(deg, row[1], row[2] if sampled else "") for deg, row in zip(phis_deg, sweep)]
    csv_name = _write_csv(out_dir, "bell_sweep.csv", ["phi_deg", "B", "B_std_if_sampled"], rows)
    b_values = [r[1] for r in rows]
    i_max = max(range(len(b_values)), key=b_values.__getitem__)  # the first maximum
    results = {
        "mode": "sampled" if sampled else "exact",
        "max_B": b_values[i_max],
        "argmax_phi_deg": float(rows[i_max][0]),
        "horodecki_max": q.chsh_max(rho),
    }
    print(f"max |B| = {results['max_B']:.6f} at phi = {results['argmax_phi_deg']} deg")
    return results, {"sweep_csv": csv_name}


def _cmd_efficiency(cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    eta = q.estimate_efficiency(cfg["r_up"], cfg["r_herald"], cfg["eta_snspd"], cfg["eta_apd"])
    print(f"upconversion efficiency = {eta:.6g} ({100 * eta:.3g}%)")
    results = {
        "r_up_hz": cfg["r_up"],
        "r_herald_hz": cfg["r_herald"],
        "eta_snspd": cfg["eta_snspd"],
        "eta_apd": cfg["eta_apd"],
        "efficiency": eta,
    }
    return results, {}


_COMMANDS = {"drive": _cmd_drive, "sweep-theta": _cmd_sweep_theta, "choi": _cmd_choi,
             "jsa": _cmd_jsa, "tomo": _cmd_tomo, "bell": _cmd_bell,
             "efficiency": _cmd_efficiency}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as every error; subparsers share the class
        self.exit(2, f"config error: {message}\n")


def _build_parser(configs: dict) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfcsim",
        description="Simulate quantum frequency conversion driven by structured light.")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for stochastic commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_drive = sub.add_parser("drive", help="drive matrix and concurrence for a QWP angle")
    p_drive.add_argument("--theta", type=float, required=True, help="QWP angle in degrees")

    for name in configs:
        sub.add_parser(name).add_argument("--config", required=True, help="JSON config path")

    p_eff = sub.add_parser("efficiency", help="upconversion efficiency from rates")
    p_eff.add_argument("r_up", type=float, help="upconverted singles rate (Hz)")
    p_eff.add_argument("r_herald", type=float, help="herald singles rate (Hz)")
    p_eff.add_argument("eta_snspd", type=float, help="SNSPD detection efficiency")
    p_eff.add_argument("eta_apd", type=float, help="APD detection efficiency")
    return parser


def main(argv=None) -> int:
    configs = _schema("config.schema.json")["properties"]
    args = _build_parser(configs).parse_args(argv)
    out_dir = Path(args.out)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or a path through one
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        cfg, sha = vars(args), None
        if args.command in configs:
            cfg, sha = _load_config(args.config)
            # --seed reaches the configs whose schema has the key
            if args.seed is not None and "seed" in configs[args.command]["properties"]:
                cfg["seed"] = args.seed
            _validate_config(cfg, args.command)
        shown = io.StringIO()
        try:
            # the command writes into staging and prints into shown; a run
            # that fails leaves neither a file in out_dir nor a line on stdout
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp, \
                    contextlib.redirect_stdout(shown):
                staging = Path(tmp)
                results, outputs = _COMMANDS[args.command](cfg, staging)
                # only a run that draws counts, whose config then has mean_pairs and
                # a seed, records the seed: an exact sweep ignores a seed it is given
                seed = int(cfg["seed"]) if "mean_pairs" in cfg else None
                summary = _write_summary(staging, args.command, sha, seed, results, outputs)
                names = sorted(os.listdir(staging))
                clash = [name for name in names if (out_dir / name).is_dir()]
                if clash:
                    raise ConfigError(f"cannot write output {out_dir / clash[0]}: Is a directory")
                for name in names:
                    os.replace(staging / name, out_dir / name)
        except OSError as exc:  # a full disk, say; name the file as out_dir holds it
            where = out_dir if exc.filename is None else out_dir / Path(exc.filename).name
            raise ConfigError(f"cannot write output {where}: {exc.strerror or exc}") from exc
        print(shown.getvalue(), end="")
        print(f"summary written to {out_dir / summary.name}")
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


def run() -> None:
    """Run one command as the whole process and exit with its code.

    The process exits once the command is done, so it never needs the cyclic
    collector: it runs without it, and freezes what is alive at the end so
    that the collections of interpreter shutdown do not walk numpy's objects
    again.  Shutdown is otherwise normal: stdio is flushed, atexit runs.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
