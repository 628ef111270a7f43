import ast
import contextlib
import copy
import errno
import gc
import io
import json
import re
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_runs
import qfcsim
from helpers import fresh_cli, fresh_python, jsonschema_config_message
from qfcsim import cli as cli_mod
from qfcsim import schema as schema_mod
from qfcsim import states as states_mod
from qfcsim import tomography as tomo_mod
from qfcsim.cli import main, _angle_grid, _schema, _validate_config
from qfcsim.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = {
    "fig_4_theta_sweep.json": "sweep-theta",
    "fig_s2_type0.json": "jsa",
    "fig_s2_type1.json": "jsa",
    "fig_s3_hg_modes.json": "jsa",
    "fig_s5_phi_sweep.json": "bell",
    "tomo_rho0.json": "tomo",
}
CHOI = {"drive": {"theta_deg": 22.5}, "kt_list": [0.1, 0.2]}
# the config schema's entry of each config-driven command
SCHEMA_PROPERTIES = {name: entry["properties"]
                     for name, entry in _schema("config.schema.json")["properties"].items()}


def read_summary(out_dir: Path, command: str) -> dict:
    path = out_dir / f"{command.replace('-', '_')}_summary.json"
    summary = json.loads(path.read_text())
    jsonschema.validate(summary, _schema("run_summary.schema.json"))
    return summary


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """The artifacts of one in-process pass over the table of cli_runs."""
    out = tmp_path_factory.mktemp("cli_runs")
    cli_runs.run(out, main)
    return out


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestDrive:
    @pytest.mark.parametrize("theta,expected", [(0.0, 1.0), (45.0, 0.0),
                                                (22.5, 0.70711)])
    def test_reference_angles(self, tmp_path, capsys, theta, expected):
        assert main(["--out", str(tmp_path), "drive", "--theta", str(theta)]) == 0
        summary = read_summary(tmp_path, "drive")
        assert abs(summary["results"]["concurrence"] - expected) < 1e-5
        assert f"{expected:.1f}"[0] in capsys.readouterr().out


class TestSweepTheta:
    def test_fig4_config_exact_curve(self, cli_tree):
        header, rows = read_csv(cli_tree / "fig_4" / "sweep_theta.csv")
        assert header == ["theta_deg", "concurrence", "chsh_max", "bound"]
        assert len(rows) == 91
        for row in rows:
            theta = np.deg2rad(float(row[0]))
            expected = 0.919 * abs(np.cos(2 * theta))
            assert abs(float(row[1]) - expected) < 1e-9
        # at 45 deg entanglement and nonlocality are gone
        row45 = rows[45]
        assert float(row45[1]) < 1e-9
        assert float(row45[2]) <= 2.0 + 1e-9

    def test_sampled_mode_tracks_bound(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "theta_deg": {"start": 0.0, "stop": 45.0, "step": 22.5},
            "input_state": {"kind": "bell", "label": "phi+"},
            "kt": 0.5,
            "mean_pairs": 5e4,
            "seed": 3,
            "settings": 36,
        }))
        assert main(["--out", str(tmp_path), "sweep-theta", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "sweep_theta.csv")
        for row in rows:
            assert abs(float(row[1]) - float(row[3])) < 0.05

    def test_adjacent_seeds_share_no_count_vector(self, tmp_path, monkeypatch):
        # each point's count stream, drawn on one fixed state so that equal
        # streams give equal count vectors
        vectors = []
        simulate = tomo_mod.simulate_counts

        def spy(rho, settings, mean_pairs, seed):
            fixed = simulate(np.eye(4) / 4, settings, mean_pairs, seed)
            vectors.append(tuple(rec.counts for rec in fixed))
            return simulate(rho, settings, mean_pairs, seed)

        monkeypatch.setattr(qfcsim, "simulate_counts", spy)  # the name the CLI calls
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "theta_deg": {"start": 0.0, "stop": 20.0, "step": 5.0},
            "input_state": {"kind": "bell", "label": "phi+"},
            "kt": 0.5,
            "mean_pairs": 1e3,
            "settings": 16,
        }))
        for seed in ("7", "8"):
            assert main(["--out", str(tmp_path / seed), "--seed", seed,
                         "sweep-theta", "--config", str(cfg)]) == 0
        assert len(vectors) == 10
        assert not set(vectors[:5]) & set(vectors[5:])


class TestChoi:
    def test_duality_columns(self, tmp_path):
        cfg = tmp_path / "choi.json"
        cfg.write_text(json.dumps({
            "drive": {"theta_deg": 10.0},
            "kt_list": [0.2, 0.1, 0.05, 0.025, 0.01],
        }))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "choi.csv")
        dist = [float(r[2]) for r in rows]
        assert dist[-1] < 1e-3  # kt = 0.01
        # halving kt quarters the distance
        for a, b in zip(dist[:3], dist[1:4]):
            assert 3.6 <= a / b <= 4.4

    def test_maximally_nonseparable_drive(self, tmp_path):
        cfg = tmp_path / "choi.json"
        cfg.write_text(json.dumps({
            "drive": {"theta_deg": 0.0},
            "kt_list": [0.3, 1.0, 2.0],
        }))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "choi.csv")
        assert all(abs(float(r[1]) - 1.0) < 1e-9 for r in rows)

    def test_explicit_matrix_drive(self, tmp_path):
        s = 1 / np.sqrt(2)
        cfg = tmp_path / "choi.json"
        cfg.write_text(json.dumps({
            "drive": {"matrix": [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]},
            "kt_list": [0.5],
        }))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "choi")
        assert abs(summary["results"]["drive_concurrence"] - 1.0) < 1e-12

    def test_matrix_drive_not_of_unit_norm_is_a_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "choi.json"
        cfg.write_text(json.dumps({
            "drive": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
            "kt_list": [0.5],
        }))
        out = tmp_path / "out"
        assert main(["--out", str(out), "choi", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"error: drive matrix has norm {float(np.sqrt(2))!r}, expected 1\n"
        assert list(out.iterdir()) == []


class TestJsa:
    def test_fig_s2_type1_bundle(self, cli_tree):
        out = cli_tree / "fig_s2_type1"
        summary = read_summary(out, "jsa")
        res = summary["results"]
        assert abs(res["heralded_purity"] - 0.859) < 0.05
        assert abs(res["hg_mode_probabilities"][0] - 0.894) < 0.05
        assert abs(res["pump_overlap"] - 0.921) < 0.05
        assert 350 <= res["delay_fwhm_fs"] <= 650
        # Tr rho^2 of the reduced density is heralded_purity; it is reported once
        assert "reduced_purity" not in res
        assert (out / summary["outputs"]["jsa_binary"]).exists()
        assert (out / summary["outputs"]["schmidt_csv"]).exists()
        assert (out / summary["outputs"]["hg_modes_csv"]).exists()

    def test_fig_s2_type0_bundle(self, cli_tree):
        summary = read_summary(cli_tree / "fig_s2_type0", "jsa")
        assert abs(summary["results"]["heralded_purity"] - 0.184) < 0.05

    def test_write_jsa_csv(self, cli_tree):
        out = cli_tree / "jsa_csv"
        assert read_summary(out, "jsa")["outputs"]["jsa_csv"] == "jsa.csv"
        assert len((out / "jsa.csv").read_text().splitlines()) == 128 ** 2 + 1


class TestTomo:
    def test_tomo_round_trip(self, tmp_path):
        cfg = tmp_path / "tomo.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "werner", "concurrence": 0.919},
            "settings": 36,
            "mean_pairs": 2e4,
            "seed": 5,
            "mc_samples": 10,
        }))
        assert main(["--out", str(tmp_path), "tomo", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "tomo")
        res = summary["results"]
        assert res["fidelity_to_true"] > 0.99
        assert abs(res["concurrence"] - 0.919) < 0.05
        assert res["concurrence_mc"]["n_samples"] == 10
        assert (tmp_path / summary["outputs"]["counts_csv"]).exists()

    # the Bell states' optima sit on the boundary of the state space; a
    # fixed-basis MLE failed on psi+ and psi- for many of these seeds
    @pytest.mark.parametrize("settings", [16, 36])
    @pytest.mark.parametrize("label", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_states_solve_for_every_seed(self, tmp_path, capsys, label, settings):
        cfg = tmp_path / "tomo.json"
        cfg.write_text(json.dumps({"state": {"kind": "bell", "label": label},
                                   "settings": settings, "mean_pairs": 1.56e5, "seed": 0,
                                   "mc_samples": 100}))
        for seed in range(10):
            out = tmp_path / str(seed)
            assert main(["--out", str(out), "--seed", str(seed), "tomo",
                         "--config", str(cfg)]) == 0, capsys.readouterr().err
            assert read_summary(out, "tomo")["seed"] == seed

    def test_seed_flag_overrides(self, cli_tree):
        # tomo_rho0.json as is and with --seed 9; TestCliRuns reruns both
        assert read_summary(cli_tree / "tomo_seed", "tomo")["seed"] == 9
        counts = [(cli_tree / name / "counts.csv").read_bytes() for name in ("tomo", "tomo_seed")]
        assert counts[0] != counts[1]

    def test_mc_fields_equal_direct_calls_from_one_solve(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tomo.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "werner", "concurrence": 0.919},
            "settings": 16,
            "mean_pairs": 1e4,
            "seed": 3,
            "mc_samples": 12,
        }))
        solves = []
        mle_stack = tomo_mod._mle_stack

        def spy(kets, counts):
            solves.append(len(counts))
            return mle_stack(kets, counts)

        monkeypatch.setattr(tomo_mod, "_mle_stack", spy)
        assert main(["--out", str(tmp_path), "tomo", "--config", str(cfg)]) == 0
        assert solves == [1, 12]  # the point estimate, then one MC stack
        res = read_summary(tmp_path, "tomo")["results"]
        records = tomo_mod.records_from_csv(tmp_path / "counts.csv")
        for name, metric in (("concurrence", states_mod.concurrence),
                             ("purity", states_mod.purity)):
            est = tomo_mod.monte_carlo_metric(records, metric, 12, 3)
            assert res[f"{name}_mc"] == {"value": est.value, "std": est.std,
                                         "n_samples": 12}

    def test_single_mc_sample_is_an_error(self, tmp_path, capsys):
        # 0 turns the error bars off; 1 is not a spread, so the library rejects it
        cfg = tmp_path / "tomo.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "bell", "label": "phi+"},
            "settings": 16,
            "mean_pairs": 1e3,
            "seed": 5,
            "mc_samples": 1,
        }))
        assert main(["--out", str(tmp_path), "tomo", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: n_samples must be >= 2, got 1\n"
        assert not (tmp_path / "tomo_summary.json").exists()


class TestBell:
    def test_fig_s5_exact_bundle(self, cli_tree):
        summary = read_summary(cli_tree / "fig_s5", "bell")
        assert abs(summary["results"]["max_B"] - 2 * np.sqrt(2)) < 1e-9
        header, rows = read_csv(cli_tree / "fig_s5" / "bell_sweep.csv")
        assert header == ["phi_deg", "B", "B_std_if_sampled"]
        assert rows[0][2] == ""  # exact mode leaves the std column empty

    def test_sampled_mode(self, cli_tree):
        _, rows = read_csv(cli_tree / "phi_sampled" / "bell_sweep.csv")
        stds = [float(r[2]) for r in rows]
        assert all(s > 0 for s in stds)


class TestEfficiency:
    def test_reported_rates(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "efficiency",
                     "100", "60000", "0.8", "0.6"]) == 0
        summary = read_summary(tmp_path, "efficiency")
        assert abs(summary["results"]["efficiency"] - 0.0044444444) < 1e-9
        assert "0.444" in capsys.readouterr().out

    @pytest.mark.parametrize("rates", [["nan", "60000"], ["inf", "60000"],
                                       ["100", "nan"], ["100", "inf"]])
    def test_non_finite_rate_is_a_one_line_error(self, tmp_path, capsys, rates):
        assert main(["--out", str(tmp_path), "efficiency", *rates, "0.8", "0.6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: r_") and "must be positive and finite" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "efficiency_summary.json").exists()

    def test_efficiency_beyond_the_float_range_is_a_one_line_error(self, tmp_path, capsys):
        # finite rates whose ratio overflows; inf would be written as the
        # non-JSON token Infinity
        assert main(["--out", str(tmp_path), "efficiency", "1e308", "1e-308", "1", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an input is too large to compute with: efficiency inf")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "efficiency_summary.json").exists()


def _small_configs() -> dict:
    """A quick config of every config-driven command; the seeded ones sampled."""
    jsa = json.loads((CONFIGS / "fig_s2_type0.json").read_text())
    jsa["grid"]["points"] = 64
    bell_state = {"kind": "bell", "label": "phi+"}
    return {
        "sweep-theta": {"theta_deg": {"start": 0.0, "stop": 10.0, "step": 10.0},
                        "input_state": bell_state, "kt": 0.5, "mean_pairs": 1e3, "seed": 3,
                        "settings": 16},
        "choi": CHOI,
        "jsa": jsa,
        "tomo": {"state": bell_state, "settings": 16, "mean_pairs": 1e3, "seed": 3},
        "bell": {"state": bell_state, "phi_deg": {"start": 0.0, "stop": 45.0, "step": 22.5},
                 "mean_pairs": 100.0, "seed": 3},
    }


SMALL_CONFIGS = _small_configs()


class TestSchemaDerivedFlags:
    """--seed reaches the commands whose config schema declares a seed, and
    no others; every other value comes from the config alone."""

    def test_schema_declarations(self):
        assert sorted(SMALL_CONFIGS) == sorted(SCHEMA_PROPERTIES)
        assert sorted(c for c, props in SCHEMA_PROPERTIES.items()
                      if "seed" in props) == ["bell", "sweep-theta", "tomo"]

    @pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
    def test_seed_flag_reaches_exactly_the_seeded_configs(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIGS[command]))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "5", command, "--config", str(cfg)]) == 0
        expected = 5 if "seed" in SCHEMA_PROPERTIES[command] else None
        assert read_summary(out, command)["seed"] == expected

    @pytest.mark.parametrize("command", ["bell", "sweep-theta"])
    def test_mean_pairs_alone_asks_for_sampling(self, tmp_path, command):
        # without mean_pairs, a seed and the settings are accepted and unused
        sampled = SMALL_CONFIGS[command]
        configs = [sampled, {k: v for k, v in sampled.items() if k != "mean_pairs"},
                   {k: v for k, v in sampled.items() if k not in ("mean_pairs", "seed",
                                                                  "settings")}]
        modes, sweeps = [], []
        for i, cfg in enumerate(configs):
            path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
            path.write_text(json.dumps(cfg))
            assert main(["--out", str(out), command, "--config", str(path)]) == 0
            summary = read_summary(out, command)
            modes.append(summary["results"]["mode"])
            sweeps.append((out / summary["outputs"]["sweep_csv"]).read_bytes())
        assert modes == ["sampled", "exact", "exact"]
        assert sweeps[0] != sweeps[1] == sweeps[2]

    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "5"]], ids=["config", "flag"])
    @pytest.mark.parametrize("command", ["bell", "sweep-theta"])
    def test_exact_run_records_no_seed(self, tmp_path, command, seed_flag):
        # an exact sweep draws nothing, so the seed of its config or of --seed is unused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in SMALL_CONFIGS[command].items()
                                   if k != "mean_pairs"}))
        assert main(["--out", str(tmp_path), *seed_flag, command, "--config", str(cfg)]) == 0
        assert read_summary(tmp_path, command)["seed"] is None

    @pytest.mark.parametrize("argv", [["drive", "--theta", "10"],
                                      ["efficiency", "100", "60000", "0.8", "0.6"]])
    def test_seed_flag_leaves_argument_commands_unseeded(self, tmp_path, argv):
        assert main(["--out", str(tmp_path), "--seed", "5"] + argv) == 0
        assert read_summary(tmp_path, argv[0])["seed"] is None

    @pytest.mark.parametrize("argv", [[command, "--config", "cfg.json"]
                                      for command in sorted(SMALL_CONFIGS)]
                             + [["drive", "--theta", "10"],
                                ["efficiency", "100", "60000", "0.8", "0.6"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--exact", "--sampled"])
    def test_no_command_takes_a_mode_flag(self, tmp_path, capsys, argv, flag):
        # argparse rejects the flag before the config is read
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), *argv, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "drive": {"theta_deg": 0.0},
            "kt_list": [0.1],
            "typo_key": 1,
        }))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 2

    def test_missing_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"drive": {"theta_deg": 0.0}}))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 2

    def test_bad_json_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 2

    def test_non_object_root_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"

    @pytest.mark.parametrize("raw", [
        b'{"kt": 1\xff\xfe}', b"[" * 100000 + b"]" * 100000, b'{"kt": ' + b"1" * 5000 + b"}",
    ], ids=["not-utf8", "nested-1e5-deep", "int-of-5000-digits"])
    def test_undecodable_config_is_a_one_line_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep-theta", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config {path} is not valid JSON: ")
        assert len(captured.err.splitlines()) == 1
        assert list(out.iterdir()) == []

    def test_missing_file_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path), "choi",
                     "--config", str(tmp_path / "nope.json")]) == 2

    def test_physics_error_exit_code(self, tmp_path):
        # kt = 0 makes the channel undefined: exit 1, not a crash
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "theta_deg": {"start": 0.0, "stop": 5.0, "step": 5.0},
            "input_state": {"kind": "bell", "label": "phi+"},
            "kt": 0.0,
        }))
        assert main(["--out", str(tmp_path), "sweep-theta", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("kt", [float("nan"), -0.1])
    def test_bad_kt_is_a_one_line_error(self, tmp_path, capsys, kt):
        cfg = tmp_path / "choi.json"
        cfg.write_text(json.dumps({"drive": {"theta_deg": 0.0}, "kt_list": [kt]}))
        assert main(["--out", str(tmp_path), "choi", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kt must be finite and >= 0")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("mean_pairs", [1e30, float("nan")])
    @pytest.mark.parametrize("command,cfg", [
        ("tomo", {"state": {"kind": "bell", "label": "phi+"}, "settings": 16, "seed": 1}),
        ("bell", {"state": {"kind": "bell", "label": "phi+"}, "seed": 1,
                  "phi_deg": {"start": 0.0, "stop": 45.0, "step": 22.5}}),
    ])
    def test_bad_mean_pairs_is_a_one_line_error(self, tmp_path, capsys, command, cfg,
                                                mean_pairs):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "mean_pairs": mean_pairs}))
        assert main(["--out", str(tmp_path), command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mean_pairs must be finite and at most 1e+15")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("path,value", [(["crystal", "temperature_c"], 1e143),
                                            (["pump", "duration_fs"], 1e300)])
    def test_input_too_large_for_floats_is_a_one_line_error(self, tmp_path, capsys, path,
                                                            value):
        cfg = json.loads((CONFIGS / "fig_s2_type0.json").read_text())
        cfg[path[0]][path[1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an input is too large to compute with")
        assert len(err.splitlines()) == 1

    def test_integer_beyond_the_float_range_is_a_one_line_error(self, tmp_path, capsys):
        cfg = {**json.loads((CONFIGS / "fig_4_theta_sweep.json").read_text()), "kt": 10 ** 400}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "sweep-theta", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an input is too large to compute with: ")
        assert len(err.splitlines()) == 1

    def test_infinite_poling_period_is_a_one_line_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "fig_s2_type1.json").read_text())
        cfg["crystal"]["poling_period_um"] = float("inf")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert "Infinity" in cfg_path.read_text()
        assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: crystal length and poling period must be positive")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("path,value,message", [
        (["pump", "center_wavelength_nm"], 1e-320,
         "error: pump wavelength 1e-320 nm is too small to compute with"),
        (["grid", "span_nm"], 3120.0,
         "error: grid span 3120.0 nm must be less than twice the center wavelength"),
    ], ids=["pump_wavelength", "grid_span"])
    def test_zero_wavelength_is_a_one_line_error(self, tmp_path, capsys, path, value,
                                                 message):
        cfg = json.loads((CONFIGS / "fig_s2_type1.json").read_text())
        cfg[path[0]][path[1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["bell", "sweep-theta"])
    def test_mean_pairs_without_seed_is_a_config_error(self, tmp_path, capsys, command):
        cfg = {k: v for k, v in SMALL_CONFIGS[command].items() if k != "seed"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: missing key(s) ['seed'] in config\n"
        assert not list(tmp_path.glob("*_summary.json"))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("command,config", [
        ("bell", "fig_s5_phi_sweep.json"),
        ("sweep-theta", "fig_4_theta_sweep.json"),
    ])
    def test_mode_key_is_rejected(self, tmp_path, capsys, command, config, mode):
        # sampling is asked for by mean_pairs alone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads((CONFIGS / config).read_text()), "mode": mode}))
        assert main(["--out", str(tmp_path), command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: unknown key(s) ['mode'] in config\n"

    @pytest.mark.parametrize("parts", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, tmp_path, capsys, parts):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker.joinpath(*parts)
        assert main(["--out", str(out), "drive", "--theta", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == ""

    # writer -> (arguments after --out, a config for --config or None, the file it writes)
    WRITERS = {
        "_write_summary": (["drive", "--theta", "10"], None, "drive_summary.json"),
        "_write_csv": (["sweep-theta"], {k: v for k, v in SMALL_CONFIGS["sweep-theta"].items()
                                         if k != "mean_pairs"}, "sweep_theta.csv"),
        "jsa_to_binary": (["jsa"], SMALL_CONFIGS["jsa"], "jsa.bin"),
        "records_to_csv": (["tomo"], SMALL_CONFIGS["tomo"], "counts.csv"),
    }

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_output_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys, writer):
        args, cfg, name = self.WRITERS[writer]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = [*args, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory where the file would go
        assert main(["--out", str(out), *args]) == 2
        # one line, no traceback
        assert capsys.readouterr().err == \
            f"config error: cannot write output {out / name}: Is a directory\n"

    @pytest.mark.parametrize("args,cfg,name", [
        (["jsa"], SMALL_CONFIGS["jsa"], "schmidt.csv"),
        (["drive", "--theta", "10"], None, "drive_summary.json"),
        (["tomo"], SMALL_CONFIGS["tomo"], "tomo_summary.json"),
    ], ids=["jsa-after-jsa.bin", "drive-after-printing", "tomo-after-counts.csv"])
    def test_a_run_that_cannot_write_writes_nothing(self, tmp_path, capsys, args, cfg, name):
        # files are moved into --out, and lines printed, only once all are written
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = [*args, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["--out", str(out), *args]) == 2
        assert capsys.readouterr().out == ""
        assert [p.relative_to(out) for p in out.rglob("*")] == [Path(name)]

    def test_a_failed_write_names_the_file_in_out(self, tmp_path, capsys, monkeypatch):
        def full_disk(records, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(qfcsim, "records_to_csv", full_disk)
        (tmp_path / "cfg.json").write_text(json.dumps(SMALL_CONFIGS["tomo"]))
        out = tmp_path / "out"
        assert main(["--out", str(out), "tomo", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot write output {out / 'counts.csv'}: "
                "No space left on device\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("state,message", [
        ({"kind": "werner", "p": 0.9}, "unknown key(s) ['p'] in state"),
        ({"kind": "werner", "p": 0.9, "concurrence": 0.85}, "unknown key(s) ['p'] in state"),
        ({"kind": "werner"}, "missing key(s) ['concurrence'] in state"),
    ], ids=["p", "p-and-concurrence", "no-weight"])
    def test_werner_state_is_given_by_its_concurrence_alone(self, tmp_path, capsys, state,
                                                           message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads((CONFIGS / "tomo_rho0.json").read_text()),
                                    "state": state}))
        assert main(["--out", str(tmp_path), "tomo", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bundled_configs_all_load(self, tmp_path):
        # every shipped config parses and passes strict validation
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(BUNDLED)
        for name, command in BUNDLED.items():
            _validate_config(json.loads((CONFIGS / name).read_text()), command)

    @pytest.mark.parametrize("name", ["config.schema.json", "run_summary.schema.json"])
    def test_schemas_are_valid_draft7(self, name):
        jsonschema.Draft7Validator.check_schema(_schema(name))

    @pytest.mark.parametrize("command,base,path,value,flags", [
        ("choi", CHOI, ["kt_list"], ["x"], []),
        ("choi", CHOI, ["kt_list"], [0.1, True], []),
        ("tomo", "tomo_rho0.json", ["settings"], "abc", []),
        ("jsa", "fig_s3_hg_modes.json", ["hg_modes"], "x", []),
        ("jsa", "fig_s3_hg_modes.json", ["hg_modes"], 2.7, []),
        ("tomo", "tomo_rho0.json", ["mc_samples"], "x", []),
        ("tomo", "tomo_rho0.json", ["mc_samples"], 1e9, []),
        ("tomo", "tomo_rho0.json", ["seed"], "abc", []),
        ("tomo", "tomo_rho0.json", ["seed"], 1.5, []),
        ("tomo", "tomo_rho0.json", ["state", "label"], 5, []),
        ("jsa", "fig_s2_type0.json", ["grid"], 5, []),
        ("jsa", "fig_s2_type0.json", ["grid", "points"], "512", []),
        ("jsa", "fig_s2_type0.json", ["grid", "points"], 1e9, []),
        ("jsa", "fig_s2_type0.json", ["crystal"], "abc", []),
        ("bell", "fig_s5_phi_sweep.json", ["phi_deg", "start"], float("nan"), []),
        ("bell", "fig_s5_phi_sweep.json", ["phi_deg", "stop"], float("inf"), []),
        ("bell", "fig_s5_phi_sweep.json", ["phi_deg", "step"], 1e-300, []),
        ("tomo", "tomo_rho0.json", ["seed"], 7, ["--seed", "-1"]),
    ])
    def test_malformed_config_is_a_one_line_config_error(self, tmp_path, capsys, command,
                                                         base, path, value, flags):
        cfg = copy.deepcopy(CHOI if isinstance(base, dict)
                            else json.loads((CONFIGS / base).read_text()))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), *flags, command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", [
        {"start": float("nan"), "stop": 90.0, "step": 1.0},
        {"start": 0.0, "stop": float("nan"), "step": 1.0},
        {"start": 0.0, "stop": 90.0, "step": float("nan")},
        {"start": float("-inf"), "stop": 90.0, "step": 1.0},
        {"start": 0.0, "stop": float("inf"), "step": 1.0},
        {"start": 0.0, "stop": 90.0, "step": float("inf")},
        {"start": -1e308, "stop": 1e308, "step": 1.0},
        {"start": 0.0, "stop": 360.0, "step": 0.0999},
    ])
    @pytest.mark.parametrize("command,config,key", [
        ("bell", "fig_s5_phi_sweep.json", "phi_deg"),
        ("sweep-theta", "fig_4_theta_sweep.json", "theta_deg"),
    ])
    def test_bad_angle_grid_is_a_one_line_config_error(self, tmp_path, capsys, command,
                                                       config, key, grid):
        cfg = {**json.loads((CONFIGS / config).read_text()), key: grid}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert len(err.splitlines()) == 1

    def test_full_turn_at_a_tenth_of_a_degree_is_accepted(self, tmp_path):
        cfg = {**json.loads((CONFIGS / "fig_s5_phi_sweep.json").read_text()),
               "phi_deg": {"start": 0.0, "stop": 360.0, "step": 0.1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "bell", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "bell_sweep.csv")
        assert len(rows) == 3601

    @pytest.mark.parametrize("grid,points", [
        ((0.0, 11.0, 3.0), [0.0, 3.0, 6.0, 9.0]),          # never past stop
        ((0.0, 0.3, 0.1), [0.0, 0.1, 0.2, 0.3]),           # 0.3 / 0.1 < 3 in floats
        ((0.0, 90.0, 1.0), list(np.arange(91.0))),         # the bundled grids
        ((0.0, 180.0, 1.5), list(1.5 * np.arange(121))),
    ])
    def test_angle_grid_runs_from_start_to_stop_inclusive(self, grid, points):
        thetas = _angle_grid(dict(zip(("start", "stop", "step"), grid)), "theta_deg")
        assert len(thetas) == len(points)
        assert np.allclose(thetas, points, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("command,cfg,key,values,flags", [
        ("sweep-theta", {"theta_deg": {"start": 0.0, "stop": 90.0, "step": 15.0},
                         "input_state": {"kind": "werner", "concurrence": 0.85}},
         "kt", [1, 1.0], []),
        ("tomo", {"state": {"kind": "werner", "concurrence": 0.85}, "settings": 16,
                  "mean_pairs": 1e3, "mc_samples": 4},
         "seed", [7, 7.0, None], ["--seed", "7"]),
    ])
    def test_integral_numbers_give_byte_identical_outputs(self, tmp_path, command, cfg, key,
                                                          values, flags):
        # a None value leaves the key out, so that only --seed gives it
        outputs = []
        for i, value in enumerate(values):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg if value is None else {**cfg, key: value}))
            out = tmp_path / f"out{i}"
            argv = flags if value is None else []
            assert main(["--out", str(out), *argv, command, "--config", str(path)]) == 0
            outputs.append({p.name: [line for line in p.read_text().splitlines()
                                     if "config_sha256" not in line]
                            for p in sorted(out.iterdir())})
        assert all(o == outputs[0] for o in outputs[1:])


def _imported(module: str) -> set:
    """The top-level modules in sys.modules after importing ``module``."""
    code = f"import sys, {module}; print(*{{m.split('.')[0] for m in sys.modules}})"
    return set(fresh_python(code).split())


# Run the command of argv (none: import qfcsim alone), then list the qfcsim
# modules loaded besides the package and the CLI itself.
_LOADED = """import sys, qfcsim
if sys.argv[1:]:
    from qfcsim.cli import main
    assert main(sys.argv[1:]) == 0
print(*sorted({m.split(".")[1] for m in sys.modules if m.startswith("qfcsim.")} - {"cli"}))
"""
# every command loads linalg and errors through its physics, and the summary validator
_BASE = {"linalg", "errors", "schema"}
# command -> (its arguments after --out, a config for --config or None, the
# qfcsim modules it loads)
_LOADS = {
    "import qfcsim": ([], None, set()),
    "drive": (["drive", "--theta", "22.5"], None, {"drive", "states", *_BASE}),
    "efficiency": (["efficiency", "100", "60000", "0.8", "0.6"], None, {"spectral", *_BASE}),
    "choi": (["choi"], CHOI, {"channel", "drive", "states", *_BASE}),
    "sweep-theta": (["sweep-theta"], {k: v for k, v in SMALL_CONFIGS["sweep-theta"].items()
                                      if k != "mean_pairs"},
                    {"channel", "drive", "states", *_BASE}),
    "jsa": (["jsa"], {**SMALL_CONFIGS["jsa"], "hg_modes": 2, "write_jsa_csv": True},
            {"spectral", *_BASE}),
    "tomo": (["tomo"], {**SMALL_CONFIGS["tomo"], "mc_samples": 2},
             {"tomography", "states", *_BASE}),
    "bell": (["bell"], SMALL_CONFIGS["bell"], {"bell", "states", *_BASE}),
}


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        assert not _imported("qfcsim.cli") & {"scipy", "jsonschema"}

    def test_the_run_table_imports_nothing_test_only(self):
        # the cli-reruns CI job installs the package without the test extras
        assert not _imported("cli_runs") & {"pytest", "hypothesis", "jsonschema", "scipy", "yaml"}

    @pytest.mark.parametrize("case", list(_LOADS))
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, case):
        # import qfcsim loads no submodule, and a command imports only its own
        # physics: drive none of spectral, tomography, channel and bell
        args, cfg, expected = _LOADS[case]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = [*args, "--config", str(tmp_path / "cfg.json")]
        argv = ["--out", str(tmp_path / "out"), *args] if args else []
        assert set(fresh_python(_LOADED, *argv).split()) == expected


def _cli_tree() -> ast.Module:
    return ast.parse(Path(cli_mod.__file__).read_text())


def _imports_from_qfcsim(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "qfcsim"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "qfcsim" for alias in node.names)


class TestLazyImports:
    """The CLI reaches the physics only through qfcsim's public names, which
    the package imports on first use; no function of it imports a submodule."""

    def test_no_function_imports_from_qfcsim(self):
        found = [f"{fn.name}:{node.lineno}" for fn in ast.walk(_cli_tree())
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if _imports_from_qfcsim(node)]
        assert found == []

    def test_every_package_name_it_calls_is_public(self):
        tree = _cli_tree()
        (alias,) = [a.asname for node in tree.body if isinstance(node, ast.Import)
                    for a in node.names if a.name == "qfcsim"]
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == alias}
        assert used and used <= set(qfcsim.__all__), sorted(used - set(qfcsim.__all__))


class TestEntry:
    """``python -m qfcsim.cli`` and the console script enter through run(), which
    runs main() without the cyclic collector; main() itself leaves gc alone."""

    def test_in_process_main_leaves_gc_as_it_found_it(self, tmp_path):
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        assert main(["--out", str(tmp_path), "drive", "--theta", "22.5"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)

    def test_run_disables_the_collector_and_exits_with_the_command_code(self, monkeypatch):
        seen = []

        def command():
            seen.append(gc.isenabled())
            return 3

        monkeypatch.setattr(cli_mod, "main", command)
        enabled = gc.isenabled()
        try:
            with pytest.raises(SystemExit) as exit_info:
                cli_mod.run()
            assert (seen, exit_info.value.code) == ([False], 3)
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("args,code", [
        (["drive", "--theta", "22.5"], 0),
        (["drive", "--theta", "nan"], 1),
        (["choi", "--config", "missing.json"], 2),
    ], ids=["success", "physics-error", "config-error"])
    def test_module_run_prints_what_main_prints(self, tmp_path, capsys, monkeypatch, args,
                                                code):
        monkeypatch.chdir(tmp_path)  # the same relative paths in both runs
        argv = ["--out", "out", *args]
        proc = fresh_cli(*argv)
        assert main(argv) == proc.returncode == code
        captured = capsys.readouterr()
        assert proc.stdout.splitlines() == captured.out.splitlines()
        assert proc.stderr.splitlines() == captured.err.splitlines()


# argv rejected by argparse, with the one stderr line each gives
USAGE_ERRORS = {
    "non-integer-seed": (["--seed", "x", "tomo", "--config", str(CONFIGS / "tomo_rho0.json")],
                         "argument --seed: invalid int value: 'x'"),
    "non-float-rate": (["efficiency", "abc", "1", "1", "1"],
                       "argument r_up: invalid float value: 'abc'"),
    "missing-command": ([], "the following arguments are required: command"),
    "unknown-flag": (["--bogus", "drive", "--theta", "1"], "unrecognized arguments: --bogus"),
    "drive-without-theta": (["drive"], "the following arguments are required: --theta"),
}


class TestUsageErrors:
    """A usage error is one ``config error:`` line on stderr and exit 2, before
    --out is created; ``-h`` still prints argparse's help."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_in_process(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), *argv])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_fresh_process(self, tmp_path, argv, message):
        out = tmp_path / "out"
        proc = fresh_cli("--out", str(out), *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"config error: {message}\n")
        assert not out.exists()

    def test_help_is_argparse_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["drive", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: qfcsim drive [-h] --theta THETA\n")
        assert "--theta THETA" in out.splitlines()[-1]


class TestCliRuns:
    def test_two_in_process_passes_write_byte_identical_trees(self, cli_tree, tmp_path):
        cli_runs.run(tmp_path, main)
        first, second = _tree(cli_tree), _tree(tmp_path)
        assert {p.parts[0] for p in first} == set(cli_runs.RUNS)
        assert sorted(first) == sorted(second)
        assert [p for p in first if first[p] != second[p]] == []


class TestBundles:
    def test_fig_s3_hg_modes(self, cli_tree):
        summary = read_summary(cli_tree / "fig_s3", "jsa")
        probs = summary["results"]["hg_mode_probabilities"]
        assert len(probs) == 10
        assert sum(probs) >= 0.99

    def test_tomo_rho0(self, cli_tree):
        summary = read_summary(cli_tree / "tomo", "tomo")
        assert summary["results"]["fidelity_to_true"] > 0.99
        assert summary["results"]["concurrence_mc"]["n_samples"] == 100


# any JSON value: NaN and +-inf included, integers kept small so that a
# replaced size stays cheap to run; numbers are drawn most often, so that
# many cases get past the schema into the physics
NUMBERS = st.integers(-1000, 1000) | st.floats()
JSON_VALUES = NUMBERS | st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every path below ``node`` as (path, value) pairs, ``node`` itself first."""
    yield prefix, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_bundled_configs(draw):
    """A bundled config with one leaf replaced, one key deleted or one key added."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    cfg = json.loads((CONFIGS / name).read_text())
    paths = list(_paths(cfg))
    # replacing a leaf is drawn three times as often as each other action
    action = draw(st.sampled_from(["replace"] * 3 + ["delete", "add"]))
    if action == "add":
        path = draw(st.sampled_from([p for p, v in paths if isinstance(v, dict)]))
        path += (draw(st.text(max_size=8)),)
    elif action == "delete":
        path = draw(st.sampled_from([p for p, _ in paths if p and isinstance(p[-1], str)]))
    else:
        path = draw(st.sampled_from([p for p, v in paths if not isinstance(v, (dict, list))]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if action == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = draw(JSON_VALUES)
    return BUNDLED[name], cfg


# a JSON number of a bundled config
_NUMBER = re.compile(rb"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


@st.composite
def raw_bundled_configs(draw):
    """The bytes of a bundled config with one byte replaced, cut short, nested
    up to 10**5 lists deep, or with one number replaced by one of up to 5000
    digits: inputs that json.dumps never writes."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    raw = (CONFIGS / name).read_bytes()
    action = draw(st.sampled_from(["byte", "cut", "nest", "digits"]))
    if action == "byte":
        i = draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1:]
    elif action == "cut":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif action == "nest":
        depth = draw(st.integers(1, 10 ** 5))
        raw = b"[" * depth + raw + b"]" * depth
    else:
        number = draw(st.sampled_from(list(_NUMBER.finditer(raw))))
        digits = draw(st.sampled_from([b"", b"-"])) + b"7" * draw(st.integers(1, 5000))
        raw = raw[:number.start()] + digits + draw(st.sampled_from([b"", b".5"])) \
            + raw[number.end():]
    return BUNDLED[name], raw


def _reject_constant(name):
    raise ValueError(f"summary holds the non-JSON constant {name}")


class TestFuzz:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=mutated_bundled_configs())
    def test_any_config_ends_in_a_clean_exit(self, case):
        command, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--out", tmp, command, "--config", str(path)])
            assert code in (0, 1, 2)
            if code:
                assert len(err.getvalue().splitlines()) == 1
            else:
                summary = Path(tmp) / f"{command.replace('-', '_')}_summary.json"
                json.loads(summary.read_text(), parse_constant=_reject_constant)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=raw_bundled_configs())
    def test_any_config_bytes_end_in_a_clean_exit(self, case):
        command, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_bytes(raw)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--out", str(Path(tmp) / "out"), command, "--config", str(path)])
            assert code in (0, 1, 2)
            if code:
                assert len(err.getvalue().splitlines()) == 1


def _config_message(cfg, command):
    try:
        _validate_config(cfg, command)
    except ConfigError as exc:
        return str(exc)
    return None


def _property_names(node):
    """Every key named under a ``properties`` keyword anywhere in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "properties":
                yield from value
            yield from _property_names(value)
    elif isinstance(node, list):
        for value in node:
            yield from _property_names(value)


# JSON objects built mostly from the keys and enum strings the config schema
# knows, so that many get past the top level into the nested rules
CONFIG_KEYS = st.sampled_from(sorted(set(_property_names(_schema("config.schema.json")))))
CONFIG_LIKE = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4)
    | st.sampled_from(["bell", "werner", "phi+"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(CONFIG_KEYS | st.text(max_size=4), inner, max_size=5)),
    max_leaves=12)
ARBITRARY_CONFIGS = st.tuples(st.sampled_from(sorted(set(BUNDLED.values()) | {"choi"})),
                              st.dictionaries(CONFIG_KEYS | st.text(max_size=4), CONFIG_LIKE,
                                              max_size=6))


def _schema_keywords(node):
    """Every keyword of the schema ``node`` and of the subschemas below it."""
    if node is True:
        return
    for key, value in node.items():
        yield key
        if key in ("properties", "definitions"):
            subschemas = value.values()
        elif key == "allOf":
            subschemas = value
        elif key in ("items", "additionalProperties", "if", "then", "else"):
            subschemas = [value] if isinstance(value, dict) else []
        else:
            subschemas = []
        for sub in subschemas:
            yield from _schema_keywords(sub)


class TestSchemaValidator:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=mutated_bundled_configs() | ARBITRARY_CONFIGS)
    def test_config_messages_match_jsonschema(self, case):
        command, cfg = case
        assert _config_message(cfg, command) == jsonschema_config_message(cfg, command)

    def test_schemas_use_exactly_the_supported_keywords(self):
        # no keyword code outlives the last rule of a shipped schema that needs it
        used = {key for name in ("config.schema.json", "run_summary.schema.json")
                for key in _schema_keywords(_schema(name))}
        assert used == set(schema_mod.KEYWORDS)

    @pytest.mark.parametrize("schema,instance", [
        ({"type": "object", "minProperties": 1}, {}),
        ({"properties": {"a": {"format": "date"}}}, {"a": "x"}),
        ({"items": [{"type": "number"}]}, [1]),
        ({"$ref": "#/properties/a", "properties": {"a": {}}}, 1),
        ({"oneOf": [{"not": {"type": "string"}}]}, 1),
        ({"oneOf": [{"type": "integer"}]}, 1),
    ])
    def test_unsupported_schema_raises(self, schema, instance):
        with pytest.raises(schema_mod.SchemaError):
            list(schema_mod.iter_errors(instance, schema))

    @pytest.mark.parametrize("x,types,expected", [
        (True, "number", False), (True, "integer", False), (7.0, "integer", True),
        (7.5, "integer", False), (float("nan"), "number", True),
        (float("-inf"), "number", True), (float("inf"), "integer", False),
        (None, ["string", "null"], True), (1, "boolean", False),
    ])
    def test_types_follow_jsonschema(self, x, types, expected):
        assert (not list(schema_mod.iter_errors(x, {"type": types}))) is expected
        assert jsonschema.Draft7Validator({"type": types}).is_valid(x) is expected

    @pytest.mark.parametrize("x,value", [(True, 1), (1, True), (False, 0), (0.0, False),
                                         ([1], [True]), ({"a": 0}, {"a": False})])
    def test_bools_are_not_numbers_in_enum_and_const(self, x, value):
        for schema in ({"const": value}, {"enum": [value]}):
            assert list(schema_mod.iter_errors(x, schema))
            assert not jsonschema.Draft7Validator(schema).is_valid(x)

    def test_summaries_and_their_mutations_agree_with_jsonschema(self, cli_tree):
        schema = _schema("run_summary.schema.json")
        mutations = {"command": "nope", "package_version": 1, "config_sha256": "abc",
                     "seed": 1.5, "results": [], "outputs": {"csv": 1}}
        assert set(mutations) == set(schema["required"])
        summaries = [json.loads(p.read_text()) for p in sorted(cli_tree.glob("*/*_summary.json"))]
        assert {s["command"] for s in summaries} == set(schema["properties"]["command"]["enum"])
        for summary in summaries:
            schema_mod.validate(summary, schema)
            jsonschema.validate(summary, schema)
        for key, value in [*mutations.items(), ("extra", 0)]:
            bad = {**summaries[0], key: value}
            with pytest.raises(schema_mod.ValidationError) as ours:
                schema_mod.validate(bad, schema)
            with pytest.raises(jsonschema.ValidationError) as ref:
                jsonschema.validate(bad, schema)
            assert (ours.value.path, ours.value.validator) == (
                tuple(ref.value.absolute_path), ref.value.validator)
