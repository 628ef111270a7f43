import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qfcsim import states as states_mod
from qfcsim import tomography as tomo_mod
from qfcsim.cli import main, _summary_schema

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_summary(out_dir: Path, command: str) -> dict:
    path = out_dir / f"{command.replace('-', '_')}_summary.json"
    summary = json.loads(path.read_text())
    jsonschema.validate(summary, _summary_schema())
    return summary


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDrive:
    @pytest.mark.parametrize("theta,expected", [(0.0, 1.0), (45.0, 0.0),
                                                (22.5, 0.70711)])
    def test_reference_angles(self, tmp_path, capsys, theta, expected):
        assert main(["--out", str(tmp_path), "drive", "--theta", str(theta)]) == 0
        summary = read_summary(tmp_path, "drive")
        assert abs(summary["results"]["concurrence"] - expected) < 1e-5
        assert f"{expected:.1f}"[0] in capsys.readouterr().out


class TestSweepTheta:
    def test_fig4_config_exact_curve(self, tmp_path):
        cfg = CONFIGS / "fig_4_theta_sweep.json"
        assert main(["--out", str(tmp_path), "sweep-theta", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "sweep_theta.csv")
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
            "mode": "sampled",
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

        monkeypatch.setattr(tomo_mod, "simulate_counts", spy)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "theta_deg": {"start": 0.0, "stop": 20.0, "step": 5.0},
            "input_state": {"kind": "bell", "label": "phi+"},
            "kt": 0.5,
            "mode": "sampled",
            "mean_pairs": 1e3,
            "settings": 16,
        }))
        for seed in ("7", "8"):
            assert main(["--out", str(tmp_path / seed), "--seed", seed,
                         "sweep-theta", "--config", str(cfg)]) == 0
        assert len(vectors) == 10
        assert not set(vectors[:5]) & set(vectors[5:])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = CONFIGS / "fig_4_theta_sweep.json"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1), "sweep-theta", "--config", str(cfg)]) == 0
        assert main(["--out", str(out2), "sweep-theta", "--config", str(cfg)]) == 0
        for name in ("sweep_theta.csv", "sweep_theta_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


class TestJsa:
    def test_fig_s2_type1_bundle(self, tmp_path):
        cfg = CONFIGS / "fig_s2_type1.json"
        assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "jsa")
        res = summary["results"]
        assert abs(res["heralded_purity"] - 0.859) < 0.05
        assert abs(res["hg_mode_probabilities"][0] - 0.894) < 0.05
        assert abs(res["pump_overlap"] - 0.921) < 0.05
        assert 350 <= res["delay_fwhm_fs"] <= 650
        # Tr rho^2 of the reduced density is heralded_purity; it is reported once
        assert "reduced_purity" not in res
        assert (tmp_path / summary["outputs"]["jsa_binary"]).exists()
        assert (tmp_path / summary["outputs"]["schmidt_csv"]).exists()
        assert (tmp_path / summary["outputs"]["hg_modes_csv"]).exists()

    def test_fig_s2_type0_bundle(self, tmp_path):
        cfg = CONFIGS / "fig_s2_type0.json"
        assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "jsa")
        assert abs(summary["results"]["heralded_purity"] - 0.184) < 0.05


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

    def test_seed_flag_overrides(self, tmp_path):
        cfg = tmp_path / "tomo.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "bell", "label": "phi+"},
            "settings": 16,
            "mean_pairs": 1e3,
            "seed": 5,
        }))
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["--out", str(out1), "tomo", "--config", str(cfg)])
        main(["--out", str(out2), "--seed", "9", "tomo", "--config", str(cfg)])
        main(["--out", str(out3), "--seed", "9", "tomo", "--config", str(cfg)])
        assert (out2 / "counts.csv").read_bytes() == (out3 / "counts.csv").read_bytes()
        assert (out1 / "counts.csv").read_bytes() != (out2 / "counts.csv").read_bytes()

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

        def spy(kets, counts, max_iter, tol):
            solves.append(len(counts))
            return mle_stack(kets, counts, max_iter, tol)

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


class TestBell:
    def test_fig_s5_exact_bundle(self, tmp_path):
        cfg = CONFIGS / "fig_s5_phi_sweep.json"
        assert main(["--out", str(tmp_path), "bell", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "bell")
        assert abs(summary["results"]["max_B"] - 2 * np.sqrt(2)) < 1e-9
        header, rows = read_csv(tmp_path / "bell_sweep.csv")
        assert header == ["phi_deg", "B", "B_std_if_sampled"]
        assert rows[0][2] == ""  # exact mode leaves the std column empty

    def test_exact_flag_overrides_mode(self, tmp_path):
        cfg = tmp_path / "bell.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "bell", "label": "phi+"},
            "phi_deg": {"start": 0.0, "stop": 45.0, "step": 22.5},
            "mode": "sampled",
            "mean_pairs": 100.0,
            "seed": 4,
        }))
        assert main(["--out", str(tmp_path), "bell", "--config", str(cfg),
                     "--exact"]) == 0
        summary = read_summary(tmp_path, "bell")
        assert summary["results"]["mode"] == "exact"

    def test_sampled_mode(self, tmp_path):
        cfg = tmp_path / "bell.json"
        cfg.write_text(json.dumps({
            "state": {"kind": "bell", "label": "phi+"},
            "phi_deg": {"start": 0.0, "stop": 90.0, "step": 22.5},
            "mode": "sampled",
            "mean_pairs": 300.0,
            "seed": 2,
        }))
        assert main(["--out", str(tmp_path), "bell", "--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "bell_sweep.csv")
        stds = [float(r[2]) for r in rows]
        assert all(s > 0 for s in stds)


class TestEfficiency:
    def test_reported_rates(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "efficiency",
                     "100", "60000", "0.8", "0.6"]) == 0
        summary = read_summary(tmp_path, "efficiency")
        assert abs(summary["results"]["efficiency"] - 0.0044444444) < 1e-9
        assert "0.444" in capsys.readouterr().out


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
            "mode": "exact",
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
        ("bell", {"state": {"kind": "bell", "label": "phi+"}, "mode": "sampled", "seed": 1,
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

    @pytest.mark.parametrize("command,config", [
        ("bell", "fig_s5_phi_sweep.json"),
        ("sweep-theta", "fig_4_theta_sweep.json"),
    ])
    def test_sampled_without_mean_pairs_is_a_config_error(self, tmp_path, capsys,
                                                          command, config):
        assert main(["--out", str(tmp_path), "--seed", "1", command,
                     "--config", str(CONFIGS / config), "--sampled"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: missing key(s) ['mean_pairs'] in config\n"

    def test_bundled_configs_all_load(self, tmp_path):
        # every shipped config parses and passes strict validation
        for cfg in sorted(CONFIGS.glob("*.json")):
            json.loads(cfg.read_text())


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, qfcsim.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestBundles:
    def test_fig_s3_hg_modes(self, tmp_path):
        cfg = CONFIGS / "fig_s3_hg_modes.json"
        assert main(["--out", str(tmp_path), "jsa", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "jsa")
        probs = summary["results"]["hg_mode_probabilities"]
        assert len(probs) == 10
        assert sum(probs) >= 0.99

    def test_tomo_rho0(self, tmp_path):
        cfg = CONFIGS / "tomo_rho0.json"
        assert main(["--out", str(tmp_path), "tomo", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path, "tomo")
        assert summary["results"]["fidelity_to_true"] > 0.99
        assert summary["results"]["concurrence_mc"]["n_samples"] == 100
