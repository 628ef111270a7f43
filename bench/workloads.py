"""Inputs, timed tasks and output checks of the four benchmark workloads.

Every workload is a closed loop: one client in one process sends one task
at a time and waits for its result. A task's ``run`` is the timed call into
qfcsim. Its ``check`` compares the outputs against the pins the repository
states (tests/test_acceptance.py and README) and returns the problems found
together with a digest of the outputs; the digest must not change between
passes, because a fixed seed must give byte-identical results.

Importing this module imports ``qfcsim``, so the caller must have put the
checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qfcsim as q

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Reference values and tolerances. Criteria numbers refer to
# tests/test_acceptance.py. "werner_mc_std" is the Monte-Carlo concurrence
# std of configs/tomo_rho0.json (seed 7) at the commit that introduced this
# benchmark, to two significant digits.
PINS = {
    "curve_tol": 1e-9,                              # criterion 1: |C - 0.919 |cos 2t||
    "tsirelson_tol": 1e-9,                          # criterion 9: |max B - 2 sqrt 2|
    "purity_type1": (0.8892982862322697, 1e-4),     # criterion 6
    "purity_type0": (0.21569913459226564, 1e-4),    # criterion 6
    "hg0": (0.894, 0.05),                           # criterion 6
    "pump_overlap": (0.921, 0.05),                  # criterion 6
    "delay_fs": (500.0, 150.0),                     # criterion 7
    "efficiency": (0.0044444444444, 1e-9),          # criterion 8
    "fidelity_min": 0.99,                           # criterion 10
    "werner_mc_std": "0.00064",
}

WERNER_C = 0.919           # input concurrence of configs/fig_4_theta_sweep.json
FIG4_KT = 1e-6             # kt of configs/fig_4_theta_sweep.json
TOMO_PAIRS = 1.56e5        # mean_pairs of configs/tomo_rho0.json
MC_SAMPLES = 100           # Monte-Carlo samples per metric and tomography input
DRAWS = 4                  # count draws of each seeded tomography input
CHOI_KT = [1e-3, 1e-2, 0.1, 0.3, 1.0]
RT2 = np.sqrt(2.0)


@dataclass
class Task:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check(outputs)`` returns ``(problems, digest)``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    task_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def cpu_time() -> float:
    """CPU seconds used so far by this process and its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(tasks, digests: dict, before_run=contextlib.nullcontext,
             between=lambda: None) -> PassResult:
    """Run every task once. ``digests`` holds the first digest of each task.

    A task fails when it raises, when its outputs miss a pin, or when its
    digest differs from the one recorded in an earlier pass.
    ``before_run`` is a context manager entered around each timed call;
    ``between`` is called before each task, outside the timed part.
    ``task_s`` and ``wall_s`` are wall times; ``cpu_s`` is the CPU time of
    the timed calls, including that of the command processes they start.
    """
    result = PassResult()
    for task in tasks:
        between()
        result.attempted += 1
        c0 = cpu_time()
        t0 = time.perf_counter()
        error = None
        try:
            with before_run():
                out = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        result.cpu_s += cpu_time() - c0
        result.task_s[task.name] = elapsed
        result.wall_s += elapsed
        if error:
            problems = [error]
        else:
            problems, digest = task.check(out)
            if digest != digests.setdefault(task.name, digest):
                problems.append("outputs differ from the first pass with the same seed")
        if problems:
            result.failed += 1
            result.problems.extend(f"{task.name}: {p}" for p in problems)
    return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _digest(obj) -> str:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(str(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _near(problems: list, what: str, value: float, ref: float, tol: float) -> None:
    if not abs(value - ref) <= tol:  # written so that NaN fails
        problems.append(f"{what} = {value!r}, expected {ref!r} +- {tol}")


def _pin(problems: list, what: str, value: float, key: str) -> None:
    ref, tol = PINS[key]
    _near(problems, what, value, ref, tol)


def _seeds(seed: int, n: int) -> list:
    """``n`` independent 32-bit seeds derived from the benchmark seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _werner():
    return q.werner_state((2 * WERNER_C + 1) / 3)


def _fig4_curve(theta_deg) -> np.ndarray:
    return WERNER_C * np.abs(np.cos(2 * np.deg2rad(theta_deg)))


def _load_config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


# ---------------------------------------------------------------------------
# tomography: simulate_counts -> mle_reconstruct -> monte_carlo_metric
# ---------------------------------------------------------------------------

def _tomography_task(name, rho, n_settings, pairs, count_seed, mc_seed, std_pin=None,
                     samples=MC_SAMPLES):
    def run():
        records = q.simulate_counts(rho, q.projector_set(n_settings), pairs, count_seed)
        rho_mle = q.mle_reconstruct(records)
        mc = [q.monte_carlo_metric(records, metric, samples, mc_seed)
              for metric in (q.concurrence, q.purity)]
        return {"counts": [r.counts for r in records], "rho": rho_mle,
                "fidelity": q.fidelity(rho_mle, rho),
                "mc": [(m.value, m.std, m.n_samples) for m in mc]}

    def check(out):
        problems = []
        if not out["fidelity"] > PINS["fidelity_min"]:
            problems.append(f"fidelity {out['fidelity']!r} <= {PINS['fidelity_min']}")
        for value, std, n in out["mc"]:
            if not (np.isfinite(value) and std > 0 and n == samples):
                problems.append(f"bad Monte-Carlo estimate {(value, std, n)}")
        if std_pin is not None and f"{out['mc'][0][1]:.2g}" != std_pin:
            problems.append(f"MC concurrence std {out['mc'][0][1]!r} != {std_pin} "
                            "to two significant digits")
        return problems, _digest(out)

    return Task(f"tomography.{name}", run, check)


def _tomography(seed: int) -> list:
    werner = _werner()
    spec = q.ChannelSpec(a=q.drive_from_theta(np.deg2rad(22.5)), kt=0.3)
    converted, _ = q.one_sided_apply(werner, spec)
    # The cost of the fits hangs on the count draw by 10% or more, so each
    # seeded input spreads its MC_SAMPLES over DRAWS independent draws.
    s = iter(_seeds(seed, 4 * DRAWS))
    per_draw = MC_SAMPLES // DRAWS
    return [
        # configs/tomo_rho0.json exactly, so that its pinned MC std applies
        _tomography_task("werner", werner, 36, TOMO_PAIRS, 7, 7, PINS["werner_mc_std"]),
        *(_tomography_task(f"converted{i}", converted, 36, 1e4, next(s), next(s),
                           samples=per_draw) for i in range(DRAWS)),
        # 2e3 pairs on 16 settings leaves some counts at zero
        *(_tomography_task(f"phi_plus{i}", q.bell_state("phi+"), 16, 2e3, next(s), next(s),
                           samples=per_draw) for i in range(DRAWS)),
    ]


# ---------------------------------------------------------------------------
# spectral: JSA -> Schmidt -> reduced density -> HG modes, overlap, delay
# ---------------------------------------------------------------------------

def _spectral_task(name, cfg, points, pins):
    def run():
        pump = q.PumpSpec(**cfg["pump"])
        crystal = q.CrystalSpec(**cfg["crystal"])
        jsa = q.compute_jsa(pump, crystal, cfg["filter_fwhm_nm"],
                            q.GridSpec(points, cfg["grid"]["span_nm"]))
        decomp = q.schmidt(jsa)
        rho = q.reduced_density(jsa, "idler")
        return {"purity": q.heralded_purity(decomp),
                "spectral_purity": q.spectral_purity(rho),
                "schmidt": decomp.probabilities[:64],
                "hg": q.hg_mode_probabilities(rho, pump.duration_fs, 10),
                "overlap": q.pump_overlap(rho, pump),
                "delay_fs": q.coincidence_delay_width(rho, pump)}

    def check(out):
        problems = []
        values = {"purity": out["purity"], "hg0": out["hg"][0],
                  "pump_overlap": out["overlap"], "delay_fs": out["delay_fs"]}
        for key, pin in pins.items():
            _pin(problems, key, values[key], pin)
        # heralded purity and Tr rho^2 of the reduced density are one quantity
        _near(problems, "spectral_purity", out["spectral_purity"], out["purity"], 1e-9)
        hg = out["hg"]
        if not (np.all(hg >= 0) and hg.sum() <= 1 + 1e-9):
            problems.append(f"HG populations out of range: {hg}")
        if not (np.isfinite(out["delay_fs"]) and out["delay_fs"] > 0):
            problems.append(f"delay width {out['delay_fs']!r}")
        return problems, _digest(out)

    return Task(f"spectral.{name}", run, check)


def _spectral(seed: int) -> list:
    # deterministic: the seed does not enter this workload
    type1 = _load_config("fig_s2_type1.json")
    type0 = _load_config("fig_s2_type0.json")
    t1_pins = {"purity": "purity_type1", "hg0": "hg0", "pump_overlap": "pump_overlap",
               "delay_fs": "delay_fs"}
    t0_pins = {"purity": "purity_type0"}
    return [_spectral_task("type1_512", type1, 512, t1_pins),
            _spectral_task("type0_512", type0, 512, t0_pins),
            _spectral_task("type0_1024", type0, 1024, t0_pins)]


# ---------------------------------------------------------------------------
# sweeps: thousands of 4x4 calls through drive, channel, states and bell
# ---------------------------------------------------------------------------

def _theta_exact_task(theta_deg):
    def run():
        rho0 = _werner()
        c0 = q.concurrence(rho0)
        rows = []
        for th in theta_deg:
            spec = q.ChannelSpec(a=q.drive_from_theta(np.deg2rad(th)), kt=FIG4_KT)
            rho, _ = q.one_sided_apply(rho0, spec)
            rows.append((q.concurrence(rho), q.chsh_max(rho),
                         q.choi_concurrence_closed(spec) * c0))
        return np.array(rows)

    def check(rows):
        problems = []
        ref = _fig4_curve(theta_deg)
        for col, what in ((0, "concurrence"), (2, "bound")):
            _near(problems, f"max |{what} - 0.919 |cos 2t||",
                  float(np.max(np.abs(rows[:, col] - ref))), 0.0, PINS["curve_tol"])
        return problems, _digest(rows)

    return Task("sweeps.theta_exact", run, check)


def _chsh_exact_task(phis):
    def run():
        return np.array(q.chsh_sweep(q.bell_state("phi+"), phis))

    def check(rows):
        problems = []
        _near(problems, "exact CHSH peak", float(rows[:, 1].max()), 2 * RT2,
              PINS["tsirelson_tol"])
        return problems, _digest(rows)

    return Task("sweeps.chsh_exact", run, check)


def _chsh_sampled_task(phis, seed):
    p = (2 * WERNER_C + 1) / 3

    def run():
        return np.array(q.chsh_sweep(_werner(), phis, mean_pairs=1e4, seed=seed))

    def check(rows):
        # exact B of the Werner state: p * 2 sqrt 2 |sin(2 phi + pi/4)|
        exact = p * 2 * RT2 * np.abs(np.sin(2 * phis + np.pi / 4))
        z = np.abs(rows[:, 1] - exact) / rows[:, 2]
        problems = [] if np.all(z <= 6.0) else [f"sampled B off by {z.max():.1f} sigma"]
        return problems, _digest(rows)

    return Task("sweeps.chsh_sampled", run, check)


def _theta_sampled_task(theta_deg, seed):
    def run():
        rho0 = _werner()
        settings = q.projector_set(36)
        rows = []
        for i, th in enumerate(theta_deg):
            spec = q.ChannelSpec(a=q.drive_from_theta(np.deg2rad(th)), kt=FIG4_KT)
            rho, _ = q.one_sided_apply(rho0, spec)
            records = q.simulate_counts(rho, settings, TOMO_PAIRS, [seed, i])
            rho_mle = q.mle_reconstruct(records)
            rows.append((q.concurrence(rho_mle), q.chsh_max(rho_mle),
                         q.fidelity(rho_mle, rho)))
        return np.array(rows)

    def check(rows):
        worst = float(rows[:, 2].min())
        problems = [] if worst > PINS["fidelity_min"] else [f"min fidelity {worst!r}"]
        return problems, _digest(rows)

    return Task("sweeps.theta_sampled", run, check)


def _sweeps(seed: int) -> list:
    s = _seeds(seed, 2)
    phis = np.deg2rad(np.arange(0.0, 180.0, 0.25))
    return [_theta_exact_task(np.linspace(0.0, 90.0, 901)),
            _chsh_exact_task(phis),
            _chsh_sampled_task(phis, s[0]),
            _theta_sampled_task(np.arange(0.0, 91.0), s[1])]


# ---------------------------------------------------------------------------
# cli_repro: every reproduction command in a fresh `python -m qfcsim.cli`
# ---------------------------------------------------------------------------

def _summary(out: Path, command: str) -> dict:
    return json.loads((out / f"{command}_summary.json").read_text())["results"]


def _csv_column(path: Path, column: str) -> np.ndarray:
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def _check_drive(out, problems):
    _near(problems, "drive concurrence", _summary(out, "drive")["concurrence"],
          np.cos(np.pi / 4), 1e-9)


def _check_efficiency(out, problems):
    _pin(problems, "efficiency", _summary(out, "efficiency")["efficiency"], "efficiency")


def _check_choi(out, problems):
    res = _summary(out, "choi")
    c_d = np.cos(np.pi / 4)
    _near(problems, "drive concurrence", res["drive_concurrence"], c_d, 1e-9)
    # closed form from the drive singular values s+-, computed independently
    root = np.sqrt(1 - c_d ** 2)
    kt = np.array(CHOI_KT)
    sp, sm = np.sin(np.sqrt((1 + root) / 2) * kt), np.sin(np.sqrt((1 - root) / 2) * kt)
    ref = 2 * np.abs(sp * sm) / (sp ** 2 + sm ** 2)
    got = _csv_column(out / "choi.csv", "choi_concurrence")
    _near(problems, "max |choi concurrence - closed form|",
          float(np.max(np.abs(got - ref))) if got.shape == ref.shape else np.inf, 0.0, 1e-9)
    dist = _csv_column(out / "choi.csv", "duality_distance")
    slope = np.log(dist[1] / dist[0]) / np.log(kt[1] / kt[0])
    if not slope >= 1.9:  # criterion 2
        problems.append(f"duality distance slope {slope!r} < 1.9")


def _check_sweep_theta(out, problems):
    theta = _csv_column(out / "sweep_theta.csv", "theta_deg")
    conc = _csv_column(out / "sweep_theta.csv", "concurrence")
    if len(theta) != 91:
        problems.append(f"{len(theta)} sweep points, expected 91")
    _near(problems, "max |C - 0.919 |cos 2t||",
          float(np.max(np.abs(conc - _fig4_curve(theta)))), 0.0, PINS["curve_tol"])


def _check_bell(out, problems):
    _near(problems, "max B", _summary(out, "bell")["max_B"], 2 * RT2, PINS["tsirelson_tol"])


def _jsa_checker(purity_pin, hg=False, delay=False):
    def check(out, problems):
        res = _summary(out, "jsa")
        _pin(problems, "heralded purity", res["heralded_purity"], purity_pin)
        if hg:
            _pin(problems, "HG0", res["hg_mode_probabilities"][0], "hg0")
            _pin(problems, "pump overlap", res["pump_overlap"], "pump_overlap")
        if delay:
            _pin(problems, "delay FWHM", res["delay_fwhm_fs"], "delay_fs")
    return check


def _check_tomo(out, problems):
    res = _summary(out, "tomo")
    if not res["fidelity_to_true"] > PINS["fidelity_min"]:
        problems.append(f"fidelity {res['fidelity_to_true']!r}")
    for key in ("concurrence_mc", "purity_mc"):
        if res[key]["n_samples"] != MC_SAMPLES or not res[key]["std"] > 0:
            problems.append(f"bad {key}: {res[key]}")


def cli_env() -> dict:
    """Environment of a child process: the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cli_task(name, argv, checker, tmp: Path, in_process: bool):
    runs = itertools.count()

    def run():
        out = tmp / f"{name}-{next(runs)}"
        args = ["--out", str(out)] + argv
        if in_process:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = sys.modules["qfcsim.cli"].main(args)
            return out, code, sink.getvalue()
        proc = subprocess.run([sys.executable, "-m", "qfcsim.cli"] + args, env=cli_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return out, proc.returncode, proc.stderr

    def check(result):
        out, code, stderr = result
        problems = []
        try:
            if code != 0:
                problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
                return problems, None
            checker(out, problems)
            blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.suffix == ".csv" or p.name.endswith("_summary.json")}
            return problems, _digest(blobs)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            return problems, None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Task(f"cmd.{name}", run, check)


def _cli_repro(seed: int, tmp: Path, in_process: bool = False) -> list:
    import qfcsim.cli  # noqa: F401  (part of the measured set-up)

    choi_cfg = tmp / "choi.json"
    choi_cfg.write_text(json.dumps({"drive": {"theta_deg": 22.5}, "kt_list": CHOI_KT}))
    commands = [
        ("drive", ["drive", "--theta", "22.5"], _check_drive),
        ("efficiency", ["efficiency", "100", "60000", "0.8", "0.6"], _check_efficiency),
        ("choi", ["choi", "--config", str(choi_cfg)], _check_choi),
        ("sweep_theta", ["sweep-theta", "--config", str(CONFIGS / "fig_4_theta_sweep.json")],
         _check_sweep_theta),
        ("bell", ["bell", "--config", str(CONFIGS / "fig_s5_phi_sweep.json")], _check_bell),
        ("jsa_type0", ["jsa", "--config", str(CONFIGS / "fig_s2_type0.json")],
         _jsa_checker("purity_type0")),
        ("jsa_type1", ["jsa", "--config", str(CONFIGS / "fig_s2_type1.json")],
         _jsa_checker("purity_type1", hg=True, delay=True)),
        ("jsa_hg", ["jsa", "--config", str(CONFIGS / "fig_s3_hg_modes.json")],
         _jsa_checker("purity_type1", hg=True)),
        ("tomo", ["--seed", str(seed), "tomo", "--config", str(CONFIGS / "tomo_rho0.json")],
         _check_tomo),
    ]
    return [_cli_task(name, argv, checker, tmp, in_process) for name, argv, checker in commands]


def build(workload: str, seed: int, tmp: Path, in_process: bool = False) -> list:
    """The workload's task list; this is the input construction of ``setup_s``.

    ``tmp`` receives CLI configs and outputs; ``in_process`` makes CLI tasks
    call ``qfcsim.cli.main`` in this process instead of starting one.
    """
    if workload == "cli_repro":
        return _cli_repro(seed, tmp, in_process)
    return {"tomography": _tomography, "spectral": _spectral, "sweeps": _sweeps}[workload](seed)
