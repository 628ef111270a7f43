"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that
  * the emitted metric names equal those in BENCHMARK.json, untraced and traced;
  * a perturbed reference value, or a changed rerun digest, makes a task fail;
  * a traced pass leaves every qfcsim function (and jsonschema.validate)
    unwrapped afterwards, and sees calls made through importing namespaces.
Exits 1 if any check fails. Takes about a minute.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qfcsim.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "sweeps",
                               "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                              capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        names = set(result.get("metrics", {}))
        check(names == {m["name"] for m in spec[section]},
              f"--trace {trace} emits exactly the {section} names of BENCHMARK.json")
        check(result.get("correct") is True and result.get("failed") == 0,
              f"--trace {trace} run is correct")


def perturbed_reference(tmp: Path) -> None:
    (task,) = [t for t in workloads.build("spectral", 0, tmp) if t.name.endswith("type1_512")]
    clean = workloads.run_pass([task], {})
    check(clean.failed == 0, "type-1 512-point spectral task passes its pins")
    ref, tol = workloads.PINS["purity_type1"]
    workloads.PINS["purity_type1"] = (ref + 10 * tol, tol)
    try:
        perturbed = workloads.run_pass([task], {})
    finally:
        workloads.PINS["purity_type1"] = (ref, tol)
    check(perturbed.failed / perturbed.attempted > 0,
          "a perturbed purity reference makes failed_frac > 0")
    rerun = workloads.run_pass([task], {task.name: "digest of another output"})
    check(rerun.failed == 1, "a rerun whose outputs differ counts as failed")


def namespace_snapshot() -> dict:
    snap = {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name == "qfcsim" or name.startswith("qfcsim.")
            for attr, value in vars(module).items()}
    snap[("jsonschema", "validate")] = id(qfcsim.cli.jsonschema.validate)
    return snap


def traced_pass_restores(tmp: Path) -> None:
    tasks = [t for t in workloads.build("sweeps", 0, tmp) if t.name.endswith("chsh_exact")]
    tasks += [t for t in workloads.build("cli_repro", 0, tmp, in_process=True)
              if t.name == "cmd.drive"]
    before = namespace_snapshot()
    original = qfcsim.states.assert_density_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = all(getattr(qfcsim, layer).assert_density_matrix is not original
                      for layer in ("states", "channel", "bell", "drive", "tomography"))
        result = workloads.run_pass(tasks, {}, before_run=tracer.recording)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    check(wrapped, "install() wraps assert_density_matrix in every namespace that binds it")
    check(result.failed == 0, "traced tasks still pass their checks")
    check(namespace_snapshot() == before, "every qfcsim function is unwrapped after tracing")
    check(stats.get("states.assert_density_matrix", {}).get("calls", 0) > 0,
          "calls through bell's imported assert_density_matrix are traced")
    check("cli.main" in stats and "cli.summary_validate" in stats,
          "cli.main and the summary validation are traced")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        perturbed_reference(Path(tmp))
        traced_pass_restores(Path(tmp))
    metric_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
