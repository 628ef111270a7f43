"""qfcsim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout under test is the parent of this
file's directory, and qfcsim is imported from its ``src``. With
``--trace 0`` the run measures set-up, then repeats timed passes of the
workload for about S seconds (at least two, so that reruns with the same
seed can be compared byte for byte) and reports the end-to-end metrics of
BENCHMARK.json. Times of set-up and passes are CPU times (of this process
and the processes it starts): every task runs on one thread, so on an idle
core they equal wall time, and unlike wall time they do not grow while
other programs hold the shared cores. A fixed reference kernel runs before
every set-up process and every task, and each set-up time and each pass
time is scaled by REFERENCE_S over the kernel's CPU time next to it, so
that times read as on a host of constant speed: shared cores run the same
code 25% faster or slower from one minute to the next.

With ``--trace 1`` it runs ``python -X importtime`` and one pass of
fresh-process CLI commands, then runs each task of the workload untraced
and traced in this process, in rounds while time remains of the S seconds
(at least one), and reports the per-layer metrics of the first round and
the tracing overhead (traced minus untraced CPU time of a round, median
over rounds). The last line of standard output is the result as one JSON
object; the lines before it list the environment, failed checks and every
metric with its unit.
"""

import os

# one BLAS thread, set before numpy loads OpenBLAS; child processes inherit it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5   # fresh processes per run; setup_s is their median
MIN_PASSES = 2      # a second pass checks byte-identical reruns
REFERENCE_S = 0.09  # typical CPU seconds of reference_kernel() on the host the bounds were set on


def require_inside_checkout(module_file: str) -> None:
    path = Path(module_file).resolve()
    if not path.is_relative_to(SRC.resolve()):
        sys.exit(f"error: qfcsim resolves to {path}, outside the checkout under test "
                 f"({SRC}); a stale install would measure another commit")


def environment(seed: int) -> dict:
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    blas_threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                blas_threads[Path(lib_path).name] = getattr(lib, symbol)()
                break
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "qfcsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas": blas,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, tmp: Path) -> float:
    """CPU time of a fresh process that imports qfcsim and builds the inputs."""
    import workloads

    tmp.mkdir()
    code = (f"import sys, pathlib; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.build({workload!r}, {seed}, pathlib.Path({str(tmp)!r})); "
            "print(workloads.q.__file__)")
    c0 = workloads.cpu_time()
    proc = subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = workloads.cpu_time() - c0
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{proc.stderr}")
    require_inside_checkout(proc.stdout.strip())
    return elapsed


_SMALL = np.eye(4) + 0.1
_DENSE = np.random.default_rng(0).random((240, 240))
_DENSE = _DENSE + _DENSE.T
_LARGE = np.random.default_rng(1).random((512, 512))
_LARGE = _LARGE + _LARGE.T
_STREAM = np.ones(2_000_000)  # 16 MB: larger than the per-core cache, as are the JSA grids


def reference_kernel() -> float:
    """CPU seconds of fixed work in the mix the workloads run, independent of qfcsim.

    An interpreter loop, small numpy calls, dense LAPACK in and out of the
    per-core cache and a memory stream. The weights are those whose time
    tracked the passes of ``sweeps`` and ``spectral`` most closely.
    """
    t0 = time.process_time()
    total = 0
    for i in range(160_000):
        total += i * i % 7
    for _ in range(1_250):
        np.linalg.eigvalsh(_SMALL @ _SMALL)
    for _ in range(2):
        np.linalg.eigh(_DENSE)
        np.linalg.eigvalsh(_LARGE)
    for _ in range(5):
        _STREAM.sum()
    return time.process_time() - t0


def timed_run(workload: str, seed: int, seconds: float, tmp: Path):
    import workloads

    # each time is scaled by the reference kernel's time next to it
    setup, setup_cpu = [], []
    for i in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_kernel()
        setup_cpu.append(measure_setup(workload, seed, tmp / f"setup-{i}"))
        setup.append(setup_cpu[-1] * scale)
    tasks = workloads.build(workload, seed, tmp)
    digests, passes, scaled, durations = {}, [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference = []
        passes.append(workloads.run_pass(tasks, digests,
                                         between=lambda: reference.append(reference_kernel())))
        scaled.append(passes[-1].cpu_s * REFERENCE_S / statistics.mean(reference))
        durations.append(time.perf_counter() - t0)
        # stop before a pass of typical length would overrun the budget
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(durations) > seconds):
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli_repro" else resource.RUSAGE_SELF
    print(f"unscaled medians: pass {statistics.median(p.cpu_s for p in passes):.6g} s CPU and "
          f"{statistics.median(p.wall_s for p in passes):.6g} s wall over {len(passes)} passes, "
          f"set-up {statistics.median(setup_cpu):.6g} s CPU")
    metrics = {
        "pass_s": statistics.median(scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return metrics, passes


def traced_run(workload: str, seed: int, seconds: float, tmp: Path, names: list):
    import tracing
    import workloads

    start = time.perf_counter()
    metrics = tracing.import_times(workloads.cli_env())
    cold = workloads.run_pass(workloads.build("cli_repro", seed, tmp), {})
    metrics.update({f"{task}_s": secs for task, secs in cold.task_s.items()})
    tasks = workloads.build(workload, seed, tmp, in_process=True)
    # Each task runs untraced and then traced, back to back, so that both see
    # the same host speed; rounds repeat while another one fits in the time.
    digests, passes, overheads, tracer = {}, [], [], None
    while True:
        t0 = time.perf_counter()
        round_tracer = tracing.Tracer()
        overhead = 0.0
        for task in tasks:
            plain = workloads.run_pass([task], digests)
            round_tracer.install()
            try:
                traced = workloads.run_pass([task], digests, before_run=round_tracer.recording)
            finally:
                round_tracer.uninstall()
            overhead += traced.cpu_s - plain.cpu_s
            passes += [plain, traced]
        overheads.append(overhead)
        tracer = tracer or round_tracer  # the first round gives the per-layer figures
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    metrics.update(tracer.span_metrics(names))
    metrics.update(tracer.probe_metrics())
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, [cold, *passes]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qfcsim" / "__init__.py").is_file():
        sys.exit(f"error: no qfcsim sources at {SRC / 'qfcsim'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qfcsim

    require_inside_checkout(qfcsim.__file__)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True), flush=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        if args.trace:
            metrics, passes = traced_run(args.workload, args.seed, args.seconds, tmp,
                                         list(units))
        else:
            metrics, passes = timed_run(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"error: metrics differ from BENCHMARK.json {section}: "
                 f"missing {sorted(set(units) - set(metrics))}, "
                 f"extra {sorted(set(metrics) - set(units))}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [p for run in passes for p in run.problems][:50]:
        print(f"FAILED {problem}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
