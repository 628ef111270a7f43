"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 201-210 [--workloads sweeps,spectral]
                             [--seconds S] [--traced] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each end-to-end metric the median over the seeds and the
spread: the distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median. With
``--traced`` it adds one ``--trace 1`` run per workload on the first seed.
``--out`` writes everything as JSON (the layout of ``baseline.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    environment = json.loads(lines[0].removeprefix("environment "))
    return json.loads(lines[-1]), environment


def seed_list(text: str) -> list:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": args.seconds, "seeds": args.seeds,
               "end_to_end": {}, "tasks": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            result, environment = run(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
        summary["environment"] = environment
        summary["tasks"][workload] = {"attempted": attempted, "failed": failed}
        summary["end_to_end"][workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary["end_to_end"][workload][name] = {
                "unit": result["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:12s} {name:12s} median {median:10.5g}  spread {spread:.3f}  "
                  f"(a third of the bound: {bounds[name] / 3:.3f})", flush=True)
        print(f"{workload:12s} failed {failed} of {attempted} tasks", flush=True)
        if args.traced:
            result, _ = run(workload, args.seeds[0], args.seconds, 1)
            summary["per_layer"][workload] = {name: m["value"]
                                              for name, m in result["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
