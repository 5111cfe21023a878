"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For every workload and seed this runs the command of BENCHMARK.json with
``--trace 0``, then once more with ``--trace 1`` on the first seed.  Runs
alternate between workloads so that a slow spell of the machine spreads
over all of them.  Each end-to-end metric is summarised by its median, its
quartiles (``statistics.quantiles(values, n=4)``) and its spread, the
distance between the quartiles as a share of the median; the bound of the
metric in BENCHMARK.json is printed beside it.  The summary, with the
Python version and the number of processors, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def git_head() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, args.seeds + 1)

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(run_once(spec, w, seed, 0))
    traced = {w: run_once(spec, w, seeds[0], 1) for w in names}

    summary = {}
    for w in names:
        summary[w] = {
            "end_to_end": {
                m: summarise([r["metrics"][m]["value"] for r in runs[w]]) for m in bounds
            },
            "attempted": [r["attempted"] for r in runs[w]],
            "wall_s": [r["wall_s"] for r in runs[w]],
            "per_layer_seed": seeds[0],
            "per_layer": {m: v["value"] for m, v in traced[w]["metrics"].items()},
            "traced_wall_s": traced[w]["wall_s"],
        }
        for m, s in summary[w]["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"{w:9} {m:16} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[m]}{flag}")
        print(f"{w:9} wall per run: max {max(summary[w]['wall_s']):.1f} s, "
              f"traced {traced[w]['wall_s']:.1f} s")

    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "commit": git_head(),
            "seeds": list(seeds),
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
