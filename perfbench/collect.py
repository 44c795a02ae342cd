#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

Run from the repository root::

    python3 perfbench/collect.py                      # 10 seeds, all workloads
    python3 perfbench/collect.py --seeds 5 --workloads collectives
    python3 perfbench/collect.py --baseline perfbench/baseline.json

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
interquartile distance as a share of the median, next to the bound
from ``BENCHMARK.json``.  ``--baseline`` also makes one traced pass per
workload and writes both tables to a JSON file stamped with the commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEV_SEED

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    table: dict = {}
    layers: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in range(1, args.seeds + 1):
            result, wall = run_once(workload, seed, 0)
            walls.append(wall)
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        table[workload] = {name: summarise(v) for name, v in values.items()}
        print(f"{workload}: {len(walls)} runs, {max(walls):.1f}s slowest, "
              f"{sum(walls):.0f}s total", flush=True)
        for name, s in table[workload].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}"
                  f" (bound {bounds[name]}) {flag}", flush=True)
        if args.baseline is not None:
            result, _ = run_once(workload, DEV_SEED, 1)
            ok &= result["correct"]
            layers[workload] = {
                k: v["value"] for k, v in result["metrics"].items()
            }

    if args.baseline is not None:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        args.baseline.write_text(json.dumps({
            "program_commit": commit,
            "run_seconds": BENCH["run_seconds"],
            "seeds": list(range(1, args.seeds + 1)),
            "end_to_end": table,
            "per_layer": {"seed": DEV_SEED, "workloads": layers},
        }, indent=2) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED THE CORRECTNESS GATE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
