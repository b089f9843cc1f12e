"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --workloads design_search point_queries --seeds 1 2 3 4 5

The spread of a metric is the distance between the first and third
quartiles of its per-seed values (``statistics.quantiles(values, n=4)``)
as a share of their median. It is printed beside the metric's bound from
BENCHMARK.json; a steady benchmark keeps every spread, except that of
``setup_s``, below a third of its bound. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed tasks\n{done.stderr}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            runs.append(run_once(spec, workload, seed))
            elapsed = time.perf_counter() - start
            print(f"# {workload} seed {seed} done in {elapsed:.1f} s", file=sys.stderr, flush=True)
        for name, bound in bounds.items():
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if share < bound / 3 or name == "setup_s" else "  WIDE"
            print(f"{workload:14} {name:12} {median:12.5g} {q1:12.5g} {q3:12.5g} {share:7.2%} {bound:6.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
