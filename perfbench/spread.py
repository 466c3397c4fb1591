"""Spread report: each end-to-end metric's run-to-run spread against its bound.

Runs ``run.py`` once per seed on each workload, in sequence, and prints
for every metric the median of the runs and the distance between the
first and third quartiles as a share of that median
(``statistics.quantiles(values, n=4)``), beside the metric's bound from
``BENCHMARK.json``.  A spread at or above a third of its bound is
flagged; ``setup_s`` is exempt from the spread rule.

    python3 perfbench/spread.py --workloads solve lsi-update --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; returns its wall time and metrics (raises on a
    failed run)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-3000:]}{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"wall_s": wall, **{k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{min(walls):.1f}-{max(walls):.1f} s each")
        for name, bound in bounds.items():
            med, share = spread([r[name] for r in runs])
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- >= bound/3"
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:16s} median {med:12.6g}  spread {share:7.4f}  "
                  f"bound {bound:5.3f}{flag}")
            print("      runs: " + " ".join(f"{r[name]:.4g}" for r in runs))
        sys.stdout.flush()
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
