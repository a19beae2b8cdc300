"""Steadiness of the benchmark: alternated pairs of runs of two checkouts.

    python3 perfbench/steady.py --pairs 10 [--other DIR]

Pair i runs every workload of BENCHMARK.json at seed ``1000 + i``, for its
``run_seconds``, once in this checkout (A) and once in ``--other`` (B, by
default this checkout again, so both sides are identical code), alternating
which side runs first. For every end-to-end
metric it prints each side's median and quartiles, the spread (distance
between the quartiles as a share of the median) and the gap between the two
medians as a share of A's median; per workload, the largest gap. The bounds
in BENCHMARK.json are set from this output. Raw values go to ``--save``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1000


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(results: dict) -> None:
    """Per workload and metric: each side's median, quartiles and spread,
    the gap between the medians, and the largest of these a bound must
    cover."""
    for workload, by_side in results.items():
        print(f"\n{workload}: {len(by_side['A'])} runs per side")
        for side, runs in by_side.items():
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"  side {side}: failed share {shares}, all correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':16s} {'side':4s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        largest_gap = 0.0
        for metric in by_side["A"][0]["metrics"]:
            medians, spreads = [], []
            for side, runs in by_side.items():
                q1, median, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in runs], n=4)
                medians.append(median)
                spreads.append((q3 - q1) / median)
                print(f"  {metric:16s} {side:4s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spreads[-1]:7.3f}")
            gap = abs(medians[1] - medians[0]) / medians[0]
            largest_gap = max(largest_gap, gap)
            print(f"  {metric:16s} gap {gap:.3f}; a bound must cover {max(gap, *spreads):.3f}")
        print(f"  largest median gap: {largest_gap:.3f}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Alternated pairs of benchmark runs of two checkouts.")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other", type=Path, default=ROOT, help="checkout B (default: this checkout)")
    parser.add_argument("--save", type=Path, default=HERE / "out" / "steady.json")
    args = parser.parse_args()

    sides = {"A": ROOT, "B": args.other.resolve()}
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict = {w: {"A": [], "B": []} for w in workloads}
    for pair in range(args.pairs):
        seed = FIRST_SEED + pair
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed, bench["run_seconds"])
                results[workload][side].append({"seed": seed, **result})
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"pair {pair} {workload} {side} seed {seed}: {values}", flush=True)
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps(results, indent=1))
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
