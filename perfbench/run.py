"""Benchmark of the orchestration simulator: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` it times set-up over
several fresh interpreters, then runs the workload in its own fresh process
for S seconds and prints the end-to-end metrics; with ``--trace 1`` that
process alternates traced and untraced rounds and the run prints the
per-layer metrics and the tracing overhead. Every report is checked. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Timed set-up launches per run, after one untimed launch that fills the
# bytecode and file caches.
SETUP_LAUNCHES = 7
SETUP_TIMEOUT_S = 30
# Headroom past --seconds for the last round, the checks and the warm-up.
MEASURE_SLACK_S = 90

# Single-threaded numerics and a fixed string hash in every child process.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

def child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_ENV}


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Launch-to-runner times of fresh interpreters, one after another:
    scaled to the reference speed, and as measured."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    env = child_env()
    scaled, raw = [], []
    before = calibrate()
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds = (int(proc.stdout.split()[-1]) - started) / 1e9
        after = calibrate()
        if launch:
            scaled.append(seconds * scale(before, after))
            raw.append(seconds)
        before = after
    return scaled, raw


def measure(args) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + MEASURE_SLACK_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Orchestration simulator benchmark, one workload run.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "orchestrion" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'orchestrion'}; run from a checkout", file=sys.stderr)
        return 2

    try:
        setup, raw_setup = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
        result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        print(f"traced rounds {result['rounds']}, spans {result['spans']}, traced run {result['traced_run_s']:.3f} s/round")
        busy = sum(m["value"] for m in metrics.values() if m["unit"] == "s")
    else:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print(f"rounds {result['rounds']}, decision samples {result['decision_samples']}")
        print("setup launches, as measured (s): " + " ".join(f"{s:.4f}" for s in raw_setup))
        print(f"as measured: sim_rate {result['raw_sim_rate']:.6g} dev-s/s, setup_s {statistics.median(raw_setup):.6g} s")
        print("at the reference speed:")
    for name, m in metrics.items():
        share = f"  {100 * m['value'] / busy:5.1f}% of traced run time" if args.trace and m["unit"] == "s" else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{share}")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
