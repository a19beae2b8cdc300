"""One workload run in its own process: the measured part of the benchmark.

Runs whole rounds of the workload's scenarios until ``--seconds`` have
passed, checks every report, and prints one JSON object as its last line.
A round runs every scenario of the workload once; all rounds of one run are
identical, so their artifacts must be byte-identical too. Each scenario's
run, and then its write, is timed between two calibrations and scaled to
the reference speed (see ``speed.py``).

Untraced (``--trace 0``): ``sim_rate``, ``write_s``, ``decision_ms_p50``,
``decision_ms_p90`` and ``peak_rss_mb``. Traced (``--trace 1``): traced and
untraced rounds alternate; the traced ones give the per-layer metrics and
the untraced ones the tracing overhead. Started by ``run.py``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orchestrion.scenario import SimulationRunner  # noqa: E402

from checks import check_report, count_operations  # noqa: E402
from speed import calibrate, scale  # noqa: E402
from tracing import COUNT_METRICS, DecisionTimer, SPAN_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Round:
    """Totals of one pass over the workload's scenarios; times are scaled to
    the reference speed, ``raw_run_s`` is not."""

    def __init__(self) -> None:
        self.run_s = 0.0
        self.raw_run_s = 0.0
        self.device_s = 0
        self.writes: dict[int, float] = {}  # scenario index -> write time
        self.decision_ms: list[float] = []
        self.bytes_written = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = ""


def sim_rate(rounds: list[Round], raw: bool = False) -> float:
    """Simulated device-seconds per host second of ``SimulationRunner.run``."""
    return sum(r.device_s for r in rounds) / sum(r.raw_run_s if raw else r.run_s for r in rounds)


def median_write_s(rounds: list[Round]) -> float:
    """Each report's median write time over the rounds, summed over reports."""
    indices = sorted({index for r in rounds for index in r.writes})
    return sum(statistics.median(r.writes[i] for r in rounds if i in r.writes) for i in indices)


def run_round(
    scenarios: list[dict], scratch: Path, tracer: Tracer | None = None, decisions: DecisionTimer | None = None
) -> Round:
    out = Round()
    digest = hashlib.sha256()
    before = calibrate()
    for index, scn in enumerate(scenarios):
        seen = len(decisions.samples_ns) if decisions is not None else 0
        try:
            runner = SimulationRunner(scn)
            start = perf_counter()
            report = runner.run()
            run_s = perf_counter() - start
        except Exception as exc:  # a run that raises fails every operation it was given
            print(f"{scn['name']} seed {scn['seed']}: {traceback.format_exc(limit=3)}", file=sys.stderr)
            out.attempted += len(scn.get("schedule", []))
            out.failed += len(scn.get("schedule", []))
            out.failures.append(f"{scn['name']} seed {scn['seed']}: raised {exc!r}")
            before = calibrate()
            continue
        middle = calibrate()
        target = scratch / f"{index:03d}"
        start = perf_counter()
        report.write(target)
        write_s = perf_counter() - start
        after = calibrate()

        factor = scale(before, middle)
        out.run_s += run_s * factor
        out.raw_run_s += run_s
        out.device_s += int(scn["duration_s"]) * len(scn["devices"])
        if decisions is not None:
            out.decision_ms += [ns / 1e6 * factor for ns in decisions.samples_ns[seen:]]
        out.writes[index] = write_s * scale(middle, after)
        before = after

        attempted, failed = count_operations(report)
        out.attempted += attempted
        out.failed += failed
        out.failures += [f"{scn['name']} seed {scn['seed']}: {f}" for f in check_report(report, scn)]
        if tracer is not None:
            tracer.count_report(report)
        out.bytes_written += sum(p.stat().st_size for p in target.rglob("*") if p.is_file())
        digest.update(tree_digest(target).encode())
        shutil.rmtree(target)
        # the runner's callbacks form reference cycles: free this run's
        # records before the next run starts, so peak memory is one run's
        del runner, report
        gc.collect()
    out.digest = digest.hexdigest()
    return out


def consistency(rounds: list[Round], reference: Round) -> list[str]:
    """Every round repeats the reference round's artifacts and outcomes."""
    failures = []
    for index, r in enumerate(rounds):
        if r.digest != reference.digest:
            failures.append(f"round {index}: artifacts differ from the first round's")
        if (r.attempted, r.failed) != (reference.attempted, reference.failed):
            failures.append(
                f"round {index}: operations {r.attempted}/{r.failed}, first round {reference.attempted}/{reference.failed}"
            )
    return failures


def measure(args, scenarios: list[dict], scratch: Path) -> dict:
    # warm-up: lazy imports and first-call costs stay out of the timed rounds
    warmup = run_round(scenarios[:1], scratch)
    decisions = DecisionTimer()
    decisions.install()
    rounds: list[Round] = []
    deadline = perf_counter() + args.seconds
    try:
        while not rounds or perf_counter() < deadline:
            rounds.append(run_round(scenarios, scratch, decisions=decisions))
    finally:
        decisions.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = warmup.failures + [f for r in rounds for f in r.failures] + consistency(rounds, rounds[0])
    samples = [ms for r in rounds for ms in r.decision_ms]
    if len(samples) < 100:
        # the 90th percentile needs ten samples beyond it
        raise RuntimeError(f"only {len(samples)} decision samples in {len(rounds)} rounds")
    return {
        "correct": not failures,
        "failures": failures[:20],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "decision_samples": len(samples),
        "raw_sim_rate": sim_rate(rounds, raw=True),
        "metrics": {
            "sim_rate": {"value": sim_rate(rounds), "unit": "dev-s/s"},
            "write_s": {"value": median_write_s(rounds), "unit": "s"},
            "decision_ms_p50": {"value": statistics.median(samples), "unit": "ms"},
            "decision_ms_p90": {"value": statistics.quantiles(samples, n=10)[-1], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def measure_traced(args, scenarios: list[dict], scratch: Path) -> dict:
    reference = run_round(scenarios, scratch)
    tracer = Tracer()
    traced: list[Round] = []
    untraced: list[Round] = []
    layer_times: list[dict[str, float]] = []
    layer_counts: list[dict[str, int]] = []
    deadline = perf_counter() + args.seconds
    # two traced rounds at least, so that the counts are compared
    while len(traced) < 2 or perf_counter() < deadline:
        tracer.install()
        try:
            traced.append(run_round(scenarios, scratch, tracer))
        finally:
            tracer.uninstall()
        times, counts = tracer.take_round()
        # span times to the reference speed with the round's own factor
        factor = traced[-1].run_s / traced[-1].raw_run_s
        layer_times.append({metric: seconds * factor for metric, seconds in times.items()})
        layer_counts.append(counts)
        untraced.append(run_round(scenarios, scratch))

    failures = [f for r in [reference, *traced, *untraced] for f in r.failures]
    failures += [f"traced {f}" for f in consistency(traced, reference)]
    failures += [f"untraced {f}" for f in consistency(untraced, reference)]
    failures += [f"forecast {f}" for f in tracer.forecast_failures[:20]]
    failures += [
        f"traced round {i}: counts differ from the first traced round's"
        for i, counts in enumerate(layer_counts)
        if counts != layer_counts[0]
    ]

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")

    traced_rate = sim_rate(traced)
    metrics = {
        metric: {"value": statistics.median(times[metric] for times in layer_times), "unit": "s"}
        for metric in SPAN_METRICS.values()
    }
    metrics.update({name: {"value": layer_counts[0][name], "unit": "count"} for name in COUNT_METRICS})
    metrics["report.bytes"] = {"value": reference.bytes_written, "unit": "bytes"}
    metrics["trace.sim_rate"] = {"value": traced_rate, "unit": "dev-s/s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (sim_rate(untraced) / traced_rate - 1.0), "unit": "%"}
    every = [reference, *traced, *untraced]
    return {
        "correct": not failures,
        "failures": failures[:20],
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "rounds": len(traced),
        "traced_run_s": statistics.median(r.run_s for r in traced),
        "spans": len(tracer.span_name),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scenarios = WORKLOADS[args.workload](args.seed)
    scratch = OUT_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        result = (measure_traced if args.trace else measure)(args, scenarios, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
