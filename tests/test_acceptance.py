"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scenario-driven criteria run the corresponding built-in scenario (cached per
session) and assert the required outcomes directly from the run report, on
top of the scenario's own expectation checks.
"""
import math
import random

import pytest

from orchestrion.analyzer import (
    account_optimization,
    admit,
    optimize_cpu,
    optimize_memory,
    predict_availability,
)
from orchestrion.builtins import builtin_scenario
from orchestrion.forecaster import ForecastResult, ar_forecast, clip_series
from orchestrion.model import Limits, OptimizationPolicy, clamp
from orchestrion.registry import ImageBlob, Registry, OwnershipViolation, TamperError
from orchestrion.scenario import run_scenario

MEM_PEAKS = {"memory-1": 95, "memory-2": 95, "memory-3": 95, "memory-4": 80, "memory-5": 95}


def _verdicts(report, resource):
    return [(e["verdict"], e["target"][resource]) for e in report.admissions()]


def _expectations_by_name(report):
    return {r["name"]: r for r in report.expectation_results}


def _check(criterion: str, conditions: list[tuple[bool, str]]):
    failed = [detail for ok, detail in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] {criterion}" + (f" -- {'; '.join(failed)}" if failed else ""))
    assert not failed, f"{criterion}: {failed}"


def _image_limit_rows(report, image, from_t=0):
    cids = set(report.containers_of_image(image))
    rows = []
    for (_, cid), trace in report.traces.items():
        if cid in cids:
            rows.extend(r for r in trace if r["t"] >= from_t and r["status"] == "running")
    return sorted(rows, key=lambda r: r["t"])


def test_criterion_1_exp1_memory(run_builtin):
    report, runtime = run_builtin("exp1_mem")
    scenario = builtin_scenario("exp1_mem")
    start = scenario["schedule"][0]["at_s"]
    converge_by = start + 1800 + 4 * 300
    conditions = [
        (_verdicts(report, "mem") == [("accept", 150)] * 5, "five accepts at 150MB"),
        (not report.events_of("oom_kill"), "zero OOM kills"),
        (runtime < 10.0, f"runtime {runtime:.2f}s < 10s"),
    ]
    for image, peak in MEM_PEAKS.items():
        rows = _image_limit_rows(report, image, from_t=converge_by)
        in_band = bool(rows) and all(peak <= r["mem_limit"] <= peak * 1.25 for r in rows)
        conditions.append((in_band, f"{image} limit in [{peak}, {peak * 1.25}] after 4 cycles"))
    _check("criterion 1: exp1 memory admissions, convergence, zero OOM, runtime", conditions)


def test_criterion_2_exp1_cpu(run_builtin):
    report, _ = run_builtin("exp1_cpu")
    expected = [
        ("accept", 300, "request"),
        ("accept", 300, "request"),
        ("accept", 300, "request"),
        ("reject", 300, "request"),
        ("accept", 100, "base"),
        ("reject", 300, "request"),
        ("reject", 100, "base"),
    ]
    got = [(e["verdict"], e["target"]["cpu"], e["role"]) for e in report.admissions()]
    _check(
        "criterion 2: exp1 cpu exact decision sequence",
        [(got == expected, f"expected {expected}, got {got}")],
    )


def test_criterion_3_exp2_memory(run_builtin):
    report, _ = run_builtin("exp2_mem")
    kills_per_deployment = {}
    for event in report.events_of("oom_kill"):
        kills_per_deployment[event["deployment"]] = kills_per_deployment.get(event["deployment"], 0) + 1
    deployments = sorted({e["deployment"] for e in report.events_of("request_submitted")})
    conditions = [
        (len(deployments) == 5, "five deployments submitted"),
        (all(kills_per_deployment.get(d, 0) >= 2 for d in deployments), f"every workload >= 2 kills: {kills_per_deployment}"),
    ]
    final = report.final_state["10.0.0.1"]["deployments"]
    conditions.append((all(final[d]["state"] == "running" for d in deployments), "all five running at the end"))
    # escalation formula: request, base, then base + (k-2)*scale_up per attempt k
    for deployment in deployments:
        targets = [e["target"]["mem"] for e in report.admissions() if e["deployment"] == deployment]
        expected = [15, 10] + [min(10 + k * 20, 500) for k in range(1, len(targets) - 1)]
        conditions.append((targets == expected, f"{deployment} escalation {targets} == {expected}"))
    for image, peak in MEM_PEAKS.items():
        cids = report.containers_of_image(image)
        rows = [r for r in _image_limit_rows(report, image) if r["container"] == cids[-1]]
        in_band = bool(rows) and all(peak <= r["mem_limit"] <= peak * 1.25 for r in rows)
        conditions.append((in_band, f"{image} stabilized limit within [{peak}, {peak * 1.25}]"))
    _check("criterion 3: exp2 memory kills, retry escalation, stabilization", conditions)


def test_criterion_4_exp2_cpu(run_builtin):
    report, _ = run_builtin("exp2_cpu")
    results = _expectations_by_name(report)
    recovered_from = 2 + 1800 + 4 * 300 + 3
    late_rows = [
        r for rows in report.traces.values() for r in rows if r["t"] >= recovered_from and r["status"] == "running"
    ]
    final_backlogs = [
        c["backlog"]
        for c in report.final_state["10.0.0.1"]["containers"].values()
        if c["status"] == "running"
    ]
    conditions = [
        (_verdicts(report, "cpu") == [("accept", 100)] * 5, "five accepts at the misconfigured 100m"),
        (results["initial_throttle_full"]["passed"], results["initial_throttle_full"]["detail"]),
        (bool(late_rows) and all(r["cpu_throttle"] < 25.0 for r in late_rows), "throttle below limit after 4 cycles"),
        (any(r["cpu_throttle"] == 100.0 for rows in report.traces.values() for r in rows), "delays existed initially"),
        (final_backlogs and all(b == 0 for b in final_backlogs), f"backlog stopped growing and drained: {final_backlogs}"),
    ]
    _check("criterion 4: exp2 cpu throttling and recovery", conditions)


def test_criterion_5_exp3_existing_first(run_builtin):
    conditions = []
    for name in ("exp3_mem", "exp3_cpu"):
        report, _ = run_builtin(name)
        results = _expectations_by_name(report)
        conditions.append((results["existing_first"]["passed"], f"{name}: {results['existing_first']['detail']}"))
        conditions.append((results["decision_sequence"]["passed"], f"{name}: all four admitted"))
    mem_report, _ = run_builtin("exp3_mem")
    newcomer_band = _expectations_by_name(mem_report)["newcomer_mem_band"]
    conditions.append((newcomer_band["passed"], f"exp3_mem newcomers: {newcomer_band['detail']}"))
    cpu_report, _ = run_builtin("exp3_cpu")
    throttle = _expectations_by_name(cpu_report)["final_throttle_below"]
    conditions.append((throttle["passed"], f"exp3_cpu newcomers settle: {throttle['detail']}"))
    _check("criterion 5: exp3 existing-first and newcomer convergence", conditions)


def test_criterion_6_exp4_decisions(run_builtin):
    expected = {
        "exp4_mem_400": ("mem", [("accept", 150), ("accept", 150), ("reject", 150), ("reject", 100)]),
        "exp4_mem_200": (
            "mem",
            [("accept", 150), ("reject", 150), ("reject", 100), ("reject", 150), ("reject", 100)],
        ),
        "exp4_cpu_350": (
            "cpu",
            [("accept", 300), ("reject", 100), ("reject", 50), ("reject", 100), ("reject", 50)],
        ),
        "exp4_cpu_100": (
            "cpu",
            [("reject", 100), ("accept", 50), ("reject", 100), ("reject", 50), ("reject", 100), ("reject", 50)],
        ),
    }
    conditions = []
    for name, (resource, sequence) in expected.items():
        report, _ = run_builtin(name)
        got = _verdicts(report, resource)
        conditions.append((got == sequence, f"{name}: expected {sequence}, got {got}"))
    report, _ = run_builtin("exp4_cpu_100")
    results = _expectations_by_name(report)
    conditions.append((results["no_cpu_upscale"]["passed"], f"exp4_cpu_100: {results['no_cpu_upscale']['detail']}"))
    _check("criterion 6: exp4 exact admission decisions under extreme constraints", conditions)


def test_criterion_7_cluster(run_builtin):
    report, _ = run_builtin("cluster_3dev")
    results = _expectations_by_name(report)
    executors = [e["device"] for e in report.events_of("deployed")]
    conditions = [
        (executors == ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.1"], f"executor sequence {executors}"),
        (results["cluster_message_overhead"]["passed"], results["cluster_message_overhead"]["detail"]),
    ]
    _check("criterion 7: cluster executor rotation and message overhead", conditions)


def test_criterion_8_formula_unit_suite():
    policy = OptimizationPolicy()  # buffer 1.1, margin 1.1, scale_up 50/20, scale_down 100/20
    conditions = []

    # throttle-driven minor upscale: 50 * 40 / 100 = 20m on top of the limit
    conditions.append((optimize_cpu(100, 90.0, 40.0, policy, 1000) == 120, "adjusted scale 50*40/100"))
    # buffer recalculation on downscale: 100m * 1.1 = 110m exactly
    conditions.append((optimize_cpu(200, 100.0, 0.0, policy, 1000) == 110, "buffer target 100*1.1"))
    # utilization-driven upscale
    conditions.append((optimize_cpu(100, 120.0, 0.0, policy, 1000) == 150, "cpu upscale by one step"))
    # memory margin guard family
    conditions.append((optimize_memory(150, 95.0, policy) == 130, "mem downscale one step (130 >= 104.5)"))
    conditions.append((optimize_memory(100, 98.0, policy) == 120, "mem upscale (107.8 > 100)"))
    guard_policy = OptimizationPolicy(scale_down=Limits(cpu=100, mem=50))
    conditions.append((optimize_memory(150, 95.0, guard_policy) == 150, "margin guard keeps 150 (100 < 104.5)"))
    # clamp examples
    conditions.append((clamp(50, 64, 512) == 64, "clamp below floor"))
    conditions.append((clamp(600, 64, 512) == 512, "clamp above ceiling"))
    conditions.append((clamp(128, 64, 512) == 128, "clamp identity"))

    # predicted-availability arithmetic
    empty = predict_availability({}, {}, capacity=Limits(cpu=1000, mem=400))
    conditions.append((empty["mem"] == pytest.approx(400.0, abs=1e-9), "empty host avail 400"))
    forecasts = {
        "c1": ForecastResult(cpu_util=[10.0], mem_util=[95.0], throttle_pct=[0.0]),
        "c2": ForecastResult(cpu_util=[10.0], mem_util=[95.0], throttle_pct=[0.0]),
    }
    currents = {"c1": Limits(cpu=100, mem=150), "c2": Limits(cpu=100, mem=150)}
    two = predict_availability(forecasts, currents, capacity=Limits(cpu=1000, mem=400))
    conditions.append((two["mem"] == pytest.approx(100.0, abs=1e-9), "400 - 150 - 150 = 100"))
    above = predict_availability(
        {"c1": ForecastResult(cpu_util=[160.0], mem_util=[1.0], throttle_pct=[0.0])},
        {"c1": Limits(cpu=100, mem=64)},
        capacity=Limits(cpu=1000, mem=1000),
    )
    conditions.append((above["cpu"] == pytest.approx(840.0, abs=1e-9), "clamp keeps larger of limit/forecast: 1000 - 160"))

    # admission strictness and accounting
    avail = {"cpu": 1000.0, "mem": 100.0}
    conditions.append((not admit(Limits(cpu=1, mem=100), avail).accepted, "equality rejects"))
    avail2 = {"cpu": 300.0, "mem": 0.0}
    account_optimization(avail2, {"cpu": 50})
    conditions.append((avail2["cpu"] == pytest.approx(250.0, abs=1e-9), "avail 300 - 50 = 250"))
    account_optimization(avail2, {"mem": -40})
    conditions.append((avail2["mem"] == pytest.approx(40.0, abs=1e-9), "downscale frees 40"))

    # forecaster worked examples
    ramp, _ = ar_forecast([float(v) for v in range(10, 101, 10)], horizon=2)
    conditions.append(
        (abs(ramp[0] - 110.0) < 1e-9 and abs(ramp[1] - 120.0) < 1e-9, "linear ramp forecast [110, 120]")
    )
    constant, _ = ar_forecast([80.0] * 10, horizon=3)
    conditions.append((constant == [80.0] * 3, "constant series fixpoint"))
    fallback, flagged = ar_forecast([1.0, 2.0, 3.0, 4.0], horizon=2)
    conditions.append((fallback == [4.0, 4.0] and flagged, "short history falls back to last value"))

    _check("criterion 8: formula unit suite at exact tolerance", conditions)


def test_criterion_9_forecaster_properties():
    rng = random.Random(90)
    failures = []
    cases = 0

    for _ in range(250):  # constant-series fixpoint
        level = rng.uniform(0, 200)
        horizon = rng.randint(1, 6)
        out, _ = ar_forecast([level] * rng.randint(8, 40), horizon)
        cases += 1
        if any(abs(v - level) > 1e-9 for v in out):
            failures.append(f"constant {level}")

    for _ in range(250):  # arithmetic-progression linearity
        start, step = rng.uniform(0, 100), rng.uniform(-5, 5)
        n, horizon = rng.randint(8, 40), rng.randint(1, 6)
        series = [start + i * step for i in range(n)]
        out, _ = ar_forecast(series, horizon)
        cases += 1
        if any(abs(v - (series[-1] + (k + 1) * step)) > 1e-6 for k, v in enumerate(out)):
            failures.append(f"progression start={start} step={step}")

    for _ in range(250):  # horizon length, clipping, finiteness
        n, horizon = rng.randint(1, 40), rng.randint(1, 6)
        series = [rng.uniform(0, 200) for _ in range(n)]
        out, _ = ar_forecast(series, horizon)
        clipped = clip_series(out, 0.0, 100.0)
        cases += 1
        if len(out) != horizon or any(not math.isfinite(v) for v in out):
            failures.append("horizon/finite")
        if any(v < 0 or v > 100 for v in clipped):
            failures.append("clipping")

    # shift invariance is exact in real arithmetic; in floats the shifted
    # input differences carry ulp-level noise that the fit can amplify to
    # ~1e-5 absolute, so the bound reflects conditioning, not the estimator
    for _ in range(250):
        n, horizon = rng.randint(8, 40), rng.randint(1, 6)
        shift = rng.uniform(-100, 100)
        series = [rng.uniform(0, 200) for _ in range(n)]
        base, _ = ar_forecast(series, horizon)
        shifted, _ = ar_forecast([v + shift for v in series], horizon)
        cases += 1
        if any(abs((b + shift) - s) > 1e-4 for b, s in zip(base, shifted)):
            failures.append(f"shift {shift}")

    _check(
        "criterion 9: forecaster properties, 1000 randomized cases",
        [(cases == 1000 and not failures, f"{cases} cases, failures: {failures[:5]}")],
    )


def test_criterion_10_registry_properties():
    rng = random.Random(10)
    registry = Registry()
    request, base = {"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 100}
    failures = []

    # content-addressed round-trip on 1000 random blobs
    for i in range(1000):
        layers = [bytes(rng.randrange(256) for _ in range(rng.randint(1, 48))) for _ in range(rng.randint(1, 3))]
        digest = registry.publish_image("vendor", f"blob-{i % 7}", ImageBlob(layers), request, base)
        if registry.fetch_blob(digest).layers != layers:
            failures.append(f"roundtrip {i}")

    # ownership monotonicity under adversarial updates
    registry.publish_image("owner-a", "guarded", ImageBlob([b"v1"]), request, base)
    for i in range(100):
        attacker = f"mallory-{rng.randint(0, 5)}"
        try:
            registry.publish_image("owner-a", "guarded", ImageBlob([bytes([i])]), request, base, caller=attacker)
            failures.append(f"adversarial update {attacker} accepted")
        except OwnershipViolation:
            pass
        if registry.get_image("owner-a", "guarded").owner != "owner-a":
            failures.append("owner changed")

    # tamper detection on single-byte corruption
    tamper_registry = Registry()
    for i in range(100):
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(4, 64)))
        digest = tamper_registry.publish_image("vendor", f"t-{i}", ImageBlob([payload]), request, base)
        tamper_registry._corrupt_for_test(digest, offset=rng.randrange(len(payload)))
        try:
            tamper_registry.fetch_blob(digest)
            failures.append(f"tamper {i} undetected")
        except TamperError:
            pass

    _check("criterion 10: registry ownership, round-trips, tamper detection", [(not failures, str(failures[:5]))])


def test_criterion_11_determinism(tmp_path):
    conditions = []
    for name in ("exp1_cpu", "exp4_cpu_100", "cluster_3dev"):
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        run_scenario(builtin_scenario(name)).write(out_a)
        run_scenario(builtin_scenario(name)).write(out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        identical = files_a == files_b and all(
            (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in files_a
        )
        conditions.append((identical, f"{name}: reruns byte-identical"))
    _check("criterion 11: determinism of event logs and CSVs", conditions)
