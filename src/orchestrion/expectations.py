"""Post-run assertion evaluators for scenario expectations."""
from __future__ import annotations

from collections import defaultdict

from .hostsim import WorkloadSpec, workload_demand
from .model import ContractViolation, OptimizationPolicy, require_int
from .monitor import MonitorConfig


def evaluate_expectations(
    report, scenario: dict, policy: OptimizationPolicy, monitor: MonitorConfig
) -> list[dict]:
    """Evaluate the scenario's expectations against ``report``; ``policy`` and
    ``monitor`` are the configurations the run was built with."""
    results = []
    for expectation in scenario.get("expectations", []):
        kind = expectation["type"]
        evaluator = _EVALUATORS.get(kind)
        if evaluator is None:
            results.append({"name": kind, "passed": False, "detail": f"unknown expectation type {kind!r}"})
            continue
        passed, detail = evaluator(report, scenario, expectation, policy, monitor)
        results.append({"name": kind, "passed": bool(passed), "detail": detail})
    return results


def _image_rows(report, image: str) -> list[dict]:
    rows: list[dict] = []
    for event in report.events_of("deployed"):
        if event["image"] == image:
            rows.extend(report.traces.get((event["device"], event["container"]), ()))
    return sorted(rows, key=lambda r: r["t"])


def _decision_sequence(report, scenario, params, policy, monitor):
    resource = params["resource"]
    got = [[e["verdict"], e["target"][resource]] for e in report.admissions()]
    expected = [list(item) for item in params["expect"]]
    if got == expected:
        return True, f"decisions {got}"
    return False, f"expected {expected}, got {got}"


def _zero_oom(report, scenario, params, policy, monitor):
    kills = report.events_of("oom_kill")
    return not kills, f"{len(kills)} OOM kills"


def _min_oom_per_deployment(report, scenario, params, policy, monitor):
    minimum = int(params["min"])
    kills_by_deployment: dict[str, int] = defaultdict(int)
    for event in report.events_of("oom_kill"):
        kills_by_deployment[event["deployment"]] += 1
    deployments = {e["deployment"] for e in report.events_of("request_submitted")}
    short = {d: kills_by_deployment.get(d, 0) for d in deployments if kills_by_deployment.get(d, 0) < minimum}
    if short:
        return False, f"deployments below {minimum} kills: {short}"
    return True, f"kills per deployment: {dict(sorted(kills_by_deployment.items()))}"


def _all_deployments_running(report, scenario, params, policy, monitor):
    pending = {}
    for device_state in report.final_state.values():
        for dep_id, dep in device_state["deployments"].items():
            if dep["state"] != "running":
                pending[dep_id] = dep["state"]
    return not pending, f"non-running deployments: {pending}" if pending else "all deployments running"


def _mem_limits_in_band(report, scenario, params, policy, monitor):
    bands = params["bands"]
    mode = params.get("mode", "from_t")
    failures = []
    for image, (lo, hi) in bands.items():
        if mode == "from_t":
            rows = [r for r in _image_rows(report, image) if r["t"] >= params["from_s"] and r["status"] == "running"]
        else:  # final_container: every sample of the last container for the image
            cids = report.containers_of_image(image)
            if not cids:
                failures.append(f"{image}: never deployed")
                continue
            rows = [r for r in _image_rows(report, image) if r["container"] == cids[-1] and r["status"] == "running"]
        if not rows:
            failures.append(f"{image}: no samples to check")
            continue
        bad = [(r["t"], r["mem_limit"]) for r in rows if not lo <= r["mem_limit"] <= hi]
        if bad:
            failures.append(f"{image}: limits outside [{lo},{hi}]: {bad[:5]}")
    if failures:
        return False, "; ".join(failures)
    return True, f"limits within bands {bands}"


def _newcomer_mem_band(report, scenario, params, policy, monitor):
    warmup = policy.warmup_delay_s
    interval = policy.optimization_interval_s
    failures = []
    for image, (lo, hi) in params["bands"].items():
        deployed = [e for e in report.events_of("deployed") if e["image"] == image]
        if not deployed:
            failures.append(f"{image}: never deployed")
            continue
        from_t = deployed[0]["t"] + warmup + 4 * interval
        rows = [r for r in _image_rows(report, image) if r["t"] >= from_t and r["status"] == "running"]
        if not rows:
            failures.append(f"{image}: no samples after t={from_t}")
            continue
        bad = [(r["t"], r["mem_limit"]) for r in rows if not lo <= r["mem_limit"] <= hi]
        if bad:
            failures.append(f"{image}: limits outside [{lo},{hi}] after t={from_t}: {bad[:5]}")
    if failures:
        return False, "; ".join(failures)
    return True, "newcomer limits converged into their bands"


def _escalation_exact(report, scenario, params, policy, monitor):
    step = policy.scale_up.mem
    mem_max = policy.mem_max
    images = {(i["owner"], i["name"]): i for i in scenario["images"]}
    admissions_by_deployment: dict[str, list[dict]] = defaultdict(list)
    for event in report.admissions():
        admissions_by_deployment[event["deployment"]].append(event)
    deployment_image: dict[str, tuple[str, str]] = {}
    for event in report.events_of("request_submitted"):
        dep = event["deployment"]
        for (owner, name) in images:
            if name == event["image"]:
                deployment_image[dep] = (owner, name)
    failures = []
    for dep, events in admissions_by_deployment.items():
        image = images[deployment_image[dep]]
        request_mem = image["request"]["mem"]
        base_mem = image["base"]["mem"]
        expected = [request_mem, base_mem] + [
            min(base_mem + k * step, mem_max) for k in range(1, len(events) - 1)
        ]
        got = [e["target"]["mem"] for e in events]
        if got != expected[: len(got)]:
            failures.append(f"{dep}: got {got}, expected prefix of {expected}")
    if failures:
        return False, "; ".join(failures)
    sample = {d: [e["target"]["mem"] for e in evs] for d, evs in sorted(admissions_by_deployment.items())}
    return True, f"escalation sequences {sample}"


def _initial_throttle_full(report, scenario, params, policy, monitor):
    """Containers whose demand exceeded their CPU limit in every tick of the
    first sampling window must report 100% throttling in their first sample."""
    scrape = monitor.scrape_interval_s
    seed = int(scenario.get("seed", 0))
    images = {i["name"]: i for i in scenario["images"]}
    failures = []
    checked = []
    for event in report.events_of("deployed"):
        image = images[event["image"]]
        spec = WorkloadSpec.from_dict(image["workload"])
        limit = event["limits"]["cpu"]
        cid = event["container"]
        start_t = event["t"]
        # independent oracle: evaluate the demand function over the first window
        always_above = all(
            workload_demand(spec, phase, seed, cid)[0] > limit for phase in range(1, scrape + 1)
        )
        if not always_above:
            continue
        rows = [r for r in _image_rows(report, event["image"]) if r["container"] == cid and r["t"] > start_t]
        if not rows:
            failures.append(f"{cid}: no samples")
            continue
        if rows[0]["cpu_throttle"] != 100.0:
            failures.append(f"{cid}: first-window throttle {rows[0]['cpu_throttle']}")
        checked.append(cid)
    if failures:
        return False, "; ".join(failures)
    if not checked:
        return False, "no container qualified for the initial-throttle check"
    return True, f"fully throttled first windows for {checked}"


def _throttle_recovered(report, scenario, params, policy, monitor):
    from_s = int(params["from_s"])
    max_pct = float(params["max_pct"])
    bad = []
    for (_, cid), rows in report.traces.items():
        for row in rows:
            if row["t"] >= from_s and row["status"] == "running" and row["cpu_throttle"] >= max_pct:
                bad.append((cid, row["t"], row["cpu_throttle"]))
    if bad:
        return False, f"throttled samples after t={from_s}: {bad[:5]}"
    return True, f"all throttling below {max_pct}% after t={from_s}"


def _backlog_drained(report, scenario, params, policy, monitor):
    remaining = {}
    for device_state in report.final_state.values():
        for cid, container in device_state["containers"].items():
            if container["status"] == "running" and container["backlog"] > 0:
                remaining[cid] = container["backlog"]
    return not remaining, f"final backlogs: {remaining}" if remaining else "all backlogs drained"


def _no_cpu_upscale(report, scenario, params, policy, monitor):
    image = params["image"]
    cids = set(report.containers_of_image(image))
    if not cids:
        return False, f"{image}: never deployed"
    increases = [
        e
        for e in report.events_of("optimization")
        if e["container"] in cids and e["deltas"].get("cpu", 0) > 0
    ]
    denials = [
        e
        for e in report.events_of("optimization_denied")
        if e["container"] in cids and e["resource"] == "cpu"
    ]
    rows = _image_rows(report, image)
    full_throttle = [r for r in rows if r["cpu_throttle"] == 100.0]
    if increases:
        return False, f"{image}: cpu limit was raised: {increases[:3]}"
    if len(denials) < int(params.get("min_denials", 1)):
        return False, f"{image}: only {len(denials)} denied upscales"
    if len(full_throttle) < int(params.get("min_full_throttle_samples", 1)):
        return False, f"{image}: only {len(full_throttle)} fully throttled samples"
    return True, f"{len(denials)} upscales denied, {len(full_throttle)} fully-throttled samples, no increase"


def _executor_sequence(report, scenario, params, policy, monitor):
    got = [e["device"] for e in report.events_of("deployed")]
    expected = list(params["expect"])
    if got == expected:
        return True, f"executors {got}"
    return False, f"expected {expected}, got {got}"


def _cluster_message_overhead(report, scenario, params, policy, monitor):
    """Per deployment: exactly one bridged cluster/deploy broadcast and exactly
    one analysis request cluster-wide."""
    deployment_of: dict[str, str] = {}  # analysis id -> deployment, first admission wins
    for event in report.admissions():
        deployment_of.setdefault(event["analysis_id"], event["deployment"])
    bridged_ids: dict[str, set] = defaultdict(set)
    analysis_counts: dict[str, int] = defaultdict(int)
    for m in report.messages:
        if m["topic"] == "cluster/deploy" and m["action"] == "deployment_request":
            bridged_ids[m["correlation_id"]].add(m["msg_id"])
        elif (
            m["action"] == "deployment_analysis_request"
            and m["bridged_from"] is None
            and m["correlation_id"].startswith("a")
            and m["correlation_id"] in deployment_of
        ):
            analysis_counts[deployment_of[m["correlation_id"]]] += 1
    failures = []
    details = {}
    for dep in (e["deployment"] for e in report.events_of("request_submitted")):
        bridged, analysis_count = len(bridged_ids[dep]), analysis_counts[dep]
        details[dep] = {"bridged": bridged, "analysis_requests": analysis_count}
        if bridged != 1:
            failures.append(f"{dep}: {bridged} bridged deploy broadcasts")
        if analysis_count != 1:
            failures.append(f"{dep}: {analysis_count} analysis requests")
    if failures:
        return False, "; ".join(failures)
    return True, f"per-deployment overhead {details}"


def _existing_first(report, scenario, params, policy, monitor):
    """Existing containers' limits move by at most one scale step (per resource
    and direction) during the newcomers' warmup window."""
    warmup = policy.warmup_delay_s
    up = policy.scale_up.as_dict()
    down = policy.scale_down.as_dict()
    newcomer_starts = [
        e["t"] for e in report.events_of("deployed") if e["image"] in params["newcomer_images"]
    ]
    if not newcomer_starts:
        return False, "newcomers never deployed"
    window = (min(newcomer_starts), min(newcomer_starts) + warmup)
    failures = []
    for image in params["existing_images"]:
        rows = [r for r in _image_rows(report, image) if r["status"] == "running"]
        in_window = [r for r in rows if window[0] <= r["t"] <= window[1]]
        before = [r for r in rows if r["t"] <= window[0]]
        if not in_window or not before:
            failures.append(f"{image}: no samples around the window")
            continue
        ref = before[-1]
        for resource, column in (("cpu", "cpu_limit"), ("mem", "mem_limit")):
            for row in in_window:
                delta = row[column] - ref[column]
                step = up[resource] if delta > 0 else down[resource]
                if abs(delta) > step:
                    failures.append(
                        f"{image}: {resource} limit moved {delta} (> one step {step}) at t={row['t']}"
                    )
                    break
    if failures:
        return False, "; ".join(failures)
    return True, f"existing limits held within one step during window {window}"


def _final_throttle_below(report, scenario, params, policy, monitor):
    max_pct = float(params["max_pct"])
    bad = {}
    for (_, cid), rows in report.traces.items():
        running = [r for r in rows if r["status"] == "running"]
        if running and running[-1]["cpu_throttle"] >= max_pct:
            bad[cid] = running[-1]["cpu_throttle"]
    return not bad, f"final throttle: {bad}" if bad else f"all final throttling below {max_pct}%"


_EVALUATORS = {
    "decision_sequence": _decision_sequence,
    "zero_oom": _zero_oom,
    "min_oom_per_deployment": _min_oom_per_deployment,
    "all_deployments_running": _all_deployments_running,
    "mem_limits_in_band": _mem_limits_in_band,
    "newcomer_mem_band": _newcomer_mem_band,
    "escalation_exact": _escalation_exact,
    "initial_throttle_full": _initial_throttle_full,
    "throttle_recovered": _throttle_recovered,
    "backlog_drained": _backlog_drained,
    "no_cpu_upscale": _no_cpu_upscale,
    "executor_sequence": _executor_sequence,
    "cluster_message_overhead": _cluster_message_overhead,
    "existing_first": _existing_first,
    "final_throttle_below": _final_throttle_below,
}


# -- parameter checks, run before the simulation ---------------------------------


def _must(what: str, test):
    def check(name: str, value) -> None:
        if not test(value):
            raise ContractViolation(f"{name} must be {what}, got {value!r}")

    return check


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2


_TEXT = _must("a string", lambda v: isinstance(v, str))
_NUMBER = _must("a number", _is_number)
_TEXTS = _must("a list of strings", lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v))
_BANDS = _must(
    "a map of image to [low, high]",
    lambda v: isinstance(v, dict) and all(_is_pair(b) and all(map(_is_number, b)) for b in v.values()),
)

# parameter -> (check, required) for each type whose evaluator reads parameters
_PARAMETERS = {
    "decision_sequence": {
        "resource": (_must("'cpu' or 'mem'", lambda v: v in ("cpu", "mem")), True),
        "expect": (_must("a list of [verdict, amount] pairs", lambda v: isinstance(v, list) and all(map(_is_pair, v))), True),
    },
    "min_oom_per_deployment": {"min": (require_int, True)},
    "mem_limits_in_band": {
        "bands": (_BANDS, True),
        "mode": (_must("'from_t' or 'final_container'", lambda v: v in ("from_t", "final_container")), False),
        "from_s": (require_int, False),  # required in from_t mode
    },
    "newcomer_mem_band": {"bands": (_BANDS, True)},
    "throttle_recovered": {"from_s": (require_int, True), "max_pct": (_NUMBER, True)},
    "no_cpu_upscale": {
        "image": (_TEXT, True),
        "min_denials": (require_int, False),
        "min_full_throttle_samples": (require_int, False),
    },
    "executor_sequence": {"expect": (_TEXTS, True)},
    "existing_first": {"existing_images": (_TEXTS, True), "newcomer_images": (_TEXTS, True)},
    "final_throttle_below": {"max_pct": (_NUMBER, True)},
}


def check_expectation(expectation: dict) -> None:
    """Raise if a known expectation type misses a parameter its evaluator
    reads, or has one of the wrong type. An unknown type passes: evaluation
    reports it as a failed result."""
    kind = expectation["type"]
    _TEXT("type", kind)
    for name, (check, required) in _PARAMETERS.get(kind, {}).items():
        if name in expectation:
            check(name, expectation[name])
        elif required or (name == "from_s" and expectation.get("mode", "from_t") == "from_t"):
            raise KeyError(name)
