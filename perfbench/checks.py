"""Correctness checks run on every benchmark report.

Each check recomputes a result apart from the program, or tests a property
the method must have; none compares against stored output. A check returns a
list of failure descriptions, empty when the report passes. The checks read
only the report's public fields and the scenario dict, so a test can hand
them a deliberately broken copy of a report.
"""
from __future__ import annotations

from collections import defaultdict

TERMINAL_STATES = ("running", "rejected", "failed", "delegated")

MAX_FAILURES_SHOWN = 5


def _address_key(address: str) -> tuple[int, ...]:
    return tuple(int(octet) for octet in address.split("."))


def _strict_verdict(event: dict) -> str:
    """The verdict the strict-inequality admission rule requires."""
    fits = all(event["target"][res] < event["avail"][res] for res in ("cpu", "mem"))
    return "accept" if fits else "reject"


def _is_cluster(scenario: dict) -> bool:
    return bool(scenario.get("cluster", False)) and len(scenario["devices"]) > 1


def expectations_pass(report, scenario: dict) -> list[str]:
    """Every expectation the scenario declares was evaluated and holds."""
    declared = [e["type"] for e in scenario.get("expectations", [])]
    got = [r["name"] for r in report.expectation_results]
    if got != declared:
        return [f"evaluated expectations {got}, declared {declared}"]
    return [f"expectation {r['name']} failed: {r['detail']}" for r in report.expectation_results if not r["passed"]]


def admissions_strict(report, scenario: dict) -> list[str]:
    """``accept`` exactly when the target is strictly below the recorded
    availability for both cpu and mem."""
    return [
        f"{e['deployment']} attempt {e['attempt']} {e['role']}: verdict {e['verdict']} "
        f"for target {e['target']} vs avail {e['avail']}"
        for e in report.events
        if e["type"] == "admission" and e["verdict"] != _strict_verdict(e)
    ]


def backlog_conserved(report, scenario: dict) -> list[str]:
    """CPU work is conserved: demanded = granted + backlog, per container."""
    return [
        f"{cid}@{device}: demanded {c['total_demanded']} != granted {c['total_granted']} + backlog {c['backlog']}"
        for device, state in report.final_state.items()
        for cid, c in state["containers"].items()
        if c["total_demanded"] != c["total_granted"] + c["backlog"]
    ]


def memory_within_limit(report, scenario: dict) -> list[str]:
    """A running container never uses more memory than its limit."""
    return [
        f"{cid} at t={row['t']}: mem_util {row['mem_util']} > mem_limit {row['mem_limit']}"
        for (_, cid), rows in report.traces.items()
        for row in rows
        if row["status"] == "running" and row["mem_util"] > row["mem_limit"]
    ]


def monitoring_fanout(report, scenario: dict) -> list[str]:
    """Each device publishes one monitoring result per scrape interval; in a
    bridged cluster each result is logged exactly once on every peer."""
    interval = int(scenario.get("monitor", {}).get("scrape_interval_s", 10))
    expected = int(scenario["duration_s"]) // interval
    devices = [d["address"] for d in scenario["devices"]]
    published: dict[str, list[str]] = defaultdict(list)
    copies: dict[tuple[str, str], list[str]] = defaultdict(list)
    for m in report.messages:
        if m["action"] != "monitoring_result":
            continue
        if m["bridged_from"] is None and m["topic"] == "monitor":
            published[m["device"]].append(m["msg_id"])
        elif m["topic"] == "cluster/monitor":
            copies[(m["msg_id"], m["bridged_from"])].append(m["device"])
    failures = [
        f"{device} published {len(published[device])} monitoring results, expected {expected}"
        for device in devices
        if len(published[device]) != expected
    ]
    for device in devices:
        peers = sorted(d for d in devices if d != device) if _is_cluster(scenario) else []
        for msg_id in published[device]:
            got = sorted(copies.pop((msg_id, device), []))
            if got != peers:
                failures.append(f"{msg_id} from {device} logged on peers {got}, expected {peers}")
    failures += [f"{msg_id} bridged from {src} was never published there" for msg_id, src in copies]
    return failures


def single_executor(report, scenario: dict) -> list[str]:
    """No deployment is deployed on two devices, every election of one
    deployment names the same winner, and only the winner deploys it."""
    deployed: dict[str, set] = defaultdict(set)
    winners: dict[str, set] = defaultdict(set)
    for e in report.events:
        if e["type"] == "deployed":
            deployed[e["deployment"]].add(e["device"])
        elif e["type"] == "cluster_select":
            winners[e["deployment"]].add(e["winner"])
    failures = [f"{dep} deployed on {sorted(devs)}" for dep, devs in deployed.items() if len(devs) > 1]
    failures += [f"{dep} elections disagree: {sorted(w)}" for dep, w in winners.items() if len(w) > 1]
    failures += [
        f"{dep} deployed on {sorted(deployed[dep])}, elected {sorted(w)}"
        for dep, w in winners.items()
        if len(w) == 1 and not deployed[dep] <= w
    ]
    return failures


def election_ranking(report, scenario: dict) -> list[str]:
    """Each election's winner is the top of the benchmark's own ranking of the
    recorded table: the highest availability of the dominant resource, then of
    the other resource, then the numerically smallest address. The dominant
    resource is recomputed from the image's request and the device's totals."""
    requests = {i["name"]: i["request"] for i in scenario["images"]}
    devices = {d["address"]: d for d in scenario["devices"]}
    image_of = {e["deployment"]: e["image"] for e in report.events if e["type"] == "request_submitted"}
    failures = []
    for e in report.events:
        if e["type"] != "cluster_select":
            continue
        name = image_of.get(e["deployment"])
        if name is None:
            failures.append(f"{e['deployment']}: election for a deployment never submitted")
            continue
        request = requests[name]
        device = devices[e["device"]]
        cpu_share = request["cpu"] / int(device.get("cpu_total", 1000))
        mem_share = request["mem"] / int(device.get("mem_total", 1000))
        dominant = "mem" if mem_share >= cpu_share else "cpu"
        other = "cpu" if dominant == "mem" else "mem"
        table = e["table"]
        if set(table) != set(devices):
            failures.append(f"{e['deployment']} on {e['device']}: table covers {sorted(table)}, not every device")
            continue
        best = min(table, key=lambda a: (-table[a][dominant], -table[a][other], _address_key(a)))
        if e["dominant"] != dominant or e["winner"] != best:
            failures.append(
                f"{e['deployment']} on {e['device']}: elected {e['winner']} ({e['dominant']}), "
                f"ranking gives {best} ({dominant})"
            )
    return failures


CHECKS = {
    "expectations_pass": expectations_pass,
    "admissions_strict": admissions_strict,
    "backlog_conserved": backlog_conserved,
    "memory_within_limit": memory_within_limit,
    "monitoring_fanout": monitoring_fanout,
    "single_executor": single_executor,
    "election_ranking": election_ranking,
}


def check_report(report, scenario: dict) -> list[str]:
    """Run every check; returns ``check: failure`` lines, a few per check."""
    out = []
    for name, check in CHECKS.items():
        failures = check(report, scenario)
        out += [f"{name}: {f}" for f in failures[:MAX_FAILURES_SHOWN]]
        if len(failures) > MAX_FAILURES_SHOWN:
            out.append(f"{name}: ... {len(failures) - MAX_FAILURES_SHOWN} more")
    return out


def check_forecast(result: dict, horizon: int) -> list[str]:
    """A forecast slice has ``horizon`` values per metric, non-negative
    utilizations and a throttle percentage within [0, 100]."""
    if result.get("error"):
        return []
    failures = [
        f"{metric} has {len(result[metric])} values, horizon {horizon}"
        for metric in ("cpu_util", "mem_util", "throttle_pct")
        if len(result[metric]) != horizon
    ]
    failures += [f"{metric} {v} < 0" for metric in ("cpu_util", "mem_util") for v in result[metric] if not v >= 0]
    failures += [f"throttle_pct {v} outside [0, 100]" for v in result["throttle_pct"] if not 0 <= v <= 100]
    return failures


def count_operations(report) -> tuple[int, int]:
    """(attempted, failed) over the run's submitted deployments.

    A deployment fails when it ends in no terminal state on the device that
    took it (its executor, or the submitting device), when it was deployed on
    two devices, or when one of its admission verdicts breaks the strict rule.
    """
    states: dict[str, dict[str, str]] = defaultdict(dict)
    for device, state in report.final_state.items():
        for dep, record in state["deployments"].items():
            states[dep][device] = record["state"]
    deployed: dict[str, set] = defaultdict(set)
    bad_verdict: set[str] = set()
    for e in report.events:
        if e["type"] == "deployed":
            deployed[e["deployment"]].add(e["device"])
        elif e["type"] == "admission" and e["verdict"] != _strict_verdict(e):
            bad_verdict.add(e["deployment"])
    submitted = [e for e in report.events if e["type"] == "request_submitted"]
    failed = 0
    for e in submitted:
        dep = e["deployment"]
        by_device = states.get(dep, {})
        if any(state not in TERMINAL_STATES for state in by_device.values()) or not by_device:
            failed += 1
        elif len(deployed[dep]) > 1 or dep in bad_verdict:
            failed += 1
    return len(submitted), failed
