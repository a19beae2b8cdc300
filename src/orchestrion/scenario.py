"""Scenario runner: wires devices, drives the simulation clock, records a run.

A scenario is a declarative JSON document (devices, images, schedule, policy,
expectations). The runner builds one full orchestration stack per device over
a shared event spine, publishes the images to the registry, injects scheduled
deployment requests, and drains messages deterministically between ticks.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .analyzer import Analyzer
from .bus import EventSpine, MessageBus, TOPIC_MONITOR, bridge_all
from .deployer import Deployer
from .forecaster import ForecastConfig, Forecaster
from .hostsim import HostConfig, HostSimulator, WorkloadSpec
from .knowledge import Knowledge
from .model import Limits, OptimizationPolicy
from .monitor import Monitor, MonitorConfig
from .registry import ImageBlob, Registry

logger = logging.getLogger(__name__)

TRACE_COLUMNS = ("t", "container", "cpu_util", "cpu_limit", "cpu_throttle", "mem_util", "mem_limit", "status")


class ScenarioError(ValueError):
    pass


@dataclass
class RunReport:
    """Everything a run produced: events, messages, traces, final state."""

    scenario_name: str
    seed: int
    events: list[dict] = field(default_factory=list)
    messages: list[dict] = field(default_factory=list)
    traces: dict[tuple[str, str], list[dict]] = field(default_factory=dict)
    final_state: dict = field(default_factory=dict)
    expectation_results: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.expectation_results)

    def admissions(self) -> list[dict]:
        return self.events_of("admission")

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["type"] == kind]

    def containers_of_image(self, image: str) -> list[str]:
        return [e["container"] for e in self.events_of("deployed") if e["image"] == image]

    def write(self, outdir: str | Path) -> dict[str, str]:
        """Emit events.jsonl, messages.jsonl, per-container CSV traces and a
        summary; all output is a pure function of (scenario, seed)."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, str] = {}

        events_path = out / "events.jsonl"
        with events_path.open("w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        paths["events"] = str(events_path)

        messages_path = out / "messages.jsonl"
        with messages_path.open("w", encoding="utf-8") as fh:
            for record in self.messages:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        paths["messages"] = str(messages_path)

        trace_dir = out / "traces"
        trace_dir.mkdir(exist_ok=True)
        for (device, cid), rows in sorted(self.traces.items()):
            path = trace_dir / f"{device}_{cid.replace('@', '_at_')}.csv"
            with path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_COLUMNS)
                for row in rows:
                    writer.writerow([row[c] for c in TRACE_COLUMNS])
            paths[f"trace:{device}/{cid}"] = str(path)

        summary_path = out / "summary.json"
        summary = {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "expectations": self.expectation_results,
            "final_state": self.final_state,
            "decisions": [
                {k: e[k] for k in ("t", "device", "deployment", "attempt", "role", "verdict", "target", "avail")}
                for e in self.admissions()
            ],
        }
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        paths["summary"] = str(summary_path)
        return paths


@dataclass
class _DeviceStack:
    address: str
    host: HostSimulator
    bus: MessageBus
    knowledge: Knowledge
    monitor: Monitor
    forecaster: Forecaster
    analyzer: Analyzer
    deployer: Deployer
    trace_sub: object


class SimulationRunner:
    """Builds the per-device stacks and runs one scenario to completion."""

    def __init__(self, scenario: dict) -> None:
        self.scenario = validate_scenario(scenario)
        self.seed = int(scenario.get("seed", 0))
        self.duration = int(scenario["duration_s"])
        self.now = 0
        self.report = RunReport(scenario_name=scenario.get("name", "unnamed"), seed=self.seed)
        self.spine = EventSpine()
        self.spine.now_fn = lambda: self.now
        self.registry = Registry()
        self.devices: dict[str, _DeviceStack] = {}
        self._pending_schedule = [dict(entry) for entry in scenario.get("schedule", [])]
        self._stable_cycles: dict[str, int] = {}
        self._events_scanned = 0
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        scn = self.scenario
        try:
            policy = OptimizationPolicy.from_dict(scn.get("policy", {}))
            monitor_cfg = MonitorConfig(**scn.get("monitor", {}))
            forecast_raw = dict(scn.get("forecast", {}))
            forecast_raw.setdefault("bucket_s", 60)
            horizon = forecast_raw.pop("horizon", None)
            if horizon is None:
                horizon = max(1, math.ceil(policy.optimization_interval_s / forecast_raw["bucket_s"]))
            forecast_cfg = ForecastConfig(horizon=int(horizon), **forecast_raw)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            # unknown keys, wrong types and out-of-range values in the scenario's
            # policy/monitor/forecast blocks are errors in the scenario
            raise ScenarioError(str(exc)) from exc

        for image in scn["images"]:
            spec = WorkloadSpec.from_dict(image["workload"])
            blob = ImageBlob([json.dumps({"workload": spec.as_dict()}, sort_keys=True).encode("utf-8")])
            self.registry.publish_image(
                owner=image["owner"],
                name=image["name"],
                blob=blob,
                request_limits=image["request"],
                base_limits=image["base"],
            )

        cluster = bool(scn.get("cluster", False)) and len(scn["devices"]) > 1
        for dev in scn["devices"]:
            address = dev["address"]
            host = HostSimulator(
                HostConfig(
                    cpu_total=int(dev.get("cpu_total", 1000)),
                    mem_total=int(dev.get("mem_total", 1000)),
                    reserved_cpu=int(dev.get("reserved_cpu", 0)),
                    reserved_mem=int(dev.get("reserved_mem", 0)),
                ),
                seed=self.seed,
                device=address,
            )
            bus = MessageBus(address, self.spine)
            knowledge = Knowledge()
            emit = self._emitter(address)
            monitor = Monitor(bus, host, knowledge, self.registry, monitor_cfg, policy, emit)
            forecaster = Forecaster(bus, monitor.metrics, forecast_cfg)
            analyzer = Analyzer(
                bus,
                knowledge,
                monitor.metrics,
                policy,
                totals=Limits(cpu=host.config.cpu_total, mem=host.config.mem_total),
                reserve=Limits(cpu=host.config.reserved_cpu, mem=host.config.reserved_mem),
                horizon=forecast_cfg.horizon,
                emit=emit,
            )
            deployer = Deployer(bus, self.registry, host, knowledge, policy, emit, cluster_mode=cluster)
            trace_sub = bus.subscribe(TOPIC_MONITOR)
            self.devices[address] = _DeviceStack(
                address, host, bus, knowledge, monitor, forecaster, analyzer, deployer, trace_sub
            )
            self._stable_cycles[address] = 0
        if cluster:
            bridge_all({addr: stack.bus for addr, stack in self.devices.items()})

    def _emitter(self, device: str):
        def emit(event: dict) -> None:
            self.report.events.append({"t": self.now, "device": device, **event})

        return emit

    # -- execution -------------------------------------------------------------

    def run(self) -> RunReport:
        from .expectations import evaluate_expectations

        self.spine.drain()
        for t in range(1, self.duration + 1):
            self.now = t
            for stack in self.devices.values():
                stack.monitor.on_tick(t, stack.host.tick())
            self._inject_due_schedule(t)
            self.spine.drain()
            self._collect_traces()
            self._scan_cycle_events()
        self.report.messages = list(self.spine.log)
        self._capture_final_state()
        self.report.expectation_results = evaluate_expectations(self.report, self.scenario)
        return self.report

    def _inject_due_schedule(self, t: int) -> None:
        remaining = []
        for entry in self._pending_schedule:
            due = False
            if "at_s" in entry:
                due = t >= int(entry["at_s"])
            elif "after_stable_cycles" in entry:
                device = entry.get("device") or next(iter(self.devices))
                due = self._stable_cycles[device] >= int(entry["after_stable_cycles"])
            if due:
                device = entry.get("device") or next(iter(self.devices))
                stack = self.devices[device]
                result = stack.deployer.submit({"owner": entry["owner"], "image": entry["image"]})
                self.report.events.append(
                    {
                        "t": t,
                        "device": device,
                        "type": "request_submitted",
                        "deployment": result["request_id"],
                        "image": entry["image"],
                    }
                )
            else:
                remaining.append(entry)
        self._pending_schedule = remaining

    def _scan_cycle_events(self) -> None:
        for event in self.report.events[self._events_scanned:]:
            if event["type"] == "optimization_cycle":
                device = event["device"]
                if event["changes"] == 0:
                    self._stable_cycles[device] += 1
                else:
                    self._stable_cycles[device] = 0
        self._events_scanned = len(self.report.events)

    def _collect_traces(self) -> None:
        for addr, stack in self.devices.items():
            for msg in stack.trace_sub.pop_all():
                payload = msg.payload
                for cid, row in payload["containers"].items():
                    self.report.traces.setdefault((addr, cid), []).append(
                        {
                            "t": payload["t"],
                            "container": cid,
                            "cpu_util": row["cpu_util"],
                            "cpu_limit": row["cpu_limit"],
                            "cpu_throttle": round(row["throttle_pct"], 6),
                            "mem_util": row["mem_util"],
                            "mem_limit": row["mem_limit"],
                            "status": row["status"],
                        }
                    )

    def _capture_final_state(self) -> None:
        state: dict = {}
        for addr, stack in self.devices.items():
            containers = {}
            for rec in stack.knowledge.containers.values():
                host_state = stack.host.container(rec.container_id)
                containers[rec.container_id] = {
                    "image": rec.image,
                    "status": host_state.status,
                    "limits": rec.limits.as_dict(),
                    "backlog": host_state.backlog,
                    "attempt": rec.attempt,
                    "total_demanded": host_state.total_demanded,
                    "total_granted": host_state.total_granted,
                }
            deployments = {
                dep_id: {"state": rec.state, "attempts": rec.attempts, "image": rec.image}
                for dep_id, rec in stack.knowledge.deployments.items()
            }
            state[addr] = {"containers": containers, "deployments": deployments}
        self.report.final_state = state


def validate_scenario(scenario: dict) -> dict:
    for key in ("duration_s", "devices", "images"):
        if key not in scenario:
            raise ScenarioError(f"scenario missing required key {key!r}")
    if int(scenario["duration_s"]) <= 0:
        raise ScenarioError("duration_s must be positive")
    if not scenario["devices"]:
        raise ScenarioError("at least one device is required")
    addresses = [d["address"] for d in scenario["devices"]]
    if len(set(addresses)) != len(addresses):
        raise ScenarioError("device addresses must be unique")
    image_keys = {(i["owner"], i["name"]) for i in scenario["images"]}
    for entry in scenario.get("schedule", []):
        if "at_s" in entry and not 0 <= int(entry["at_s"]) <= int(scenario["duration_s"]):
            raise ScenarioError(f"schedule time {entry['at_s']} outside run duration")
        if "at_s" not in entry and "after_stable_cycles" not in entry:
            raise ScenarioError("schedule entries need at_s or after_stable_cycles")
        if (entry["owner"], entry["image"]) not in image_keys:
            raise ScenarioError(f"schedule references unknown image {entry['owner']}/{entry['image']}")
        if entry.get("device") and entry["device"] not in addresses:
            raise ScenarioError(f"schedule references unknown device {entry['device']}")
    return scenario


def run_scenario(scenario: dict, seed: int | None = None) -> RunReport:
    if seed is not None:
        scenario = {**scenario, "seed": seed}
    return SimulationRunner(scenario).run()
