"""Scenario runner: wires devices, drives the simulation clock, records a run.

A scenario is a declarative JSON document (devices, images, schedule, policy,
expectations). The runner builds one full orchestration stack per device over
a shared event spine, publishes the images to the registry, and then advances
the clock from one wake-up to the next. A wake-up is a second at which some
device scrapes or starts an optimization cycle, a scheduled deployment request
falls due, or a host raises an event (an OOM kill). At a wake-up every
monitor acts, due requests are injected and the spine drains until quiescent.
Between wake-ups nothing is published, so limits and the container set stay
put and only the hosts move. So the clock jumps from one wake-up to the next
(next-event time advance), or to the first second before it at which any
host can raise an event, which is then a wake-up too. Each host reads the
spine's clock and ticks to that second in one span.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .analyzer import Analyzer
from .bus import EventSpine, Message, MessageBus, TOPIC_MONITOR, bridge_all, copies, message_lines
from .deployer import Deployer
from .expectations import check_expectation
from .forecaster import ForecastConfig, Forecaster
from .hostsim import TRACE_COLUMNS, HostConfig, HostSimulator, WorkloadSpec
from .knowledge import Knowledge
from .model import DeviceId, Limits, OptimizationPolicy, require_int
from .monitor import Monitor, MonitorConfig
from .registry import ImageBlob, Registry, RegistryError

logger = logging.getLogger(__name__)

# keys every entry of a scenario's lists must carry
ENTRY_KEYS = {
    "devices": ("address",),
    "images": ("owner", "name", "workload", "request", "base"),
    "schedule": ("owner", "image"),
    "expectations": ("type",),
}
# the keys among those that name something, and so must be strings
NAME_KEYS = {"devices": ("address",), "images": ("owner", "name"), "schedule": ("owner", "image")}


class ScenarioError(ValueError):
    pass


@contextmanager
def _reading(where: str):
    """Report a missing key, a wrong type or an out-of-range value met while
    reading ``where`` of a scenario as a ScenarioError that names it."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, RegistryError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@dataclass
class RunReport:
    """Everything a run produced: events, the spine's message log (one
    record per publish), traces, final state."""

    scenario_name: str
    seed: int
    events: list[dict] = field(default_factory=list)
    log: list[dict] = field(default_factory=list)
    traces: dict[tuple[str, str], list[dict]] = field(default_factory=dict)
    final_state: dict = field(default_factory=dict)
    expectation_results: list[dict] = field(default_factory=list)

    @cached_property
    def messages(self) -> list[dict]:
        """One dict per delivered copy, expanded from :attr:`log` on the
        first read. Every read returns the same list, so edits to it persist;
        :meth:`write` does not read it."""
        return list(copies(self.log))

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

        # one encoder for every event, whose schemas vary by type; the same
        # bytes as json.dumps(event, sort_keys=True) per line
        encode_event = json.JSONEncoder(sort_keys=True).encode
        events_path = out / "events.jsonl"
        with events_path.open("w", encoding="utf-8") as fh:
            fh.writelines(encode_event(event) + "\n" for event in self.events)
        paths["events"] = str(events_path)

        messages_path = out / "messages.jsonl"
        with messages_path.open("w", encoding="utf-8") as fh:
            fh.writelines(chain.from_iterable(map(message_lines, self.log)))
        paths["messages"] = str(messages_path)

        trace_dir = out / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_row = itemgetter(*TRACE_COLUMNS)
        for (device, cid), rows in sorted(self.traces.items()):
            path = trace_dir / f"{device}_{cid.replace('@', '_at_')}.csv"
            with path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_COLUMNS)
                writer.writerows(map(trace_row, rows))
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


@dataclass(frozen=True, slots=True)
class _ScheduledRequest:
    """A schedule entry, read once: due at ``at_s``, or else once ``device``
    has run ``stable_cycles`` stable optimization cycles in a row."""

    device: str
    owner: str
    image: str
    at_s: int | None
    stable_cycles: int | None


@dataclass
class _DeviceStack:
    host: HostSimulator
    bus: MessageBus
    knowledge: Knowledge
    monitor: Monitor
    deployer: Deployer


class SimulationRunner:
    """Builds the per-device stacks and runs one scenario to completion."""

    def __init__(self, scenario: dict) -> None:
        self._pending_schedule = validate_scenario(scenario)
        self.scenario = scenario
        self.seed = scenario.get("seed", 0)
        self.duration = scenario["duration_s"]
        self.report = RunReport(scenario_name=scenario.get("name", "unnamed"), seed=self.seed)
        self.spine = EventSpine()
        self.registry = Registry()
        self.devices: dict[str, _DeviceStack] = {}
        self._stable_cycles: dict[str, int] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        scn = self.scenario
        with _reading("policy"):
            self.policy = policy = OptimizationPolicy.from_dict(scn.get("policy", {}))
        with _reading("monitor"):
            self.monitor_cfg = monitor_cfg = MonitorConfig(**scn.get("monitor", {}))
        with _reading("forecast"):
            forecast_cfg = ForecastConfig(**scn.get("forecast", {}))
        # buckets forecast ahead: enough to cover one optimization interval
        horizon = math.ceil(policy.optimization_interval_s / forecast_cfg.bucket_s)

        for index, image in enumerate(scn["images"]):
            with _reading(f"images[{index}]"):
                spec = WorkloadSpec.from_dict(image["workload"])
                blob = ImageBlob([json.dumps({"workload": spec.as_dict()}, sort_keys=True).encode("utf-8")])
                self.registry.publish_image(
                    owner=image["owner"],
                    name=image["name"],
                    blob=blob,
                    request_limits=Limits.from_dict(image["request"]).as_dict(),
                    base_limits=Limits.from_dict(image["base"]).as_dict(),
                )

        cluster = scn.get("cluster", False) and len(scn["devices"]) > 1
        for index, dev in enumerate(scn["devices"]):
            with _reading(f"devices[{index}]"):
                host_config = HostConfig(
                    cpu_total=dev.get("cpu_total", 1000),
                    mem_total=dev.get("mem_total", 1000),
                    reserved_cpu=dev.get("reserved_cpu", 0),
                    reserved_mem=dev.get("reserved_mem", 0),
                )
            address = dev["address"]
            host = HostSimulator(host_config, seed=self.seed, device=address, clock=lambda: self.spine.now)
            bus = MessageBus(address, self.spine)
            knowledge = Knowledge()
            emit = self._emitter(address)
            monitor = Monitor(bus, host, knowledge, self.registry, monitor_cfg, policy, emit)
            # the forecaster and the analyzer live on as the bus's handlers
            Forecaster(bus, monitor.metrics, forecast_cfg)
            Analyzer(bus, host, monitor.metrics, policy, horizon=horizon, emit=emit)
            deployer = Deployer(bus, self.registry, host, knowledge, policy, emit, cluster_mode=cluster)
            bus.subscribe(TOPIC_MONITOR, self._record_trace)
            self.devices[address] = _DeviceStack(host, bus, knowledge, monitor, deployer)
            self._stable_cycles[address] = 0
        if cluster:
            bridge_all({addr: stack.bus for addr, stack in self.devices.items()})

    def _emitter(self, device: str):
        def emit(event: dict) -> None:
            self.report.events.append({"t": self.spine.now, "device": device, **event})
            if event["type"] == "optimization_cycle":
                self._stable_cycles[device] = self._stable_cycles[device] + 1 if event["changes"] == 0 else 0

        return emit

    # -- execution -------------------------------------------------------------

    def run(self) -> RunReport:
        from .expectations import evaluate_expectations

        monitors = [stack.monitor for stack in self.devices.values()]
        hosts = [stack.host for stack in self.devices.values()]
        t = 0
        while t < self.duration:
            # Until the wake-up only the hosts move. The clock jumps to it, or
            # to the first second before it at which any host can raise an
            # event, and every host ticks to that second in one span; every
            # host ticks before any monitor acts, as a monitor reads its own
            # host alone.
            wake = min(self._next_wake_up(t), self.duration)
            t = self.spine.now = min(host.quiet_until(wake) for host in hosts)
            events = [host.tick() for host in hosts]
            for monitor, tick_events in zip(monitors, events):
                monitor.on_tick(t, tick_events)
            self._inject_due_schedule(t)
            self.spine.drain()
        self.report.log = self.spine.log
        self._capture_final_state()
        self.report.expectation_results = evaluate_expectations(self.report, self.scenario, self.policy, self.monitor_cfg)
        return self.report

    def _next_wake_up(self, t: int) -> int:
        """The first second after ``t`` at which a monitor acts or a schedule
        entry can be injected. An entry that is due already waits for
        ``t + 1``: a stable-cycle count moves in the drain at ``t``, after
        that second's injection."""
        wake = min(stack.monitor.next_wake_up(t) for stack in self.devices.values())
        for request in self._pending_schedule:
            if self._is_due(request, t):
                return t + 1
            if request.at_s is not None:
                wake = min(wake, request.at_s)
        return wake

    def _is_due(self, request: _ScheduledRequest, t: int) -> bool:
        if request.at_s is not None:
            return t >= request.at_s
        return self._stable_cycles[request.device] >= request.stable_cycles

    def _inject_due_schedule(self, t: int) -> None:
        remaining = []
        for request in self._pending_schedule:
            if self._is_due(request, t):
                stack = self.devices[request.device]
                result = stack.deployer.submit({"owner": request.owner, "image": request.image})
                self.report.events.append(
                    {
                        "t": t,
                        "device": request.device,
                        "type": "request_submitted",
                        "deployment": result["request_id"],
                        "image": request.image,
                    }
                )
            else:
                remaining.append(request)
        self._pending_schedule = remaining

    def _record_trace(self, topic: str, msg: Message) -> None:
        """Each container row of a device's monitoring result, as its trace row."""
        payload = msg.payload
        device = payload["device"]
        traces = self.report.traces
        for cid, row in payload["containers"].items():
            traces.setdefault((device, cid), []).append(row)

    def _capture_final_state(self) -> None:
        state: dict = {}
        for addr, stack in self.devices.items():
            containers = {}
            for rec in stack.knowledge.containers.values():
                host_state = stack.host.container(rec.container_id)
                containers[rec.container_id] = {
                    "image": stack.knowledge.deployments[rec.deployment_id].image,
                    "status": host_state.status,
                    "limits": host_state.limits.as_dict(),
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


def validate_scenario(scenario: dict) -> list[_ScheduledRequest]:
    """Check ``scenario`` and return its schedule, each entry read once, as
    the requests a run queues; a fault is a ScenarioError that names where
    it is. An entry is due at ``at_s`` or after ``after_stable_cycles``,
    exactly one of the two, on its ``device``, else on the first device."""
    if not isinstance(scenario, dict):
        raise ScenarioError(f"scenario: must be an object, got {scenario!r}")
    for key in ("duration_s", "devices", "images"):
        if key not in scenario:
            raise ScenarioError(f"scenario missing required key {key!r}")
    with _reading("scenario"):
        require_int("duration_s", scenario["duration_s"])
        require_int("seed", scenario.get("seed", 0))
    duration = scenario["duration_s"]
    if duration <= 0:
        raise ScenarioError("duration_s must be positive")
    if not -(1 << 63) <= scenario.get("seed", 0) < 1 << 63:  # pattern 4's noise packs it in 8 bytes
        raise ScenarioError(f"seed {scenario['seed']} outside the signed 64-bit range")
    if not isinstance(scenario.get("cluster", False), bool):
        raise ScenarioError(f"cluster must be true or false, got {scenario['cluster']!r}")
    if not isinstance(scenario.get("name", ""), str):
        raise ScenarioError(f"name must be a string, got {scenario['name']!r}")
    for block in ("policy", "monitor", "forecast"):
        if not isinstance(scenario.get(block, {}), dict):
            raise ScenarioError(f"{block}: must be an object, got {scenario[block]!r}")
    for section, keys in ENTRY_KEYS.items():
        entries = scenario.get(section, [])
        if not isinstance(entries, list):
            raise ScenarioError(f"{section}: must be a list of objects, got {entries!r}")
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ScenarioError(f"{section}[{index}]: must be an object, got {entry!r}")
            for key in keys:
                if key not in entry:
                    raise ScenarioError(f"{section}[{index}]: missing key {key!r}")
            for key in NAME_KEYS.get(section, ()):
                if not isinstance(entry[key], str):
                    raise ScenarioError(f"{section}[{index}]: {key} must be a string, got {entry[key]!r}")
    if not scenario["devices"]:
        raise ScenarioError("at least one device is required")

    addresses = [d["address"] for d in scenario["devices"]]
    bridged = scenario.get("cluster", False) and len(addresses) > 1
    if bridged:  # elections break ties by numeric address order
        for index, address in enumerate(addresses):
            with _reading(f"devices[{index}]"):
                DeviceId(address=address)
    if len(set(addresses)) != len(addresses):
        raise ScenarioError("device addresses must be unique")

    image_keys = {(i["owner"], i["name"]) for i in scenario["images"]}
    requests = []
    for index, entry in enumerate(scenario.get("schedule", [])):
        where = f"schedule[{index}]"
        dues = [key for key in ("at_s", "after_stable_cycles") if key in entry]
        if len(dues) != 1:
            raise ScenarioError(f"{where}: schedule entries need exactly one of at_s and after_stable_cycles")
        (due,) = dues
        with _reading(where):
            require_int(due, entry[due])
        upper = duration if due == "at_s" else math.inf
        if not 0 <= entry[due] <= upper:
            raise ScenarioError(f"{where}: {due} {entry[due]} outside [0, {upper}]")
        if (entry["owner"], entry["image"]) not in image_keys:
            raise ScenarioError(f"{where}: schedule references unknown image {entry['owner']}/{entry['image']}")
        device = entry.get("device", addresses[0])
        if device not in addresses:
            raise ScenarioError(f"{where}: schedule references unknown device {device!r}")
        requests.append(
            _ScheduledRequest(device, entry["owner"], entry["image"], entry.get("at_s"), entry.get("after_stable_cycles"))
        )
    for index, expectation in enumerate(scenario.get("expectations", [])):
        with _reading(f"expectations[{index}]"):
            check_expectation(expectation)
    return requests


def run_scenario(scenario: dict, seed: int | None = None) -> RunReport:
    if seed is not None:
        validate_scenario(scenario)  # a scenario that is no object is reported before it is copied
        scenario = {**scenario, "seed": seed}
    return SimulationRunner(scenario).run()
