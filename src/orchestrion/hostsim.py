"""Deterministic discrete-event simulation of a resource-constrained container host.

The host advances in ticks of one simulated second. Per tick,
every running container demands memory and CPU according to its workload
pattern; CPU demand above the enforced limit is throttled and deferred into a
work backlog, memory demand above the limit kills the container (no swap).
Ten synthetic workloads are available: five patterns, each in a CPU-dominant
and a memory-dominant flavor.

A tick reads each container's dominant demand from a table indexed by phase,
at most one period long. The host fills an entry from :func:`workload_demand`
the first time a container reaches that phase, so a container that dies early
pays only for the phases it lived. Containers of one :class:`WorkloadSpec`
share a table, except for pattern 4, whose noise is keyed by container; the
tables belong to the host and die with it. A table is a list of chunks of
``1 << CHUNK_BITS`` phases, added as phases are reached.
"""
from __future__ import annotations

import hashlib
import logging
import struct
from array import array
from dataclasses import dataclass, field

from .model import Limits

logger = logging.getLogger(__name__)

STATUS_RUNNING = "running"
STATUS_KILLED_OOM = "killed_oom"
STATUS_STOPPED = "stopped"

# Demand of the non-dominant resource: small and flat, so memory workloads
# never contend on CPU and vice versa.
FLAT_CPU_MCPU = 20
FLAT_MEM_MB = 20

# Demand-table entry of a phase no container has reached yet.
UNFILLED = -1
# A demand-table chunk holds 64 phases: its 512-byte buffer stays in Python's
# small-object allocator. Whole-period arrays lived on the C heap, and the
# fragmentation they left raised the peak RSS of some 16-device runs by 10 MB.
CHUNK_BITS = 6
CHUNK_MASK = (1 << CHUNK_BITS) - 1

PATTERN_NAMES = {
    1: "slowly rising/falling",
    2: "drastically changing",
    3: "on-off",
    4: "gently shaking",
    5: "real-world",
}

# Normalized (phase, level) key points for the real-world (diurnal) profile.
_DIURNAL_POINTS = (
    (0.00, 0.40),
    (0.15, 0.30),
    (0.30, 0.55),
    (0.45, 0.80),
    (0.55, 1.00),
    (0.70, 0.85),
    (0.80, 0.60),
    (0.90, 0.45),
    (1.00, 0.40),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic workload: pattern shape, dominant resource class, peak."""

    pattern: int
    workload_class: str  # "cpu" | "mem"
    period_s: int = 1800
    peak: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern {self.pattern}")
        if self.workload_class not in ("cpu", "mem"):
            raise ValueError(f"workload_class must be 'cpu' or 'mem', got {self.workload_class!r}")
        if self.period_s <= 0 or self.peak <= 0:
            raise ValueError("period and peak must be positive")

    def as_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "workload_class": self.workload_class,
            "period_s": self.period_s,
            "peak": self.peak,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            pattern=int(data["pattern"]),
            workload_class=str(data["workload_class"]),
            period_s=int(data["period_s"]),
            peak=int(data["peak"]),
        )


def _noise01(seed: int, key: str, phase: int) -> float:
    """Deterministic pseudo-random value in [0, 1) from (seed, key, phase)."""
    digest = hashlib.sha256(struct.pack(">q", seed) + key.encode("utf-8") + struct.pack(">q", phase)).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


def pattern_level(pattern: int, u: float, noise: float) -> float:
    """Normalized demand level in [0, 1] at phase fraction ``u`` of the period."""
    if pattern == 1:  # slow triangular ramp to peak and back
        return 2.0 * u if u < 0.5 else 2.0 * (1.0 - u)
    if pattern == 2:  # step jumps between 20% and 100%
        return 0.2 if u < 0.5 else 1.0
    if pattern == 3:  # on-off square wave, on first
        return 1.0 if u < 0.5 else 0.1
    if pattern == 4:  # small dither below the peak; never exceeds it
        return 1.0 - 0.05 * noise
    # pattern 5: piecewise diurnal profile
    for (u0, l0), (u1, l1) in zip(_DIURNAL_POINTS, _DIURNAL_POINTS[1:]):
        if u0 <= u <= u1:
            if u1 == u0:
                return l1
            frac = (u - u0) / (u1 - u0)
            return l0 + frac * (l1 - l0)
    return _DIURNAL_POINTS[-1][1]


def workload_demand(spec: WorkloadSpec, phase_s: int, seed: int = 0, key: str = "") -> tuple[int, int]:
    """Demanded ``(cpu, mem)`` at ``phase_s`` seconds into the workload's life.

    Deterministic and periodic: the same (spec, seed, key, phase mod period)
    always yields the same demand. The dominant resource follows the pattern
    scaled to the peak; the other resource stays flat.
    """
    if phase_s < 0:
        raise ValueError("phase must be >= 0")
    phase = phase_s % spec.period_s
    u = phase / spec.period_s
    noise = _noise01(seed, key, phase) if spec.pattern == 4 else 0.0
    amount = int(round(spec.peak * pattern_level(spec.pattern, u, noise)))
    amount = min(amount, spec.peak)
    if spec.workload_class == "cpu":
        return amount, FLAT_MEM_MB
    return FLAT_CPU_MCPU, amount


@dataclass(frozen=True)
class HostConfig:
    """Fixed host capacity for one run; swap is disabled (memory overrun kills)."""

    cpu_total: int = 1000
    mem_total: int = 1000
    reserved_cpu: int = 0
    reserved_mem: int = 0

    def __post_init__(self) -> None:
        if self.cpu_total <= 0 or self.mem_total <= 0:
            raise ValueError("host totals must be positive")
        if not 0 <= self.reserved_cpu <= self.cpu_total:
            raise ValueError("reserved_cpu out of range")
        if not 0 <= self.reserved_mem <= self.mem_total:
            raise ValueError("reserved_mem out of range")

    @property
    def usable_cpu(self) -> int:
        return self.cpu_total - self.reserved_cpu

    @property
    def usable_mem(self) -> int:
        return self.mem_total - self.reserved_mem


@dataclass(slots=True)
class ContainerState:
    """Runtime state of one container on the simulated host."""

    container_id: str
    spec: WorkloadSpec
    limits: Limits
    start_t: int
    demand: list[array] = field(repr=False)  # dominant-resource demand by phase, in chunks
    status: str = STATUS_RUNNING
    backlog: int = 0  # deferred CPU work in mCPU-ticks
    mem_usage: int = 0
    # window accumulators, reset on each metrics sample
    window_ticks: int = 0
    window_granted: int = 0
    window_throttled: int = 0
    last_cpu_util: int = 0
    last_throttle_pct: float = 0.0
    # lifetime totals (backlog conservation checks)
    total_demanded: int = 0
    total_granted: int = 0


@dataclass(frozen=True)
class SimEvent:
    kind: str  # "oom_kill" | "stopped"
    container_id: str
    t: int
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsSample:
    """Snapshot over the window since the previous sample."""

    t: int
    containers: dict  # cid -> {"cpu_util", "mem_util", "throttle_pct", "status", ...}
    avail_cpu: int
    avail_mem: int


class HostSimulator:
    """Single-host container runtime with CPU throttling and OOM kills."""

    def __init__(self, config: HostConfig, seed: int = 0, device: str = "127.0.0.1") -> None:
        self.config = config
        self.seed = seed
        self.device = device
        self.now = 0
        self._containers: dict[str, ContainerState] = {}
        self._counter = 0
        self._pending_final: dict[str, dict] = {}  # dead containers awaiting one last sample row
        self._pending_events: list[SimEvent] = []  # raised between ticks, returned by the next one
        self._tables: dict[WorkloadSpec, list[array]] = {}  # demand tables shared per spec

    # -- container lifecycle ---------------------------------------------------

    def run_container(self, spec: WorkloadSpec, limits: Limits) -> str:
        if limits.cpu <= 0 or limits.mem <= 0:
            raise ValueError("containers need non-zero cpu and mem limits")
        self._counter += 1
        cid = f"c{self._counter:03d}@{self.device}"
        # pattern 4's noise is keyed by container, so it gets a table of its own
        table = [] if spec.pattern == 4 else self._tables.setdefault(spec, [])
        self._containers[cid] = ContainerState(
            container_id=cid,
            spec=spec,
            limits=limits,
            start_t=self.now,
            demand=table,
        )
        logger.debug("run %s limits=%s", cid, limits.as_dict())
        return cid

    def update_limits(self, cid: str, limits: Limits) -> None:
        state = self._running(cid)
        state.limits = limits

    def stop_container(self, cid: str) -> None:
        """Stop a running container; the next :meth:`tick` reports it as a
        ``stopped`` event."""
        state = self._running(cid)
        self._retire(state, STATUS_STOPPED)
        self._pending_events.append(SimEvent(kind="stopped", container_id=cid, t=self.now))

    def container(self, cid: str) -> ContainerState:
        try:
            return self._containers[cid]
        except KeyError:
            raise KeyError(f"unknown container {cid}") from None

    def running_containers(self) -> list[ContainerState]:
        return [c for c in self._containers.values() if c.status == STATUS_RUNNING]

    def _running(self, cid: str) -> ContainerState:
        state = self.container(cid)
        if state.status != STATUS_RUNNING:
            raise KeyError(f"container {cid} is not running (status={state.status})")
        return state

    def _retire(self, state: ContainerState, status: str) -> None:
        state.status = status
        self._pending_final[state.container_id] = {
            "cpu_util": state.last_cpu_util,
            "mem_util": 0,
            "throttle_pct": state.last_throttle_pct,
            "status": status,
            "cpu_limit": state.limits.cpu,
            "mem_limit": state.limits.mem,
            "backlog": state.backlog,
        }

    # -- simulation clock --------------------------------------------------------

    def tick(self) -> list[SimEvent]:
        """Advance one simulated second; returns lifecycle events raised during it."""
        self.now += 1
        events, self._pending_events = self._pending_events, []
        now = self.now
        mem_budget = self.config.usable_mem
        cpu_budget = self.config.usable_cpu
        for state in self._containers.values():
            if state.status != STATUS_RUNNING:
                continue
            spec = state.spec
            phase = (now - state.start_t) % spec.period_s
            try:
                amount = state.demand[phase >> CHUNK_BITS][phase & CHUNK_MASK]
            except IndexError:
                amount = UNFILLED
            if amount == UNFILLED:
                amount = self._fill_demand(state, phase)
            if spec.workload_class == "cpu":
                cpu, mem = amount, FLAT_MEM_MB
            else:
                cpu, mem = FLAT_CPU_MCPU, amount
            limits = state.limits

            # Memory first: exceeding the enforced limit (or the host slice)
            # kills the container, it is never silently oversubscribed.
            if mem > limits.mem or mem > mem_budget:
                reason = "limit" if mem > limits.mem else "host_capacity"
                state.mem_usage = 0
                self._retire(state, STATUS_KILLED_OOM)
                events.append(
                    SimEvent(
                        kind="oom_kill",
                        container_id=state.container_id,
                        t=now,
                        detail={"demand_mem": mem, "mem_limit": limits.mem, "reason": reason},
                    )
                )
                continue
            state.mem_usage = mem
            mem_budget -= mem

            # CPU: deferred work from earlier throttled ticks is demanded again.
            want = cpu + state.backlog
            # min() of three costs a hit tick about a fifth of its time
            granted = want if want < limits.cpu else limits.cpu
            if granted > cpu_budget:
                granted = cpu_budget
            cpu_budget -= granted
            state.backlog = want - granted
            state.total_demanded += cpu
            state.total_granted += granted
            state.window_ticks += 1
            state.window_granted += granted
            if want > granted:
                state.window_throttled += 1
        return events

    def _fill_demand(self, state: ContainerState, phase: int) -> int:
        """Fill the table entry of a phase no container has reached yet."""
        cpu, mem = workload_demand(state.spec, phase, self.seed, state.container_id)
        amount = cpu if state.spec.workload_class == "cpu" else mem
        table = state.demand
        while len(table) <= phase >> CHUNK_BITS:  # phases are reached in order: one chunk at a time
            table.append(array("q", [UNFILLED]) * (CHUNK_MASK + 1))
        table[phase >> CHUNK_BITS][phase & CHUNK_MASK] = amount
        return amount

    # -- metrics -----------------------------------------------------------------

    def sample_metrics(self) -> MetricsSample:
        """Utilization snapshot over the ticks since the last sample."""
        containers: dict[str, dict] = {}
        used_cpu = 0
        used_mem = 0
        for state in self._containers.values():
            if state.status != STATUS_RUNNING:
                continue
            ticks = max(state.window_ticks, 1)
            cpu_util = int(round(state.window_granted / ticks))
            throttle_pct = 100.0 * state.window_throttled / ticks
            state.last_cpu_util = cpu_util
            state.last_throttle_pct = throttle_pct
            containers[state.container_id] = {
                "cpu_util": cpu_util,
                "mem_util": state.mem_usage,
                "throttle_pct": throttle_pct,
                "status": state.status,
                "cpu_limit": state.limits.cpu,
                "mem_limit": state.limits.mem,
                "backlog": state.backlog,
            }
            used_cpu += cpu_util
            used_mem += state.mem_usage
            state.window_ticks = 0
            state.window_granted = 0
            state.window_throttled = 0
        # Dead containers appear once more with their terminal status.
        for cid, row in self._pending_final.items():
            containers[cid] = row
        self._pending_final.clear()
        return MetricsSample(
            t=self.now,
            containers=containers,
            avail_cpu=self.config.usable_cpu - used_cpu,
            avail_mem=self.config.usable_mem - used_mem,
        )
