"""Deterministic discrete-event simulation of a resource-constrained container host.

Simulated time moves in whole seconds. Each second,
every running container demands memory and CPU according to its workload
pattern; CPU demand above the enforced limit is throttled and deferred into a
work backlog, memory demand above the limit kills the container (no swap).
Ten synthetic workloads are available: five patterns, each in a CPU-dominant
and a memory-dominant flavor.

The host's contract is that the limits of its live containers sum to no
more than its usable CPU and memory: :meth:`HostSimulator.run_container` and
:meth:`HostSimulator.update_limits` raise :class:`ContractViolation`, and
change nothing, for limits that would break it. The analyzer's
strict-inequality admission and upscale rules never ask for such limits. So
no container can take from another, and each one can be stepped over many
seconds alone. :meth:`HostSimulator.quiet_until` finds the first second at
which a container's memory demand is above its limit, so the seconds before
it can be one span. A tick brings the host to one second in one span: the
host's clock, when it has one, or else the next second. It looks up each live
container's demand at that second once: a container above its limit is
stepped to the second before and killed there, and every other one is stepped
to that second. Both grant CPU through one stepping path in integer
arithmetic, so a span leaves a container as the seconds it covers would,
stepped one by one.

The host reads each container's dominant demand from a table indexed by
phase, at most one period long. A table is a list of chunks of
``1 << CHUNK_BITS`` (64) phases. The first time a container reaches a phase
of a chunk not yet in its table, the host fills that whole chunk with one
:func:`demand_range` call, so a container that dies early pays only for the
chunks it reached.
Except for pattern 4, a table is a pure function of the :class:`WorkloadSpec`,
so every host of the process shares one per spec (:func:`shared_table`,
bounded to ``SHARED_TABLES`` specs). Pattern 4's noise is keyed by container:
its table belongs to its container and dies with it.
"""
from __future__ import annotations

import logging
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from hashlib import sha256
from itertools import chain, repeat

from .model import ContractViolation, Limits, require_int

logger = logging.getLogger(__name__)

STATUS_RUNNING = "running"
STATUS_KILLED_OOM = "killed_oom"

# Demand of the non-dominant resource: small and flat, so memory workloads
# never contend on CPU and vice versa.
FLAT_CPU_MCPU = 20
FLAT_MEM_MB = 20

# A demand-table chunk holds 64 phases: its 512-byte buffer stays in Python's
# small-object allocator. Whole-period arrays lived on the C heap, and the
# fragmentation they left raised the peak RSS of some 16-device runs by 10 MB.
# A table holds only full chunks; the last chunk of a period may be shorter.
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
_DIURNAL_U = tuple(u for u, _ in _DIURNAL_POINTS)
# Levels of the two-level patterns before and from half the period: pattern 2
# jumps from 20% to 100%, pattern 3 is an on-off square wave, on first.
_TWO_LEVELS = {2: (0.2, 1.0), 3: (1.0, 0.1)}
# Pattern 4's noise is the first 7 bytes of a SHA-256 digest, scaled into [0, 1).
_NOISE_SCALE = float(1 << 56)
_pack_q = struct.Struct(">q").pack


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic workload: pattern shape, dominant resource class, peak."""

    pattern: int
    workload_class: str  # "cpu" | "mem"
    period_s: int = 1800
    peak: int = 0

    def __post_init__(self) -> None:
        for name in ("pattern", "period_s", "peak"):
            require_int(name, getattr(self, name))
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
            pattern=data["pattern"],
            workload_class=data["workload_class"],
            period_s=data["period_s"],
            peak=data["peak"],
        )


# Specs whose tables the process keeps: well above the few dozen any built-in
# or benchmark round runs, and at most a few MB of tables with periods of 1800 s.
SHARED_TABLES = 256


@lru_cache(maxsize=SHARED_TABLES)
def shared_table(spec: WorkloadSpec) -> list[array]:
    """The demand table every container of ``spec``, of a pattern other than
    4, reads, filled by the hosts as their containers reach its phases. An
    evicted spec's table lives on with the containers that hold it; a later
    container starts a new one. Hosts fill it without a lock, so hosts of
    one process must not step in different threads at once."""
    return []


def _diurnal_level(u: float) -> float:
    """Pattern 5's level at phase fraction ``u`` in [0, 1): linear between
    the key points, on the first segment whose end is at or after ``u``."""
    i = bisect_left(_DIURNAL_U, u, 1)
    (u0, l0), (u1, l1) = _DIURNAL_POINTS[i - 1], _DIURNAL_POINTS[i]
    return l0 + (u - u0) / (u1 - u0) * (l1 - l0)


def demand_range(spec: WorkloadSpec, first: int, last: int, seed: int = 0, key: str = "") -> list[int]:
    """Dominant-resource demand at phases ``first`` to ``last - 1`` of one
    period, ``0 <= first <= last <= spec.period_s``.

    The dominant resource follows the pattern's level, in [0, 1], scaled to
    the peak. Pattern 4's level dithers below 1 by noise drawn from
    ``(seed, key, phase)``; the other patterns depend on the phase alone.
    """
    if not 0 <= first <= last <= spec.period_s:
        raise ValueError(f"phases [{first}, {last}) outside one period of {spec.period_s} s")
    period, peak, pattern = spec.period_s, spec.peak, spec.pattern
    phases = range(first, last)
    if pattern in _TWO_LEVELS:
        # one run of each level, split at the first phase with p / period >= 0.5
        split = bisect_left(phases, 0.5, key=lambda p: p / period)
        before, after = (min(round(peak * level), peak) for level in _TWO_LEVELS[pattern])
        return [before] * split + [after] * (len(phases) - split)
    if pattern == 1:  # slow triangular ramp to peak and back
        levels = [2.0 * u if u < 0.5 else 2.0 * (1.0 - u) for u in (p / period for p in phases)]
    elif pattern == 4:  # small dither below the peak; never exceeds it
        prefix = _pack_q(seed) + key.encode("utf-8")
        levels = [
            1.0 - 0.05 * (int.from_bytes(sha256(prefix + _pack_q(p)).digest()[:7], "big") / _NOISE_SCALE)
            for p in phases
        ]
    else:  # pattern 5: piecewise diurnal profile
        levels = [_diurnal_level(p / period) for p in phases]
    # a float product can round past a peak above 2**53
    return [min(round(peak * level), peak) for level in levels]


def workload_demand(spec: WorkloadSpec, phase_s: int, seed: int = 0, key: str = "") -> tuple[int, int]:
    """Demanded ``(cpu, mem)`` at ``phase_s`` seconds into the workload's life.

    Deterministic and periodic: the same (spec, seed, key, phase mod period)
    always yields the same demand. The dominant resource follows
    :func:`demand_range`; the other resource stays flat.
    """
    if phase_s < 0:
        raise ValueError("phase must be >= 0")
    phase = phase_s % spec.period_s
    (amount,) = demand_range(spec, phase, phase + 1, seed, key)
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
        for name in ("cpu_total", "mem_total", "reserved_cpu", "reserved_mem"):
            require_int(name, getattr(self, name))
        if self.cpu_total <= 0 or self.mem_total <= 0:
            raise ValueError("host totals must be positive")
        if not 0 <= self.reserved_cpu <= self.cpu_total:
            raise ValueError("reserved_cpu out of range")
        if not 0 <= self.reserved_mem <= self.mem_total:
            raise ValueError("reserved_mem out of range")

    # worked out on first read and then kept, since a config never changes:
    # the host reads them at every scrape and the analyzer at every decision
    @cached_property
    def usable_cpu(self) -> int:
        return self.cpu_total - self.reserved_cpu

    @cached_property
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
    kind: str  # "oom_kill"
    container_id: str
    t: int
    detail: dict = field(default_factory=dict)


# The keys of a sample row in a trace's column order. A row carries one more
# key, "throttle_pct", the unrounded share of throttled seconds that the
# metrics store keeps; "cpu_throttle" is that share rounded to 6 decimals.
TRACE_COLUMNS = ("t", "container", "cpu_util", "cpu_limit", "cpu_throttle", "mem_util", "mem_limit", "status")


@dataclass(frozen=True)
class MetricsSample:
    """Snapshot over the window since the previous sample."""

    t: int
    # cid -> its row: the TRACE_COLUMNS keys and "throttle_pct". The row is
    # the container's monitoring result and its trace row at once.
    containers: dict
    avail_cpu: int
    avail_mem: int


def _grant(state: ContainerState, demands, total: int, count: int, within: bool) -> None:
    """Grant ``count`` seconds of CPU ``demands``, summing to ``total``, to a
    container; ``within`` tells that none is above its limit. Deferred work
    is demanded again: the backlog follows Lindley's recursion
    ``b' = max(0, b + d - L)``, so with no backlog and no demand above the
    limit ``L``, every second is granted what it demands."""
    granted = total
    if state.backlog or not within:
        limit = state.limits.cpu
        backlog = state.backlog
        granted = throttled = 0
        for amount in demands:
            want = amount + backlog
            if want > limit:
                granted += limit
                backlog = want - limit
                throttled += 1
            else:
                granted += want
                backlog = 0
        state.backlog = backlog
        state.window_throttled += throttled
    state.total_demanded += total
    state.total_granted += granted
    state.window_ticks += count
    state.window_granted += granted


class HostSimulator:
    """Single-host container runtime with CPU throttling and OOM kills."""

    def __init__(self, config: HostConfig, seed: int = 0, device: str = "127.0.0.1", clock=None) -> None:
        self.config = config
        self.seed = seed
        self.device = device
        self.now = 0
        # a zero-argument callable returning the simulated second a tick brings the host to
        self._clock = clock
        # usable capacity the live containers' limits leave over; never below zero
        self._slack_cpu = config.usable_cpu
        self._slack_mem = config.usable_mem
        self._containers: dict[str, ContainerState] = {}  # every container ever run
        self._live: dict[str, ContainerState] = {}  # the running ones, in registration order
        self._counter = 0
        self._dead: list[ContainerState] = []  # dead containers awaiting one last sample row
        # changes to the live set and to live limits: each run, limit update and retirement
        self.live_version = 0
        # the live containers that can be OOM-killed at all, in registration
        # order, as of live version ``_risky_version``
        self._risky: list[ContainerState] = []
        self._risky_version = 0

    # -- container lifecycle ---------------------------------------------------

    def run_container(self, spec: WorkloadSpec, limits: Limits) -> str:
        if limits.cpu <= 0 or limits.mem <= 0:
            raise ValueError("containers need non-zero cpu and mem limits")
        self._reserve(limits.cpu, limits.mem)
        self._counter += 1
        cid = f"c{self._counter:03d}@{self.device}"
        # pattern 4's noise is keyed by container, so it gets a table of its own
        table = [] if spec.pattern == 4 else shared_table(spec)
        self._containers[cid] = self._live[cid] = ContainerState(
            container_id=cid,
            spec=spec,
            limits=limits,
            start_t=self.now,
            demand=table,
        )
        self.live_version += 1
        logger.debug("run %s limits=%s", cid, limits.as_dict())
        return cid

    def update_limits(self, cid: str, limits: Limits) -> None:
        state = self._running(cid)
        self._reserve(limits.cpu - state.limits.cpu, limits.mem - state.limits.mem)
        state.limits = limits
        self.live_version += 1

    def _reserve(self, cpu: int, mem: int) -> None:
        """Take ``cpu`` and ``mem`` more of the usable capacity for live
        limits, or raise, changing nothing, if that is more than is left."""
        if cpu > self._slack_cpu or mem > self._slack_mem:
            raise ContractViolation(
                f"limits need {cpu} mCPU / {mem} MB more, "
                f"{self._slack_cpu} mCPU / {self._slack_mem} MB of usable capacity left"
            )
        self._slack_cpu -= cpu
        self._slack_mem -= mem

    def container(self, cid: str) -> ContainerState:
        try:
            return self._containers[cid]
        except KeyError:
            raise KeyError(f"unknown container {cid}") from None

    def running_containers(self) -> list[ContainerState]:
        return list(self._live.values())

    def _running(self, cid: str) -> ContainerState:
        state = self.container(cid)
        if state.status != STATUS_RUNNING:
            raise KeyError(f"container {cid} is not running (status={state.status})")
        return state

    def _retire(self, state: ContainerState, status: str) -> None:
        state.status = status
        state.mem_usage = 0
        del self._live[state.container_id]
        self._slack_cpu += state.limits.cpu
        self._slack_mem += state.limits.mem
        self._dead.append(state)
        self.live_version += 1

    # -- simulation clock --------------------------------------------------------

    def tick(self) -> list[SimEvent]:
        """Bring the host to ``clock()``, or one second on without a clock, in
        one span; returns the lifecycle events raised at that second. A
        container whose memory demand at that second is above its limit is
        stepped to the second before and killed there; every other one is
        stepped to that second. No container may have a memory demand above
        its limit at an earlier second of the span (see :meth:`quiet_until`)."""
        last = self.now + 1 if self._clock is None else self._clock()
        count = last - self.now
        if count <= 0:
            raise ValueError(f"tick to second {last}, but the host is at {self.now}")
        events: list[SimEvent] = []
        killed: list[ContainerState] = []
        for state in self._live.values():
            mem = self._mem_demand(state, last)
            if mem > state.limits.mem:
                self._grant_cpu(state, count - 1)
                detail = {"demand_mem": mem, "mem_limit": state.limits.mem, "reason": "limit"}
                events.append(SimEvent(kind="oom_kill", container_id=state.container_id, t=last, detail=detail))
                killed.append(state)
            else:
                state.mem_usage = mem
                self._grant_cpu(state, count)
        for state in killed:  # off the live set only once the loop over it is done
            self._retire(state, STATUS_KILLED_OOM)
        self.now = last
        return events

    def quiet_until(self, wake: int) -> int:
        """The first second in ``(now, wake]`` at which :meth:`tick` can raise
        an event, or ``wake`` if none can: the first OOM kill. As the live
        limits fit in the usable capacity, no container's CPU or memory
        depends on another's.

        Only the live containers that can be OOM-killed at all are looked
        at: a cpu-class one whose limit is below its flat memory demand, and
        a mem-class one whose limit is below its peak. The host keeps their
        list and builds it again when :attr:`live_version` has moved since."""
        if self._risky_version != self.live_version:
            self._risky = [
                state
                for state in self._live.values()
                if state.limits.mem < (FLAT_MEM_MB if state.spec.workload_class == "cpu" else state.spec.peak)
            ]
            self._risky_version = self.live_version
        for state in self._risky:
            oom = self._first_oom(state, wake)
            if oom is not None:
                wake = oom
        return wake

    def _grant_cpu(self, state: ContainerState, count: int) -> None:
        """Grant ``state`` its CPU demand over seconds ``now + 1`` to
        ``now + count``, ``count >= 0``."""
        limit = state.limits.cpu
        if state.spec.workload_class == "cpu":
            capped = limit >= state.spec.peak  # demand never exceeds the peak
            for piece in self._pieces(state, count):
                _grant(state, piece, sum(piece), len(piece), capped or max(piece) <= limit)
        else:
            _grant(state, repeat(FLAT_CPU_MCPU, count), FLAT_CPU_MCPU * count, count, FLAT_CPU_MCPU <= limit)

    def _first_oom(self, state: ContainerState, last: int) -> int | None:
        """The first second in ``(now, last]``, ``last > now``, at which the
        memory demand of ``state`` is above its limit, or ``None``."""
        limit = state.limits.mem
        if state.spec.workload_class == "cpu":
            return self.now + 1 if FLAT_MEM_MB > limit else None
        if limit >= state.spec.peak:  # demand never exceeds the peak
            return None
        t = self.now
        for piece in self._pieces(state, last - t):
            if max(piece) > limit:
                return t + next(i for i, amount in enumerate(piece, 1) if amount > limit)
            t += len(piece)
        return None

    def _mem_demand(self, state: ContainerState, t: int) -> int:
        """Memory demand of ``state`` at second ``t``: flat for a cpu-class
        container, its table's entry for a mem-class one."""
        if state.spec.workload_class == "cpu":
            return FLAT_MEM_MB
        return self._fill_demand(state, (t - state.start_t) % state.spec.period_s)

    def _pieces(self, state: ContainerState, count: int) -> list[array]:
        """Dominant demand of ``state`` at seconds ``now + 1`` to
        ``now + count``, as successive slices of its table's chunks."""
        table, period = state.demand, state.spec.period_s
        phase = (self.now + 1 - state.start_t) % period
        pieces = []
        while count > 0:
            if phase >> CHUNK_BITS >= len(table):
                self._fill_demand(state, phase)
            first = phase & CHUNK_MASK
            piece = table[phase >> CHUNK_BITS][first : first + count]
            pieces.append(piece)
            count -= len(piece)
            phase = (phase + len(piece)) % period
        return pieces

    def _fill_demand(self, state: ContainerState, phase: int) -> int:
        """Fill the table up to the chunk that holds ``phase`` and return its
        entry."""
        spec, table = state.spec, state.demand
        while len(table) <= phase >> CHUNK_BITS:
            first = len(table) << CHUNK_BITS
            last = min(first + CHUNK_MASK + 1, spec.period_s)
            table.append(array("q", demand_range(spec, first, last, self.seed, state.container_id)))
        return table[phase >> CHUNK_BITS][phase & CHUNK_MASK]

    # -- metrics -----------------------------------------------------------------

    def sample_metrics(self) -> MetricsSample:
        """Utilization snapshot over the ticks since the last sample: one row
        per live container, then one last row per container that died since,
        with its terminal status, no memory and its last window's CPU."""
        t = self.now
        containers: dict[str, dict] = {}
        used_cpu = 0
        used_mem = 0
        for state in chain(self._live.values(), self._dead):
            if state.status == STATUS_RUNNING:
                ticks = max(state.window_ticks, 1)
                state.last_cpu_util = int(round(state.window_granted / ticks))
                state.last_throttle_pct = 100.0 * state.window_throttled / ticks
                used_cpu += state.last_cpu_util
                used_mem += state.mem_usage
                state.window_ticks = 0
                state.window_granted = 0
                state.window_throttled = 0
            cid, limits, throttle_pct = state.container_id, state.limits, state.last_throttle_pct
            containers[cid] = {
                "t": t,
                "container": cid,
                "cpu_util": state.last_cpu_util,
                "cpu_limit": limits.cpu,
                "cpu_throttle": round(throttle_pct, 6),
                "mem_util": state.mem_usage,
                "mem_limit": limits.mem,
                "status": state.status,
                "throttle_pct": throttle_pct,
            }
        self._dead.clear()
        config = self.config
        return MetricsSample(
            t=t,
            containers=containers,
            avail_cpu=config.usable_cpu - used_cpu,
            avail_mem=config.usable_mem - used_mem,
        )
