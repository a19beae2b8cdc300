"""Monitoring loop: scrapes host metrics, publishes monitoring results, keeps
the short-term series store, hashes expired series into a ``metrics_archived``
event without keeping them, restarts OOM-killed containers with escalated
targets, and paces the optimization cycles for the host's running containers.

The monitor acts only on a scrape, on an optimization cycle falling due or on
a host event; :meth:`Monitor.next_wake_up` tells the runner when the next of
the first two falls, so that it can skip the seconds in between.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .bus import Action, Message, MessageBus, TOPIC_ANALYZE, TOPIC_DEPLOY, TOPIC_MONITOR
from .hostsim import HostSimulator, SimEvent
from .knowledge import Knowledge
from .model import OptimizationPolicy, require_int
from .registry import Registry

# The metrics the store keeps per sample, as named in the host's sample rows.
METRICS = ("cpu_util", "mem_util", "throttle_pct")


@dataclass(frozen=True)
class MonitorConfig:
    scrape_interval_s: int = 10
    retention_s: int = 7200
    max_attempts: int = 10

    def __post_init__(self) -> None:
        for name in ("scrape_interval_s", "retention_s", "max_attempts"):
            require_int(name, getattr(self, name))
        if self.scrape_interval_s <= 0 or self.retention_s <= 0 or self.max_attempts < 1:
            raise ValueError("monitor config values must be positive")


def optimization_due(age: int, warmup: int, interval: int) -> bool:
    """Whether a container ``age`` seconds old is due for an optimization
    cycle: once the warm-up has passed, then every ``interval`` seconds."""
    return age >= warmup and (age - warmup) % interval == 0


def next_optimization_due(start_t: int, t: int, warmup: int, interval: int) -> int:
    """The first second after ``t`` at which a container started at
    ``start_t`` is :func:`optimization_due`."""
    first = start_t + warmup
    if t < first:
        return first
    return first + ((t - first) // interval + 1) * interval


class MetricsStore:
    """Short-term per-container series, bounded by the retention window.

    Each container's series is held as columns: one list of timestamps and one
    list per metric in :data:`METRICS`. No other code knows this layout. A
    container's entry is dropped once all of its samples have expired, so the
    series of dead containers are gone one retention window after their last
    sample.

    Each series is in time order: :meth:`append` refuses a sample older
    than the container's last one, and :meth:`expire` cuts only a prefix.

    ``version`` counts the writes that change what is stored: every
    :meth:`append` and every :meth:`expire` that cuts a sample. Readers that
    derive results from the series (the forecaster) reuse them while the
    version stays the same.

    The store keeps the timestamp of its oldest sample, so an :meth:`expire`
    whose cutoff is at or before it returns at once: with a retention window
    longer than the run, no expiry scans a series.

    Each stored container also has a :meth:`derived` slot for what readers
    build from its series and extend as it grows. The slot survives an
    :meth:`expire` that cuts only a prefix of the series, so readers must
    drop what they built from the cut samples. The slot goes with the
    series when all of its samples expire.
    """

    def __init__(self, retention_s: int) -> None:
        self.retention_s = retention_s
        self.version = 0
        self._series: dict[str, dict[str, list]] = {}
        self._derived: dict[str, dict] = {}
        self._oldest = math.inf  # the oldest stored timestamp

    def append(self, cid: str, t: int, row: dict) -> None:
        """Store one sample; ``row`` is a host sample row carrying every metric.

        Raises ``ValueError``, storing nothing, if ``t`` is older than the
        container's last stored sample."""
        columns = self._series.get(cid)
        if columns is None:
            columns = self._series[cid] = {"t": [], **{metric: [] for metric in METRICS}}
        times = columns["t"]
        if times and t < times[-1]:
            raise ValueError(f"sample of {cid!r} at t={t} is older than its last one at t={times[-1]}")
        times.append(t)
        for metric in METRICS:
            columns[metric].append(row[metric])
        if t < self._oldest:
            self._oldest = t
        self.version += 1

    def points(self, cid: str, metric: str) -> list[tuple[int, float]]:
        """``(t, value)`` pairs of one metric, oldest first; empty if none are stored."""
        columns = self._series.get(cid)
        return list(zip(columns["t"], columns[metric])) if columns else []

    def columns(self, cid: str) -> tuple[list, ...]:
        """The stored timestamps, then each metric's values in :data:`METRICS`
        order, oldest first, as the store's own lists: callers must not modify
        them. ``cid`` must have stored samples."""
        return tuple(self._series[cid].values())

    def __contains__(self, cid: str) -> bool:
        return cid in self._series

    def derived(self, cid: str) -> dict:
        """The slot for data derived from ``cid``'s series (see the class
        docstring); ``cid`` must have stored samples."""
        if cid not in self._series:
            raise KeyError(cid)
        slot = self._derived.get(cid)
        if slot is None:
            slot = self._derived[cid] = {}
        return slot

    def observed_max(self, cid: str, metric: str) -> float:
        columns = self._series.get(cid)
        return float(max(columns[metric])) if columns else 0.0

    def expire(self, now: int) -> dict[str, list]:
        """Drop points older than the retention window; returns what was
        dropped as ``{cid: [[t, {metric: value}], ...]}``."""
        cutoff = now - self.retention_s
        if cutoff <= self._oldest:
            return {}
        expired: dict[str, list] = {}
        oldest = math.inf
        for cid, columns in list(self._series.items()):
            times = columns["t"]
            split = bisect_left(times, cutoff)
            if split:
                expired[cid] = [
                    [t, {metric: columns[metric][i] for metric in METRICS}] for i, t in enumerate(times[:split])
                ]
                if split == len(times):
                    del self._series[cid]
                    self._derived.pop(cid, None)
                    continue
                for column in columns.values():
                    del column[:split]
            oldest = min(oldest, times[0])
        self._oldest = oldest
        if expired:
            self.version += 1
        return expired


class Monitor:
    """Drives the measure half of the control loop on one device."""

    def __init__(
        self,
        bus: MessageBus,
        host: HostSimulator,
        knowledge: Knowledge,
        registry: Registry,
        config: MonitorConfig,
        policy: OptimizationPolicy,
        emit,
    ) -> None:
        self.bus = bus
        self.host = host
        self.knowledge = knowledge
        self.registry = registry
        self.config = config
        self.policy = policy
        self.emit = emit
        self.metrics = MetricsStore(config.retention_s)
        self._cycle_seq = 0
        # the kept answer of _next_due: the second, the second it was found
        # for and the host's live version then; none is kept at first
        self._due: int | float = math.inf
        self._due_from = 0
        self._due_version = -1

    # -- per-tick driving --------------------------------------------------------

    def on_tick(self, t: int, events: list[SimEvent]) -> None:
        for event in events:
            self._handle_event(event)
        if t % self.config.scrape_interval_s == 0:
            self.scrape_and_publish()
            self.enforce_retention()
        self.schedule_optimization(t)

    def next_wake_up(self, t: int) -> int:
        """The first second after ``t`` at which :meth:`on_tick` scrapes or
        starts an optimization cycle, given the containers active now. Until
        then it has nothing to do unless the host raises an event.

        The next scrape is worked out; the next optimization-due second is
        the kept one of :meth:`_next_due`, so no container is looked at
        unless the host's live set or limits changed or that second passed."""
        scrape = self.config.scrape_interval_s
        return min((t // scrape + 1) * scrape, self._next_due(t))

    def _next_due(self, t: int) -> int | float:
        """The first second after ``t`` at which a live container is
        :func:`optimization_due`, or ``inf`` with none live.

        The monitor keeps that second, found for some second ``t0`` and the
        host's :attr:`~orchestrion.hostsim.HostSimulator.live_version`. While
        that version holds, and ``t0 <= t`` and ``t`` is before the kept
        second, no container is due in ``(t0, t]``, so the kept second is
        the answer for ``t`` too; otherwise every live container is looked
        at again."""
        if self._due_version != self.host.live_version or not self._due_from <= t < self._due:
            warmup = self.policy.warmup_delay_s
            interval = self.policy.optimization_interval_s
            self._due = min(
                (next_optimization_due(state.start_t, t, warmup, interval) for state in self.host.running_containers()),
                default=math.inf,
            )
            self._due_from = t
            self._due_version = self.host.live_version
        return self._due

    # -- premature exits -----------------------------------------------------------

    def _handle_event(self, event: SimEvent) -> None:
        record = self.knowledge.containers.get(event.container_id)
        if record is None:
            return
        deployment = self.knowledge.deployments.get(record.deployment_id)
        if deployment is None:
            return
        self.emit(
            {
                "type": "oom_kill",
                "container": event.container_id,
                "deployment": record.deployment_id,
                "attempt": record.attempt,
                "t": event.t,
                **event.detail,
            }
        )
        next_attempt = record.attempt + 1
        if next_attempt > self.config.max_attempts:
            deployment.state = "failed"
            self.emit(
                {
                    "type": "retry_exhausted",
                    "deployment": record.deployment_id,
                    "attempts": record.attempt,
                }
            )
            return
        self.bus.publish(
            TOPIC_DEPLOY,
            Message(
                action=Action.DEPLOYMENT_REQUEST,
                payload={
                    "deployment_id": record.deployment_id,
                    "owner": deployment.owner,
                    "image": deployment.image,
                    "attempt": next_attempt,
                    "retry": True,
                    "pinned_device": self.bus.device,
                },
                correlation_id=record.deployment_id,
            ),
        )

    # -- scraping ------------------------------------------------------------------

    def scrape_and_publish(self) -> None:
        sample = self.host.sample_metrics()
        for cid, row in sample.containers.items():
            if row["status"] == "running":
                self.metrics.append(cid, sample.t, row)
        self.bus.publish(
            TOPIC_MONITOR,
            Message(
                action=Action.MONITORING_RESULT,
                payload={
                    "device": self.bus.device,
                    "t": sample.t,
                    "containers": sample.containers,
                    "avail": {"cpu": sample.avail_cpu, "mem": sample.avail_mem},
                },
            ),
        )

    # -- retention / archival --------------------------------------------------------

    def enforce_retention(self) -> str | None:
        """Truncate series older than the retention window and record their
        content hash in a ``metrics_archived`` event."""
        expired = self.metrics.expire(self.host.now)
        if not expired:
            return None
        digest = self.registry.archive_metrics(expired)
        self.emit({"type": "metrics_archived", "hash": digest, "containers": sorted(expired)})
        return digest

    # -- optimization cadence ----------------------------------------------------------

    def schedule_optimization(self, t: int) -> None:
        """Start an optimization cycle at ``t`` for the live containers due
        then, in registration order, if any is; none is looked at while
        ``t`` is before the kept due second of :meth:`_next_due`."""
        if self._next_due(t - 1) > t:
            return
        warmup = self.policy.warmup_delay_s
        interval = self.policy.optimization_interval_s
        live = self.host.running_containers()
        due = [state for state in live if optimization_due(t - state.start_t, warmup, interval)]
        if not due:
            return
        self._cycle_seq += 1
        for index, state in enumerate(due):
            self.bus.publish(
                TOPIC_ANALYZE,
                Message(
                    action=Action.DEPLOYMENT_OPTIMIZATION_REQUEST,
                    payload={
                        "cycle": self._cycle_seq,
                        "index": index,
                        "count": len(due),
                        "container": state.container_id,
                    },
                    correlation_id=f"cycle-{self._cycle_seq}@{self.bus.device}",
                ),
            )
