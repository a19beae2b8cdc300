import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from orchestrion.bus import Action, EventSpine, MessageBus
from orchestrion.hostsim import HostConfig, HostSimulator, WorkloadSpec
from orchestrion.knowledge import ContainerRecord, DeploymentRecord, Knowledge
from orchestrion.model import Limits, OptimizationPolicy
from orchestrion.monitor import (
    METRICS,
    MetricsStore,
    Monitor,
    MonitorConfig,
    next_optimization_due,
    optimization_due,
)
from orchestrion.registry import Registry, content_hash

from conftest import collect


def build_stack(policy=None, config=None):
    spine = EventSpine()
    bus = MessageBus("10.0.0.1", spine)
    host = HostSimulator(HostConfig(), device="10.0.0.1")
    knowledge = Knowledge()
    registry = Registry()
    events = []
    monitor = Monitor(
        bus,
        host,
        knowledge,
        registry,
        config or MonitorConfig(scrape_interval_s=10, retention_s=7200, max_attempts=3),
        policy or OptimizationPolicy(warmup_delay_s=50, optimization_interval_s=30),
        events.append,
    )
    return spine, bus, host, knowledge, registry, monitor, events


def register(knowledge, cid, deployment="d1", attempt=1, image="memory-3"):
    knowledge.register_container(
        ContainerRecord(container_id=cid, deployment_id=deployment, attempt=attempt)
    )
    if deployment not in knowledge.deployments:
        knowledge.deployments[deployment] = DeploymentRecord(deployment, "vendor", image)


class TestScraping:
    def test_series_length_matches_scrape_count(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack()
        spec = WorkloadSpec(pattern=3, workload_class="mem", period_s=1800, peak=95)
        cid = host.run_container(spec, Limits(cpu=100, mem=150))
        register(knowledge, cid)
        for t in range(1, 51):
            events = host.tick()
            monitor.on_tick(t, events)
        spine.drain()
        assert [t for t, _ in monitor.metrics.points(cid, "mem_util")] == [10, 20, 30, 40, 50]

    def test_empty_host_result_carries_full_availability(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack()
        results = collect(bus, "monitor")
        for t in range(1, 11):
            monitor.on_tick(t, host.tick())
        spine.drain()
        (message,) = results
        assert message.payload["avail"] == {"cpu": 1000, "mem": 1000}
        assert message.payload["containers"] == {}


class TestRetention:
    def test_expired_chunk_archived_and_round_trips(self):
        spine, bus, host, knowledge, registry, monitor, events = build_stack(
            config=MonitorConfig(scrape_interval_s=10, retention_s=24 * 3600, max_attempts=3)
        )
        for hour in range(25):  # 25h of hourly points
            monitor.metrics.append("c1", hour * 3600, {"cpu_util": hour, "mem_util": 1, "throttle_pct": 0.0})
        host.now = 25 * 3600
        digest = monitor.enforce_retention()
        # exactly the oldest hour fell out
        expired = {"c1": [[0, {"cpu_util": 0, "mem_util": 1, "throttle_pct": 0.0}]]}
        assert digest == content_hash(json.dumps(expired, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        assert [t for t, _ in monitor.metrics.points("c1", "cpu_util")] == [hour * 3600 for hour in range(1, 25)]
        assert events == [{"type": "metrics_archived", "hash": digest, "containers": ["c1"]}]
        assert registry._store == {}

    def test_young_data_is_noop(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack()
        monitor.metrics.append("c1", 100, {"cpu_util": 1, "mem_util": 1, "throttle_pct": 0.0})
        host.now = 200
        assert monitor.enforce_retention() is None

    def test_second_enforcement_without_new_data_is_noop(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack(
            config=MonitorConfig(scrape_interval_s=10, retention_s=100, max_attempts=3)
        )
        monitor.metrics.append("c1", 0, {"cpu_util": 1, "mem_util": 1, "throttle_pct": 0.0})
        monitor.metrics.append("c1", 150, {"cpu_util": 2, "mem_util": 1, "throttle_pct": 0.0})
        host.now = 160
        assert monitor.enforce_retention() is not None
        assert monitor.enforce_retention() is None

    def test_append_older_than_the_last_sample_raises_and_stores_nothing(self):
        store = MetricsStore(retention_s=100)
        for t in (0, 10, 20):
            store.append("c1", t, {"cpu_util": t, "mem_util": t + 1, "throttle_pct": t / 4})
        store.derived("c1")["kept"] = [0, 10, 20]
        stored = {metric: store.points("c1", metric) for metric in METRICS}
        version = store.version
        with pytest.raises(ValueError, match="older than its last one"):
            store.append("c1", 15, {"cpu_util": 99, "mem_util": 99, "throttle_pct": 99.0})
        assert {metric: store.points("c1", metric) for metric in METRICS} == stored
        assert store.version == version
        assert store.derived("c1") == {"kept": [0, 10, 20]}
        store.append("c1", 20, {"cpu_util": 1, "mem_util": 1, "throttle_pct": 0.0})  # a tie is in order
        assert [t for t, _ in store.points("c1", "cpu_util")] == [0, 10, 20, 20]

    def test_unknown_container_has_no_series(self):
        store = MetricsStore(retention_s=100)
        assert "c" not in store
        assert store.points("c", "mem_util") == []
        assert store.observed_max("c", "mem_util") == 0.0
        with pytest.raises(KeyError):
            store.derived("c")

    def test_killed_container_entry_dropped_after_retention(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack(
            config=MonitorConfig(scrape_interval_s=10, retention_s=100, max_attempts=3)
        )
        spec = WorkloadSpec(pattern=1, workload_class="mem", period_s=600, peak=95)
        killed = host.run_container(spec, Limits(cpu=100, mem=30))  # OOM-killed at t=97
        kept = host.run_container(spec, Limits(cpu=100, mem=150))
        for t in range(1, 101):
            monitor.on_tick(t, host.tick())
        spine.drain()
        assert host.container(killed).status == "killed_oom"
        assert [t for t, _ in monitor.metrics.points(killed, "mem_util")] == list(range(10, 100, 10))
        for t in range(101, 201):
            monitor.on_tick(t, host.tick())
        spine.drain()
        assert killed not in monitor.metrics._series
        assert killed not in monitor.metrics
        assert monitor.metrics.points(killed, "mem_util") == []
        assert kept in monitor.metrics._series


STORE_STEP = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(("c1", "c2", "c3")), st.integers(0, 40)),
    st.tuples(st.just("expire"), st.integers(0, 80)),
)


@settings(max_examples=200, deadline=None)
@given(retention=st.sampled_from((1, 30, 100)), steps=st.lists(STORE_STEP, max_size=60))
def test_expire_equals_a_brute_force_scan(retention, steps):
    """Each expiry cuts exactly the stored samples older than the window, from
    every series, and moves ``version`` only when it cuts one."""
    store = MetricsStore(retention)
    stored = {}  # cid -> [[t, row], ...], oldest first
    now = value = 0
    for step in steps:
        if step[0] == "append":
            now += step[2]
            value += 1
            row = {"cpu_util": value, "mem_util": value + 1, "throttle_pct": value / 4}
            store.append(step[1], now, row)
            stored.setdefault(step[1], []).append([now, row])
        else:
            now += step[1]
            cutoff = now - retention
            want = {cid: [r for r in rows if r[0] < cutoff] for cid, rows in stored.items()}
            want = {cid: rows for cid, rows in want.items() if rows}
            version = store.version
            expired = store.expire(now)
            assert expired == want
            assert store.version == version + bool(want)
            stored = {cid: [r for r in rows if r[0] >= cutoff] for cid, rows in stored.items()}
            stored = {cid: rows for cid, rows in stored.items() if rows}
        # the bound an expiry returns early by is the oldest stored timestamp
        assert store._oldest == min((t for rows in stored.values() for t, _ in rows), default=math.inf)
        for cid in ("c1", "c2", "c3"):
            assert (cid in store) == (cid in stored)
            for metric in METRICS:
                assert store.points(cid, metric) == [(t, row[metric]) for t, row in stored.get(cid, [])]


class TestPrematureExitRetries:
    def run_until_kill(self, monitor, host, limit_mem=10):
        spec = WorkloadSpec(pattern=3, workload_class="mem", period_s=1800, peak=95)
        cid = host.run_container(spec, Limits(cpu=100, mem=limit_mem))
        return cid

    def test_oom_triggers_retry_request(self):
        spine, bus, host, knowledge, registry, monitor, events = build_stack()
        requests = collect(bus, "deploy")
        cid = self.run_until_kill(monitor, host)
        register(knowledge, cid, attempt=1)
        for t in range(1, 4):
            monitor.on_tick(t, host.tick())
        spine.drain()
        retry = [m for m in requests if m.action is Action.DEPLOYMENT_REQUEST]
        assert len(retry) == 1
        assert retry[0].payload["attempt"] == 2
        assert retry[0].payload["retry"] is True
        assert retry[0].payload["pinned_device"] == "10.0.0.1"

    def test_retry_request_names_the_deployments_owner_and_image(self):
        spine, bus, host, knowledge, registry, monitor, events = build_stack()
        requests = collect(bus, "deploy")
        cid = self.run_until_kill(monitor, host)
        knowledge.deployments["d7"] = DeploymentRecord("d7", "acme", "ledger")
        knowledge.register_container(ContainerRecord(container_id=cid, deployment_id="d7", attempt=1))
        for t in range(1, 4):
            monitor.on_tick(t, host.tick())
        spine.drain()
        (retry,) = [m for m in requests if m.action is Action.DEPLOYMENT_REQUEST]
        assert retry.payload["deployment_id"] == "d7"
        assert (retry.payload["owner"], retry.payload["image"]) == ("acme", "ledger")

    def test_exhausted_attempts_give_up(self):
        spine, bus, host, knowledge, registry, monitor, events = build_stack()
        requests = collect(bus, "deploy")
        cid = self.run_until_kill(monitor, host)
        register(knowledge, cid, attempt=3)  # max_attempts=3 in the stack
        for t in range(1, 4):
            monitor.on_tick(t, host.tick())
        spine.drain()
        assert [m for m in requests if m.action is Action.DEPLOYMENT_REQUEST] == []
        assert any(e["type"] == "retry_exhausted" for e in events)
        assert knowledge.deployments["d1"].state == "failed"


class TestOptimizationCadence:
    def collect_requests(self, ticks, warmup=50, interval=30):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack(
            policy=OptimizationPolicy(warmup_delay_s=warmup, optimization_interval_s=interval)
        )
        received = collect(bus, "analyze")
        spec = WorkloadSpec(pattern=3, workload_class="mem", period_s=1800, peak=95)
        cid = host.run_container(spec, Limits(cpu=100, mem=150))
        register(knowledge, cid)
        sent = []
        for t in range(1, ticks + 1):
            monitor.on_tick(t, host.tick())
            spine.drain()
            for m in received:
                if m.action is Action.DEPLOYMENT_OPTIMIZATION_REQUEST:
                    sent.append((t, m.payload))
            received.clear()
        return sent

    def test_no_requests_before_warmup(self):
        assert self.collect_requests(ticks=49) == []

    def test_kth_request_at_warmup_plus_k_intervals(self):
        sent = self.collect_requests(ticks=140)
        assert [t for t, _ in sent] == [50, 80, 110, 140]
        assert [p["cycle"] for _, p in sent] == [1, 2, 3, 4]

    def test_no_active_containers_no_requests(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack()
        received = collect(bus, "analyze")
        for t in range(1, 200):
            monitor.on_tick(t, host.tick())
        spine.drain()
        assert received == []

    def test_batch_carries_index_and_count(self):
        spine, bus, host, knowledge, registry, monitor, _ = build_stack(
            policy=OptimizationPolicy(warmup_delay_s=10, optimization_interval_s=30)
        )
        received = collect(bus, "analyze")
        spec = WorkloadSpec(pattern=3, workload_class="mem", period_s=1800, peak=95)
        for i in range(2):
            cid = host.run_container(spec, Limits(cpu=100, mem=150))
            register(knowledge, cid, deployment=f"d{i}")
        for t in range(1, 11):
            monitor.on_tick(t, host.tick())
        spine.drain()
        batch = [m.payload for m in received if m.action is Action.DEPLOYMENT_OPTIMIZATION_REQUEST]
        assert [(p["index"], p["count"]) for p in batch] == [(0, 2), (1, 2)]

    def test_wake_up_asked_first_keeps_the_cycle_due_at_that_second(self):
        # next_wake_up(50) keeps 80, the first due second after 50; the cycle
        # due at 50 itself still starts at on_tick(50)
        spine, bus, host, knowledge, registry, monitor, _ = build_stack()
        received = collect(bus, "analyze")
        cid = host.run_container(WorkloadSpec(pattern=3, workload_class="mem", period_s=1800, peak=95), Limits(cpu=100, mem=150))
        while host.now < 50:
            host.tick()
        assert monitor.next_wake_up(50) == 60
        monitor.on_tick(50, [])
        spine.drain()
        assert [m.payload["container"] for m in received] == [cid]


def scanned_wake_up(monitor, t):
    """:meth:`Monitor.next_wake_up` as a scan of every live container: the
    oracle."""
    scrape = monitor.config.scrape_interval_s
    warmup = monitor.policy.warmup_delay_s
    interval = monitor.policy.optimization_interval_s
    wake = (t // scrape + 1) * scrape
    for state in monitor.host.running_containers():
        wake = min(wake, next_optimization_due(state.start_t, t, warmup, interval))
    return wake


class TestWakeUps:
    @settings(max_examples=300, deadline=None)
    @given(
        start_t=st.integers(0, 400),
        warmup=st.integers(0, 300),
        interval=st.integers(1, 300),
        t=st.integers(0, 1000),
    )
    def test_next_due_is_the_first_due_second_after_t(self, start_t, warmup, interval, t):
        due = next_optimization_due(start_t, t, warmup, interval)
        later = range(t + 1, start_t + warmup + t + interval + 1)
        first = next(s for s in later if optimization_due(s - start_t, warmup, interval))
        assert due == first

    @settings(max_examples=50, deadline=None)
    @given(
        scrape=st.integers(1, 40),
        warmup=st.integers(0, 90),
        interval=st.integers(1, 90),
        pattern=st.sampled_from([1, 3]),
        starts=st.lists(st.tuples(st.integers(0, 150), st.integers(20, 150)), min_size=1, max_size=4),
        # the container, the seconds after its start and the new memory limit
        updates=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60), st.integers(20, 150)), max_size=4),
    )
    def test_monitor_acts_only_at_its_wake_ups(self, scrape, warmup, interval, pattern, starts, updates):
        """Run second by second while containers start, change limits and
        are OOM-killed (a mem-class container with a limit below its peak
        of 95). The monitor publishes at exactly the seconds that
        next_wake_up named at the second before, or at which the host raised
        an event; a cycle holds the live containers due then. At every
        second, next_wake_up is what a scan of every live container gives."""
        spine, bus, host, knowledge, registry, monitor, _ = build_stack(
            policy=OptimizationPolicy(warmup_delay_s=warmup, optimization_interval_s=interval),
            config=MonitorConfig(scrape_interval_s=scrape, retention_s=7200, max_attempts=3),
        )
        cycles = collect(bus, "analyze")
        spec = WorkloadSpec(pattern=pattern, workload_class="mem", period_s=120, peak=95)
        cids, acted, wake_ups = [], [], []
        for t in range(301):
            if t:
                events = host.tick()
                due = [s.container_id for s in host.running_containers() if optimization_due(t - s.start_t, warmup, interval)]
                published, cycled = len(spine.log), len(cycles)
                monitor.on_tick(t, events)
                spine.drain()
                if len(spine.log) > published:
                    acted.append(t)
                if t == wake or events:
                    wake_ups.append(t)
                assert [m.payload["container"] for m in cycles[cycled:]] == due
            # the drain of second t starts containers and changes limits
            for index, (start, mem) in enumerate(starts):
                if start == t:
                    cids.append(host.run_container(spec, Limits(cpu=100, mem=mem)))
                    register(knowledge, cids[-1], deployment=f"d{index}")
            for which, after, mem in updates:
                state = host.container(cids[which]) if which < len(cids) else None
                if state and state.status == "running" and state.start_t + after == t:
                    host.update_limits(state.container_id, Limits(cpu=100, mem=mem))
            wake = monitor.next_wake_up(t)
            assert wake == scanned_wake_up(monitor, t)
        assert acted == wake_ups

