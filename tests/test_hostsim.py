import hashlib
import math
import struct
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from orchestrion.hostsim import (
    CHUNK_BITS,
    ContainerState,
    FLAT_CPU_MCPU,
    FLAT_MEM_MB,
    HostConfig,
    HostSimulator,
    SHARED_TABLES,
    STATUS_KILLED_OOM,
    STATUS_RUNNING,
    WorkloadSpec,
    demand_range,
    shared_table,
    workload_demand,
)
from orchestrion.model import ContractViolation, Limits
from reference_host import PerSecondHost


def mem_spec(pattern, peak=95, period=1800):
    return WorkloadSpec(pattern=pattern, workload_class="mem", period_s=period, peak=peak)


def cpu_spec(pattern, peak=150, period=1800):
    return WorkloadSpec(pattern=pattern, workload_class="cpu", period_s=period, peak=peak)


class TestWorkloadPatterns:
    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    def test_peak_never_exceeded_and_reached_nearby(self, pattern):
        spec = mem_spec(pattern)
        demands = [workload_demand(spec, t, seed=3, key="k")[1] for t in range(spec.period_s)]
        assert max(demands) <= spec.peak
        # every pattern gets within 5% of its declared peak
        assert max(demands) >= math.floor(spec.peak * 0.95)

    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    def test_periodicity(self, pattern):
        spec = cpu_spec(pattern)
        for t in (0, 17, 450, 900, 1799):
            a = workload_demand(spec, t, seed=9, key="c")
            b = workload_demand(spec, t + spec.period_s, seed=9, key="c")
            assert a == b

    def test_on_off_on_phase_hits_peak(self):
        spec = mem_spec(3)
        _, mem_on = workload_demand(spec, 10)
        _, mem_off = workload_demand(spec, spec.period_s // 2 + 10)
        assert mem_on == 95
        assert mem_off == round(95 * 0.1)

    def test_gently_shaking_cpu_within_ten_percent_band(self):
        spec = cpu_spec(4, peak=120)
        for t in range(0, spec.period_s, 7):
            cpu, _ = workload_demand(spec, t, seed=5, key="c")
            assert 108 <= cpu <= 132

    def test_secondary_resource_is_flat(self):
        cpu, _ = workload_demand(mem_spec(1), 555)
        _, mem = workload_demand(cpu_spec(1), 555)
        assert cpu == FLAT_CPU_MCPU
        assert mem == FLAT_MEM_MB

    def test_triangular_rises_to_peak_at_half_period(self):
        spec = mem_spec(1)
        _, mem_half = workload_demand(spec, spec.period_s // 2)
        _, mem_start = workload_demand(spec, 0)
        assert mem_half == 95
        assert mem_start == 0

    def test_demand_deterministic_per_seed(self):
        spec = cpu_spec(4)
        a = [workload_demand(spec, t, seed=1, key="x")[0] for t in range(100)]
        b = [workload_demand(spec, t, seed=1, key="x")[0] for t in range(100)]
        assert a == b

    @pytest.mark.parametrize("spec", [mem_spec(4), cpu_spec(5)])
    def test_demand_is_a_pair_of_ints(self, spec):
        for t in (0, 1, 450, 1799):
            cpu, mem = workload_demand(spec, t, seed=2, key="c")
            assert type(cpu) is int and type(mem) is int

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            workload_demand(mem_spec(1), -1)


class TestRunAndSample:
    def test_run_container_starts_running(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(1), Limits(cpu=200, mem=150))
        assert host.container(cid).status == STATUS_RUNNING

    def test_util_never_exceeds_limit(self):
        host = HostSimulator(HostConfig())
        host.run_container(cpu_spec(4, peak=150), Limits(cpu=100, mem=64))
        for _ in range(30):
            host.tick()
        sample = host.sample_metrics()
        for row in sample.containers.values():
            assert row["cpu_util"] <= row["cpu_limit"]

    def test_empty_host_avail_equals_totals(self):
        host = HostSimulator(HostConfig(cpu_total=1000, mem_total=1000))
        host.tick()
        sample = host.sample_metrics()
        assert sample.avail_cpu == 1000 and sample.avail_mem == 1000

    def test_avail_subtracts_usage(self):
        host = HostSimulator(HostConfig())
        host.run_container(mem_spec(3), Limits(cpu=100, mem=150))  # on-phase demands 95
        host.tick()
        sample = host.sample_metrics()
        assert sample.avail_mem == 1000 - 95 - 0
        (row,) = sample.containers.values()
        assert row["mem_util"] == 95

    def test_reserved_capacity_reduces_avail(self):
        host = HostSimulator(HostConfig(reserved_cpu=650, reserved_mem=600))
        host.tick()
        sample = host.sample_metrics()
        assert sample.avail_cpu == 350 and sample.avail_mem == 400


class TestOomSemantics:
    def test_low_limit_on_off_killed_immediately(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(3), Limits(cpu=100, mem=10))
        events = host.tick()
        assert [e.kind for e in events] == ["oom_kill"]
        assert host.container(cid).status == STATUS_KILLED_OOM

    def test_killed_within_first_period_third(self):
        host = HostSimulator(HostConfig())
        host.run_container(mem_spec(1), Limits(cpu=100, mem=10))
        killed_at = None
        for _ in range(1800 // 3):
            events = host.tick()
            if events:
                killed_at = events[0].t
                break
        assert killed_at is not None

    def test_lowering_mem_below_usage_kills_next_tick(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(3), Limits(cpu=100, mem=150))
        host.tick()
        assert host.container(cid).mem_usage == 95
        host.update_limits(cid, Limits(cpu=100, mem=50))
        events = host.tick()
        assert [e.kind for e in events] == ["oom_kill"]

    def test_killed_container_frees_memory(self):
        host = HostSimulator(HostConfig())
        host.run_container(mem_spec(3), Limits(cpu=100, mem=10))
        host.tick()
        host.tick()
        sample = host.sample_metrics()
        assert sample.avail_mem == 1000


CHUNK = 1 << CHUNK_BITS


def entries(table):
    """A chunked demand table's entries, indexed by phase."""
    return list(chain.from_iterable(table))


def chunk_sizes(table):
    """Entries per chunk: a table holds only chunks filled whole."""
    return [len(chunk) for chunk in table]


class TestDemandTables:
    @pytest.fixture(autouse=True)
    def empty_shared_tables(self):
        # the chunk counts below are those of tables no earlier test filled
        shared_table.cache_clear()

    @pytest.mark.parametrize("workload_class", ["cpu", "mem"])
    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    def test_entries_equal_workload_demand(self, pattern, workload_class):
        host = HostSimulator(HostConfig(cpu_total=4000, mem_total=4000), seed=7)
        spec = WorkloadSpec(pattern=pattern, workload_class=workload_class, period_s=90, peak=150)
        cid = host.run_container(spec, Limits(cpu=1000, mem=1000))
        for _ in range(200):
            host.tick()
        table = host.container(cid).demand
        dominant = 0 if workload_class == "cpu" else 1
        assert chunk_sizes(table) == [CHUNK, spec.period_s - CHUNK]
        for phase, amount in enumerate(entries(table)):
            assert amount == workload_demand(spec, phase, 7, cid)[dominant]

    def test_noisy_pattern_has_a_table_per_container(self):
        host = HostSimulator(HostConfig(cpu_total=4000, mem_total=4000), seed=7)
        spec = cpu_spec(4, peak=120, period=60)
        cids = [host.run_container(spec, Limits(cpu=1000, mem=100)) for _ in range(2)]
        for _ in range(45):
            host.tick()
        tables = [host.container(cid).demand for cid in cids]
        assert tables[0] != tables[1]
        for cid, table in zip(cids, tables):
            # phases 1 to 45 were reached; their chunk is the whole 60 s period
            assert chunk_sizes(table) == [60]
            for phase, amount in enumerate(entries(table)):
                assert amount == workload_demand(spec, phase, 7, cid)[0]

    def test_other_patterns_share_a_table_per_spec(self):
        host = HostSimulator(HostConfig(cpu_total=4000, mem_total=4000))
        first = host.run_container(mem_spec(1), Limits(cpu=100, mem=150))
        host.tick()
        second = host.run_container(mem_spec(1), Limits(cpu=100, mem=150))
        other = host.run_container(mem_spec(1, period=600), Limits(cpu=100, mem=150))
        assert host.container(first).demand is host.container(second).demand
        assert host.container(first).demand is not host.container(other).demand

    def test_container_killed_on_first_tick_fills_only_that_chunk(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(3), Limits(cpu=50, mem=10))
        assert [e.kind for e in host.tick()] == ["oom_kill"]
        for _ in range(20):
            host.tick()
        table = host.container(cid).demand
        assert chunk_sizes(table) == [CHUNK]
        assert entries(table)[1] == 95

    def test_table_grows_with_the_phases_reached(self):
        host = HostSimulator(HostConfig())
        spec = mem_spec(1, period=10**9)
        cid = host.run_container(spec, Limits(cpu=100, mem=150))
        table = host.container(cid).demand
        # (ticks so far, chunks filled): phase t lies in chunk t // 64
        for ticks, chunks in ((5, 1), (CHUNK - 1, 1), (CHUNK, 2), (2 * CHUNK - 1, 2), (2 * CHUNK, 3)):
            while host.now < ticks:
                host.tick()
            assert chunk_sizes(table) == [CHUNK] * chunks
        for phase, amount in enumerate(entries(table)):
            assert amount == workload_demand(spec, phase)[1]


SHARED_PERIODS = (1, 40, 63, 64, 65, 130, 600)


class TestSharedTables:
    @given(
        spec=st.builds(
            WorkloadSpec,
            pattern=st.sampled_from([1, 2, 3, 5]),
            workload_class=st.sampled_from(["cpu", "mem"]),
            period_s=st.sampled_from(SHARED_PERIODS),
            peak=st.integers(1, 300),
        ),
        empty=st.booleans(),
        fills=st.lists(
            st.tuples(st.integers(0, 2**31), st.integers(0, 700), st.lists(st.integers(1, 300), min_size=1, max_size=3)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_shared_table_entries_equal_demand_range(self, spec, empty, fills):
        # hosts of their own seeds and devices, as in runs of their own, start
        # a container of ``spec`` at their own seconds and step it by their
        # own wake-ups, onto a table that is empty or that earlier tests filled
        if empty:
            shared_table.cache_clear()
        limits = Limits(cpu=max(spec.peak, FLAT_CPU_MCPU), mem=max(spec.peak, FLAT_MEM_MB))
        reached = 0
        states = []
        for index, (seed, start, wakes) in enumerate(fills):
            clock = [start]
            host = HostSimulator(HostConfig(), seed=seed, device=f"10.0.0.{index + 1}", clock=lambda: clock[0])
            if start:
                host.tick()
            states.append(host.container(host.run_container(spec, limits)))
            for offset in wakes:
                clock[0] += offset
                assert host.tick() == []
            # every tick reads the demand at the second it ticks to
            reached = max(reached, (host.now - start) % spec.period_s)
        table = shared_table(spec)
        assert all(state.demand is table for state in states)
        sizes = chunk_sizes(table)
        assert sizes[:-1] == [CHUNK] * (len(sizes) - 1)
        assert sizes[-1] == min(CHUNK, spec.period_s - CHUNK * (len(sizes) - 1))
        assert len(entries(table)) > reached
        assert entries(table) == demand_range(spec, 0, len(entries(table)))

    def test_noisy_tables_are_never_shared(self):
        spec = cpu_spec(4, peak=120, period=60)
        before = shared_table.cache_info()
        states = []
        for device in ("10.0.0.1", "10.0.0.2"):
            host = HostSimulator(HostConfig(), seed=7, device=device)
            states += [host.container(host.run_container(spec, Limits(cpu=200, mem=100))) for _ in range(2)]
            for _ in range(10):
                host.tick()
        # the map was neither read nor written, and every container has a table of its own
        assert shared_table.cache_info() == before
        assert len({id(state.demand) for state in states}) == 4
        for state in states:
            assert entries(state.demand) == demand_range(spec, 0, 60, 7, state.container_id)

    def test_evicted_specs_step_exactly(self):
        shared_table.cache_clear()
        # a throttled ramp: its spans read every phase of its table
        spec = cpu_spec(1, period=600)
        clock = [0]
        host = HostSimulator(HostConfig(), clock=lambda: clock[0])
        ticked = PerSecondHost(HostConfig())
        cids = [h.run_container(spec, Limits(cpu=100, mem=100)) for h in (host, ticked)][:1]
        clock[0] = 100
        host.tick()
        table = host.container(cids[0]).demand
        # more distinct specs than the bound, on a host of their own
        other = HostSimulator(HostConfig(cpu_total=10**6, mem_total=10**6))
        for peak in range(1, SHARED_TABLES + 6):
            other.run_container(cpu_spec(2, peak=peak, period=65), Limits(cpu=1, mem=FLAT_MEM_MB))
        other.tick()
        assert shared_table.cache_info().currsize == SHARED_TABLES
        # a new container of the evicted spec starts a table of its own
        late = host.run_container(spec, Limits(cpu=100, mem=100))
        while ticked.now < 100:
            assert ticked.tick() == []
        assert ticked.run_container(spec, Limits(cpu=100, mem=100)) == late
        cids.append(late)
        assert host.container(late).demand is shared_table(spec) is not table
        for second in (700, 1300):
            clock[0] = second
            assert host.tick() == []
            while ticked.now < second:
                assert ticked.tick() == []
            assert_same_containers(host, ticked, cids)
            assert host.sample_metrics() == ticked.sample_metrics()
        for state in (host.container(cid) for cid in cids):
            assert entries(state.demand) == demand_range(spec, 0, 600)
        assert host.container(cids[0]).demand is table


class TestThrottling:
    def test_full_window_throttle(self):
        host = HostSimulator(HostConfig())
        host.run_container(cpu_spec(4, peak=150), Limits(cpu=100, mem=64))  # demand always > 135
        for _ in range(10):
            host.tick()
        (row,) = host.sample_metrics().containers.values()
        assert row["throttle_pct"] == 100.0
        assert row["cpu_util"] == 100

    def test_under_limit_no_throttle(self):
        host = HostSimulator(HostConfig())
        host.run_container(cpu_spec(4, peak=80), Limits(cpu=100, mem=64))
        for _ in range(10):
            host.tick()
        (row,) = host.sample_metrics().containers.values()
        assert row["throttle_pct"] == 0.0

    def test_capacity_respected_when_fully_subscribed(self):
        host = HostSimulator(HostConfig(cpu_total=1000))
        for _ in range(3):
            host.run_container(cpu_spec(4, peak=400), Limits(cpu=300, mem=64))
        host.tick()
        states = host.running_containers()
        assert all(s.window_granted == 300 for s in states)  # sum 900 <= 1000

    def test_update_limits_changes_throttle_next_window(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(cpu_spec(4, peak=150), Limits(cpu=200, mem=64))
        for _ in range(10):
            host.tick()
        (row,) = host.sample_metrics().containers.values()
        assert row["throttle_pct"] == 0.0
        host.update_limits(cid, Limits(cpu=100, mem=64))
        for _ in range(10):
            host.tick()
        (row,) = host.sample_metrics().containers.values()
        assert row["throttle_pct"] == 100.0

    def test_identical_limit_update_is_invisible(self):
        def trace(update):
            host = HostSimulator(HostConfig(), seed=4)
            cid = host.run_container(cpu_spec(1), Limits(cpu=100, mem=64))
            rows = []
            for t in range(40):
                host.tick()
                if t == 19 and update:
                    host.update_limits(cid, Limits(cpu=100, mem=64))
                if (t + 1) % 10 == 0:
                    rows.append(host.sample_metrics().containers)
            return rows

        assert trace(False) == trace(True)


class TestBacklog:
    def test_backlog_conservation(self):
        host = HostSimulator(HostConfig(), seed=2)
        cid = host.run_container(cpu_spec(1, peak=150), Limits(cpu=60, mem=64))
        for _ in range(2000):
            host.tick()
        state = host.container(cid)
        assert state.total_demanded == state.total_granted + state.backlog

    def test_backlog_drains_when_limit_raised(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(cpu_spec(3, peak=150), Limits(cpu=50, mem=64))
        for _ in range(60):
            host.tick()
        assert host.container(cid).backlog > 0
        host.update_limits(cid, Limits(cpu=1000, mem=64))
        for _ in range(60):
            host.tick()
        assert host.container(cid).backlog == 0



def footprint(host):
    """What a refused start or update must leave as it was."""
    live = [(s.container_id, s.limits) for s in host.running_containers()]
    return host._counter, host._slack_cpu, host._slack_mem, live


class TestCapacityContract:
    """The live limits of a host never sum to more than its usable capacity."""

    @pytest.mark.parametrize("limits", [Limits(cpu=301, mem=64), Limits(cpu=100, mem=401)], ids=["cpu", "mem"])
    def test_start_over_capacity_is_refused(self, limits):
        host = HostSimulator(HostConfig(reserved_cpu=100, reserved_mem=100))  # 900 / 900 usable
        first = host.run_container(cpu_spec(1), Limits(cpu=600, mem=500))
        before = footprint(host)
        with pytest.raises(ContractViolation, match="usable capacity"):
            host.run_container(cpu_spec(1), limits)
        assert footprint(host) == before
        assert host.running_containers() == [host.container(first)]
        assert host.run_container(cpu_spec(1), Limits(cpu=300, mem=400)) == "c002@127.0.0.1"

    @pytest.mark.parametrize("limits", [Limits(cpu=501, mem=100), Limits(cpu=100, mem=601)], ids=["cpu", "mem"])
    def test_update_over_capacity_is_refused(self, limits):
        host = HostSimulator(HostConfig(reserved_cpu=100, reserved_mem=100))
        host.run_container(cpu_spec(1), Limits(cpu=400, mem=300))
        cid = host.run_container(cpu_spec(1), Limits(cpu=100, mem=100))  # 400 / 500 left
        before = footprint(host)
        with pytest.raises(ContractViolation, match="usable capacity"):
            host.update_limits(cid, limits)
        assert footprint(host) == before
        assert host.container(cid).limits == Limits(cpu=100, mem=100)

    def test_limits_summing_to_usable_capacity_are_accepted(self):
        host = HostSimulator(HostConfig(reserved_cpu=100, reserved_mem=100))
        first = host.run_container(cpu_spec(1), Limits(cpu=600, mem=500))
        second = host.run_container(mem_spec(1), Limits(cpu=300, mem=400))  # 900 / 900 of 900 / 900
        host.update_limits(first, Limits(cpu=500, mem=400))
        host.update_limits(second, Limits(cpu=400, mem=500))  # 900 / 900 again
        assert (host._slack_cpu, host._slack_mem) == (0, 0)
        assert host.quiet_until(host.now + 100) == host.now + 100
        with pytest.raises(ContractViolation):
            host.run_container(cpu_spec(1), Limits(cpu=1, mem=1))

    def test_a_dead_container_gives_its_share_back(self):
        host = HostSimulator(HostConfig())
        host.run_container(cpu_spec(1), Limits(cpu=500, mem=990))
        doomed = host.run_container(mem_spec(3), Limits(cpu=500, mem=10))  # on-phase demands 95
        assert [(e.kind, e.container_id) for e in host.tick()] == [("oom_kill", doomed)]
        host.run_container(cpu_spec(1), Limits(cpu=500, mem=10))
        with pytest.raises(ContractViolation):
            host.run_container(cpu_spec(1), Limits(cpu=1, mem=1))


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        def run(seed):
            host = HostSimulator(HostConfig(), seed=seed)
            # unthrottled, so that the noise shows in the sampled utilization
            host.run_container(cpu_spec(4), Limits(cpu=200, mem=64))
            host.run_container(mem_spec(5), Limits(cpu=100, mem=128))
            samples = []
            for t in range(1, 121):
                host.tick()
                if t % 10 == 0:
                    samples.append(host.sample_metrics())
            return samples

        assert run(33) == run(33)
        assert run(33) != run(34)  # pattern-4 noise differs across seeds


class TestLiveContainers:
    @pytest.mark.parametrize("status", [STATUS_KILLED_OOM])
    def test_registration_order_survives_a_death(self, status):
        # three containers that each want 400 mCPU while on, limited to 400, 300 and 200
        host = HostSimulator(HostConfig())
        spec = cpu_spec(3, peak=400)
        first, middle, last = (host.run_container(spec, Limits(cpu=cpu, mem=64)) for cpu in (400, 300, 200))
        host.update_limits(middle, Limits(cpu=300, mem=10))  # below its flat 20 MB
        assert [(e.kind, e.container_id) for e in host.tick()] == [("oom_kill", middle)]
        assert [s.container_id for s in host.running_containers()] == [first, last]

        sample = host.sample_metrics()
        assert list(sample.containers) == [first, last, middle]
        assert sample.containers[middle]["status"] == status
        assert [row["cpu_util"] for row in sample.containers.values()] == [400, 200, 0]

        for _ in range(5):
            assert host.tick() == []
        sample = host.sample_metrics()
        assert list(sample.containers) == [first, last]  # the dead container appeared once
        assert [row["cpu_util"] for row in sample.containers.values()] == [400, 200]
        assert host.container(middle).status == status

        live = sample.containers[last]
        assert live["throttle_pct"] == 100.0  # 400 wanted every second, 200 granted
        host.update_limits(last, Limits(cpu=150, mem=10))  # below its flat 20 MB
        assert [(e.kind, e.container_id) for e in host.tick()] == [("oom_kill", last)]
        sample = host.sample_metrics()
        assert list(sample.containers) == [first, last]
        # the final row keeps its last live sample's CPU figures and the limits it died with
        assert sample.containers[last] == {
            "t": 7,
            "container": last,
            "cpu_util": live["cpu_util"],
            "cpu_limit": 150,
            "cpu_throttle": 100.0,
            "mem_util": 0,
            "mem_limit": 10,
            "status": status,
            "throttle_pct": live["throttle_pct"],
        }

    def test_a_later_run_joins_after_the_survivors(self):
        host = HostSimulator(HostConfig())
        first, second, third = (host.run_container(cpu_spec(1), Limits(cpu=100, mem=64)) for _ in range(3))
        host.update_limits(first, Limits(cpu=100, mem=10))  # below its flat 20 MB
        assert [(e.kind, e.container_id) for e in host.tick()] == [("oom_kill", first)]
        later = host.run_container(cpu_spec(1), Limits(cpu=100, mem=64))
        assert [s.container_id for s in host.running_containers()] == [second, third, later]


# -- equivalence with the per-phase implementation ------------------------------

# Frozen copies of the earlier per-phase workload_demand and its helpers. The
# chunk fill must give the same integers entry for entry, because every
# artifact hangs on them.

REFERENCE_DIURNAL_POINTS = (
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


def reference_noise01(seed, key, phase):
    digest = hashlib.sha256(struct.pack(">q", seed) + key.encode("utf-8") + struct.pack(">q", phase)).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


def reference_pattern_level(pattern, u, noise):
    if pattern == 1:
        return 2.0 * u if u < 0.5 else 2.0 * (1.0 - u)
    if pattern == 2:
        return 0.2 if u < 0.5 else 1.0
    if pattern == 3:
        return 1.0 if u < 0.5 else 0.1
    if pattern == 4:
        return 1.0 - 0.05 * noise
    for (u0, l0), (u1, l1) in zip(REFERENCE_DIURNAL_POINTS, REFERENCE_DIURNAL_POINTS[1:]):
        if u0 <= u <= u1:
            if u1 == u0:
                return l1
            frac = (u - u0) / (u1 - u0)
            return l0 + frac * (l1 - l0)
    return REFERENCE_DIURNAL_POINTS[-1][1]


def reference_workload_demand(spec, phase_s, seed=0, key=""):
    if phase_s < 0:
        raise ValueError("phase must be >= 0")
    phase = phase_s % spec.period_s
    u = phase / spec.period_s
    noise = reference_noise01(seed, key, phase) if spec.pattern == 4 else 0.0
    amount = int(round(spec.peak * reference_pattern_level(spec.pattern, u, noise)))
    amount = min(amount, spec.peak)
    if spec.workload_class == "cpu":
        return amount, FLAT_MEM_MB
    return FLAT_CPU_MCPU, amount


PERIODS = (1, 63, 64, 65, 90, 1800, 10**9)


@st.composite
def phase_ranges(draw, period):
    """``[first, last)`` within one period, mostly near a chunk boundary or
    the period's end, at most three chunks long."""
    anchor = draw(
        st.one_of(
            st.integers(0, period),
            st.integers(0, period // CHUNK).map(lambda chunk: chunk * CHUNK),
            st.just(period),
        )
    )
    first = min(max(anchor + draw(st.integers(-CHUNK - 2, 2)), 0), period)
    last = min(first + draw(st.integers(0, 3 * CHUNK)), period)
    return first, last


class TestDemandRange:
    @given(
        pattern=st.sampled_from([1, 2, 3, 4, 5]),
        workload_class=st.sampled_from(["cpu", "mem"]),
        period=st.sampled_from(PERIODS),
        peak=st.one_of(st.integers(1, 2000), st.integers(1, 10**18)),
        seed=st.integers(-(2**63), 2**63 - 1),
        key=st.text(max_size=12),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_equals_the_per_phase_reference(self, pattern, workload_class, period, peak, seed, key, data):
        spec = WorkloadSpec(pattern=pattern, workload_class=workload_class, period_s=period, peak=peak)
        first, last = data.draw(phase_ranges(period))
        dominant = 0 if workload_class == "cpu" else 1
        want = [reference_workload_demand(spec, phase, seed, key)[dominant] for phase in range(first, last)]
        assert demand_range(spec, first, last, seed, key) == want
        laps = data.draw(st.integers(0, 10**6))
        for phase in range(first, min(last, first + 3)):
            assert workload_demand(spec, phase + laps * period, seed, key) == reference_workload_demand(
                spec, phase + laps * period, seed, key
            )

    @pytest.mark.parametrize("workload_class", ["cpu", "mem"])
    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("period", PERIODS)
    def test_chunk_crossing_ranges_equal_the_reference(self, pattern, workload_class, period):
        spec = WorkloadSpec(pattern=pattern, workload_class=workload_class, period_s=period, peak=150)
        dominant = 0 if workload_class == "cpu" else 1
        for first in sorted({min(first, period) for first in (0, CHUNK - 1, CHUNK + 1, max(period - CHUNK - 1, 0))}):
            last = min(first + 2 * CHUNK + 1, period)
            want = [reference_workload_demand(spec, phase, 3, "k")[dominant] for phase in range(first, last)]
            assert demand_range(spec, first, last, 3, "k") == want

    def test_noise_is_drawn_per_seed_and_key(self):
        spec = cpu_spec(4, peak=10**6, period=200)
        ranges = {}
        for seed in (0, 1, -1):
            for key in ("", "c001@10.0.0.1", "c002@10.0.0.1", "ü"):
                ranges[seed, key] = got = demand_range(spec, 50, 150, seed, key)
                assert got == [reference_workload_demand(spec, phase, seed, key)[0] for phase in range(50, 150)]
        assert len({tuple(r) for r in ranges.values()}) == len(ranges)

    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    def test_peak_beyond_float_precision_never_exceeded(self, pattern):
        peak = 2**54 - 1  # the float product at level 1.0 rounds up to 2**54
        spec = WorkloadSpec(pattern=pattern, workload_class="mem", period_s=20, peak=peak)
        got = demand_range(spec, 0, 20, 5, "k")
        assert got == [reference_workload_demand(spec, phase, 5, "k")[1] for phase in range(20)]
        if pattern == 4:
            assert max(got) < peak
        else:
            assert max(got) == peak

    @pytest.mark.parametrize("first, last", [(-1, 3), (5, 4), (0, 91)])
    def test_range_outside_one_period_rejected(self, first, last):
        with pytest.raises(ValueError):
            demand_range(mem_spec(1, period=90), first, last)


# -- span stepping against per-second ticks --------------------------------------

SPAN_PERIODS = (1, 63, 64, 65, 600)


@st.composite
def span_containers(draw):
    """One container to run: its spec, the ticks before it starts, and its
    limits before and after the warm-up, each below, at or above its peak."""
    workload_class = draw(st.sampled_from(["cpu", "mem"]))
    spec = WorkloadSpec(
        pattern=draw(st.sampled_from([1, 2, 3, 4, 5])),
        workload_class=workload_class,
        period_s=draw(st.sampled_from(SPAN_PERIODS)),
        peak=draw(st.integers(1, 300)),
    )
    near_peak = st.one_of(
        st.integers(1, spec.peak),
        st.sampled_from(sorted({max(spec.peak - 1, 1), spec.peak, spec.peak + 1})),
        st.integers(spec.peak, 2 * spec.peak + 40),
    )
    flat = FLAT_MEM_MB if workload_class == "cpu" else FLAT_CPU_MCPU
    flat_limit = st.one_of(st.integers(1, 2 * flat), st.sampled_from([flat - 1, flat, flat + 1]))
    # the warm-up limit is low, so that the limit after it starts on a backlog
    cpu_limits = (draw(st.integers(1, 40)), draw(near_peak if workload_class == "cpu" else flat_limit))
    mem_limits = (draw(near_peak if workload_class == "mem" else flat_limit),) * 2
    return spec, draw(st.integers(0, 150)), cpu_limits, mem_limits


def build_span_hosts(config, seed, containers, warmup):
    """A clock-driven host and a :class:`PerSecondHost`, identically built;
    the ids of the containers run on them; and ``tick_to(second)``, which
    sets the first host's clock to ``second`` and ticks it."""
    clock = [0]
    spanned = HostSimulator(config, seed=seed, device="10.0.0.1", clock=lambda: clock[0])
    ticked = PerSecondHost(config, seed=seed, device="10.0.0.1")

    def tick_to(second):
        clock[0] = second
        return spanned.tick()

    def step(host, seconds):
        for _ in range(seconds):
            if host is spanned:
                tick_to(host.now + 1)
            else:
                host.tick()

    hosts = (spanned, ticked)
    cids = []
    for spec, delay, (cpu, _), (mem, _) in containers:
        for host in hosts:
            step(host, delay)
            cid = host.run_container(spec, Limits(cpu=cpu, mem=mem))
        cids.append(cid)
    for host in hosts:
        step(host, warmup)
        for cid, (_, _, (_, cpu), (_, mem)) in zip(cids, containers):
            if host.container(cid).status == STATUS_RUNNING:
                host.update_limits(cid, Limits(cpu=cpu, mem=mem))
    return hosts, cids, tick_to


def assert_same_containers(spanned, ticked, cids):
    for cid in cids:
        a, b = spanned.container(cid), ticked.container(cid)
        for name in ContainerState.__slots__:
            if name != "demand":
                assert getattr(a, name) == getattr(b, name), (cid, name)
        # a scan may fill chunks ahead of the ticks; what both filled agrees
        common = min(len(a.demand), len(b.demand))
        assert a.demand[:common] == b.demand[:common]


class TestSpanAdvance:
    @given(
        spare=st.tuples(st.one_of(st.just(0), st.integers(0, 4000)), st.one_of(st.just(0), st.integers(0, 4000))),
        seed=st.integers(0, 2**31),
        containers=st.lists(span_containers(), min_size=1, max_size=4),
        warmup=st.one_of(st.just(0), st.integers(0, 70)),
        wakes=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_span_then_tick_equals_per_second_ticks(self, spare, seed, containers, warmup, wakes):
        # totals that hold every container at the larger of its two limits,
        # and ``spare`` more: the live limits never exceed them
        cpu = sum(max(cpu_limits) for _, _, cpu_limits, _ in containers)
        mem = sum(max(mem_limits) for _, _, _, mem_limits in containers)
        config = HostConfig(cpu_total=cpu + spare[0], mem_total=mem + spare[1])
        (spanned, ticked), cids, tick_to = build_span_hosts(config, seed, containers, warmup)
        for offset in wakes:
            now, wake = spanned.now, spanned.now + offset
            quiet = spanned.quiet_until(wake)
            assert now < quiet <= wake
            if quiet - 1 > now:
                assert tick_to(quiet - 1) == []
            for _ in range(quiet - now - 1):
                assert ticked.tick() == []
            assert spanned.now == ticked.now == quiet - 1
            assert_same_containers(spanned, ticked, cids)

            events = tick_to(quiet)
            assert ticked.tick() == events
            if quiet < wake:
                assert events, "a host is quiet until its first event"
            assert spanned.now == ticked.now == quiet
            assert_same_containers(spanned, ticked, cids)
            assert spanned.sample_metrics() == ticked.sample_metrics()

    @pytest.mark.parametrize("workload_class", ["cpu", "mem"])
    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("period", SPAN_PERIODS)
    def test_span_across_chunk_and_period_ends(self, pattern, workload_class, period):
        spec = WorkloadSpec(pattern=pattern, workload_class=workload_class, period_s=period, peak=150)
        # the second container is first stepped by a span, the first one on a backlog
        containers = [(spec, 0, (30, 140), (200, 200)), (spec, 61, (30, 200), (200, 200))]
        (spanned, ticked), cids, tick_to = build_span_hosts(HostConfig(), 3, containers, 0)
        for offset in (200, 2 * period + 1):
            wake = spanned.now + offset
            assert spanned.quiet_until(wake) == wake
            assert tick_to(wake - 1) == []
            events = tick_to(wake)
            while ticked.now < wake:
                assert ticked.tick() == []
            assert events == []
            assert_same_containers(spanned, ticked, cids)
            assert spanned.sample_metrics() == ticked.sample_metrics()


class TestSpanFallback:
    def test_cpu_container_below_its_flat_memory_ends_the_span(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(cpu_spec(1), Limits(cpu=200, mem=FLAT_MEM_MB - 1))
        assert host.quiet_until(host.now + 50) == host.now + 1
        assert [(e.kind, e.container_id) for e in host.tick()] == [("oom_kill", cid)]

    def test_mem_demand_crossing_its_limit_mid_span_is_killed_at_that_second(self):
        # the ramp demands round(95 * 2 * phase / 600), above 50 first at phase 160
        spec = mem_spec(1, period=600)
        (spanned, ticked), (cid,), tick_to = build_span_hosts(HostConfig(), 0, [(spec, 0, (100, 100), (50, 50))], 100)
        quiet = spanned.quiet_until(300)
        assert quiet == 160
        assert tick_to(quiet - 1) == []
        events = tick_to(quiet)
        while not (ticked_events := ticked.tick()):
            pass
        assert ticked.now == quiet and events == ticked_events
        (event,) = events
        assert (event.kind, event.container_id, event.t) == ("oom_kill", cid, 160)
        assert event.detail == {"demand_mem": 51, "mem_limit": 50, "reason": "limit"}
        assert spanned.container(cid).status == STATUS_KILLED_OOM
        assert spanned.sample_metrics() == ticked.sample_metrics()


# -- clock-driven ticks against per-second ticks ---------------------------------


def near_limit(spec, resource, delta):
    """A limit ``delta`` away from what ``spec`` demands of ``resource`` at
    most: its peak for the dominant resource, the flat demand otherwise."""
    if spec.workload_class == resource:
        base = spec.peak
    else:
        base = FLAT_CPU_MCPU if resource == "cpu" else FLAT_MEM_MB
    return max(base + delta, 1)


LIMIT_DELTA = st.one_of(st.integers(-2, 2), st.integers(-300, 300))
CLOCK_STEP = st.one_of(
    st.tuples(st.just("start"), span_containers()),
    st.tuples(st.just("update"), st.integers(0, 7), LIMIT_DELTA, LIMIT_DELTA),
    st.tuples(st.just("wake"), st.integers(1, 200), st.booleans()),  # the offset of the wake-up, and whether to sample
)


class TestClockedTick:
    @given(seed=st.integers(0, 2**31), steps=st.lists(CLOCK_STEP, min_size=1, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_clocked_ticks_equal_per_second_ticks(self, seed, steps):
        # a host ticked once per wake-up, to the second quiet_until gives,
        # against a host ticked every second; containers start and limits
        # change at the wake-ups, as the runner's drains do
        clock = [0]
        config = HostConfig(cpu_total=10**6, mem_total=10**6)
        clocked = HostSimulator(config, seed=seed, device="10.0.0.1", clock=lambda: clock[0])
        ticked = PerSecondHost(config, seed=seed, device="10.0.0.1")
        cids = []
        for step in steps:
            if step[0] == "start":
                spec, _, (cpu, _), (mem, _) = step[1]
                cid = clocked.run_container(spec, Limits(cpu=cpu, mem=mem))
                assert ticked.run_container(spec, Limits(cpu=cpu, mem=mem)) == cid
                cids.append(cid)
            elif step[0] == "update":
                live = [state.container_id for state in clocked.running_containers()]
                if live:
                    cid = live[step[1] % len(live)]
                    spec = clocked.container(cid).spec
                    limits = Limits(cpu=near_limit(spec, "cpu", step[2]), mem=near_limit(spec, "mem", step[3]))
                    clocked.update_limits(cid, limits)
                    ticked.update_limits(cid, limits)
            else:
                now, wake = clocked.now, clocked.now + step[1]
                clock[0] = clocked.quiet_until(wake)
                assert now < clock[0] <= wake
                events = clocked.tick()
                for _ in range(clock[0] - now - 1):
                    assert ticked.tick() == []
                assert ticked.tick() == events
                if clock[0] < wake:
                    assert events, "a host is quiet until its first event"
                assert all(event.t == clock[0] for event in events)
                assert clocked.now == ticked.now == clock[0]
                assert_same_containers(clocked, ticked, cids)
                if step[2]:
                    assert clocked.sample_metrics() == ticked.sample_metrics()
        assert clocked.sample_metrics() == ticked.sample_metrics()

    @pytest.mark.parametrize("span", [1, 2, 159, 160])
    def test_kill_exactly_at_the_clock_second(self, span):
        # the ramp demands round(95 * 2 * phase / 600), above 50 first at phase 160
        spec = mem_spec(1, period=600)
        clock = [0]
        clocked = HostSimulator(HostConfig(), clock=lambda: clock[0])
        ticked = PerSecondHost(HostConfig())
        for host in (clocked, ticked):
            cid = host.run_container(spec, Limits(cpu=100, mem=50))
            survivor = host.run_container(cpu_spec(3), Limits(cpu=100, mem=50))
        if span < 160:  # the host first ticks to the second the span starts after
            clock[0] = 160 - span
            assert clocked.quiet_until(clock[0]) == clock[0] and clocked.tick() == []
        clock[0] = 160
        assert clocked.quiet_until(160) == 160
        events = clocked.tick()
        while ticked.now < 159:
            assert ticked.tick() == []
        assert ticked.tick() == events
        (event,) = events
        assert (event.kind, event.container_id, event.t) == ("oom_kill", cid, 160)
        assert event.detail == {"demand_mem": 51, "mem_limit": 50, "reason": "limit"}
        assert clocked.container(survivor).status == STATUS_RUNNING
        assert_same_containers(clocked, ticked, [cid, survivor])
        assert clocked.sample_metrics() == ticked.sample_metrics()

    def test_tick_needs_a_clock_ahead_of_the_host(self):
        clock = [0]
        host = HostSimulator(HostConfig(), clock=lambda: clock[0])
        with pytest.raises(ValueError):
            host.tick()
        clock[0] = 5
        assert host.tick() == [] and host.now == 5
        with pytest.raises(ValueError):
            host.tick()


# -- the OOM-risk list -------------------------------------------------------------


def scanned_quiet_until(host, first_oom, wake):
    """:meth:`HostSimulator.quiet_until` as a scan of every live container
    with ``first_oom``: the oracle."""
    for state in host.running_containers():
        oom = first_oom(state, wake)
        if oom is not None:
            wake = oom
    return wake


class TestOomRisk:
    @given(
        seed=st.integers(0, 2**31),
        steps=st.lists(CLOCK_STEP, min_size=1, max_size=16),
        probes=st.lists(st.integers(1, 400), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_quiet_until_equals_a_scan_of_every_live_container(self, seed, steps, probes):
        # containers start, change limits and are killed at the wake-ups, as
        # in a run; after each step quiet_until is asked about a few wakes
        clock = [0]
        host = HostSimulator(HostConfig(cpu_total=10**6, mem_total=10**6), seed=seed, clock=lambda: clock[0])
        first_oom = host._first_oom
        looked_at = []

        def spy(state, last):
            looked_at.append(state)
            return first_oom(state, last)

        host._first_oom = spy
        for step in steps:
            if step[0] == "start":
                spec, _, (cpu, _), (mem, _) = step[1]
                host.run_container(spec, Limits(cpu=cpu, mem=mem))
            elif step[0] == "update":
                live = host.running_containers()
                if live:
                    state = live[step[1] % len(live)]
                    limits = Limits(cpu=near_limit(state.spec, "cpu", step[2]), mem=near_limit(state.spec, "mem", step[3]))
                    host.update_limits(state.container_id, limits)
            else:
                clock[0] = host.quiet_until(host.now + step[1])
                host.tick()
            for offset in probes:
                looked_at.clear()
                wake = host.now + offset
                assert host.quiet_until(wake) == scanned_quiet_until(host, first_oom, wake)
                # only the live containers that can be OOM-killed at all
                live = host.running_containers()
                assert [state for state in live if state in looked_at] == looked_at
                for state in looked_at:
                    assert state.limits.mem < (FLAT_MEM_MB if state.spec.workload_class == "cpu" else state.spec.peak)
