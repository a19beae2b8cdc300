import math
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from orchestrion.hostsim import (
    FLAT_CPU_MCPU,
    FLAT_MEM_MB,
    HostConfig,
    HostSimulator,
    STATUS_KILLED_OOM,
    STATUS_RUNNING,
    UNFILLED,
    WorkloadSpec,
    workload_demand,
)
from orchestrion.model import Limits


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


def entries(table):
    """A chunked demand table's entries, indexed by phase."""
    return list(chain.from_iterable(table))


def filled(table):
    return [phase for phase, amount in enumerate(entries(table)) if amount != UNFILLED]


class TestDemandTables:
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
        assert filled(table) == list(range(spec.period_s))
        for phase in filled(table):
            assert entries(table)[phase] == workload_demand(spec, phase, 7, cid)[dominant]

    def test_noisy_pattern_has_a_table_per_container(self):
        host = HostSimulator(HostConfig(cpu_total=4000, mem_total=4000), seed=7)
        spec = cpu_spec(4, peak=120, period=60)
        cids = [host.run_container(spec, Limits(cpu=1000, mem=100)) for _ in range(2)]
        for _ in range(45):
            host.tick()
        tables = [host.container(cid).demand for cid in cids]
        assert tables[0] != tables[1]
        for cid, table in zip(cids, tables):
            assert filled(table) == list(range(1, 46))
            for phase in filled(table):
                assert entries(table)[phase] == workload_demand(spec, phase, 7, cid)[0]

    def test_other_patterns_share_a_table_per_spec(self):
        host = HostSimulator(HostConfig(cpu_total=4000, mem_total=4000))
        first = host.run_container(mem_spec(1), Limits(cpu=100, mem=150))
        host.tick()
        second = host.run_container(mem_spec(1), Limits(cpu=100, mem=150))
        other = host.run_container(mem_spec(1, period=600), Limits(cpu=100, mem=150))
        assert host.container(first).demand is host.container(second).demand
        assert host.container(first).demand is not host.container(other).demand

    def test_container_killed_on_first_tick_fills_only_that_phase(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(3), Limits(cpu=50, mem=10))
        assert [e.kind for e in host.tick()] == ["oom_kill"]
        for _ in range(20):
            host.tick()
        assert filled(host.container(cid).demand) == [1]

    def test_table_grows_with_the_phases_reached(self):
        host = HostSimulator(HostConfig())
        cid = host.run_container(mem_spec(1, period=10**9), Limits(cpu=100, mem=150))
        for _ in range(5):
            host.tick()
        assert filled(host.container(cid).demand) == [1, 2, 3, 4, 5]
        assert len(host.container(cid).demand) == 1  # one chunk of phases


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

    @given(limit=st.integers(min_value=10, max_value=400), ticks=st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_grant_never_exceeds_capacity(self, limit, ticks):
        host = HostSimulator(HostConfig(cpu_total=500), seed=7)
        for i in range(3):
            host.run_container(cpu_spec(3 if i % 2 else 4, peak=300), Limits(cpu=limit, mem=64))
        for _ in range(ticks):
            host.tick()
            granted_this_tick = sum(s.window_granted for s in host.running_containers())
            assert granted_this_tick <= 500 * ticks  # loose cumulative bound
        per_window = host.sample_metrics()
        assert sum(r["cpu_util"] for r in per_window.containers.values()) <= 500


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        def run(seed):
            host = HostSimulator(HostConfig(), seed=seed)
            host.run_container(cpu_spec(4), Limits(cpu=100, mem=64))
            host.run_container(mem_spec(5), Limits(cpu=100, mem=128))
            samples = []
            for t in range(1, 121):
                host.tick()
                if t % 10 == 0:
                    samples.append(host.sample_metrics())
            return samples

        assert run(33) == run(33)
        assert run(33) != run(34)  # pattern-4 noise differs across seeds
