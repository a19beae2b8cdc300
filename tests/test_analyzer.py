import math

from hypothesis import given, settings, strategies as st

from orchestrion.analyzer import (
    Analyzer,
    PredictionSet,
    account_optimization,
    admit,
    optimize_cpu,
    optimize_memory,
    predict_availability,
)
from orchestrion.builtins import BUILTIN_SCENARIOS, builtin_scenario
from orchestrion.forecaster import ForecastResult
from orchestrion.model import Limits, OptimizationPolicy, Resource
from orchestrion.scenario import run_scenario

from test_golden import off_cadence_scenario

POLICY = OptimizationPolicy()  # scale_up 50/20, scale_down 100/20, buffer/margin 1.1


def pred_with(cpu_avail, mem_avail):
    pred = PredictionSet()
    pred.avail = {Resource.CPU: float(cpu_avail), Resource.MEM: float(mem_avail)}
    return pred


class TestPredictAvailability:
    def test_no_containers_full_capacity(self):
        pred = predict_availability({}, {}, totals=Limits(cpu=1000, mem=400))
        assert pred.avail[Resource.MEM] == 400.0
        assert pred.avail[Resource.CPU] == 1000.0

    def test_two_containers_at_current_limits(self):
        forecasts = {
            "c1": ForecastResult(cpu_util=[20.0], mem_util=[95.0], throttle_pct=[0.0]),
            "c2": ForecastResult(cpu_util=[20.0], mem_util=[95.0], throttle_pct=[0.0]),
        }
        currents = {"c1": Limits(cpu=100, mem=150), "c2": Limits(cpu=100, mem=150)}
        pred = predict_availability(forecasts, currents, totals=Limits(cpu=1000, mem=400))
        assert pred.avail[Resource.MEM] == 400.0 - 150.0 - 150.0

    def test_forecast_above_limit_dominates(self):
        forecasts = {"c1": ForecastResult(cpu_util=[160.0], mem_util=[10.0], throttle_pct=[0.0])}
        currents = {"c1": Limits(cpu=100, mem=64)}
        pred = predict_availability(forecasts, currents, totals=Limits(cpu=1000, mem=1000))
        assert pred.peaks["c1"][Resource.CPU] == 160.0
        assert pred.avail[Resource.CPU] == 840.0

    def test_missing_forecast_uses_limit_or_observation(self):
        currents = {"c1": Limits(cpu=100, mem=64)}
        observed = {"c1": {"cpu_util": 120.0, "mem_util": 30.0}}
        pred = predict_availability({}, currents, Limits(cpu=1000, mem=1000), last_observed=observed)
        assert pred.peaks["c1"][Resource.CPU] == 120.0  # observation above limit
        assert pred.peaks["c1"][Resource.MEM] == 64.0  # limit above observation

    def test_reserve_subtracted_and_negative_reported(self):
        currents = {"c1": Limits(cpu=100, mem=300)}
        pred = predict_availability({}, currents, Limits(cpu=1000, mem=1000), reserve=Limits(cpu=0, mem=800))
        assert pred.avail[Resource.MEM] == -100.0  # reported, never floored


class TestAdmission:
    def test_accept_below_availability(self):
        verdict = admit(Limits(cpu=10, mem=150), pred_with(1000, 250))
        assert verdict.accepted

    def test_equality_rejects(self):
        verdict = admit(Limits(cpu=10, mem=100), pred_with(1000, 100))
        assert not verdict.accepted
        assert "mem" in verdict.reason

    def test_cpu_accept_example(self):
        assert admit(Limits(cpu=50, mem=1), pred_with(95, 1000)).accepted

    def test_any_resource_failing_rejects(self):
        assert not admit(Limits(cpu=500, mem=10), pred_with(400, 1000)).accepted

    @given(
        cpu=st.integers(min_value=0, max_value=1000),
        mem=st.integers(min_value=0, max_value=1000),
        d_cpu=st.integers(min_value=0, max_value=200),
        d_mem=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_admission(self, cpu, mem, d_cpu, d_mem):
        pred = pred_with(700, 600)
        big = Limits(cpu=cpu + d_cpu, mem=mem + d_mem)
        small = Limits(cpu=cpu, mem=mem)
        if admit(big, pred).accepted:
            assert admit(small, pred).accepted


class TestOptimizeMemory:
    def test_downscale_one_step(self):
        assert optimize_memory(150, 95.0, POLICY) == 130  # 130 >= 104.5

    def test_upscale_when_margin_exceeded(self):
        assert optimize_memory(100, 98.0, POLICY) == 120  # 107.8 > 100

    def test_margin_guard_keeps_current(self):
        policy = OptimizationPolicy(scale_down=Limits(cpu=100, mem=50))
        assert optimize_memory(150, 95.0, policy) == 150  # candidate 100 < 104.5

    def test_upscale_clamped_to_mem_max(self):
        assert optimize_memory(490, 480.0, POLICY) == 500

    def test_downscale_clamped_to_mem_min(self):
        policy = OptimizationPolicy(scale_down=Limits(cpu=100, mem=230))
        assert optimize_memory(250, 10.0, policy) == policy.mem_min  # candidate 20 floored to 32

    def test_exact_margin_boundary_not_upscaled(self):
        # peak * margin == current must not trigger (float slop forgiven)
        assert optimize_memory(110, 100.0, POLICY) == 110

    @given(current=st.integers(min_value=32, max_value=500), peak=st.floats(min_value=0, max_value=500))
    @settings(max_examples=300, deadline=None)
    def test_downscale_never_lands_below_margin(self, current, peak):
        target = optimize_memory(current, peak, POLICY)
        if target < current:  # a downscale happened
            assert target + 1e-9 >= min(peak * POLICY.mem_margin, current - POLICY.scale_down.mem)
            assert target >= POLICY.mem_min


class TestOptimizeCpu:
    def test_upscale_on_predicted_utilization(self):
        assert optimize_cpu(100, 120.0, 0.0, POLICY, cpu_cap=1000) == 150

    def test_minor_upscale_from_throttle(self):
        # adjusted step = 50 * 40 / 100 = 20
        assert optimize_cpu(100, 90.0, 40.0, POLICY, cpu_cap=1000) == 120

    def test_buffer_floor_on_downscale(self):
        assert optimize_cpu(200, 100.0, 0.0, POLICY, cpu_cap=1000) == 110  # 100 * 1.1

    def test_downscale_steps_before_buffer_floor_matters(self):
        assert optimize_cpu(300, 50.0, 0.0, POLICY, cpu_cap=1000) == 200  # 300-100 > 55

    def test_overturned_when_floor_at_or_above_current(self):
        assert optimize_cpu(110, 105.0, 0.0, POLICY, cpu_cap=1000) == 110  # floor 116 > current
        assert optimize_cpu(160, 150.0, 0.0, POLICY, cpu_cap=1000) == 160  # floor 165 > current

    def test_upscale_clamped_to_host(self):
        assert optimize_cpu(980, 1200.0, 0.0, POLICY, cpu_cap=1000) == 1000

    @given(
        current=st.integers(min_value=10, max_value=1000),
        peak=st.floats(min_value=0, max_value=900),
        throttle=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_guard_correctness(self, current, peak, throttle):
        target = optimize_cpu(current, peak, throttle, POLICY, cpu_cap=1000)
        if target < current:  # only the downscale branch lowers the limit
            assert target >= math.ceil(peak * POLICY.cpu_buffer - 1e-9) or target == current - POLICY.scale_down.cpu
            assert target + 1e-9 >= peak * POLICY.cpu_buffer or target == current - POLICY.scale_down.cpu

    def test_fixed_point_reached(self):
        limit = 300
        for _ in range(10):
            limit = optimize_cpu(limit, 150.0, 0.0, POLICY, cpu_cap=1000)
        assert limit == 165  # ceil(150 * 1.1)
        assert optimize_cpu(limit, 150.0, 0.0, POLICY, cpu_cap=1000) == limit


class TestAccounting:
    def test_upscale_reduces_availability(self):
        pred = pred_with(300, 500)
        account_optimization(pred, {Resource.CPU: 50})
        assert pred.avail[Resource.CPU] == 250.0

    def test_downscale_frees_availability(self):
        pred = pred_with(300, 500)
        account_optimization(pred, {Resource.MEM: -40})
        assert pred.avail[Resource.MEM] == 540.0

    def test_zero_delta_no_change(self):
        pred = pred_with(300, 500)
        account_optimization(pred, {Resource.CPU: 0, Resource.MEM: 0})
        assert pred.avail == {Resource.CPU: 300.0, Resource.MEM: 500.0}

    def test_conservation_over_a_cycle(self):
        pred = pred_with(1000, 1000)
        deltas = [{Resource.CPU: 50}, {Resource.CPU: -100}, {Resource.MEM: 20}, {Resource.CPU: 30}]
        for delta in deltas:
            account_optimization(pred, delta)
        assert pred.avail[Resource.CPU] == 1000.0 - (50 - 100 + 30)
        assert pred.avail[Resource.MEM] == 1000.0 - 20


def test_containers_without_a_usable_forecast_have_no_samples(monkeypatch):
    """The analyzer stands a container without a usable forecast in by its
    current limit alone. That holds only while such a container has no stored
    sample: its forecast was unknown, or it was registered after the forecast
    was requested, both within one drain that no scrape interrupts. A change
    that lets a forecast response arrive after a scrape breaks this first."""
    availability = Analyzer._availability
    unforecast = []

    def checked(analyzer, forecasts):
        for record in analyzer.knowledge.active():
            forecast = forecasts.get(record.container_id)
            usable = forecast is not None and not forecast.error and forecast.cpu_util and forecast.mem_util
            if not usable:
                unforecast.append(record.container_id)
                assert analyzer.metrics.last(record.container_id) is None, record.container_id
        return availability(analyzer, forecasts)

    monkeypatch.setattr(Analyzer, "_availability", checked)
    for scenario in [builtin_scenario(name) for name in sorted(BUILTIN_SCENARIOS)] + [off_cadence_scenario()]:
        run_scenario(scenario)
    assert unforecast, "some decision must meet a container without a usable forecast"
