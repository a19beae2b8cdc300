import math

from hypothesis import given, settings, strategies as st

from orchestrion.analyzer import (
    Analyzer,
    account_optimization,
    admit,
    optimize_cpu,
    optimize_memory,
    predict_availability,
)
from orchestrion.builtins import BUILTIN_SCENARIOS, builtin_scenario
from orchestrion.bus import Action, EventSpine, Message, MessageBus, TOPIC_ANALYZE
from orchestrion.forecaster import ForecastConfig, ForecastResult, Forecaster
from orchestrion.hostsim import HostConfig, HostSimulator
from orchestrion.model import Limits, OptimizationPolicy
from orchestrion.monitor import MetricsStore
from orchestrion.scenario import run_scenario

from test_golden import off_cadence_scenario

POLICY = OptimizationPolicy()  # scale_up 50/20, scale_down 100/20, buffer/margin 1.1


def avail_of(cpu_avail, mem_avail):
    return {"cpu": float(cpu_avail), "mem": float(mem_avail)}


class TestPredictAvailability:
    def test_no_containers_full_capacity(self):
        avail = predict_availability({}, {}, capacity=Limits(cpu=1000, mem=400))
        assert avail["mem"] == 400.0
        assert avail["cpu"] == 1000.0

    def test_two_containers_at_current_limits(self):
        forecasts = {
            "c1": ForecastResult(cpu_util=[20.0], mem_util=[95.0], throttle_pct=[0.0]),
            "c2": ForecastResult(cpu_util=[20.0], mem_util=[95.0], throttle_pct=[0.0]),
        }
        currents = {"c1": Limits(cpu=100, mem=150), "c2": Limits(cpu=100, mem=150)}
        avail = predict_availability(forecasts, currents, capacity=Limits(cpu=1000, mem=400))
        assert avail["mem"] == 400.0 - 150.0 - 150.0

    def test_forecast_above_limit_dominates(self):
        forecasts = {"c1": ForecastResult(cpu_util=[160.0], mem_util=[10.0], throttle_pct=[0.0])}
        currents = {"c1": Limits(cpu=100, mem=64)}
        avail = predict_availability(forecasts, currents, capacity=Limits(cpu=1000, mem=1000))
        assert avail["cpu"] == 840.0  # 1000 - 160: the forecast peak, not the 100 limit
        assert avail["mem"] == 936.0  # 1000 - 64: the limit, not the 10 forecast

    def test_missing_forecast_counts_the_current_limit(self):
        currents = {"c1": Limits(cpu=100, mem=64), "c2": Limits(cpu=50, mem=32)}
        forecasts = {"c2": ForecastResult(cpu_util=[500.0], mem_util=[500.0], error="fit failed")}
        avail = predict_availability(forecasts, currents, Limits(cpu=1000, mem=1000))
        assert avail == {"cpu": 850.0, "mem": 904.0}

    def test_negative_availability_reported(self):
        currents = {"c1": Limits(cpu=100, mem=300)}
        avail = predict_availability({}, currents, Limits(cpu=1000, mem=200))
        assert avail["mem"] == -100.0  # reported, never floored

    def test_peak_is_the_running_maximum_of_limit_and_forecast(self):
        # the peak was written max(max(current, value) for value in series);
        # both forms replace the running maximum only with a strictly greater
        # value, so they pick the same float, NaN and signed zeros included
        nan, inf = float("nan"), float("inf")
        cases = ([nan], [nan, 5.0], [5.0, nan], [0.0, -0.0], [-0.0, 0.0], [-0.0], [-inf, inf], [inf, nan], [2.0, 2.0])
        for series in cases:
            for current in (0.0, -0.0, 2.0, nan, inf, -inf):
                assert repr(max(current, *series)) == repr(max(max(current, value) for value in series))
            forecasts = {"c1": ForecastResult(cpu_util=series, mem_util=series, throttle_pct=[0.0])}
            avail = predict_availability(forecasts, {"c1": Limits(cpu=100, mem=50)}, Limits(cpu=1000, mem=500))
            for res, limit, total in (("cpu", 100.0, 1000.0), ("mem", 50.0, 500.0)):
                assert repr(avail[res]) == repr(total - max(max(limit, value) for value in series))


class TestAdmission:
    def test_accept_below_availability(self):
        verdict = admit(Limits(cpu=10, mem=150), avail_of(1000, 250))
        assert verdict.accepted

    def test_equality_rejects(self):
        verdict = admit(Limits(cpu=10, mem=100), avail_of(1000, 100))
        assert not verdict.accepted
        assert "mem" in verdict.reason

    def test_cpu_accept_example(self):
        assert admit(Limits(cpu=50, mem=1), avail_of(95, 1000)).accepted

    def test_any_resource_failing_rejects(self):
        assert not admit(Limits(cpu=500, mem=10), avail_of(400, 1000)).accepted

    @given(
        cpu=st.integers(min_value=0, max_value=1000),
        mem=st.integers(min_value=0, max_value=1000),
        d_cpu=st.integers(min_value=0, max_value=200),
        d_mem=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_admission(self, cpu, mem, d_cpu, d_mem):
        avail = avail_of(700, 600)
        big = Limits(cpu=cpu + d_cpu, mem=mem + d_mem)
        small = Limits(cpu=cpu, mem=mem)
        if admit(big, avail).accepted:
            assert admit(small, avail).accepted


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
        avail = avail_of(300, 500)
        account_optimization(avail, {"cpu": 50})
        assert avail["cpu"] == 250.0

    def test_downscale_frees_availability(self):
        avail = avail_of(300, 500)
        account_optimization(avail, {"mem": -40})
        assert avail["mem"] == 540.0

    def test_zero_delta_no_change(self):
        avail = avail_of(300, 500)
        account_optimization(avail, {"cpu": 0, "mem": 0})
        assert avail == {"cpu": 300.0, "mem": 500.0}

    def test_conservation_over_a_cycle(self):
        avail = avail_of(1000, 1000)
        deltas = [{"cpu": 50}, {"cpu": -100}, {"mem": 20}, {"cpu": 30}]
        for delta in deltas:
            account_optimization(avail, delta)
        assert avail["cpu"] == 1000.0 - (50 - 100 + 30)
        assert avail["mem"] == 1000.0 - 20


# -- equivalence with the enum-keyed implementation ---------------------------------

# Frozen copies of the earlier availability and admission arithmetic, which
# keyed resources by an enum and could subtract a reserve and fall back to a
# last observation. Called as the analyzer called them (no reserve, no
# observation), the current ones must give the same floats bit for bit and
# the same verdicts, because every admission and cycle event carries them.


def reference_predict_availability(forecasts, currents, totals, reserve=None, last_observed=None):
    reserve = reserve or Limits(cpu=0, mem=0)
    last_observed = last_observed or {}
    avail = {"cpu": float(totals.cpu - reserve.cpu), "mem": float(totals.mem - reserve.mem)}
    for cid, limits in currents.items():
        forecast = forecasts.get(cid)
        for res, metric in (("cpu", "cpu_util"), ("mem", "mem_util")):
            current = float(getattr(limits, res))
            series = getattr(forecast, metric, None) if forecast is not None and not getattr(forecast, "error", None) else None
            if series:
                peak = max(max(current, value) for value in series)
            else:
                observed = float((last_observed.get(cid) or {}).get(metric, 0.0))
                peak = max(current, observed)
            avail[res] -= peak
    return avail


def reference_admit(target, avail):
    for res in ("cpu", "mem"):
        if not float(getattr(target, res)) < avail[res]:
            return "reject", f"insufficient {res}: target {getattr(target, res)} vs predicted {avail[res]:g}"
    return "accept", ""


amounts = st.integers(min_value=0, max_value=5000)
limits_st = st.builds(Limits, cpu=amounts, mem=amounts)
# fractional values, values below a limit, and diverged values far above one
series_st = st.lists(
    st.one_of(
        st.floats(min_value=0, max_value=300, allow_nan=False),
        st.integers(min_value=0, max_value=5000).map(float),
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
    ),
    max_size=6,
)
forecast_st = st.one_of(
    st.none(),
    st.builds(ForecastResult, cpu_util=series_st, mem_util=series_st, throttle_pct=series_st),
    st.builds(ForecastResult, cpu_util=series_st, mem_util=series_st, error=st.just("not enough history")),
)


@st.composite
def decision_inputs(draw):
    cids = draw(st.lists(st.sampled_from([f"c{i:03d}" for i in range(8)]), unique=True, max_size=8))
    currents = {cid: draw(limits_st) for cid in cids}
    # a container may have no entry at all, or a None one
    forecasts = {cid: draw(forecast_st) for cid in cids if draw(st.booleans())}
    return forecasts, currents, draw(limits_st), draw(limits_st)


class TestMatchesReference:
    @given(decision_inputs())
    @settings(max_examples=400, deadline=None)
    def test_availability_and_verdict_match_reference(self, inputs):
        forecasts, currents, capacity, target = inputs
        want = reference_predict_availability(forecasts, currents, capacity)
        got = predict_availability(forecasts, currents, capacity)
        assert list(got) == ["cpu", "mem"]
        assert repr(got) == repr(want)
        verdict = admit(target, got)
        assert (verdict.decision, verdict.reason) == reference_admit(target, want)

    @given(decision_inputs(), st.dictionaries(st.sampled_from(["mem", "cpu"]), st.integers(-500, 500)))
    @settings(max_examples=200, deadline=None)
    def test_accounting_matches_reference(self, inputs, deltas):
        forecasts, currents, capacity, _ = inputs
        want = reference_predict_availability(forecasts, currents, capacity)
        for res, delta in deltas.items():
            want[res] -= delta
        got = predict_availability(forecasts, currents, capacity)
        account_optimization(got, deltas)
        assert repr(got) == repr(want)


def test_containers_without_a_usable_forecast_have_no_samples(monkeypatch):
    """The analyzer stands a container without a usable forecast in by its
    current limit alone. That holds only while such a container has no stored
    sample: its forecast was unknown, or it was registered after the forecast
    was requested, both within one drain that no scrape interrupts. A change
    that lets a forecast response arrive after a scrape breaks this first."""
    availability = Analyzer._availability
    unforecast = []

    def checked(analyzer, forecasts):
        for state in analyzer.host.running_containers():
            forecast = forecasts.get(state.container_id)
            usable = forecast is not None and not forecast.error and forecast.cpu_util and forecast.mem_util
            if not usable:
                unforecast.append(state.container_id)
                assert state.container_id not in analyzer.metrics, state.container_id
        return availability(analyzer, forecasts)

    monkeypatch.setattr(Analyzer, "_availability", checked)
    for scenario in [builtin_scenario(name) for name in sorted(BUILTIN_SCENARIOS)] + [off_cadence_scenario()]:
        run_scenario(scenario)
    assert unforecast, "some decision must meet a container without a usable forecast"


def test_admission_starts_from_the_hosts_usable_capacity():
    """An analyzer on a host with a reserve admits against the host's usable
    capacity, its totals less the reserve, and never against the totals."""
    spine = EventSpine()
    bus = MessageBus("10.0.0.1", spine)
    config = HostConfig(cpu_total=1000, mem_total=1000, reserved_cpu=200, reserved_mem=850)
    host = HostSimulator(config, device="10.0.0.1")
    store = MetricsStore(retention_s=7200)
    Forecaster(bus, store, ForecastConfig(bucket_s=60))
    events = []
    Analyzer(bus, host, store, POLICY, horizon=3, emit=events.append)
    targets = [(100, 149), (100, 150), (100, 500), (799, 100), (800, 100)]
    for index, (cpu, mem) in enumerate(targets):
        bus.publish(
            TOPIC_ANALYZE,
            Message(
                action=Action.DEPLOYMENT_ANALYSIS_REQUEST,
                payload={
                    "deployment_id": f"d{index}",
                    "analysis_id": f"a{index}",
                    "target": {"cpu": cpu, "mem": mem},
                    "role": "request",
                    "attempt": 1,
                },
                correlation_id=f"a{index}",
            ),
        )
    spine.drain()
    assert [e["verdict"] for e in events] == ["accept", "reject", "reject", "accept", "reject"]
    assert all(e["avail"] == {"cpu": 800.0, "mem": 150.0} for e in events)
