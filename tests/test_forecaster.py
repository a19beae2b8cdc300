import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orchestrion import forecaster
from orchestrion.bus import Action, EventSpine, Message, MessageBus
from orchestrion.forecaster import (
    NON_FINITE_SERIES,
    ForecastConfig,
    Forecaster,
    _lag_rows,
    aggregate_buckets,
    ar_forecast,
    ar_forecast_many,
    clip_series,
)
from orchestrion.monitor import METRICS, MetricsStore

from conftest import collect


class TestAggregation:
    def test_hour_of_constant_samples_is_one_point(self):
        points = [(t, 50.0) for t in range(3600)]
        assert aggregate_buckets(points, 3600) == [50.0]

    def test_alternating_hour_averages(self):
        points = [(t, 0.0 if t % 2 == 0 else 100.0) for t in range(3600)]
        assert aggregate_buckets(points, 3600) == [50.0]

    def test_ninety_minutes_gives_two_points(self):
        points = [(t, 10.0) for t in range(0, 5400, 10)]
        assert len(aggregate_buckets(points, 3600)) == 2

    def test_empty_series_errors(self):
        with pytest.raises(ValueError):
            aggregate_buckets([], 60)

    def test_non_monotone_errors(self):
        with pytest.raises(ValueError):
            aggregate_buckets([(10, 1.0), (5, 2.0)], 60)

    def test_bucket_means(self):
        points = [(0, 10.0), (30, 20.0), (60, 40.0)]
        assert aggregate_buckets(points, 60) == [15.0, 40.0]


class TestForecast:
    def test_constant_series_fixpoint(self):
        forecast, fallback = ar_forecast([80.0] * 12, horizon=3)
        assert forecast == [80.0, 80.0, 80.0]
        assert not fallback

    def test_linear_ramp_extrapolates(self):
        series = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        forecast, fallback = ar_forecast(series, horizon=2)
        assert forecast[0] == pytest.approx(110.0, abs=1e-9)
        assert forecast[1] == pytest.approx(120.0, abs=1e-9)
        assert not fallback

    def test_short_history_falls_back_to_last_value(self):
        forecast, fallback = ar_forecast([5.0, 6.0, 7.0, 8.0], horizon=4)
        assert forecast == [8.0] * 4
        assert fallback

    def test_horizon_length_exact(self):
        for horizon in (1, 3, 8):
            forecast, _ = ar_forecast([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 9.0, 2.0], horizon)
            assert len(forecast) == horizon

    def test_shift_invariance(self):
        series = [3.0, 7.0, 4.0, 9.0, 6.0, 8.0, 5.0, 10.0, 7.0, 11.0, 6.0]
        base, _ = ar_forecast(series, horizon=4)
        shifted, _ = ar_forecast([v + 100.0 for v in series], horizon=4)
        for a, b in zip(base, shifted):
            assert b - a == pytest.approx(100.0, abs=1e-6)

    def test_empty_and_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            ar_forecast([], 1)
        with pytest.raises(ValueError):
            ar_forecast([1.0, 2.0], 0)

    def test_clip_series(self):
        assert clip_series([-5.0, 50.0, 120.0], lo=0.0, hi=100.0) == [0.0, 50.0, 100.0]


def build_service(bucket_s=60):
    spine = EventSpine()
    bus = MessageBus("10.0.0.1", spine)
    store = MetricsStore(retention_s=100_000)
    service = Forecaster(bus, store, ForecastConfig(bucket_s=bucket_s))
    return spine, bus, store, service


class TestForecastService:
    def fill(self, store, cid, values):
        for i, value in enumerate(values):
            store.append(cid, i * 10, {"cpu_util": value, "mem_util": value, "throttle_pct": 0.0})

    def test_response_has_one_entry_per_container(self):
        spine, bus, store, _ = build_service()
        self.fill(store, "c1", [50.0] * 60)
        self.fill(store, "c2", [30.0] * 60)
        replies = collect(bus, "forecast")
        bus.publish(
            "forecast",
            Message(
                action=Action.FORECAST_REQUEST,
                payload={"containers": ["c1", "c2"], "horizon": 3},
                correlation_id="fc-1",
            ),
        )
        spine.drain()
        responses = [m for m in replies if m.action is Action.FORECAST_RESPONSE]
        assert len(responses) == 1
        results = responses[0].payload["results"]
        assert set(results) == {"c1", "c2"}

    def test_correlation_id_echoed_and_ordered_after_request(self):
        spine, bus, store, _ = build_service()
        self.fill(store, "c1", [10.0] * 30)
        watcher = collect(bus, "forecast")
        bus.publish(
            "forecast",
            Message(action=Action.FORECAST_REQUEST, payload={"containers": ["c1"], "horizon": 3}, correlation_id="fc-42"),
        )
        spine.drain()
        actions = [m.action for m in watcher]
        assert actions == [Action.FORECAST_REQUEST, Action.FORECAST_RESPONSE]
        response = [e for e in bus.spine.log if e["action"] == "forecast_response"][-1]
        assert response["correlation_id"] == "fc-42"

    def test_unknown_container_gets_error_entry(self):
        spine, bus, store, service = build_service()
        self.fill(store, "c1", [10.0] * 30)
        result = service.forecast_container("ghost", 3)
        assert result.error == "unknown container"

    def test_throttle_clipped_to_percent_range(self):
        spine, bus, store, service = build_service(bucket_s=10)
        for i in range(20):
            store.append("c1", i * 10, {"cpu_util": 1.0, "mem_util": 1.0, "throttle_pct": min(100.0, 60.0 + 5 * i)})
        result = service.forecast_container("c1", 5)
        assert all(0.0 <= v <= 100.0 for v in result.throttle_pct)
        assert all(v >= 0.0 for v in result.cpu_util)

    def test_fallback_flag_on_short_series(self):
        spine, bus, store, service = build_service(bucket_s=1000)
        self.fill(store, "c1", [10.0, 20.0])
        result = service.forecast_container("c1", 2)
        assert result.fallback

    def test_response_equals_each_container_forecast_alone(self):
        spine, bus, store, service = build_service()
        rng = random.Random("request")
        # equal and different bucket counts, a short history, a constant one
        # and an unknown container, in one request
        for cid, kind, n in (("c1", "noisy", 130), ("c2", "divergent", 130), ("c3", "float", 95),
                             ("c4", "int", 40), ("c5", "constant", 130), ("c6", "ramp", 95)):
            for i, value in enumerate(random_series(rng, kind, n)):
                store.append(cid, i * 7, {"cpu_util": value, "mem_util": abs(value) * 0.5, "throttle_pct": value % 101})
        cids = ["c3", "ghost", "c1", "c2", "c4", "c5", "c6"]
        replies = collect(bus, "forecast")
        bus.publish(
            "forecast",
            Message(action=Action.FORECAST_REQUEST, payload={"containers": cids, "horizon": 4}, correlation_id="fc"),
        )
        spine.drain()
        [response] = [m for m in replies if m.action is Action.FORECAST_RESPONSE]
        fresh = Forecaster(MessageBus("10.0.0.2", EventSpine()), store, service.config)
        want = {cid: fresh.forecast_container(cid, 4).as_dict() for cid in cids}
        assert repr(response.payload["results"]) == repr(want)
        assert response.payload["results"]["ghost"]["error"] == "unknown container"

    def test_inline_clipping_is_clip_series(self, monkeypatch):
        special = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), -5.0, 42.5, 100.0, 100.5, 150.0, 1e300]
        spine, bus, store, service = build_service()
        self.fill(store, "c1", [10.0] * 30)
        monkeypatch.setattr(
            forecaster, "ar_forecast_many", lambda series, horizon, config: [(list(special), False)] * len(series)
        )
        result = service.forecast_container("c1", len(special))
        assert repr(result.cpu_util) == repr(clip_series(special, 0.0))
        assert repr(result.mem_util) == repr(clip_series(special, 0.0))
        assert repr(result.throttle_pct) == repr(clip_series(special, 0.0, 100.0))
        assert result.fallback is False

    @pytest.mark.parametrize("metric_that_falls_back", range(3))
    def test_one_metric_falling_back_marks_the_result(self, monkeypatch, metric_that_falls_back):
        spine, bus, store, service = build_service()
        self.fill(store, "c1", [10.0] * 30)
        calls = []

        def fit(series, horizon, config):
            calls.append(series)
            return [([1.0] * horizon, k == metric_that_falls_back) for k in range(len(series))]

        monkeypatch.setattr(forecaster, "ar_forecast_many", fit)
        assert service.forecast_container("c1", 2).fallback is True
        assert [len(series) for series in calls] == [3]


# -- equivalence with the numpy-first implementation ------------------------------

# Frozen copies of the earlier aggregate_buckets and ar_forecast. The current
# ones must give the same floats bit for bit, because every artifact hangs on
# them.


def reference_aggregate_buckets(points, bucket_s):
    if not points:
        raise ValueError("cannot aggregate an empty series")
    t0 = points[0][0]
    last_t = t0
    sums = []
    counts = []
    for t, value in points:
        if t < last_t:
            raise ValueError("series timestamps must be monotone")
        last_t = t
        idx = (t - t0) // bucket_s
        while len(sums) <= idx:
            sums.append(0.0)
            counts.append(0)
        sums[idx] += float(value)
        counts[idx] += 1
    return [s / c for s, c in zip(sums, counts) if c > 0]


def reference_ar_forecast(values, horizon, config=None):
    config = config or ForecastConfig()
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not values:
        raise ValueError("cannot forecast from an empty series")
    y = np.asarray(values, dtype=float)
    if y.size < config.min_points:
        return [float(y[-1])] * horizon, True
    z = np.diff(y)
    if np.ptp(z) == 0.0:
        step = float(z.mean()) if z.size else 0.0
        return [float(y[-1] + step * (k + 1)) for k in range(horizon)], False
    p = 5
    rows = z.size - p
    design = np.empty((rows, p), dtype=float)
    for lag in range(1, p + 1):
        design[:, lag - 1] = z[p - lag:z.size - lag]
    target = z[p:]
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=1e-8)
    history = list(z[-p:][::-1])
    level = float(y[-1])
    out = []
    for _ in range(horizon):
        step = float(np.dot(coeffs, history))
        level += step
        out.append(level)
        history = [step] + history[:-1]
    return out, False


SERIES_KINDS = (
    "int", "float", "constant", "constant_int", "signed_zero", "drift", "drift_int", "accumulated", "ramp", "noisy",
    "divergent",
)


def random_series(rng, kind, n):
    if kind == "int":
        return [rng.randint(0, 200) for _ in range(n)]
    if kind == "float":
        return [rng.uniform(0.0, 150.0) for _ in range(n)]
    if kind == "constant":
        return [rng.uniform(0.0, 150.0)] * n
    if kind == "constant_int":
        return [rng.randint(0, 200)] * n
    if kind == "drift":  # exactly representable steps: a flat nonzero difference
        start, step = rng.randint(0, 100) + 0.5, rng.choice((-1.25, 0.5, 2.0, 3.75))
        return [start + step * i for i in range(n)]
    if kind == "signed_zero":
        return [rng.choice((0.0, -0.0)) for _ in range(n)]
    if kind == "accumulated":  # equal steps added in float: differences equal or off by rounding
        values = [rng.uniform(-1.0, 50.0)]
        step = rng.uniform(-5.0, 5.0)
        while len(values) < n:
            values.append(values[-1] + step)
        return values
    if kind == "drift_int":
        start, step = rng.randint(0, 100), rng.randint(-5, 5)
        return [start + step * i for i in range(n)]
    if kind == "ramp":  # up then down, with float rounding in the steps
        slope = rng.uniform(0.1, 7.0)
        top = rng.randint(1, max(1, n))
        return [slope * (i if i < top else 2 * top - i) for i in range(n)]
    if kind == "divergent":
        # differences that sum four damped modes and one that grows 10 to 25
        # times a step but is only 5 to 20 at the last difference: an exact
        # AR(5) whose fit keeps the growing mode, so that a few hundred
        # become forecasts of 1e8 and more
        rates = [rng.uniform(-0.9, 0.9) for _ in range(4)] + [rng.uniform(10.0, 25.0)]
        amplitudes = [rng.uniform(-20.0, 20.0) for _ in range(4)] + [rng.uniform(5.0, 20.0) / rates[4] ** (n - 2)]
        values = [rng.uniform(50.0, 150.0)]
        for k in range(n - 1):
            values.append(values[-1] + sum(a * r**k for a, r in zip(amplitudes, rates)))
        return values
    base = rng.uniform(20.0, 100.0)
    return [base + rng.gauss(0.0, 5.0) + 10.0 * (i % 3) for i in range(n)]


def gapped_points(rng, n, as_int):
    t = rng.randint(0, 1000)
    points = []
    for _ in range(n):
        value = rng.randint(0, 150) if as_int else rng.uniform(0.0, 100.0)
        points.append((t, value))
        # repeats, scrape-sized steps and gaps that skip whole buckets
        t += rng.choice((0, 10, 10, 10, 10, 30, 60, 90, 250))
    return points


@pytest.mark.parametrize("seed", range(6))
def test_aggregate_buckets_matches_reference(seed):
    rng = random.Random(f"aggregate:{seed}")
    for n in range(1, 41):
        for bucket_s in (1, 10, 60, 61, 3600):
            points = gapped_points(rng, n, as_int=rng.random() < 0.5)
            assert repr(aggregate_buckets(points, bucket_s)) == repr(reference_aggregate_buckets(points, bucket_s))


def test_aggregate_buckets_errors_match_reference():
    for points in ([], [(10, 1.0), (5, 2.0)], [(0, 1.0), (60, 2.0), (59, 3.0)]):
        with pytest.raises(ValueError) as new:
            aggregate_buckets(points, 60)
        with pytest.raises(ValueError) as old:
            reference_aggregate_buckets(points, 60)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize(
    "values",
    [
        # a NaN between equal finite differences, which max and min skip
        [0.0, 1.0, float("nan"), 3.0, 4.0, 5.0, 6.0, 7.0],
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, float("inf")],
        # LAPACK refuses this one, after printing DLASCL lines to stderr
        [float("nan")] + [float(v) for v in range(1, 12)],
    ],
)
def test_non_finite_series_is_refused_before_any_fit(values, monkeypatch):
    def lstsq(*args, **kwargs):
        raise AssertionError("a least-squares fit ran")

    monkeypatch.setattr(forecaster, "_umath_linalg", SimpleNamespace(lstsq=lstsq))
    with pytest.raises(ValueError) as alone:
        ar_forecast(values, 2)
    # a series to fit ahead of it in the batch is not fit either
    fit = random_series(random.Random("ar:before-non-finite"), "noisy", 20)
    with pytest.raises(ValueError) as batched:
        ar_forecast_many([fit, values], 2)
    assert str(alone.value) == str(batched.value) == NON_FINITE_SERIES


CONFIGS = (
    ForecastConfig(),
    ForecastConfig(min_points=9),
)


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_ar_forecast_matches_reference(kind):
    rng = random.Random(f"ar:{kind}")
    for n in range(1, 41):
        for horizon in range(1, 7):
            values = random_series(rng, kind, n)
            for config in CONFIGS:
                got, got_fallback = ar_forecast(values, horizon, config)
                want, want_fallback = reference_ar_forecast(values, horizon, config)
                assert repr(got) == repr(want), (kind, n, horizon, config, values)
                assert got_fallback == want_fallback


@pytest.mark.parametrize(
    "n, start, step", [(18, -0.28030943936944164, 0.03959803165400405), (28, 0.06491876922868171, -0.0030677248893516487)]
)
def test_flat_drift_is_the_numpy_mean(n, start, step):
    # every difference is the same float, yet summing them one by one and
    # dividing by the count differs from np.mean in the last bit
    values = [start]
    while len(values) < n:
        values.append(values[-1] + step)
    differences = [b - a for a, b in zip(values, values[1:])]
    assert len(set(differences)) == 1
    assert sum(differences) / len(differences) != float(np.mean(differences))
    for horizon in (1, 4):
        assert repr(ar_forecast(values, horizon)) == repr(reference_ar_forecast(values, horizon))


def test_divergent_kind_reaches_1e8_from_a_few_hundred():
    # the kind stands for fits like the one that forecast cpu_util
    # [255, 0, 126320, 0, 113383358] from bucket means of a few hundred
    rng = random.Random("ar:divergent")
    peaks = []
    for n in range(ForecastConfig().min_points, 41):
        values = random_series(rng, "divergent", n)
        assert max(map(abs, values)) < 1000
        peaks.append(max(map(abs, ar_forecast(values, 6)[0])))
    assert max(peaks) >= 1e8


def test_ar_forecast_errors_match_reference():
    for values, horizon in (([], 1), ([1.0, 2.0], 0)):
        with pytest.raises(ValueError) as new:
            ar_forecast(values, horizon)
        with pytest.raises(ValueError) as old:
            reference_ar_forecast(values, horizon)
        assert str(new.value) == str(old.value)


# -- one batch equals the per-series forecasts -----------------------------------


def outcome(fit, *args):
    """What ``fit(*args)`` returns, or the type and message of what it raises."""
    try:
        return repr(fit(*args))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def reference_many(series, horizon, config):
    return [reference_ar_forecast(values, horizon, config) for values in series]


SERIES = st.tuples(st.sampled_from(SERIES_KINDS), st.integers(1, 40), st.integers(0, 2**32))
# an empty series; one whose first difference is NaN, which no drift check
# takes, LAPACK refuses in the reference and the forecaster refuses before
# any fit; or a horizon of 0
BAD_INPUT = st.sampled_from((None, "empty", "nan", "horizon"))


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(SERIES, min_size=1, max_size=12),
    duplicates=st.lists(st.integers(0, 11), max_size=4),
    horizon=st.integers(1, 6),
    config=st.sampled_from(CONFIGS),
    bad=BAD_INPUT,
    bad_at=st.integers(0, 12),
)
def test_ar_forecast_many_matches_the_reference_per_series(drawn, duplicates, horizon, config, bad, bad_at):
    series = [random_series(random.Random(seed), kind, n) for kind, n, seed in drawn]
    series += [series[k % len(series)] for k in duplicates]
    if bad == "empty":
        series.insert(bad_at % (len(series) + 1), [])
    elif bad == "nan":
        series.insert(bad_at % (len(series) + 1), [float("nan")] + [float(v) for v in range(1, 12)])
    elif bad == "horizon":
        horizon = 0
    want = outcome(reference_many, series, horizon, config)
    if want == (np.linalg.LinAlgError, "SVD did not converge in Linear Least Squares"):
        want = ValueError, NON_FINITE_SERIES
    assert outcome(ar_forecast_many, series, horizon, config) == want
    if bad is None:
        # each series alone, as ar_forecast fits it, is its slot of the batch
        assert repr([ar_forecast(values, horizon, config) for values in series]) == want


def random_stack(rng, k, rows):
    """``k`` arrays of ``rows`` x 5 values, each of one magnitude between
    1e-3 and 1e6 and of random signs."""
    scales = 10.0 ** rng.uniform(-3.0, 6.0, size=(k, 1, 1))
    return rng.standard_normal((k, rows, 5)) * scales


@pytest.mark.parametrize("rows", [1, 2, 5, 6, 13, 34])
def test_stacked_lstsq_gufunc_is_np_linalg_lstsq_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for k in (1, 2, 7, 30):
        diffs = random_stack(rng, k, rows + 5)[:, :, 0]
        design = diffs[:, _lag_rows(rows)]
        with np.errstate(call=forecaster._raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
            stacked = forecaster._umath_linalg.lstsq(design, diffs[:, 5:, None], 1e-8, signature="ddd->ddid")[0]
        for j in range(k):
            alone = np.linalg.lstsq(design[j], diffs[j, 5:], rcond=1e-8)[0]
            assert stacked[j, :, 0].tobytes() == alone.tobytes()


def test_vecdot_rows_are_np_dot_bit_for_bit():
    rng = np.random.default_rng(5)
    for k in (1, 3, 64):
        coeffs, window = random_stack(rng, 2, k)
        # one coefficient row against a row of a wider window, as the horizon
        # loop steps it
        wide = np.empty((k, 11))
        wide[:, 3:8] = window
        dots = np.vecdot(coeffs, wide[:, 3:8])
        for j in range(k):
            assert dots[j].tobytes() == np.dot(coeffs[j].copy(), window[j].copy()).tobytes()


# -- forecasts reused within one store version ------------------------------------


class TestForecastMemo:
    def setup_method(self):
        self.spine, self.bus, self.store, self.service = build_service(bucket_s=30)
        for i in range(40):
            self.store.append("c1", i * 10, {"cpu_util": 50 + (i * 7) % 13, "mem_util": 80 + i % 5, "throttle_pct": 0.0})

    def count_bucketing(self, monkeypatch):
        """Record the number of points of each whole-series bucketing
        (:func:`aggregate_buckets`) and of each bucket summed again
        (:func:`bucket_mean`), in call order."""
        calls = []
        whole, one = forecaster.aggregate_buckets, forecaster.bucket_mean

        def counting_whole(points, bucket_s):
            calls.append(len(points))
            return whole(points, bucket_s)

        def counting_one(values):
            calls.append(len(values))
            return one(values)

        monkeypatch.setattr(forecaster, "aggregate_buckets", counting_whole)
        monkeypatch.setattr(forecaster, "bucket_mean", counting_one)
        return calls

    def request(self):
        self.bus.publish(
            "forecast",
            Message(action=Action.FORECAST_REQUEST, payload={"containers": ["c1"], "horizon": 3}, correlation_id="fc"),
        )
        self.spine.drain()

    def test_second_request_without_scrape_reuses_forecast(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        self.request()
        assert len(calls) == 3  # one per metric
        self.request()
        assert len(calls) == 3
        responses = [e for e in self.spine.log if e["action"] == "forecast_response"]
        assert len(responses) == 2

    def test_each_store_write_recomputes(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        self.service.forecast_container("c1", 3)
        self.store.append("c1", 400, {"cpu_util": 70, "mem_util": 81, "throttle_pct": 0.0})
        self.service.forecast_container("c1", 3)
        assert len(calls) == 6
        assert [t for t, _ in self.store.expire(now=self.store.retention_s + 35)["c1"]] == [0, 10, 20, 30]
        self.service.forecast_container("c1", 3)
        assert len(calls) == 9

    def append(self, t):
        self.store.append("c1", t, {"cpu_util": 60 + t % 7, "mem_util": 81, "throttle_pct": 0.1})

    def assert_means_are_the_whole_series_means(self):
        whole = [aggregate_buckets(self.store.points("c1", metric), self.service.config.bucket_s) for metric in METRICS]
        assert repr(self.service.bucket_means("c1")) == repr(whole)

    def test_one_append_buckets_only_the_open_bucket(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        self.service.forecast_container("c1", 3)
        assert calls == [40] * 3
        # buckets are [0, 30), [30, 60), ...: the open one is [390, 420)
        self.append(400)
        self.service.forecast_container("c1", 3)
        assert calls[3:] == [2] * 3  # t = 390 and 400
        self.append(410)
        self.service.forecast_container("c1", 3)
        assert calls[6:] == [3] * 3
        # [390, 420) closed since the last forecast: one call per metric for
        # it, then one per metric for the open bucket
        self.append(420)
        self.service.forecast_container("c1", 3)
        assert calls[9:] == [3] * 3 + [1] * 3
        # a gap that skips whole buckets
        self.append(425)
        self.append(530)
        self.service.forecast_container("c1", 3)
        assert calls[15:] == [2] * 3 + [1] * 3
        self.assert_means_are_the_whole_series_means()

    def test_expiry_that_cuts_a_sample_buckets_the_whole_series_once(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        self.service.forecast_container("c1", 3)
        self.append(400)
        self.service.forecast_container("c1", 3)
        assert calls[3:] == [2] * 3
        assert [t for t, _ in self.store.expire(now=self.store.retention_s + 5)["c1"]] == [0]
        self.service.forecast_container("c1", 3)
        assert calls[6:] == [40] * 3  # t = 10 .. 400, re-anchored at 10
        self.assert_means_are_the_whole_series_means()
        calls.clear()
        # buckets are now [10, 40), ..., [400, 430)
        self.append(410)
        self.service.forecast_container("c1", 3)
        assert calls == [2] * 3
        self.assert_means_are_the_whole_series_means()
        calls.clear()
        # anchored at 20, a phase with no kept means yet: the whole series once
        assert [t for t, _ in self.store.expire(now=self.store.retention_s + 15)["c1"]] == [10]
        self.service.forecast_container("c1", 3)
        assert calls == [40] * 3  # t = 20 .. 410
        self.assert_means_are_the_whole_series_means()
        calls.clear()
        # anchored at 30, the phase of the first anchor: its means from [30, 60)
        # on are kept, and only the open bucket [390, 420) is summed again
        assert [t for t, _ in self.store.expire(now=self.store.retention_s + 25)["c1"]] == [20]
        self.service.forecast_container("c1", 3)
        assert calls == [3] * 3  # t = 390, 400 and 410
        self.assert_means_are_the_whole_series_means()

    def test_out_of_order_append_is_refused_and_the_kept_means_stand(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        first = self.service.forecast_container("c1", 3)
        with pytest.raises(ValueError, match="older than its last one"):
            self.append(385)
        assert self.service.forecast_container("c1", 3) == first
        assert calls == [40] * 3  # the refused sample buckets nothing
        # the next sample in time order buckets only the open bucket [390, 420)
        self.append(400)
        self.service.forecast_container("c1", 3)
        assert calls[3:] == [2] * 3
        self.assert_means_are_the_whole_series_means()

    def test_churn_leaves_no_bucket_means_behind(self):
        store = MetricsStore(retention_s=60)
        service = Forecaster(MessageBus("10.0.0.1", EventSpine()), store, ForecastConfig(bucket_s=20))
        lifetimes = {f"c{i}": (i * 25, i * 25 + 40 + (i % 3) * 70) for i in range(12)}
        for t in range(0, 600, 10):
            for cid, (born, died) in lifetimes.items():
                if born <= t < died:
                    store.append(cid, t, {"cpu_util": t % 17, "mem_util": 40 + born % 9, "throttle_pct": 0.2})
            store.expire(now=t)
            for cid in list(store._series):
                service.forecast_container(cid, 2)
            assert set(store._derived) == set(store._series)
            for cid, (born, died) in lifetimes.items():
                if t >= died + store.retention_s:
                    assert cid not in store._series and cid not in store._derived
        assert store._derived == {} and store._series == {}

    def test_expiry_that_cuts_nothing_keeps_the_forecast(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        self.service.forecast_container("c1", 3)
        assert self.store.expire(now=100) == {}
        self.service.forecast_container("c1", 3)
        assert len(calls) == 3

    def test_horizon_is_part_of_the_key(self, monkeypatch):
        calls = self.count_bucketing(monkeypatch)
        short = self.service.forecast_container("c1", 1)
        long = self.service.forecast_container("c1", 3)
        assert len(calls) == 6
        assert (len(short.cpu_util), len(long.cpu_util)) == (1, 3)

    def test_memoized_result_equals_a_fresh_forecast(self):
        self.service.forecast_container("c1", 3)
        memoized = self.service.forecast_container("c1", 3)
        fresh = Forecaster(MessageBus("10.0.0.2", EventSpine()), self.store, self.service.config)
        assert memoized.as_dict() == fresh.forecast_container("c1", 3).as_dict()
        self.store.append("c1", 400, {"cpu_util": 90, "mem_util": 99, "throttle_pct": 10.0})
        updated = self.service.forecast_container("c1", 3)
        fresh = Forecaster(MessageBus("10.0.0.2", EventSpine()), self.store, self.service.config)
        assert updated.as_dict() == fresh.forecast_container("c1", 3).as_dict()
        assert updated.as_dict() != memoized.as_dict()


# -- kept bucket means equal a fresh bucketing of the stored series --------------

# throttle values whose float sums depend on the order of addition
STEP_VALUES = st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.3, 1e16, 1.0, 99.9))
SAMPLE = st.tuples(
    st.sampled_from((0, 1, 3, 7, 10, 10, 10, 13, 60, 61, 250)),  # repeats, off-cadence steps and gaps
    st.one_of(st.integers(0, 400), STEP_VALUES),
    st.integers(0, 400),
    STEP_VALUES,
)
STEP = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(("c1", "c2")), st.lists(SAMPLE, min_size=1, max_size=12)),
    st.tuples(st.just("expire"), st.integers(0, 120)),
)


# any bucket size, retention and mix of writes
RANDOM_RUN = st.tuples(
    st.sampled_from((7, 60, 61)),  # bucket_s
    st.sampled_from((40, 150, 600)),  # retention_s
    st.lists(STEP, min_size=1, max_size=40),
)


@st.composite
def regular_run(draw, retentions=(150, 300)):
    """A scrape every 7 or 10 s: one sample per container, then an expiry.
    Once the window is full the anchor moves at every scrape and comes back
    to each phase of the bucket grid, so the kept means of each phase are
    reused across many anchor moves."""
    cadence = draw(st.sampled_from((7, 10)))
    scrape = st.tuples(st.one_of(st.integers(0, 400), STEP_VALUES), st.integers(0, 400), STEP_VALUES)
    steps = []
    for cpu, mem, throttle in draw(st.lists(scrape, min_size=30, max_size=120)):
        steps.append(("append", "c1", [(cadence, cpu, mem, throttle)]))
        steps.append(("append", "c2", [(0, mem, cpu, throttle)]))
        steps.append(("expire", 0))
    return draw(st.sampled_from((60, 61))), draw(st.sampled_from(retentions)), steps


def apply_step(store, step, now):
    """Make one drawn write to the store; returns the clock after it."""
    if step[0] == "append":
        for gap, cpu, mem, throttle in step[2]:
            now += gap
            store.append(step[1], now, {"cpu_util": cpu, "mem_util": mem, "throttle_pct": throttle})
    else:
        now += step[1]
        store.expire(now)
    return now


@settings(max_examples=150, deadline=2000)
@given(run=st.one_of(RANDOM_RUN, regular_run()))
def test_bucket_means_match_a_fresh_bucketing(run):
    bucket_s, retention_s, steps = run
    store = MetricsStore(retention_s=retention_s)
    service = Forecaster(MessageBus("10.0.0.1", EventSpine()), store, ForecastConfig(bucket_s=bucket_s))
    now = 0
    phases = {"c1": set(), "c2": set()}  # anchor phases each container's means were asked at
    most_buckets = {"c1": 0, "c2": 0}  # the most buckets its stored series has held
    for step in steps:
        now = apply_step(store, step, now)
        for cid in ("c1", "c2"):
            if cid in store:
                want = [aggregate_buckets(store.points(cid, metric), bucket_s) for metric in METRICS]
                assert repr(service.bucket_means(cid)) == repr(want), (cid, step)
                phases[cid].add(store.points(cid, "cpu_util")[0][0] % bucket_s)
                most_buckets[cid] = max(most_buckets[cid], len(want[0]))
        assert set(store._derived) <= set(store._series)
        for cid, slot in store._derived.items():
            # one record per phase: its starts, then each metric's means
            assert all(len(record) == 1 + len(METRICS) for record in slot.values())
            assert all(len(means) == len(record[0]) for record in slot.values() for means in record[1:])
            assert sum(len(record[0]) for record in slot.values()) <= len(phases[cid]) * (most_buckets[cid] + 1)


# -- whole forecasts equal a fresh forecast by the frozen references -------------


def reference_forecast(store, cid, horizon, bucket_s):
    """``ForecastResult.as_dict()`` of a forecast made afresh, metric by
    metric, with the frozen bucketing and fit and with :func:`clip_series`."""
    result = {}
    fallback = False
    for metric, hi in (("cpu_util", None), ("mem_util", None), ("throttle_pct", 100.0)):
        means = reference_aggregate_buckets(store.points(cid, metric), bucket_s)
        forecast, fell_back = reference_ar_forecast(means, horizon)
        result[metric] = clip_series(forecast, 0.0, hi)
        fallback = fallback or fell_back
    return {**result, "fallback": fallback, "error": None}


# a 600 s window holds the seven buckets a fit needs
@settings(max_examples=100, deadline=None)
@given(run=st.one_of(RANDOM_RUN, regular_run(retentions=(300, 600))), horizon=st.integers(1, 6))
def test_forecast_container_matches_a_fresh_reference_forecast(run, horizon):
    bucket_s, retention_s, steps = run
    store = MetricsStore(retention_s=retention_s)
    service = Forecaster(MessageBus("10.0.0.1", EventSpine()), store, ForecastConfig(bucket_s=bucket_s))
    now = 0
    for step in steps:
        now = apply_step(store, step, now)
        for cid in ("c1", "c2"):
            got = service.forecast_container(cid, horizon).as_dict()
            if cid in store:
                assert repr(got) == repr(reference_forecast(store, cid, horizon, bucket_s)), (cid, step)
            else:
                assert got["error"] == "unknown container"
