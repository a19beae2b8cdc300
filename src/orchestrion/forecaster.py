"""Time-series forecasting service: bucket aggregation plus an order-(5,1,0)
autoregressive integrated model fit by ordinary least squares.

The series is differenced once, an AR(5) is fit on the lagged differences
(no drift term, the standard choice once differencing removes the level),
forecasts are iterated step by step and integrated back from the last
observed value. Short histories fall back to repeating the last observation;
an exactly linear history degenerates to constant drift.
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .bus import Action, Message, MessageBus, TOPIC_FORECAST
from .model import require_int
from .monitor import METRICS

logger = logging.getLogger(__name__)

AR_ORDER = 5
# differencing takes one value and the lags AR_ORDER more; one regression row
# must remain
MODEL_MIN_POINTS = AR_ORDER + 2


@dataclass(frozen=True)
class ForecastConfig:
    min_points: int = MODEL_MIN_POINTS
    bucket_s: int = 60

    def __post_init__(self) -> None:
        for name in ("min_points", "bucket_s"):
            require_int(name, getattr(self, name))
        if self.min_points < MODEL_MIN_POINTS:
            raise ValueError("min_points too small for the model order")
        if self.bucket_s <= 0:
            raise ValueError("bucket_s must be positive")


def aggregate_buckets(points: list[tuple[int, float]], bucket_s: int) -> list[float]:
    """Mean per bucket of ``bucket_s`` seconds; a partial trailing bucket is
    included as its own point and empty buckets yield none. Buckets are
    anchored at the first timestamp; timestamps must be non-decreasing."""
    if not points:
        raise ValueError("cannot aggregate an empty series")
    t0 = last_t = points[0][0]
    means: list[float] = []
    bucket = 0
    total = 0.0
    count = 0
    for t, value in points:
        if t < last_t:
            raise ValueError("series timestamps must be monotone")
        last_t = t
        idx = (t - t0) // bucket_s
        if idx != bucket:
            means.append(total / count)
            bucket = idx
            total = 0.0
            count = 0
        total += float(value)
        count += 1
    means.append(total / count)
    return means


def bucket_mean(values: list) -> float:
    """Mean of one bucket's values, summed one at a time in order as
    :func:`aggregate_buckets` sums them, so that it is the same float."""
    total = 0.0
    for value in values:
        total += float(value)
    return total / len(values)


# Row i of the lagged design indexes the differences i + p - 1 down to i,
# whatever the series length, so one index array serves every length by its
# leading rows. It grows to the longest design asked for.
_lag_index = np.empty((0, AR_ORDER), dtype=np.intp)


def _lag_rows(rows: int) -> np.ndarray:
    global _lag_index
    if rows > len(_lag_index):
        _lag_index = np.arange(rows)[:, None] + np.arange(AR_ORDER - 1, -1, -1)
    return _lag_index[:rows]


def ar_forecast(values: list[float], horizon: int, config: ForecastConfig | None = None) -> tuple[list[float], bool]:
    """Forecast ``horizon`` future points; returns (forecast, used_fallback).

    Fallback (too little history) repeats the last observed value. A
    differenced series with zero variance yields a pure drift forecast.
    """
    config = config or ForecastConfig()
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not values:
        raise ValueError("cannot forecast from an empty series")
    last = float(values[-1])
    if len(values) < config.min_points:
        return [last] * horizon, True
    if values.count(values[0]) == len(values) and math.isfinite(last):
        # every difference is +0.0 or -0.0, and no two consecutive ones are
        # both -0.0, so the drift is +0.0
        return [last + 0.0] * horizon, False

    z = [float(v) for v in values]
    z = [b - a for a, b in zip(z, z[1:])]
    if max(z) == min(z):
        step = float(np.mean(z))
        return [last + step * (k + 1) for k in range(horizon)], False

    p = AR_ORDER
    diffs = np.array(z)
    # row i holds the p differences before z[i + p], most recent first
    design = diffs[_lag_rows(len(z) - p)]
    # modest rcond keeps near-singular fits (short or low-variance histories)
    # from amplifying float noise into the iterated forecast
    coeffs, *_ = np.linalg.lstsq(design, diffs[p:], rcond=1e-8)

    # most recent difference first; a contiguous copy, so that np.dot takes
    # the same BLAS path as it does for a list
    history = diffs[:-p - 1:-1].copy()
    level = last
    out: list[float] = []
    for _ in range(horizon):
        step = float(np.dot(coeffs, history))
        level += step
        out.append(level)
        history[1:] = history[:-1]
        history[0] = step
    return out, False


def clip_series(values: list[float], lo: float | None = 0.0, hi: float | None = None) -> list[float]:
    out = []
    for v in values:
        if lo is not None:
            v = max(v, lo)
        if hi is not None:
            v = min(v, hi)
        out.append(float(v))
    return out


@dataclass
class ForecastResult:
    """Per-container forecast slice: predicted utilization and throttling."""

    cpu_util: list[float] = field(default_factory=list)
    mem_util: list[float] = field(default_factory=list)
    throttle_pct: list[float] = field(default_factory=list)
    fallback: bool = False
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "cpu_util": self.cpu_util,
            "mem_util": self.mem_util,
            "throttle_pct": self.throttle_pct,
            "fallback": self.fallback,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ForecastResult":
        return cls(
            cpu_util=list(data.get("cpu_util", [])),
            mem_util=list(data.get("mem_util", [])),
            throttle_pct=list(data.get("throttle_pct", [])),
            fallback=bool(data.get("fallback", False)),
            error=data.get("error"),
        )


class Forecaster:
    """Answers forecast requests on the forecast topic.

    A container's three metrics are pulled from the monitor's local store,
    aggregated into buckets in one pass over their shared time column
    (:meth:`bucket_means`) and forecast one by one. A forecast depends only
    on the stored series, so results are kept per ``(container, horizon)`` for
    the store's current :attr:`~orchestrion.monitor.MetricsStore.version` and
    reused until the next write to the store (the next scrape or expiry);
    repeated requests get the same :class:`ForecastResult`, which callers must
    not modify. Containers with no stored samples get per-container error
    entries; the response is still sent.
    """

    def __init__(self, bus: MessageBus, metrics_store, config: ForecastConfig) -> None:
        self.bus = bus
        self.store = metrics_store
        self.config = config
        self._memo: dict[tuple[str, int], ForecastResult] = {}
        self._memo_version = metrics_store.version
        bus.subscribe(TOPIC_FORECAST, self._on_message)

    def _on_message(self, topic: str, msg: Message) -> None:
        if msg.action is not Action.FORECAST_REQUEST:
            return
        horizon = msg.payload["horizon"]
        results: dict[str, dict] = {}
        for cid in msg.payload.get("containers", []):
            results[cid] = self.forecast_container(cid, horizon).as_dict()
        self.bus.publish(
            TOPIC_FORECAST,
            Message(
                action=Action.FORECAST_RESPONSE,
                payload={"results": results, "horizon": horizon},
                correlation_id=msg.correlation_id,
            ),
        )

    def forecast_container(self, cid: str, horizon: int) -> ForecastResult:
        if self._memo_version != self.store.version:
            self._memo.clear()
            self._memo_version = self.store.version
        key = (cid, horizon)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = self._forecast(cid, horizon)
        return result

    def _forecast(self, cid: str, horizon: int) -> ForecastResult:
        if cid not in self.store:
            return ForecastResult(error="unknown container")
        cpu, mem, throttle = self.bucket_means(cid)
        cpu, cpu_fell_back = ar_forecast(cpu, horizon, self.config)
        mem, mem_fell_back = ar_forecast(mem, horizon, self.config)
        throttle, throttle_fell_back = ar_forecast(throttle, horizon, self.config)
        # clip_series(series, 0.0) and clip_series(series, 0.0, 100.0) inline:
        # ``lo if lo > v else v`` is what max(v, lo) returns and ``hi if hi < v
        # else v`` what min(v, hi) returns, -0.0, NaN and inf included
        return ForecastResult(
            cpu_util=[float(0.0 if 0.0 > v else v) for v in cpu],
            mem_util=[float(0.0 if 0.0 > v else v) for v in mem],
            throttle_pct=[float(0.0 if 0.0 > v else 100.0 if 100.0 < v else v) for v in throttle],
            fallback=cpu_fell_back or mem_fell_back or throttle_fell_back,
        )

    def bucket_means(self, cid: str) -> list[list[float]]:
        """``aggregate_buckets(store.points(cid, metric), bucket_s)`` for each
        of ``cpu_util``, ``mem_util`` and ``throttle_pct``, for a container
        with stored samples, bucketing only what may have changed.

        Buckets are anchored at the first stored sample ``t0``, so series
        whose anchors share the phase ``t0 % bucket_s`` share one grid of
        bucket starts. A bucket that starts at or after ``t0`` holds the same
        samples whatever the anchor: an expiry cuts only a prefix of the
        series, and an append, which the store keeps in time order, lands
        only in the last (open) bucket or after it. The metrics share the
        store's time column, so they share the grid too: one record
        ``[starts, cpu means, mem means, throttle means]`` is kept per phase
        in the store's :meth:`~orchestrion.monitor.MetricsStore.derived`
        slot, which survives an expiry. Each call drops the kept buckets that
        start before ``t0`` and sums again, with :func:`bucket_mean` for each
        metric, only the samples from the open bucket's start on; one bisect
        per bucket serves all three metrics. A phase with no kept record, or
        whose record ends before ``t0``, buckets the whole series with one
        :func:`aggregate_buckets` call per metric. The returned lists are the
        kept ones: callers must not modify them.
        """
        bucket_s = self.config.bucket_s
        times, cpu, mem, throttle = self.store.columns(cid)
        t0 = times[0]
        slot = self.store.derived(cid)
        kept = slot.get(t0 % bucket_s)
        if kept is None or kept[0][-1] < t0:
            means = [aggregate_buckets(self.store.points(cid, metric), bucket_s) for metric in METRICS]
            starts = [t0 + k * bucket_s for k in dict.fromkeys((t - t0) // bucket_s for t in times)]
            slot[t0 % bucket_s] = [starts, *means]
            return means
        starts, cpu_means, mem_means, throttle_means = kept
        head = bisect_left(starts, t0)
        if head:
            del starts[:head], cpu_means[:head], mem_means[:head], throttle_means[:head]
        start = bisect_left(times, starts.pop())
        del cpu_means[-1], mem_means[-1], throttle_means[-1]
        end = len(times)
        while start < end:
            edge = t0 + (times[start] - t0) // bucket_s * bucket_s
            stop = bisect_left(times, edge + bucket_s, start)
            starts.append(edge)
            cpu_means.append(bucket_mean(cpu[start:stop]))
            mem_means.append(bucket_mean(mem[start:stop]))
            throttle_means.append(bucket_mean(throttle[start:stop]))
            start = stop
        return [cpu_means, mem_means, throttle_means]
