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
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .bus import Action, Message, MessageBus, TOPIC_FORECAST
from .model import require_int

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

    z = [float(v) for v in values]
    z = [b - a for a, b in zip(z, z[1:])]
    if max(z) == min(z):
        if z[0] == 0.0:
            # no two consecutive differences are both -0.0, so the drift is +0.0
            return [last + 0.0] * horizon, False
        step = float(np.mean(z))
        return [last + step * (k + 1) for k in range(horizon)], False

    p = AR_ORDER
    # row i holds the p differences before z[i + p], most recent first
    design = np.array([z[i:i + p][::-1] for i in range(len(z) - p)])
    target = np.array(z[p:])
    # modest rcond keeps near-singular fits (short or low-variance histories)
    # from amplifying float noise into the iterated forecast
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=1e-8)

    history = z[-p:][::-1]  # most recent difference first
    level = last
    out: list[float] = []
    for _ in range(horizon):
        step = float(np.dot(coeffs, history))
        level += step
        out.append(level)
        history = [step] + history[:-1]
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

    Each metric's points are pulled from the monitor's local store, aggregated
    into buckets (:meth:`bucket_means`) and forecast. A forecast depends only
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
        if self.store.last(cid) is None:
            return ForecastResult(error="unknown container")
        result = ForecastResult()
        for metric, (lo, hi) in (("cpu_util", (0.0, None)), ("mem_util", (0.0, None)), ("throttle_pct", (0.0, 100.0))):
            forecast, fell_back = ar_forecast(self.bucket_means(cid, metric), horizon, self.config)
            result.fallback = result.fallback or fell_back
            setattr(result, metric, clip_series(forecast, lo, hi))
        return result

    def bucket_means(self, cid: str, metric: str) -> list[float]:
        """``aggregate_buckets(store.points(cid, metric), bucket_s)`` for a
        container with stored samples, bucketing only what may have changed.

        Every bucket but the last is finished: while the series only grows in
        time order, no new sample can fall in it. The means are kept in the
        store's :meth:`~orchestrion.monitor.MetricsStore.derived` slot with
        the first sample's time and the open bucket's edge, and only the
        points from that edge on are bucketed again, one
        :func:`aggregate_buckets` call per bucket. Once the store drops the
        slot (an expiry or restore moved the first sample), the whole series
        is bucketed in one call. The returned list is the kept one: callers
        must not modify it.
        """
        bucket_s = self.config.bucket_s
        slot = self.store.derived(cid)
        kept = slot.get(metric)
        if kept is None:
            points = self.store.points(cid, metric)
            means = aggregate_buckets(points, bucket_s)
            t0 = points[0][0]
            slot[metric] = [t0, t0 + (points[-1][0] - t0) // bucket_s * bucket_s, means]
            return means
        t0, edge, means = kept
        tail = self.store.points_since(cid, metric, edge)
        fresh: list[float] = []
        start = 0
        while start < len(tail):
            edge = t0 + (tail[start][0] - t0) // bucket_s * bucket_s
            stop = bisect_left(tail, edge + bucket_s, start, key=itemgetter(0))
            fresh += aggregate_buckets(tail[start:stop], bucket_s)
            start = stop
        means[-1:] = fresh
        kept[1] = edge
        return means
