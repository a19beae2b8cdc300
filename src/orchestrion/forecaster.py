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
from numpy.linalg import _umath_linalg

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


# A NaN or an infinity among a series' values makes one of its differences,
# and so their sum, NaN or infinite; finite values make the sum infinite
# only where they span more than the float range.
NON_FINITE_SERIES = "cannot forecast a series with a NaN, an infinity or a span beyond the float range"


def _raise_lstsq_error(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def ar_forecast_many(
    series: list[list[float]], horizon: int, config: ForecastConfig | None = None
) -> list[tuple[list[float], bool]]:
    """:func:`ar_forecast` of each series, in order, bit for bit.

    The series left to fit after the fallback and the drift cases are fit in
    one stacked least-squares call per difference count, each problem by
    its own gelsd as :func:`np.linalg.lstsq` does it, and stepped through
    the horizon together, each row by its own ddot as :func:`np.dot` does it.
    A series that reaches the drift or the fit with a NaN or an infinity
    raises ``ValueError`` before any fit.
    """
    config = config or ForecastConfig()
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    out: list = [None] * len(series)
    # difference count -> (index, differences, last value) of the series to fit
    to_fit: dict[int, list[tuple[int, list[float], float]]] = {}
    for i, values in enumerate(series):
        if not values:
            raise ValueError("cannot forecast from an empty series")
        last = float(values[-1])
        if len(values) < config.min_points:
            out[i] = [last] * horizon, True
            continue
        if values.count(values[0]) == len(values) and math.isfinite(last):
            # every difference is +0.0 or -0.0, and no two consecutive ones
            # are both -0.0, so the drift is +0.0
            out[i] = [last + 0.0] * horizon, False
            continue
        z = [float(v) for v in values]
        z = [b - a for a, b in zip(z, z[1:])]
        # every series is checked before the first fit: LAPACK refuses a NaN
        # only after printing to stderr
        if not math.isfinite(sum(z)):
            raise ValueError(NON_FINITE_SERIES)
        if max(z) == min(z):
            step = float(np.mean(z))
            out[i] = [last + step * (k + 1) for k in range(horizon)], False
            continue
        to_fit.setdefault(len(z), []).append((i, z, last))

    p = AR_ORDER
    for n, group in to_fit.items():
        diffs = np.array([z for _, z, _ in group])
        # row i of a design holds the p differences before z[i + p], most
        # recent first; modest rcond keeps near-singular fits (short or
        # low-variance histories) from amplifying float noise into the
        # iterated forecast. np.linalg.lstsq calls this gufunc, under this
        # errstate, for one problem at a time.
        with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
            coeffs = _umath_linalg.lstsq(
                diffs.take(_lag_rows(n - p), axis=1), diffs[:, p:, None], 1e-8, signature="ddd->ddid"
            )[0][..., 0]
        # the last p differences, most recent first, at the right end; each
        # step is written just left of the p values it was made from
        window = np.empty((len(group), horizon + p))
        window[:, horizon:] = diffs[:, :-p - 1:-1]
        for s in range(horizon, 0, -1):
            window[:, s - 1] = np.vecdot(coeffs, window[:, s:s + p])
        for (i, _, last), steps in zip(group, window[:, horizon - 1::-1].tolist()):
            level = last
            levels = []
            for step in steps:
                level += step
                levels.append(level)
            out[i] = levels, False
    return out


def ar_forecast(values: list[float], horizon: int, config: ForecastConfig | None = None) -> tuple[list[float], bool]:
    """Forecast ``horizon`` future points; returns (forecast, used_fallback).

    Fallback (too little history) repeats the last observed value. A
    differenced series with zero variance yields a pure drift forecast.
    """
    return ar_forecast_many([values], horizon, config)[0]


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


class Forecaster:
    """Answers forecast requests on the forecast topic.

    A container's three metrics are pulled from the monitor's local store,
    aggregated into buckets in one pass over their shared time column
    (:meth:`bucket_means`). A request's containers with no kept forecast
    are forecast together, by one :func:`ar_forecast_many` over all their
    series, and then answered one by one through :meth:`forecast_container`.
    A forecast depends only on the stored series, so results are kept per
    ``(container, horizon)`` for the store's current
    :attr:`~orchestrion.monitor.MetricsStore.version` and
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
        cids = msg.payload.get("containers", [])
        self._forecast(cids, horizon)
        results = {cid: self.forecast_container(cid, horizon).as_dict() for cid in cids}
        self.bus.publish(
            TOPIC_FORECAST,
            Message(
                action=Action.FORECAST_RESPONSE,
                payload={"results": results, "horizon": horizon},
                correlation_id=msg.correlation_id,
            ),
        )

    def _current_memo(self) -> dict[tuple[str, int], ForecastResult]:
        if self._memo_version != self.store.version:
            self._memo.clear()
            self._memo_version = self.store.version
        return self._memo

    def forecast_container(self, cid: str, horizon: int) -> ForecastResult:
        key = (cid, horizon)
        result = self._current_memo().get(key)
        if result is None:
            self._forecast([cid], horizon)
            result = self._memo[key]
        return result

    def _forecast(self, cids: list[str], horizon: int) -> None:
        """Keep a forecast for each container of ``cids`` that has none: the
        bucket means of each, then one :func:`ar_forecast_many` over all
        their series."""
        memo = self._current_memo()
        fits: list[str] = []
        series: list[list[float]] = []
        for cid in cids:
            if (cid, horizon) in memo:
                continue
            if cid not in self.store:
                memo[cid, horizon] = ForecastResult(error="unknown container")
                continue
            fits.append(cid)
            series.extend(self.bucket_means(cid))
        if not fits:
            return
        forecasts = ar_forecast_many(series, horizon, self.config)
        for k, cid in enumerate(fits):
            (cpu, cpu_fell_back), (mem, mem_fell_back), (throttle, throttle_fell_back) = forecasts[3 * k:3 * k + 3]
            # clip_series(series, 0.0) and clip_series(series, 0.0, 100.0)
            # inline: ``lo if lo > v else v`` is what max(v, lo) returns and
            # ``hi if hi < v else v`` what min(v, hi) returns, -0.0, NaN and
            # inf included
            memo[cid, horizon] = ForecastResult(
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
