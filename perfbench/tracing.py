"""Spans and counts measured from outside the program.

``Tracer.install`` wraps the public functions of each module and, through
``MessageBus.subscribe``, every handler a component registers. Each wrapper
records one span (name, start, end, parent) and the counts of work done at
that boundary; ``Tracer.uninstall`` puts the originals back. A span's self
time is its duration minus the time of its direct child spans, so the self
times of all spans of one ``SimulationRunner.run`` add up to that call.

``DecisionTimer`` is the only wrapper the untraced run carries: one
timer pair around each ``EventSpine.drain`` and a scan of the log records
that drain appended.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from orchestrion import bus, deployer, expectations, forecaster, hostsim, monitor, registry, scenario

from checks import check_forecast

# span name -> per-layer metric carrying its self time
SPAN_METRICS = {
    "hostsim.tick": "hostsim.tick_s",
    "hostsim.sample": "hostsim.sample_s",
    "monitor": "monitor.self_s",
    "monitor.retention": "monitor.retention_s",
    "forecaster": "forecaster.self_s",
    "forecaster.bucket": "forecaster.bucket_s",
    "forecaster.fit": "forecaster.fit_s",
    "analyzer": "analyzer.self_s",
    "deployer": "deployer.self_s",
    "bus": "bus.self_s",
    "registry.archive": "registry.archive_s",
    "registry.fetch": "registry.fetch_s",
    "scenario": "scenario.self_s",
    "expectations": "expectations.eval_s",
}

COUNT_METRICS = (
    "hostsim.container_ticks",
    "monitor.rows_stored",
    "monitor.rows_expired",
    "forecaster.forecasts",
    "forecaster.points_bucketed",
    "forecaster.fallbacks",
    "analyzer.decisions",
    "analyzer.limit_changes",
    "analyzer.denials",
    "deployer.table_updates",
    "deployer.elections",
    "deployer.deployed",
    "bus.publishes",
    "bus.deliveries",
    "bus.bridged_copies",
    "registry.archives",
    "registry.fetches",
    "scenario.trace_rows",
)


class DecisionTimer:
    """Times every ``EventSpine.drain`` during which a ``forecast_request``
    was published: one tick's whole reaction that settles one admission or
    optimization cycle."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self._original = None

    def install(self) -> None:
        original = self._original = bus.EventSpine.drain
        samples = self.samples_ns

        @functools.wraps(original)
        def drain(spine, *args, **kwargs):
            log = spine.log
            seen = len(log)
            start = perf_counter_ns()
            steps = original(spine, *args, **kwargs)
            elapsed = perf_counter_ns() - start
            for index in range(seen, len(log)):
                if log[index]["action"] == "forecast_request":
                    samples.append(elapsed)
                    break
            return steps

        bus.EventSpine.drain = drain

    def uninstall(self) -> None:
        bus.EventSpine.drain = self._original


class Tracer:
    """Span recorder; spans of every traced round stay in memory until
    :meth:`save` writes them out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[list[int]] = []  # [span index, child time ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.forecast_failures: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def span(self, name: str, fn, count: str | None = None):
        """``fn`` wrapped so that each call records one span called ``name``
        and, if given, adds one to the count ``count``."""
        ident = self._name_id(name)
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            index = len(self.span_name)
            self.span_name.append(ident)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts
        forecast_failures = self.forecast_failures
        span = self.span

        # scenario: the run itself and the runner's calls into the deployer
        self._patch(scenario.SimulationRunner, "run", span("scenario", scenario.SimulationRunner.run))
        self._patch(deployer.Deployer, "submit", span("deployer", deployer.Deployer.submit))
        self._patch(expectations, "evaluate_expectations", span("expectations", expectations.evaluate_expectations))

        # hostsim
        timed_tick = span("hostsim.tick", hostsim.HostSimulator.tick)

        def tick(host):
            counts["hostsim.container_ticks"] += len(host.running_containers())
            return timed_tick(host)

        self._patch(hostsim.HostSimulator, "tick", tick)
        self._patch(hostsim.HostSimulator, "sample_metrics", span("hostsim.sample", hostsim.HostSimulator.sample_metrics))

        # monitor and its metrics store
        self._patch(monitor.Monitor, "on_tick", span("monitor", monitor.Monitor.on_tick))
        self._patch(monitor.Monitor, "enforce_retention", span("monitor.retention", monitor.Monitor.enforce_retention))
        store_append = monitor.MetricsStore.append
        store_expire = monitor.MetricsStore.expire

        def append(store, cid, t, row):
            counts["monitor.rows_stored"] += 1
            return store_append(store, cid, t, row)

        def expire(store, now):
            expired = store_expire(store, now)
            counts["monitor.rows_expired"] += sum(len(rows) for rows in expired.values())
            return expired

        self._patch(monitor.MetricsStore, "append", append)
        self._patch(monitor.MetricsStore, "expire", expire)

        # forecaster: the module-level functions are looked up at call time
        timed_buckets = span("forecaster.bucket", forecaster.aggregate_buckets)
        timed_fit = span("forecaster.fit", forecaster.ar_forecast)
        forecast_container = forecaster.Forecaster.forecast_container

        def aggregate_buckets(points, bucket_s):
            counts["forecaster.points_bucketed"] += len(points)
            return timed_buckets(points, bucket_s)

        def forecast(fc, cid, horizon):
            result = forecast_container(fc, cid, horizon)
            counts["forecaster.forecasts"] += 1
            counts["forecaster.fallbacks"] += bool(result.fallback)
            forecast_failures.extend(f"{cid}: {f}" for f in check_forecast(result.as_dict(), horizon))
            return result

        self._patch(forecaster, "aggregate_buckets", aggregate_buckets)
        self._patch(forecaster, "ar_forecast", timed_fit)
        self._patch(forecaster.Forecaster, "forecast_container", forecast)

        # registry
        archive = span("registry.archive", registry.Registry.archive_metrics, "registry.archives")
        self._patch(registry.Registry, "archive_metrics", archive)
        for attr in ("get_image", "fetch_blob"):
            self._patch(registry.Registry, attr, span("registry.fetch", getattr(registry.Registry, attr), "registry.fetches"))

        # bus: publish and drain; every handler registered through subscribe
        self._patch(bus.MessageBus, "publish", span("bus", bus.MessageBus.publish, "bus.publishes"))
        timed_drain = span("bus", bus.EventSpine.drain)

        def drain(spine, *args, **kwargs):
            steps = timed_drain(spine, *args, **kwargs)
            counts["bus.deliveries"] += steps
            return steps

        self._patch(bus.EventSpine, "drain", drain)
        subscribe = bus.MessageBus.subscribe

        def traced_subscribe(msgbus, topic, handler=None):
            # a handler is charged to the layer of the module that registered it
            owner = getattr(handler, "__self__", None)
            if owner is not None:
                layer = type(owner).__module__.rsplit(".", 1)[-1]
                if layer in SPAN_METRICS:
                    timed = span(layer, handler)
                    if layer == "deployer" and bus.base_topic(topic) == bus.TOPIC_MONITOR:

                        def handler(topic_, msg, timed=timed):
                            counts["deployer.table_updates"] += msg.action is bus.Action.MONITORING_RESULT
                            return timed(topic_, msg)

                    else:
                        handler = timed
            return subscribe(msgbus, topic, handler)

        self._patch(bus.MessageBus, "subscribe", traced_subscribe)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def count_report(self, report) -> None:
        """Counts read off a finished run's report."""
        counts = self.counts
        for event in report.events:
            kind = event["type"]
            if kind in ("admission", "optimization_cycle"):
                counts["analyzer.decisions"] += 1
            elif kind == "optimization":
                counts["analyzer.limit_changes"] += 1
            elif kind == "optimization_denied":
                counts["analyzer.denials"] += 1
            elif kind == "cluster_select":
                counts["deployer.elections"] += 1
            elif kind == "deployed":
                counts["deployer.deployed"] += 1
        counts["bus.bridged_copies"] += sum(1 for m in report.messages if m["bridged_from"] is not None)
        counts["scenario.trace_rows"] += sum(len(rows) for rows in report.traces.values())

    def take_round(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per layer metric and counts since the last call."""
        times = {metric: self.self_ns.get(name, 0) / 1e9 for name, metric in SPAN_METRICS.items()}
        counts = {name: self.counts.get(name, 0) for name in COUNT_METRICS}
        self.self_ns.clear()
        self.counts.clear()
        return times, counts

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
