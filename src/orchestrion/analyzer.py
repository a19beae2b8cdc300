"""Decision core: predicted availability, deployment admission, and the
per-container memory/CPU limit optimization rules.

Availability looks forward, not at the instantaneous state: each running
container contributes the maximum over the forecast horizon of its predicted
utilization, floored at its current limit (running containers are never
squeezed by a newcomer). A deployment is admitted only if its target stays
strictly below the predicted availability for every resource; the same strict
rule gates upscale amounts during optimization.
"""
from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, replace

from .bus import Action, Message, MessageBus, TOPIC_ANALYZE, TOPIC_DEPLOY, TOPIC_FORECAST
from .forecaster import ForecastResult
from .hostsim import HostSimulator
from .model import RESOURCES, Limits, OptimizationPolicy

logger = logging.getLogger(__name__)

_EPS = 1e-9

# the forecast series that predicts each resource's use
_UTIL_METRICS = (("cpu", "cpu_util"), ("mem", "mem_util"))


def _ceil_amount(value: float) -> int:
    """Integer ceiling that forgives float representation slop (100*1.1 -> 110)."""
    return int(math.ceil(value - _EPS))


@dataclass(frozen=True)
class AdmissionVerdict:
    decision: str  # "accept" | "reject"
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def predict_availability(
    forecasts: dict[str, ForecastResult | None],
    currents: dict[str, Limits],
    capacity: Limits,
) -> dict[str, float]:
    """Subtract each running container's predicted peak from the usable
    capacity, per resource.

    A peak is the largest forecast value, floored at the current limit; a
    container without a usable forecast counts its current limit alone. The
    result may go negative: it is reported as-is, never floored.
    """
    avail = {"cpu": float(capacity.cpu), "mem": float(capacity.mem)}
    for cid, limits in currents.items():
        forecast = forecasts.get(cid)
        usable = forecast is not None and not forecast.error
        for res, metric in _UTIL_METRICS:
            current = float(getattr(limits, res))
            series = getattr(forecast, metric) if usable else None
            avail[res] -= max(current, *series) if series else current
    return avail


def admit(target: Limits, avail: dict[str, float]) -> AdmissionVerdict:
    """Accept only if the target sits strictly below predicted availability
    for every resource; equality rejects."""
    for res in RESOURCES:
        amount = getattr(target, res)
        if not float(amount) < avail[res]:
            return AdmissionVerdict(
                decision="reject",
                reason=f"insufficient {res}: target {amount} vs predicted {avail[res]:g}",
            )
    return AdmissionVerdict(decision="accept")


def account_optimization(avail: dict[str, float], deltas: dict[str, int]) -> None:
    """Debit approved limit changes from the running availability."""
    for res, delta in deltas.items():
        avail[res] -= delta


def optimize_memory(current: int, peak_util: float, policy: OptimizationPolicy) -> int:
    """Next memory limit for one container.

    Scale up one step when the peak, padded by the safety margin, no longer
    fits under the current limit. Otherwise try one step down, but never land
    below the padded peak: in that case the current limit is kept.
    Results are bounded to [mem_min, mem_max].
    """
    floor = peak_util * policy.mem_margin
    if floor > current + _EPS:
        return min(current + policy.scale_up.mem, policy.mem_max)
    candidate = current - policy.scale_down.mem
    if candidate + _EPS < floor:
        return current
    return max(candidate, policy.mem_min)


def optimize_cpu(current: int, peak_util: float, peak_throttle: float, policy: OptimizationPolicy, cpu_cap: int) -> int:
    """Next CPU limit for one container.

    Upscale a full step when predicted utilization exceeds the limit; when
    only throttling exceeds its threshold, upscale by a fraction of the step
    proportional to the predicted throttle percentage. Otherwise step down,
    floored at the buffered utilization peak; if even that floor sits above
    the current limit, keep the limit unchanged.
    """
    if peak_util > current + _EPS:
        return min(current + policy.scale_up.cpu, cpu_cap)
    if peak_throttle > policy.throttle_limit_pct:
        adjusted = _ceil_amount(policy.scale_up.cpu * peak_throttle / 100.0)
        return min(current + adjusted, cpu_cap)
    candidate = max(current - policy.scale_down.cpu, _ceil_amount(peak_util * policy.cpu_buffer))
    if candidate >= current:
        return current
    return max(candidate, 0)


class Analyzer:
    """Consumes analysis and optimization requests; answers with deployment
    accept/cancel verdicts and limit updates. The host's live containers,
    with their current limits, are the ones it forecasts and accounts for.

    One piece of work is in flight at a time: an optimization cycle runs as an
    atomic sequence and admissions queue behind it, so the sequential
    availability accounting is never interleaved. Queued work is a
    ``(finish, work)`` pair; the one forecast in flight is held as
    ``(forecast_id, finish, work)`` until its response arrives.

    Availability starts from the host's usable capacity, its totals less its
    reserve, and a CPU upscale is capped at it.
    """

    def __init__(
        self,
        bus: MessageBus,
        host: HostSimulator,
        metrics_store,
        policy: OptimizationPolicy,
        horizon: int,
        emit,
    ) -> None:
        self.bus = bus
        self.host = host
        self.metrics = metrics_store
        self.policy = policy
        self.horizon = horizon
        self.emit = emit
        self._queue: deque[tuple] = deque()
        self._awaiting: tuple | None = None
        self._forecast_seq = 0
        self._cycles: dict[str, dict] = {}  # correlation -> gathering state
        bus.subscribe(TOPIC_ANALYZE, self._on_analyze)
        bus.subscribe(TOPIC_FORECAST, self._on_forecast)

    # -- message handling -----------------------------------------------------

    def _on_analyze(self, topic: str, msg: Message) -> None:
        if msg.action is Action.DEPLOYMENT_ANALYSIS_REQUEST:
            self._queue.append((self._finish_admission, msg.payload))
            self._pump()
        elif msg.action is Action.DEPLOYMENT_OPTIMIZATION_REQUEST:
            self._gather_cycle(msg)

    def _gather_cycle(self, msg: Message) -> None:
        state = self._cycles.setdefault(
            msg.correlation_id,
            {"cycle": msg.payload["cycle"], "count": msg.payload["count"], "containers": []},
        )
        state["containers"].append(msg.payload["container"])
        if len(state["containers"]) == state["count"]:
            del self._cycles[msg.correlation_id]
            self._queue.append((self._finish_cycle, state))
            self._pump()

    def _on_forecast(self, topic: str, msg: Message) -> None:
        if msg.action is not Action.FORECAST_RESPONSE:
            return
        if self._awaiting is None or msg.correlation_id != self._awaiting[0]:
            return
        _, finish, work = self._awaiting
        self._awaiting = None
        results = {cid: ForecastResult(**doc) for cid, doc in msg.payload["results"].items()}
        finish(work, results)
        self._pump()

    def _pump(self) -> None:
        if self._awaiting is not None or not self._queue:
            return
        finish, work = self._queue.popleft()
        self._forecast_seq += 1
        forecast_id = f"fc{self._forecast_seq:04d}@{self.bus.device}"
        self._awaiting = (forecast_id, finish, work)
        actives = [state.container_id for state in self.host.running_containers()]
        self.bus.publish(
            TOPIC_FORECAST,
            Message(
                action=Action.FORECAST_REQUEST,
                payload={"containers": actives, "horizon": self.horizon},
                correlation_id=forecast_id,
            ),
        )

    # -- admission -------------------------------------------------------------

    def _availability(self, forecasts: dict[str, ForecastResult]) -> dict[str, float]:
        # A container lacks a usable forecast only when it has no stored
        # sample yet, so its current limit alone stands for it.
        currents = {state.container_id: state.limits for state in self.host.running_containers()}
        config = self.host.config
        return predict_availability(forecasts, currents, Limits(cpu=config.usable_cpu, mem=config.usable_mem))

    def _finish_admission(self, payload: dict, forecasts: dict[str, ForecastResult]) -> None:
        avail = self._availability(forecasts)
        target = Limits.from_dict(payload["target"])
        verdict = admit(target, avail)
        action = Action.DEPLOYMENT_ACCEPT if verdict.accepted else Action.DEPLOYMENT_CANCEL
        ruling = {
            "analysis_id": payload["analysis_id"],
            "attempt": payload["attempt"],
            "role": payload["role"],
            "target": target.as_dict(),
            "avail": avail,
            "reason": verdict.reason,
        }
        self.emit({"type": "admission", "deployment": payload["deployment_id"], "verdict": verdict.decision, **ruling})
        self.bus.publish(
            TOPIC_DEPLOY,
            Message(
                action=action,
                payload={"deployment_id": payload["deployment_id"], **ruling},
                correlation_id=payload["analysis_id"],
            ),
        )

    # -- optimization cycle ------------------------------------------------------

    def _finish_cycle(self, state: dict, forecasts: dict[str, ForecastResult]) -> None:
        avail = self._availability(forecasts)
        changes = 0
        cycle_ids = set(state["containers"])
        for container in self.host.running_containers():
            if container.container_id not in cycle_ids:
                continue
            forecast = forecasts.get(container.container_id)
            if forecast is None or forecast.error:
                continue  # no usable forecast: leave the container alone
            changes += self._optimize_container(container, forecast, avail, state["cycle"])
        self.emit(
            {
                "type": "optimization_cycle",
                "cycle": state["cycle"],
                "containers": list(state["containers"]),
                "changes": changes,
                "avail": avail,
            }
        )

    def _optimize_container(self, container, forecast: ForecastResult, avail: dict[str, float], cycle: int) -> int:
        cid = container.container_id
        obs_mem = self.metrics.observed_max(cid, "mem_util")
        mem_target = optimize_memory(container.limits.mem, obs_mem, self.policy)

        fc_cpu_peak = max(forecast.cpu_util) if forecast.cpu_util else 0.0
        obs_cpu = self.metrics.observed_max(cid, "cpu_util")
        cpu_peak = max(fc_cpu_peak, obs_cpu)
        throttle_peak = max(forecast.throttle_pct) if forecast.throttle_pct else 0.0
        cpu_cap = self.host.config.usable_cpu
        cpu_target = optimize_cpu(container.limits.cpu, cpu_peak, throttle_peak, self.policy, cpu_cap)

        deltas: dict[str, int] = {}
        targets: dict[str, int] = {}
        for res, target_value in (("mem", mem_target), ("cpu", cpu_target)):
            current_value = getattr(container.limits, res)
            delta = target_value - current_value
            if delta == 0:
                continue
            if delta > 0 and not delta < avail[res]:
                self.emit(
                    {
                        "type": "optimization_denied",
                        "container": cid,
                        "resource": res,
                        "wanted": target_value,
                        "current": current_value,
                        "avail": avail[res],
                        "cycle": cycle,
                    }
                )
                continue
            deltas[res] = delta
            targets[res] = target_value
        if not deltas:
            return 0
        account_optimization(avail, deltas)
        final = replace(container.limits, **targets)
        change = {"container": cid, "cycle": cycle, "previous": container.limits.as_dict()}
        self.emit(
            {
                "type": "optimization",
                **change,
                "target": final.as_dict(),
                "deltas": deltas,
            }
        )
        self.bus.publish(
            TOPIC_DEPLOY,
            Message(
                action=Action.DEPLOYMENT_UPDATE,
                payload={**change, "limits": final.as_dict()},
                correlation_id=f"opt-{cycle}-{cid}",
            ),
        )
        return 1
