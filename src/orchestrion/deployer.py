"""Deployment front door and executor.

Accepts external deployment requests (a direct-call stand-in for the REST
ingress), resolves images through the registry, drives the request-then-base
fallback against the analyzer, executes accepted deployments on the host, and
applies optimization updates. Admissions run one at a time: ``_on_verdict``
turns each verdict into the next step and frees the slot when the admission
ends, and ``_reject`` is the one place a deployment is rejected, whether its
image lookup, its analyses or its start failed. With cluster bridging enabled
it also tracks every device's availability and runs the deterministic
executor election: all deployers rank the same table the same way, and only
the winner proceeds. The deployer keeps the record of each deployment; a
container's deployment and attempt are labels on the host's container.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import IPv4Address

from .bus import Action, CLUSTER_PREFIX, Message, MessageBus, TOPIC_DEPLOY, TOPIC_ANALYZE, TOPIC_MONITOR
from .hostsim import HostSimulator, WorkloadSpec
from .model import Limits, OptimizationPolicy
from .registry import ImageRecord, NotFound, Registry, RegistryError, TamperError

logger = logging.getLogger(__name__)

ROLE_REQUEST = "request"
ROLE_BASE = "base"
ROLE_ESCALATED = "escalated"


def dominant_resource(request_cpu: int, request_mem: int, host_cpu: int, host_mem: int) -> str:
    """The resource a request leans on hardest, relative to host capacity."""
    return "mem" if request_mem / host_mem >= request_cpu / host_cpu else "cpu"


@lru_cache(maxsize=1024)  # bounded: a long-lived process may meet many addresses
def _address_order(address: str) -> int:
    """Numeric order of a device address, worked out once per address."""
    return int(IPv4Address(address))


def select_executor(table: dict[str, dict], dominant: str, fallback: str) -> str:
    """Deterministic executor election over the availability table.

    Highest availability of the dominant resource wins; ties fall to the
    other resource, then to the numerically smallest device address. An empty
    table elects ``fallback``, which must be the same on every device.
    """
    if not table:
        return fallback
    other = "mem" if dominant == "cpu" else "cpu"
    return min(table, key=lambda device: (-table[device][dominant], -table[device][other], _address_order(device)))


@dataclass
class DeploymentRecord:
    """How one deployment has fared on this device, with its owner and image."""

    deployment_id: str
    owner: str
    image: str
    state: str = "pending"  # pending|analyzing|running|rejected|failed|delegated
    attempts: int = 0
    decisions: list = field(default_factory=list)
    executor: str = ""
    detail: str = ""


@dataclass
class _Admission:
    record: DeploymentRecord
    attempt: int
    role: str
    target: Limits
    spec: WorkloadSpec
    image: ImageRecord
    analysis_id: str = ""


class Deployer:
    """One device's deployment executor; admissions run strictly one at a time."""

    def __init__(
        self,
        bus: MessageBus,
        registry: Registry,
        host: HostSimulator,
        policy: OptimizationPolicy,
        emit,
        cluster_mode: bool = False,
    ) -> None:
        self.bus = bus
        self.registry = registry
        self.host = host
        self.deployments: dict[str, DeploymentRecord] = {}
        self.policy = policy
        self.emit = emit
        self.cluster_mode = cluster_mode
        self.table: dict[str, dict] = {}  # device -> its last {"cpu", "mem"} availability
        self._table_t: dict[str, int] = {}  # device -> the time of that result
        self._queue: deque[tuple[DeploymentRecord, int]] = deque()
        self._active: _Admission | None = None
        self._request_seq = 0
        self._analysis_seq = 0
        bus.subscribe(TOPIC_DEPLOY, self._on_deploy)
        if cluster_mode:
            # only cluster elections read the availability table
            bus.subscribe(TOPIC_MONITOR, self._on_monitoring)
            bus.subscribe(CLUSTER_PREFIX + TOPIC_DEPLOY, self._on_deploy)
            bus.subscribe(CLUSTER_PREFIX + TOPIC_MONITOR, self._on_monitoring)

    # -- ingress (REST stand-in) ---------------------------------------------------

    def submit(self, request: dict) -> dict:
        """POST /deploy equivalent; body: {"owner": ..., "image": ...}, other keys are ignored."""
        owner = request["owner"]
        image = request["image"]
        self._request_seq += 1
        deployment_id = f"d{self._request_seq:03d}@{self.bus.device}"
        self.deployments[deployment_id] = DeploymentRecord(
            deployment_id=deployment_id,
            owner=owner,
            image=image,
        )
        payload = {"deployment_id": deployment_id, "owner": owner, "image": image, "attempt": 1}
        if self.cluster_mode:
            # every peer ranks on the resource this device's totals give, so
            # all of them elect the same winner whatever their own totals
            config = self.host.config
            try:
                found = self.registry.get_image(owner, image)
            except RegistryError:  # the admission rejects it; either resource will do
                payload["dominant"] = "mem"
            else:
                payload["dominant"] = dominant_resource(
                    found.request.cpu, found.request.mem, config.cpu_total, config.mem_total
                )
        self.bus.publish(
            TOPIC_DEPLOY,
            Message(action=Action.DEPLOYMENT_REQUEST, payload=payload, correlation_id=deployment_id),
        )
        return {"request_id": deployment_id}

    def deployment_status(self, deployment_id: str) -> dict:
        """GET /deployments/<id> equivalent."""
        record = self.deployments.get(deployment_id)
        if record is None:
            return {"request_id": deployment_id, "state": "unknown"}
        return {
            "request_id": deployment_id,
            "state": record.state,
            "attempts": record.attempts,
            "decisions": list(record.decisions),
            "containers": [
                state.container_id for state in self.host.containers() if state.deployment_id == deployment_id
            ],
            "executor": record.executor,
            "detail": record.detail,
        }

    # -- message handling -------------------------------------------------------------

    def _on_deploy(self, topic: str, msg: Message) -> None:
        if msg.action is Action.DEPLOYMENT_REQUEST:
            self._on_request(topic, msg)
        elif msg.action is Action.DEPLOYMENT_UPDATE:
            self._on_update(topic, msg)
        else:  # publish admits only an accept or a cancel besides these
            self._on_verdict(topic, msg)

    def _on_monitoring(self, topic: str, msg: Message) -> None:
        payload = msg.payload
        device, t = payload["device"], payload["t"]
        if t < self._table_t.get(device, t):
            return  # stale, out-of-order result
        # each monitoring result carries an avail dict of its own, never changed
        self.table[device] = payload["avail"]
        self._table_t[device] = t

    # -- deployment requests --------------------------------------------------------------

    def _on_request(self, topic: str, msg: Message) -> None:
        payload = msg.payload
        deployment_id = payload["deployment_id"]
        attempt = int(payload.get("attempt", 1))
        pinned = payload.get("pinned_device")
        if pinned is not None:
            if pinned != self.bus.device:
                return
        elif self.cluster_mode:
            dominant = payload["dominant"]
            # before the first scrape the table is empty; every peer then
            # elects the device the request came from
            winner = select_executor(self.table, dominant, msg.origin)
            self.emit(
                {
                    "type": "cluster_select",
                    "deployment": deployment_id,
                    "winner": winner,
                    "dominant": dominant,
                    "table": {d: {"cpu": e["cpu"], "mem": e["mem"]} for d, e in sorted(self.table.items())},
                }
            )
            if winner != self.bus.device:
                local = self.deployments.get(deployment_id)
                if local is not None:
                    local.state = "delegated"
                    local.executor = winner
                return
        record = self.deployments.get(deployment_id)
        if record is None:
            record = self.deployments[deployment_id] = DeploymentRecord(
                deployment_id=deployment_id,
                owner=payload["owner"],
                image=payload["image"],
            )
        self._queue.append((record, attempt))
        self._pump()

    def _pump(self) -> None:
        while self._active is None and self._queue:
            self._start_admission(*self._queue.popleft())

    def _start_admission(self, record: DeploymentRecord, attempt: int) -> None:
        record.executor = self.bus.device
        record.attempts = max(record.attempts, attempt)
        try:
            image = self.registry.get_image(record.owner, record.image)
            blob = self.registry.fetch_blob(image.image_hash)
        except NotFound as exc:
            self._reject(record, attempt, "rejected", f"image not found: {exc}", "image_not_found")
            return
        except TamperError as exc:
            detail = f"image verification failed: {exc}"
            self._reject(record, attempt, "rejected", detail, "image_tampered")
            return
        spec = WorkloadSpec.from_dict(json.loads(blob.layers[0].decode("utf-8"))["workload"])
        role, target = self._target_for_attempt(image, attempt)
        record.state = "analyzing"
        self._active = _Admission(record=record, attempt=attempt, role=role, target=target, spec=spec, image=image)
        self._publish_analysis()

    def _target_for_attempt(self, image: ImageRecord, attempt: int) -> tuple[str, Limits]:
        if attempt <= 1:
            return ROLE_REQUEST, image.request
        if attempt == 2:
            return ROLE_BASE, image.base
        escalated_mem = min(image.base.mem + (attempt - 2) * self.policy.scale_up.mem, self.policy.mem_max)
        return ROLE_ESCALATED, Limits(cpu=image.base.cpu, mem=escalated_mem)

    def _publish_analysis(self) -> None:
        assert self._active is not None
        admission = self._active
        self._analysis_seq += 1
        admission.analysis_id = f"a{self._analysis_seq:04d}@{self.bus.device}"
        self.bus.publish(
            TOPIC_ANALYZE,
            Message(
                action=Action.DEPLOYMENT_ANALYSIS_REQUEST,
                payload={
                    "deployment_id": admission.record.deployment_id,
                    "analysis_id": admission.analysis_id,
                    "target": admission.target.as_dict(),
                    "role": admission.role,
                    "attempt": admission.attempt,
                },
                correlation_id=admission.analysis_id,
            ),
        )

    # -- verdicts --------------------------------------------------------------------------

    def _on_verdict(self, topic: str, msg: Message) -> None:
        """Record the in-flight analysis's verdict and take the admission's next step.

        A cancel of the request role re-analyses at the base role. Any other
        verdict ends the admission: an accept starts the container, a cancel
        rejects the deployment. The slot then goes to the next queued request.
        """
        admission = self._active
        if admission is None or admission.analysis_id != msg.payload.get("analysis_id", ""):
            return  # stale or duplicate verdict: analysis ids are never reused
        record = admission.record
        accepted = msg.action is Action.DEPLOYMENT_ACCEPT
        record.decisions.append(
            {
                "verdict": "accept" if accepted else "reject",
                "role": admission.role,
                "attempt": admission.attempt,
                "target": admission.target.as_dict(),
            }
        )
        if not accepted and admission.role == ROLE_REQUEST:
            # second analysis with the vendor's base limits
            admission.role, admission.target = self._target_for_attempt(admission.image, 2)
            self._publish_analysis()
            return
        if accepted:
            self._execute(admission)
        else:
            state = "failed" if admission.attempt > 1 else "rejected"
            detail = "no acceptable resource limits"
            self._reject(record, admission.attempt, state, detail, "analysis_cancelled")
        self._active = None
        self._pump()

    def _reject(self, record: DeploymentRecord, attempt: int, state: str, detail: str, reason: str) -> None:
        """End an admission without a container, with ``reason`` in the event."""
        record.state = state
        record.detail = detail
        self.emit(
            {"type": "deployment_rejected", "deployment": record.deployment_id, "attempt": attempt, "reason": reason}
        )

    def _execute(self, admission: _Admission) -> None:
        record = admission.record
        try:
            cid = self.host.run_container(
                admission.spec, admission.target, deployment_id=record.deployment_id, attempt=admission.attempt
            )
        except ValueError as exc:
            logger.warning("execution failed for %s: %s", record.deployment_id, exc)
            self._reject(record, admission.attempt, "failed", f"execution failed: {exc}", "execution_failed")
            return
        record.state = "running"
        self.emit(
            {
                "type": "deployed",
                "deployment": record.deployment_id,
                "container": cid,
                "image": record.image,
                "attempt": admission.attempt,
                "role": admission.role,
                "limits": admission.target.as_dict(),
            }
        )

    # -- optimization updates ------------------------------------------------------------------

    def _on_update(self, topic: str, msg: Message) -> None:
        if topic.startswith(CLUSTER_PREFIX):
            return  # peers' limit updates are not ours to apply
        cid = msg.payload["container"]
        limits = Limits.from_dict(msg.payload["limits"])
        try:
            self.host.update_limits(cid, limits)
        except KeyError:
            logger.debug("update for unknown or dead container %s ignored", cid)
            return
        self.emit(
            {
                "type": "limits_updated",
                "container": cid,
                "limits": limits.as_dict(),
                "previous": msg.payload.get("previous"),
                "cycle": msg.payload.get("cycle"),
            }
        )
