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
the winner proceeds.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .bus import Action, CLUSTER_PREFIX, Message, MessageBus, TOPIC_DEPLOY, TOPIC_ANALYZE, TOPIC_MONITOR
from .hostsim import HostSimulator, WorkloadSpec
from .knowledge import ContainerRecord, DeploymentRecord, Knowledge
from .model import DeviceId, Limits, OptimizationPolicy
from .registry import ImageRecord, NotFound, Registry, RegistryError, TamperError

logger = logging.getLogger(__name__)

ROLE_REQUEST = "request"
ROLE_BASE = "base"
ROLE_ESCALATED = "escalated"


def dominant_resource(request_cpu: int, request_mem: int, host_cpu: int, host_mem: int) -> str:
    """The resource a request leans on hardest, relative to host capacity."""
    return "mem" if request_mem / host_mem >= request_cpu / host_cpu else "cpu"


@lru_cache(maxsize=1024)  # bounded: a long-lived process may meet many addresses
def _address_order(address: str) -> tuple[int, int, int, int]:
    """Numeric order of a device address, worked out once per address."""
    return DeviceId(address=address).sort_key


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
class _Admission:
    deployment_id: str
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
        knowledge: Knowledge,
        policy: OptimizationPolicy,
        emit,
        cluster_mode: bool = False,
    ) -> None:
        self.bus = bus
        self.registry = registry
        self.host = host
        self.knowledge = knowledge
        self.policy = policy
        self.emit = emit
        self.cluster_mode = cluster_mode
        self.table: dict[str, dict] = {}  # device -> its last {"cpu", "mem"} availability
        self._table_t: dict[str, int] = {}  # device -> the time of that result
        self._queue: deque[tuple[str, int]] = deque()
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
        self.knowledge.deployments[deployment_id] = DeploymentRecord(
            deployment_id=deployment_id,
            owner=owner,
            image=image,
        )
        self.bus.publish(
            TOPIC_DEPLOY,
            Message(
                action=Action.DEPLOYMENT_REQUEST,
                payload={"deployment_id": deployment_id, "owner": owner, "image": image, "attempt": 1},
                correlation_id=deployment_id,
            ),
        )
        return {"request_id": deployment_id}

    def deployment_status(self, deployment_id: str) -> dict:
        """GET /deployments/<id> equivalent."""
        record = self.knowledge.deployments.get(deployment_id)
        if record is None:
            return {"request_id": deployment_id, "state": "unknown"}
        return {
            "request_id": deployment_id,
            "state": record.state,
            "attempts": record.attempts,
            "decisions": list(record.decisions),
            "containers": [
                cid for cid, rec in self.knowledge.containers.items() if rec.deployment_id == deployment_id
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
            try:
                record = self.registry.get_image(payload["owner"], payload["image"])
            except RegistryError:
                record = None
            dominant = "mem"
            if record is not None:
                dominant = dominant_resource(
                    record.request_limit_cpu,
                    record.request_limit_memory,
                    self.host.config.cpu_total,
                    self.host.config.mem_total,
                )
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
                local = self.knowledge.deployments.get(deployment_id)
                if local is not None:
                    local.state = "delegated"
                    local.executor = winner
                return
        if deployment_id not in self.knowledge.deployments:
            self.knowledge.deployments[deployment_id] = DeploymentRecord(
                deployment_id=deployment_id,
                owner=payload["owner"],
                image=payload["image"],
            )
        self._queue.append((deployment_id, attempt))
        self._pump()

    def _pump(self) -> None:
        while self._active is None and self._queue:
            self._start_admission(*self._queue.popleft())

    def _start_admission(self, deployment_id: str, attempt: int) -> None:
        record = self.knowledge.deployments[deployment_id]
        record.executor = self.bus.device
        record.attempts = max(record.attempts, attempt)
        try:
            image = self.registry.get_image(record.owner, record.image)
            blob = self.registry.fetch_blob(image.image_hash)
        except NotFound as exc:
            self._reject(deployment_id, attempt, record, "rejected", f"image not found: {exc}", "image_not_found")
            return
        except TamperError as exc:
            detail = f"image verification failed: {exc}"
            self._reject(deployment_id, attempt, record, "rejected", detail, "image_tampered")
            return
        spec = WorkloadSpec.from_dict(json.loads(blob.layers[0].decode("utf-8"))["workload"])
        role, target = self._target_for_attempt(image, attempt)
        record.state = "analyzing"
        self._active = _Admission(
            deployment_id=deployment_id, attempt=attempt, role=role, target=target, spec=spec, image=image
        )
        self._publish_analysis()

    def _target_for_attempt(self, image: ImageRecord, attempt: int) -> tuple[str, Limits]:
        request = Limits(cpu=image.request_limit_cpu, mem=image.request_limit_memory)
        base = Limits(cpu=image.base_limit_cpu, mem=image.base_limit_memory)
        if attempt <= 1:
            return ROLE_REQUEST, request
        if attempt == 2:
            return ROLE_BASE, base
        escalated_mem = min(base.mem + (attempt - 2) * self.policy.scale_up.mem, self.policy.mem_max)
        return ROLE_ESCALATED, Limits(cpu=base.cpu, mem=escalated_mem)

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
                    "deployment_id": admission.deployment_id,
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
        record = self.knowledge.deployments[admission.deployment_id]
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
            self._execute(admission, record)
        else:
            state = "failed" if admission.attempt > 1 else "rejected"
            detail = "no acceptable resource limits"
            self._reject(admission.deployment_id, admission.attempt, record, state, detail, "analysis_cancelled")
        self._active = None
        self._pump()

    def _reject(
        self, deployment_id: str, attempt: int, record: DeploymentRecord, state: str, detail: str, reason: str
    ) -> None:
        """End an admission without a container, with ``reason`` in the event."""
        record.state = state
        record.detail = detail
        self.emit({"type": "deployment_rejected", "deployment": deployment_id, "attempt": attempt, "reason": reason})

    def _execute(self, admission: _Admission, record: DeploymentRecord) -> None:
        try:
            cid = self.host.run_container(admission.spec, admission.target)
        except ValueError as exc:
            logger.warning("execution failed for %s: %s", admission.deployment_id, exc)
            detail = f"execution failed: {exc}"
            self._reject(admission.deployment_id, admission.attempt, record, "failed", detail, "execution_failed")
            return
        self.knowledge.register_container(
            ContainerRecord(container_id=cid, deployment_id=admission.deployment_id, attempt=admission.attempt)
        )
        record.state = "running"
        self.emit(
            {
                "type": "deployed",
                "deployment": admission.deployment_id,
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
