"""Shared per-device state the control-loop components coordinate over:
which containers run with which limits, and how each deployment has fared.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import Limits


@dataclass
class ContainerRecord:
    container_id: str
    deployment_id: str
    owner: str
    image: str
    limits: Limits
    start_t: int
    attempt: int
    status: str = "running"


@dataclass
class DeploymentRecord:
    deployment_id: str
    owner: str
    image: str
    requester: str = ""
    state: str = "pending"  # pending|analyzing|running|rejected|failed|delegated
    attempts: int = 0
    decisions: list = field(default_factory=list)
    containers: list = field(default_factory=list)
    executor: str = ""
    detail: str = ""


class Knowledge:
    """Registry of deployments and containers on one device."""

    def __init__(self) -> None:
        self.containers: dict[str, ContainerRecord] = {}
        self._live: dict[str, ContainerRecord] = {}  # the running ones, in registration order
        self.deployments: dict[str, DeploymentRecord] = {}

    def register_container(self, record: ContainerRecord) -> None:
        self.containers[record.container_id] = self._live[record.container_id] = record

    def active(self) -> list[ContainerRecord]:
        """Running containers in registration order (oldest first)."""
        return list(self._live.values())

    def mark_dead(self, cid: str, status: str) -> None:
        rec = self.containers.get(cid)
        if rec is not None:
            rec.status = status
            self._live.pop(cid, None)

    def set_limits(self, cid: str, limits: Limits) -> None:
        rec = self.containers.get(cid)
        if rec is not None:
            rec.limits = limits
