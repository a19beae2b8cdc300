"""Shared per-device state the control-loop components coordinate over: how
each deployment has fared, its owner and image, and which deployment and
attempt each container serves. A container's limits, start and liveness are
the host's to know (:class:`~orchestrion.hostsim.HostSimulator`).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ContainerRecord:
    container_id: str
    deployment_id: str
    attempt: int


@dataclass
class DeploymentRecord:
    deployment_id: str
    owner: str
    image: str
    state: str = "pending"  # pending|analyzing|running|rejected|failed|delegated
    attempts: int = 0
    decisions: list = field(default_factory=list)
    executor: str = ""
    detail: str = ""


class Knowledge:
    """Registry of deployments and containers on one device."""

    def __init__(self) -> None:
        self.containers: dict[str, ContainerRecord] = {}
        self.deployments: dict[str, DeploymentRecord] = {}

    def register_container(self, record: ContainerRecord) -> None:
        self.containers[record.container_id] = record
