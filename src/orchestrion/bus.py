"""Topic-based publish/subscribe fabric with optional cluster bridging.

Each device runs its own bus; buses in one simulation share an
:class:`EventSpine`, a single FIFO that makes delivery order deterministic
across the whole cluster. A subscriber is a handler: every copy of a message
goes through :meth:`EventSpine.deliver`, which logs it and queues it for the
handlers of its topic, and :meth:`EventSpine.drain` runs the queued handlers
in FIFO order. Bridging re-publishes configured topics on peer buses under a
``cluster/`` prefix, so components can tell local traffic from remote
traffic; the bridged copies reach peers in address-string order, fixed when
the peers are registered. Payloads are JSON-serializable dicts carrying an
``action`` field, so the same envelope maps 1:1 onto an MQTT 3.1.1 binding
(topic names as below, payload = the JSON document).
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable

logger = logging.getLogger(__name__)


class ProtocolError(ValueError):
    """Message rejected: unknown topic or action/topic mismatch."""


class Action(str, Enum):
    DEPLOYMENT_REQUEST = "deployment_request"
    DEPLOYMENT_ANALYSIS_REQUEST = "deployment_analysis_request"
    DEPLOYMENT_OPTIMIZATION_REQUEST = "deployment_optimization_request"
    FORECAST_REQUEST = "forecast_request"
    FORECAST_RESPONSE = "forecast_response"
    DEPLOYMENT_ACCEPT = "deployment_accept"
    DEPLOYMENT_CANCEL = "deployment_cancel"
    DEPLOYMENT_UPDATE = "deployment_update"
    MONITORING_RESULT = "monitoring_result"

    def __str__(self) -> str:
        return self.value


TOPIC_DEPLOY = "deploy"
TOPIC_ANALYZE = "analyze"
TOPIC_FORECAST = "forecast"
TOPIC_MONITOR = "monitor"
CLUSTER_PREFIX = "cluster/"

BASE_TOPICS = (TOPIC_DEPLOY, TOPIC_ANALYZE, TOPIC_FORECAST, TOPIC_MONITOR)

# Topics re-broadcast to peers when bridging is enabled.
BRIDGED_TOPICS = (TOPIC_MONITOR, TOPIC_DEPLOY)

KNOWN_TOPICS = BASE_TOPICS + tuple(CLUSTER_PREFIX + t for t in BRIDGED_TOPICS)

# Which topic each action is allowed on.
ACTION_TOPIC: dict[Action, str] = {
    Action.DEPLOYMENT_REQUEST: TOPIC_DEPLOY,
    Action.DEPLOYMENT_ANALYSIS_REQUEST: TOPIC_ANALYZE,
    Action.DEPLOYMENT_OPTIMIZATION_REQUEST: TOPIC_ANALYZE,
    Action.FORECAST_REQUEST: TOPIC_FORECAST,
    Action.FORECAST_RESPONSE: TOPIC_FORECAST,
    Action.DEPLOYMENT_ACCEPT: TOPIC_DEPLOY,
    Action.DEPLOYMENT_CANCEL: TOPIC_DEPLOY,
    Action.DEPLOYMENT_UPDATE: TOPIC_DEPLOY,
    Action.MONITORING_RESULT: TOPIC_MONITOR,
}


def base_topic(topic: str) -> str:
    """Strip a single ``cluster/`` prefix, if present."""
    if topic.startswith(CLUSTER_PREFIX):
        return topic[len(CLUSTER_PREFIX):]
    return topic


@dataclass
class Message:
    """Envelope routed over topics; ``action`` identifies its purpose."""

    action: Action
    payload: dict
    origin: str = ""
    correlation_id: str = ""
    msg_id: str = ""

    def to_wire(self) -> bytes:
        doc = {
            "action": self.action.value,
            "origin": self.origin,
            "correlation_id": self.correlation_id,
            "msg_id": self.msg_id,
            "payload": self.payload,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_wire(cls, raw: bytes) -> "Message":
        doc = json.loads(raw.decode("utf-8"))
        return cls(
            action=Action(doc["action"]),
            payload=doc.get("payload", {}),
            origin=doc.get("origin", ""),
            correlation_id=doc.get("correlation_id", ""),
            msg_id=doc.get("msg_id", ""),
        )


Handler = Callable[[str, Message], None]

# deliveries one drain may dispatch before it takes the spine to be in a storm
MAX_DRAIN_STEPS = 1_000_000


class EventSpine:
    """Shared FIFO of pending deliveries plus a structured message log.

    One spine per simulation; :meth:`deliver` logs a copy and queues it,
    :meth:`drain` pops in FIFO order and invokes handlers (which may publish
    more). The log records one entry per copy at the simulated second
    ``now``, which the runner sets; bridged copies keep the original msg_id,
    so "one broadcast" counts as one logical message.
    """

    def __init__(self) -> None:
        self._pending: deque[tuple[Handler, str, Message]] = deque()
        self.log: list[dict] = []
        self._seq = 0
        self.now = 0

    def next_msg_id(self, origin: str) -> str:
        self._seq += 1
        return f"m{self._seq:06d}@{origin}"

    def deliver(self, device: str, topic: str, msg: Message, handlers: list[Handler], bridged_from: str | None) -> None:
        """Log ``msg`` on ``device``'s ``topic`` and queue it for each handler."""
        self.log.append(
            {
                "seq": len(self.log),
                "t": self.now,
                "device": device,
                "topic": topic,
                "action": msg.action.value,
                "msg_id": msg.msg_id,
                "correlation_id": msg.correlation_id,
                "origin": msg.origin,
                "bridged_from": bridged_from,
            }
        )
        for handler in handlers:
            self._pending.append((handler, topic, msg))

    def drain(self) -> int:
        """Dispatch pending deliveries until quiescent; returns step count."""
        steps = 0
        while self._pending:
            handler, topic, msg = self._pending.popleft()
            steps += 1
            if steps > MAX_DRAIN_STEPS:
                raise RuntimeError("message storm: drain did not quiesce")
            handler(topic, msg)
        return steps


# the keys of a log record, as :meth:`EventSpine.deliver` writes them
LOG_KEYS = ("action", "bridged_from", "correlation_id", "device", "msg_id", "origin", "seq", "t", "topic")


def message_line(record: dict) -> str:
    """One ``messages.jsonl`` line for a log record: the bytes of
    ``json.dumps(record, sort_keys=True) + "\n"``, written for the record's
    fixed schema. Strings are quoted by the function ``json.dumps`` quotes
    them with, ints printed by ``int.__repr__`` as ``json`` does. A record
    without exactly the keys of :data:`LOG_KEYS` raises ``ValueError`` (a
    missing or an extra key) or ``KeyError`` (a renamed one)."""
    if len(record) != len(LOG_KEYS):
        raise ValueError(f"message record has keys {sorted(record)}, not {list(LOG_KEYS)}")
    bridged_from = record["bridged_from"]
    return (
        f'{{"action": {_json_str(record["action"])}, '
        f'"bridged_from": {"null" if bridged_from is None else _json_str(bridged_from)}, '
        f'"correlation_id": {_json_str(record["correlation_id"])}, "device": {_json_str(record["device"])}, '
        f'"msg_id": {_json_str(record["msg_id"])}, "origin": {_json_str(record["origin"])}, '
        f'"seq": {int.__repr__(record["seq"])}, "t": {int.__repr__(record["t"])}, '
        f'"topic": {_json_str(record["topic"])}}}\n'
    )


class MessageBus:
    """Per-device topic bus. Delivery order is per-topic FIFO via the spine."""

    def __init__(self, device: str, spine: EventSpine) -> None:
        self.device = device
        self.spine = spine
        self._subs: dict[str, list[Handler]] = {t: [] for t in KNOWN_TOPICS}
        self._peers: dict[str, "MessageBus"] = {}

    def subscribe(self, topic: str, handler: Handler) -> None:
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        self._subs[topic].append(handler)

    def publish(self, topic: str, msg: Message) -> None:
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        expected = ACTION_TOPIC[msg.action]
        if base_topic(topic) != expected:
            raise ProtocolError(
                f"action {msg.action.value!r} is not valid on topic {topic!r} (expected {expected!r})"
            )
        if not msg.msg_id:
            msg.msg_id = self.spine.next_msg_id(self.device)
        if not msg.origin:
            msg.origin = self.device
        deliver = self.spine.deliver
        deliver(self.device, topic, msg, self._subs[topic], None)
        # Re-broadcast on peers under the cluster/ prefix; no prefixed topic is
        # in BRIDGED_TOPICS, so a bridged copy is never re-bridged (loop
        # prevention).
        if self._peers and topic in BRIDGED_TOPICS:
            bridged = CLUSTER_PREFIX + topic
            for peer in self._peers.values():
                deliver(peer.device, bridged, msg, peer._subs[bridged], self.device)

    def bridge(self, peers: dict[str, "MessageBus"]) -> None:
        """Register peer buses that :data:`BRIDGED_TOPICS` are re-broadcast to,
        kept in name-string order; duplicate registration is an idempotent
        no-op."""
        for name, peer in peers.items():
            if peer is self:
                raise ProtocolError("cannot bridge a bus to itself")
            self._peers[name] = peer
        self._peers = dict(sorted(self._peers.items()))


def bridge_all(buses: dict[str, MessageBus]) -> None:
    """Fully mesh a set of device buses (each device knows every other)."""
    for name, bus in buses.items():
        peers = {n: b for n, b in buses.items() if n != name}
        bus.bridge(peers)
