"""Topic-based publish/subscribe fabric with optional cluster bridging.

Each device runs its own bus; buses in one simulation share an
:class:`EventSpine`, a single FIFO that makes delivery order deterministic
across the whole cluster. A subscriber is a handler. Each publish goes out
along its bus's cached **route** for the topic: the publishing device's own
copy, then one bridged copy per peer. :meth:`EventSpine.deliver` logs one
record per copy and queues the publish once, and :meth:`EventSpine.drain`
runs the handlers of each queued route in route order. Bridging re-publishes
configured topics on peer buses under a ``cluster/`` prefix, so components
can tell local traffic from remote traffic; the bridged copies reach peers in
address-string order, fixed when the peers are registered. Payloads are
JSON-serializable dicts carrying an ``action`` field, so the same envelope
maps 1:1 onto an MQTT 3.1.1 binding (topic names as below, payload = the JSON
document).
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

# One copy of a publish: the device it reaches, the topic it arrives on, the
# handlers subscribed there when the route was built, and the device it was
# bridged from (None for the publisher's own copy).
Copy = tuple[str, str, tuple[Handler, ...], str | None]
Route = tuple[Copy, ...]

# deliveries one drain may dispatch before it takes the spine to be in a storm
MAX_DRAIN_STEPS = 1_000_000


class EventSpine:
    """Shared FIFO of pending publishes plus a structured message log.

    One spine per simulation; :meth:`deliver` logs every copy of a publish
    and queues the publish once, along its route; :meth:`drain` pops in FIFO
    order and invokes each route's handlers in route order (which may publish
    more). The log records one entry per copy at the simulated second
    ``now``, which the runner sets; bridged copies keep the original msg_id,
    so "one broadcast" counts as one logical message.
    """

    def __init__(self) -> None:
        self._pending: deque[tuple[Route, Message]] = deque()
        self._buses: list["MessageBus"] = []
        self.log: list[dict] = []
        self._seq = 0
        self.now = 0

    def next_msg_id(self, origin: str) -> str:
        self._seq += 1
        return f"m{self._seq:06d}@{origin}"

    def drop_routes(self) -> None:
        """Forget every bus's cached routes; the next publish rebuilds its own."""
        for bus in self._buses:
            bus._routes.clear()

    def deliver(self, msg: Message, route: Route) -> None:
        """Log one record per copy of ``msg`` along ``route`` and queue it once."""
        log = self.log
        seq = len(log)
        # the fields every copy shares, read once; each copy's record is a
        # copy of this one with its own seq, device, topic and bridged_from
        shared = {
            "seq": seq,
            "t": self.now,
            "device": None,
            "topic": None,
            "action": msg.action._value_,
            "msg_id": msg.msg_id,
            "correlation_id": msg.correlation_id,
            "origin": msg.origin,
            "bridged_from": None,
        }
        for device, topic, _, bridged_from in route:
            record = shared.copy()
            record["seq"] = seq
            record["device"] = device
            record["topic"] = topic
            record["bridged_from"] = bridged_from
            log.append(record)
            seq += 1
        self._pending.append((route, msg))

    def drain(self) -> int:
        """Dispatch pending deliveries until quiescent; returns the number of
        handler calls. A handler that raises leaves the rest of its publish's
        deliveries at the head of the queue, for a later drain."""
        steps = 0
        limit = MAX_DRAIN_STEPS
        pending = self._pending
        while pending:
            route, msg = pending.popleft()
            first = steps
            try:
                for _, topic, handlers, _ in route:
                    for handler in handlers:
                        steps += 1
                        if steps > limit:
                            raise RuntimeError("message storm: drain did not quiesce")
                        handler(topic, msg)
            except BaseException:
                rest = _after(route, steps - first)
                if rest:
                    pending.appendleft((rest, msg))
                raise
        return steps


def _after(route: Route, calls: int) -> Route:
    """What is left of ``route`` once its first ``calls`` handler calls are
    made: the copy that was cut short, with its uncalled handlers, then every
    later copy."""
    for index, (device, topic, handlers, bridged_from) in enumerate(route):
        if calls < len(handlers):
            return ((device, topic, handlers[calls:], bridged_from),) + route[index + 1:]
        calls -= len(handlers)
    return ()


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
        self._routes: dict[str, Route] = {}
        spine._buses.append(self)

    def subscribe(self, topic: str, handler: Handler) -> None:
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        self._subs[topic].append(handler)
        # a cluster/ topic is on the routes of every bus bridged to this one
        self.spine.drop_routes()

    def publish(self, topic: str, msg: Message) -> None:
        route = self._routes.get(topic)
        if route is None:
            route = self._route(topic)
        expected = ACTION_TOPIC[msg.action]
        if base_topic(topic) != expected:
            raise ProtocolError(
                f"action {msg.action.value!r} is not valid on topic {topic!r} (expected {expected!r})"
            )
        if not msg.msg_id:
            msg.msg_id = self.spine.next_msg_id(self.device)
        if not msg.origin:
            msg.origin = self.device
        self.spine.deliver(msg, route)

    def _route(self, topic: str) -> Route:
        """Build and cache the route of ``topic``: this device's own copy,
        then, for a bridged topic, one copy per peer under the cluster/
        prefix. No prefixed topic is in BRIDGED_TOPICS, so a bridged copy is
        never re-bridged (loop prevention)."""
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        route = [(self.device, topic, tuple(self._subs[topic]), None)]
        if topic in BRIDGED_TOPICS:
            bridged = CLUSTER_PREFIX + topic
            route += [(peer.device, bridged, tuple(peer._subs[bridged]), self.device) for peer in self._peers.values()]
        self._routes[topic] = route = tuple(route)
        return route

    def bridge(self, peers: dict[str, "MessageBus"]) -> None:
        """Register peer buses that :data:`BRIDGED_TOPICS` are re-broadcast to,
        kept in name-string order; duplicate registration is an idempotent
        no-op. A peer must be another bus on this bus's spine."""
        for peer in peers.values():
            if peer is self:
                raise ProtocolError("cannot bridge a bus to itself")
            if peer.spine is not self.spine:
                raise ProtocolError(f"cannot bridge {self.device} to {peer.device} on another spine")
        self._peers = dict(sorted({**self._peers, **peers}.items()))
        self._routes.clear()


def bridge_all(buses: dict[str, MessageBus]) -> None:
    """Fully mesh a set of device buses (each device knows every other)."""
    for name, bus in buses.items():
        peers = {n: b for n, b in buses.items() if n != name}
        bus.bridge(peers)
