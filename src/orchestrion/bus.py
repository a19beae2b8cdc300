"""Topic-based publish/subscribe fabric with optional cluster bridging.

Each device runs its own bus; buses in one simulation share an
:class:`EventSpine`, a single FIFO that makes delivery order deterministic
across the whole cluster. A subscriber is a handler. Each publish goes out
along its bus's cached **route** for the topic: the publishing device's own
copy, then one bridged copy per peer. :meth:`EventSpine.deliver` logs the
publish once, as one record that names every copy, and queues it once, and
:meth:`EventSpine.drain` runs the handlers of each queued route in route
order. This module alone knows the record's format: :func:`copies` expands a
log into one dict per copy, and :func:`message_lines` writes a record as the
``messages.jsonl`` lines of its copies. Bridging re-publishes configured
topics on peer buses under a ``cluster/`` prefix, so components can tell
local traffic from remote traffic; the bridged copies reach peers in
address-string order, fixed when the peers are registered. Payloads are
JSON-serializable dicts carrying an ``action`` field, so the same envelope
maps 1:1 onto an MQTT 3.1.1 binding (topic names as below, payload = the JSON
document).
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator

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


Handler = Callable[[str, Message], None]

# One copy of a publish: the device it reaches, the topic it arrives on, the
# handlers subscribed there when the route was built, and the device it was
# bridged from (None for the publisher's own copy).
Copy = tuple[str, str, tuple[Handler, ...], str | None]
Route = tuple[Copy, ...]
# A copy as the message log names it: (device, topic, bridged_from).
LoggedCopy = tuple[str, str, str | None]

# deliveries one drain may dispatch before it takes the spine to be in a storm
MAX_DRAIN_STEPS = 1_000_000


class EventSpine:
    """Shared FIFO of pending publishes plus a structured message log.

    One spine per simulation; :meth:`deliver` logs a publish once and queues
    it once, along its route; :meth:`drain` pops in FIFO order and invokes
    each route's handlers in route order (which may publish more). The log
    holds one record per publish, at the simulated second ``now``, which the
    runner sets: the publish's shared fields and the ``(device, topic,
    bridged_from)`` triple of each of its copies. A copy's ``seq`` counts the
    copies logged before it, so a record's ``seq`` is its first copy's.
    Bridged copies keep the original msg_id, so "one broadcast" counts as
    one logical message.
    """

    def __init__(self) -> None:
        self._pending: deque[tuple[Route, Message]] = deque()
        self._buses: list["MessageBus"] = []
        self.log: list[dict] = []
        self._seq = 0
        self._copies_logged = 0
        self.now = 0

    def next_msg_id(self, origin: str) -> str:
        self._seq += 1
        return f"m{self._seq:06d}@{origin}"

    def drop_routes(self) -> None:
        """Forget every bus's cached routes; the next publish rebuilds its own."""
        for bus in self._buses:
            bus._routes.clear()

    def deliver(self, msg: Message, route: Route, logged: tuple[LoggedCopy, ...]) -> None:
        """Log ``msg`` once, as one record naming the ``logged`` copies of its
        ``route``, and queue it once along the route."""
        self.log.append(
            {
                "seq": self._copies_logged,
                "t": self.now,
                "action": msg.action._value_,
                "msg_id": msg.msg_id,
                "correlation_id": msg.correlation_id,
                "origin": msg.origin,
                "copies": logged,
            }
        )
        self._copies_logged += len(logged)
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


# the keys of a publish record, as :meth:`EventSpine.deliver` writes them
RECORD_KEYS = ("seq", "t", "action", "msg_id", "correlation_id", "origin", "copies")


def copies(log: Iterable[dict]) -> Iterator[dict]:
    """Each copy of each publish record in ``log`` as its own dict, in seq
    order: the record's shared fields with the copy's seq, device, topic and
    bridged_from."""
    for record in log:
        seq, t, action = record["seq"], record["t"], record["action"]
        msg_id, correlation_id, origin = record["msg_id"], record["correlation_id"], record["origin"]
        for device, topic, bridged_from in record["copies"]:
            yield {
                "seq": seq,
                "t": t,
                "device": device,
                "topic": topic,
                "action": action,
                "msg_id": msg_id,
                "correlation_id": correlation_id,
                "origin": origin,
                "bridged_from": bridged_from,
            }
            seq += 1


def message_lines(record: dict) -> list[str]:
    """The ``messages.jsonl`` lines of a publish record, one per copy: for
    each dict :func:`copies` expands it into, the bytes of
    ``json.dumps(copy, sort_keys=True) + "\n"``. Strings are quoted by the
    function ``json.dumps`` quotes them with, ints printed by
    ``int.__repr__`` as ``json`` does. A record without exactly the keys of :data:`RECORD_KEYS` raises
    ``ValueError`` (a missing or an extra key) or ``KeyError`` (a renamed
    one)."""
    if len(record) != len(RECORD_KEYS):
        raise ValueError(f"message record has keys {sorted(record)}, not {sorted(RECORD_KEYS)}")
    seq = record["seq"]
    head = f'{{"action": {_json_str(record["action"])}, "bridged_from": '
    before_device = f', "correlation_id": {_json_str(record["correlation_id"])}, "device": '
    before_seq = f', "msg_id": {_json_str(record["msg_id"])}, "origin": {_json_str(record["origin"])}, "seq": '
    before_topic = f', "t": {int.__repr__(record["t"])}, "topic": '
    lines = []
    for device, topic, bridged_from in record["copies"]:
        lines.append(
            f'{head}{"null" if bridged_from is None else _json_str(bridged_from)}{before_device}{_json_str(device)}'
            f'{before_seq}{int.__repr__(seq)}{before_topic}{_json_str(topic)}}}\n'
        )
        seq += 1
    return lines


class MessageBus:
    """Per-device topic bus. Delivery order is per-topic FIFO via the spine."""

    def __init__(self, device: str, spine: EventSpine) -> None:
        self.device = device
        self.spine = spine
        self._subs: dict[str, list[Handler]] = {t: [] for t in KNOWN_TOPICS}
        self._peers: dict[str, "MessageBus"] = {}
        # topic -> its route and the route's copies as the log names them
        self._routes: dict[str, tuple[Route, tuple[LoggedCopy, ...]]] = {}
        spine._buses.append(self)

    def subscribe(self, topic: str, handler: Handler) -> None:
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        self._subs[topic].append(handler)
        # a cluster/ topic is on the routes of every bus bridged to this one
        self.spine.drop_routes()

    def publish(self, topic: str, msg: Message) -> None:
        cached = self._routes.get(topic)
        if cached is None:
            cached = self._route(topic)
        route, logged = cached
        expected = ACTION_TOPIC[msg.action]
        if base_topic(topic) != expected:
            raise ProtocolError(
                f"action {msg.action.value!r} is not valid on topic {topic!r} (expected {expected!r})"
            )
        if not msg.msg_id:
            msg.msg_id = self.spine.next_msg_id(self.device)
        if not msg.origin:
            msg.origin = self.device
        self.spine.deliver(msg, route, logged)

    def _route(self, topic: str) -> tuple[Route, tuple[LoggedCopy, ...]]:
        """Build and cache the route of ``topic``: this device's own copy,
        then, for a bridged topic, one copy per peer under the cluster/
        prefix; beside it, the (device, topic, bridged_from) triple of each
        copy, which the log keeps. No prefixed topic is in BRIDGED_TOPICS, so
        a bridged copy is never re-bridged (loop prevention)."""
        if topic not in self._subs:
            raise ProtocolError(f"unknown topic: {topic!r}")
        route = [(self.device, topic, tuple(self._subs[topic]), None)]
        if topic in BRIDGED_TOPICS:
            bridged = CLUSTER_PREFIX + topic
            route += [(peer.device, bridged, tuple(peer._subs[bridged]), self.device) for peer in self._peers.values()]
        route = tuple(route)
        logged = tuple((device, copy_topic, bridged_from) for device, copy_topic, _, bridged_from in route)
        self._routes[topic] = cached = (route, logged)
        return cached

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
