"""A frozen per-copy reference spine for the bus and golden tests.

:class:`MessageBus` sends each publish along one cached route, which
:class:`EventSpine` logs once and queues once. The tests compare it with
:class:`PerCopyBus` on a :class:`PerCopySpine`: its ``publish`` hands every
copy to ``deliver`` on its own, which logs the copy as a one-copy publish
record and queues one entry per handler, and ``drain`` pops one handler at a
time. Keep their bodies as they are; they are the oracle, not a copy to keep
in step. Only the record's schema follows the spine's, so that both logs go
through the one writer and ``copies`` expands both.
"""
from orchestrion.bus import (
    ACTION_TOPIC,
    BRIDGED_TOPICS,
    CLUSTER_PREFIX,
    MAX_DRAIN_STEPS,
    EventSpine,
    Handler,
    Message,
    MessageBus,
    ProtocolError,
    base_topic,
)


class PerCopySpine(EventSpine):
    """A spine that logs and queues each copy, and each handler, alone."""

    def deliver(self, device: str, topic: str, msg: Message, handlers: list[Handler], bridged_from: str | None) -> None:
        """Log ``msg`` on ``device``'s ``topic`` as a one-copy publish record
        and queue it for each handler."""
        self.log.append(
            {
                "seq": len(self.log),
                "t": self.now,
                "action": msg.action.value,
                "msg_id": msg.msg_id,
                "correlation_id": msg.correlation_id,
                "origin": msg.origin,
                "copies": ((device, topic, bridged_from),),
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


class PerCopyBus(MessageBus):
    """A bus that hands every copy of a publish to its spine's ``deliver``."""

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
