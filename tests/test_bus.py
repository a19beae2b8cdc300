import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orchestrion import bus as bus_module
from orchestrion.bus import (
    ACTION_TOPIC,
    BASE_TOPICS,
    BRIDGED_TOPICS,
    CLUSTER_PREFIX,
    KNOWN_TOPICS,
    RECORD_KEYS,
    Action,
    EventSpine,
    Message,
    MessageBus,
    ProtocolError,
    bridge_all,
    copies,
    message_lines,
)
from orchestrion.scenario import RunReport

from conftest import collect
from reference_spine import PerCopyBus, PerCopySpine


def make_bus(device="10.0.0.1"):
    return MessageBus(device, EventSpine())


def msg(action, payload=None, correlation="x"):
    return Message(action=action, payload=payload or {}, correlation_id=correlation)


class TestActionTopicConformance:
    def test_every_action_has_a_topic(self):
        assert set(ACTION_TOPIC) == set(Action)

    @pytest.mark.parametrize("action", list(Action))
    def test_publish_on_mapped_topic_ok(self, action):
        bus = make_bus()
        received = collect(bus, ACTION_TOPIC[action])
        bus.publish(ACTION_TOPIC[action], msg(action))
        bus.spine.drain()
        assert len(received) == 1

    def test_forecast_response_on_deploy_rejected(self):
        bus = make_bus()
        with pytest.raises(ProtocolError):
            bus.publish("deploy", msg(Action.FORECAST_RESPONSE))

    def test_unknown_topic_rejected(self):
        bus = make_bus()
        with pytest.raises(ProtocolError):
            bus.publish("nonsense", msg(Action.FORECAST_REQUEST))
        with pytest.raises(ProtocolError):
            bus.subscribe("nonsense", lambda topic, m: None)


class TestDelivery:
    def test_round_trip(self):
        bus = make_bus()
        got = collect(bus, "analyze")
        sent = msg(Action.DEPLOYMENT_ANALYSIS_REQUEST, {"k": 1})
        bus.publish("analyze", sent)
        bus.spine.drain()
        assert len(got) == 1 and got[0].payload == {"k": 1}

    def test_fan_out_exactly_once_each(self):
        bus = make_bus()
        got_a = collect(bus, "monitor")
        got_b = collect(bus, "monitor")
        for _ in range(3):
            bus.publish("monitor", msg(Action.MONITORING_RESULT))
        bus.spine.drain()
        assert len(got_a) == 3
        assert len(got_b) == 3

    def test_no_publish_yields_empty_stream(self):
        bus = make_bus()
        got = collect(bus, "forecast")
        bus.spine.drain()
        assert got == []

    def test_order_preserved_per_topic(self):
        bus = make_bus()
        got = collect(bus, "deploy")
        for i in range(5):
            bus.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": i}))
        bus.spine.drain()
        assert [m.payload["i"] for m in got] == list(range(5))

    def test_handler_dispatch(self):
        bus = make_bus()
        seen = []
        bus.subscribe("deploy", lambda topic, m: seen.append((topic, m.payload["i"])))
        bus.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": 7}))
        bus.spine.drain()
        assert seen == [("deploy", 7)]

    def test_drain_that_never_quiesces_raises(self, monkeypatch):
        monkeypatch.setattr(bus_module, "MAX_DRAIN_STEPS", 50)
        bus = make_bus()
        seen = []

        def republish(topic, m):
            seen.append(m.payload["i"])
            bus.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": m.payload["i"] + 1}))

        bus.subscribe("deploy", republish)
        bus.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": 0}))
        with pytest.raises(RuntimeError, match="message storm"):
            bus.spine.drain()
        assert seen == list(range(50))  # the guard stops the storm before its 51st delivery


class TestBridging:
    def make_cluster(self):
        spine = EventSpine()
        buses = {a: MessageBus(a, spine) for a in ("10.0.0.1", "10.0.0.2", "10.0.0.3")}
        bridge_all(buses)
        return spine, buses

    def test_monitor_result_reaches_peer_cluster_topic(self):
        spine, buses = self.make_cluster()
        got = {a: collect(b, "cluster/monitor") for a, b in buses.items()}
        buses["10.0.0.1"].publish("monitor", msg(Action.MONITORING_RESULT, {"device": "10.0.0.1"}))
        spine.drain()
        assert len(got["10.0.0.2"]) == 1
        assert len(got["10.0.0.3"]) == 1
        assert got["10.0.0.1"] == []  # never bridged back to the origin

    def test_cluster_topic_not_rebridged(self):
        spine, buses = self.make_cluster()
        first_hop = collect(buses["10.0.0.3"], "cluster/deploy")
        buses["10.0.0.1"].publish("deploy", msg(Action.DEPLOYMENT_REQUEST))
        spine.drain()
        assert len(first_hop) == 1
        # the bridged copy arriving at device 2 must not be re-broadcast to 3
        topics = [entry["topic"] for entry in copies(spine.log)]
        assert all(t.count("cluster/") <= 1 for t in topics)
        assert topics.count("cluster/deploy") == 2  # one bridged copy per peer

    def test_bridged_copy_keeps_message_identity(self):
        spine, buses = self.make_cluster()
        buses["10.0.0.1"].publish("deploy", msg(Action.DEPLOYMENT_REQUEST))
        spine.drain()
        ids = {entry["msg_id"] for entry in copies(spine.log)}
        assert len(ids) == 1  # a broadcast is one logical message

    def test_duplicate_peer_registration_idempotent(self):
        spine, buses = self.make_cluster()
        buses["10.0.0.1"].bridge({"10.0.0.2": buses["10.0.0.2"]})
        got = collect(buses["10.0.0.2"], "cluster/monitor")
        buses["10.0.0.1"].publish("monitor", msg(Action.MONITORING_RESULT))
        spine.drain()
        assert len(got) == 1

    def test_empty_peer_set_is_noop(self):
        bus = make_bus()
        bus.bridge({})
        bus.publish("monitor", msg(Action.MONITORING_RESULT))
        bus.spine.drain()
        assert all(not e["topic"].startswith("cluster/") for e in copies(bus.spine.log))

    def test_self_bridge_rejected(self):
        bus = make_bus()
        with pytest.raises(ProtocolError):
            bus.bridge({"self": bus})

    def test_bridged_copies_reach_peers_in_address_string_order(self):
        spine = EventSpine()
        buses = {a: MessageBus(a, spine) for a in ("10.0.0.1", "10.0.0.3", "10.0.0.10", "10.0.0.2")}
        bridge_all(buses)
        buses["10.0.0.1"].publish("monitor", msg(Action.MONITORING_RESULT))
        assert [e["device"] for e in copies(spine.log) if e["bridged_from"]] == ["10.0.0.10", "10.0.0.2", "10.0.0.3"]

    def test_bridge_to_a_bus_on_another_spine_rejected(self):
        spine, buses = self.make_cluster()
        stranger = make_bus("10.0.0.9")
        with pytest.raises(ProtocolError, match="another spine"):
            buses["10.0.0.1"].bridge({"10.0.0.9": stranger, "10.0.0.2": buses["10.0.0.2"]})
        got = collect(stranger, "cluster/monitor")
        buses["10.0.0.1"].publish("monitor", msg(Action.MONITORING_RESULT))
        spine.drain()
        stranger.spine.drain()
        assert got == [] and stranger.spine.log == []
        assert [e["device"] for e in copies(spine.log)] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_origin_preserved_on_bridge(self):
        spine, buses = self.make_cluster()
        got = collect(buses["10.0.0.2"], "cluster/deploy")
        buses["10.0.0.1"].publish("deploy", msg(Action.DEPLOYMENT_REQUEST))
        spine.drain()
        (received,) = got
        assert received.origin == "10.0.0.1"


# the bus and spine classes under test, and the frozen per-copy oracle
SPINES = {"routes": (MessageBus, EventSpine), "per_copy": (PerCopyBus, PerCopySpine)}


class Boom(Exception):
    pass


@pytest.mark.parametrize("kind", sorted(SPINES))
class TestDeliveryRules:
    """Rules that hold for a spine that queues routes and for the per-copy one."""

    def make_cluster(self, kind, *devices):
        bus_type, spine_type = SPINES[kind]
        spine = spine_type()
        return spine, [bus_type(device, spine) for device in devices]

    def test_handler_subscribed_after_a_publish_misses_it(self, kind):
        spine, (one, two) = self.make_cluster(kind, "10.0.0.1", "10.0.0.2")
        bridge_all({"10.0.0.1": one, "10.0.0.2": two})
        one.publish("monitor", msg(Action.MONITORING_RESULT, {"i": 0}))
        local, remote = collect(one, "monitor"), collect(two, "cluster/monitor")
        spine.drain()
        assert local == [] and remote == []
        one.publish("monitor", msg(Action.MONITORING_RESULT, {"i": 1}))
        spine.drain()
        assert [m.payload["i"] for m in local + remote] == [1, 1]

    def test_subscribe_and_bridge_after_the_first_publish_reach_later_publishes(self, kind):
        spine, (one, two, three) = self.make_cluster(kind, "10.0.0.1", "10.0.0.2", "10.0.0.3")
        one.bridge({"10.0.0.2": two})
        third = collect(three, "cluster/deploy")  # not bridged yet

        def publish(i):
            one.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": i}))
            spine.drain()

        publish(0)
        second = collect(two, "cluster/deploy")
        publish(1)
        local = collect(one, "deploy")
        publish(2)
        one.bridge({"10.0.0.3": three})
        publish(3)
        assert [[m.payload["i"] for m in got] for got in (second, local, third)] == [[1, 2, 3], [2, 3], [3]]

    def test_raising_handler_leaves_the_rest_of_its_publish_queued(self, kind):
        spine, (one, two) = self.make_cluster(kind, "10.0.0.1", "10.0.0.2")
        bridge_all({"10.0.0.1": one, "10.0.0.2": two})
        calls = []

        def handler(name, raises=False):
            def record(topic, m):
                calls.append((name, topic, m.payload["i"]))
                if raises and m.payload["i"] == 0:
                    one.publish("deploy", msg(Action.DEPLOYMENT_REQUEST, {"i": 9}))
                    raise Boom

            return record

        one.subscribe("monitor", handler("a"))
        one.subscribe("monitor", handler("b", raises=True))
        one.subscribe("monitor", handler("c"))
        two.subscribe("cluster/monitor", handler("d"))
        one.subscribe("deploy", handler("e"))
        for i in (0, 1):
            one.publish("monitor", msg(Action.MONITORING_RESULT, {"i": i}))
        with pytest.raises(Boom):
            spine.drain()
        assert spine.drain() == 7  # c and d of publish 0, publish 1, then the deploy
        assert calls == [
            ("a", "monitor", 0),
            ("b", "monitor", 0),
            ("c", "monitor", 0),
            ("d", "cluster/monitor", 0),
            ("a", "monitor", 1),
            ("b", "monitor", 1),
            ("c", "monitor", 1),
            ("d", "cluster/monitor", 1),
            ("e", "deploy", 9),
        ]


# the action a generated publish carries on each base topic
TOPIC_ACTION = {topic: next(a for a, t in ACTION_TOPIC.items() if t == topic) for topic in BASE_TOPICS}
MAX_DEPTH = 2  # generations of republishing a handler may start

devices = st.integers(min_value=0, max_value=3)
# every topic, the bridged ones and their cluster/ copies drawn more often
publish_topics = st.sampled_from(BRIDGED_TOPICS) | st.sampled_from(KNOWN_TOPICS)
handler_topics = st.sampled_from([CLUSTER_PREFIX + topic for topic in BRIDGED_TOPICS]) | st.sampled_from(KNOWN_TOPICS)
# subscribe (bus, topic, republish to [(bus, topic)], raises at depth 0)
operations = st.one_of(
    st.tuples(st.just("publish"), devices, publish_topics),
    st.tuples(
        st.just("subscribe"),
        devices,
        handler_topics,
        st.lists(st.tuples(devices, publish_topics), max_size=2),
        st.booleans(),
    ),
    st.tuples(st.just("bridge"), devices, devices),
    st.just(("drain",)),
)


def run_program(kind, size, mesh, program):
    """Run ``program`` on ``size`` buses of ``kind``, bus numbers taken
    modulo ``size``, then drain; every drain is repeated until it ends
    without a handler's ``Boom``. Returns each handler call as
    ``(device, topic, msg_id)``, and the spine's log expanded copy by copy."""
    bus_type, spine_type = SPINES[kind]
    spine = spine_type()
    buses = [bus_type(f"10.0.0.{index + 1}", spine) for index in range(size)]
    if mesh:
        bridge_all({bus.device: bus for bus in buses})
    calls = []

    def publish(index, topic, depth):
        buses[index % size].publish(topic, msg(TOPIC_ACTION[bus_module.base_topic(topic)], {"depth": depth}))

    def make_handler(device, targets, raises):
        def handler(topic, m):
            calls.append((device, topic, m.msg_id))
            depth = m.payload["depth"]
            if depth < MAX_DEPTH:
                for index, target_topic in targets:
                    publish(index, target_topic, depth + 1)
            if raises and depth == 0:
                raise Boom

        return handler

    for op, *args in [*program, ("drain",)]:
        if op == "publish":
            publish(*args, 0)
        elif op == "subscribe":
            index, topic, targets, raises = args
            bus = buses[index % size]
            bus.subscribe(topic, make_handler(bus.device, targets, raises))
        elif op == "bridge" and args[0] % size != args[1] % size:
            peer = buses[args[1] % size]
            buses[args[0] % size].bridge({peer.device: peer})
        elif op == "drain":
            while True:
                try:
                    spine.drain()
                    break
                except Boom:
                    pass
    return calls, list(copies(spine.log))


class TestRoutesAgainstPerCopySpine:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=4),
        mesh=st.booleans(),
        program=st.lists(operations, min_size=4, max_size=20),
    )
    def test_same_handler_calls_and_log(self, size, mesh, program):
        routes = run_program("routes", size, mesh, program)
        assert routes == run_program("per_copy", size, mesh, program)


def json_line(record: dict) -> str:
    """The oracle for each line :func:`message_lines` writes."""
    return json.dumps(record, sort_keys=True) + "\n"


# strings json escapes: quotes, backslashes, control characters, non-ASCII,
# astral characters and a lone surrogate; then any text at all
tricky_text = st.text(alphabet='"\\/\x00\x08\x1f\x7f\xe9\u2028\ud800\U0001f600a ') | st.text()
any_int = st.integers() | st.integers(min_value=2**63) | st.integers(max_value=-(2**63))

# the keys of each copy that copies() expands a record into
COPY_KEYS = ("action", "bridged_from", "correlation_id", "device", "msg_id", "origin", "seq", "t", "topic")


class TestMessageLog:
    def test_delivered_records_have_the_log_schema(self):
        spine = EventSpine()
        buses = {d: MessageBus(d, spine) for d in ("10.0.0.1", "10.0.0.2")}
        bridge_all(buses)
        spine.now = 7
        buses["10.0.0.1"].publish("deploy", msg(Action.DEPLOYMENT_REQUEST, correlation='d"1\\é'))
        buses["10.0.0.2"].publish("analyze", msg(Action.DEPLOYMENT_ANALYSIS_REQUEST))
        first, second = spine.log
        assert list(first) == list(second) == list(RECORD_KEYS)
        assert first["copies"] == (("10.0.0.1", "deploy", None), ("10.0.0.2", "cluster/deploy", "10.0.0.1"))
        assert second["copies"] == (("10.0.0.2", "analyze", None),)
        # a record's seq is its first copy's: it counts the copies logged before it
        assert [first["seq"], second["seq"]] == [0, 2]
        expanded = list(copies(spine.log))
        assert [tuple(sorted(copy)) for copy in expanded] == [COPY_KEYS] * 3
        assert [copy["seq"] for copy in expanded] == [0, 1, 2]
        assert message_lines(first) + message_lines(second) == [json_line(copy) for copy in expanded]

    def test_a_route_logs_one_copies_tuple_until_it_is_rebuilt(self):
        spine = EventSpine()
        one, two = MessageBus("10.0.0.1", spine), MessageBus("10.0.0.2", spine)
        one.publish("monitor", msg(Action.MONITORING_RESULT))
        one.publish("monitor", msg(Action.MONITORING_RESULT))
        one.bridge({"10.0.0.2": two})
        one.publish("monitor", msg(Action.MONITORING_RESULT))
        first, second, bridged = (record["copies"] for record in spine.log)
        assert first is second
        assert bridged == (("10.0.0.1", "monitor", None), ("10.0.0.2", "cluster/monitor", "10.0.0.1"))

    @settings(max_examples=150, deadline=None)
    @given(
        strings=st.fixed_dictionaries({key: tricky_text for key in ("action", "correlation_id", "msg_id", "origin")}),
        logged=st.lists(st.tuples(tricky_text, tricky_text, st.none() | tricky_text), min_size=1, max_size=17),
        seq=any_int,
        t=any_int,
    )
    def test_line_is_what_json_dumps_writes(self, strings, logged, seq, t):
        record = {**strings, "seq": seq, "t": t, "copies": tuple(logged)}
        assert message_lines(record) == [json_line(copy) for copy in copies([record])]
        assert len(message_lines(record)) == len(logged)

    @settings(max_examples=150, deadline=None)
    @given(
        names=st.lists(tricky_text, min_size=1, max_size=3, unique=True),
        program=st.lists(
            st.one_of(
                st.tuples(st.just("publish"), devices, publish_topics, tricky_text),
                st.tuples(st.just("subscribe"), devices, st.sampled_from(KNOWN_TOPICS)),
                st.tuples(st.just("bridge"), devices, devices),
            ),
            min_size=1,
            max_size=12,
        ),
        extra=st.lists(st.tuples(st.integers(min_value=0), st.booleans(), tricky_text), max_size=4),
    )
    def test_written_lines_are_what_json_dumps_writes(self, names, program, extra):
        """A write's lines across routes that bridge() and subscribe()
        rebuild after a publish, records that share one copies tuple and
        records whose copies is a list."""
        spine = EventSpine()
        buses = [MessageBus(name, spine) for name in names]
        for op, index, *args in program:
            bus = buses[index % len(buses)]
            if op == "publish":
                topic, correlation = args
                spine.now += 1
                bus.publish(topic, msg(TOPIC_ACTION[bus_module.base_topic(topic)], correlation=correlation))
            elif op == "subscribe":
                bus.subscribe(args[0], lambda topic, m: None)
            elif bus is not buses[args[0] % len(buses)]:
                peer = buses[args[0] % len(buses)]
                bus.bridge({peer.device: peer})
        log = list(spine.log)
        # test-built records: another record's copies, the same tuple or a
        # list of it, under a new msg_id
        for index, as_list, msg_id in extra:
            if log:
                record = log[index % len(log)]
                logged = list(record["copies"]) if as_list else record["copies"]
                log.append({**record, "msg_id": msg_id, "copies": logged})
        with tempfile.TemporaryDirectory() as out:
            written = Path(RunReport("s", 0, log=log).write(out)["messages"]).read_bytes()
        assert written == "".join(json_line(copy) for copy in copies(log)).encode("utf-8")

    @pytest.mark.parametrize(
        "malform, error",
        [
            (lambda record: record.pop("origin"), ValueError),
            (lambda record: record.update(payload={}), ValueError),
            (lambda record: record.update(sender=record.pop("origin")), KeyError),
        ],
        ids=["missing_key", "extra_key", "renamed_key"],
    )
    def test_write_refuses_a_malformed_record(self, malform, error, tmp_path):
        spine = EventSpine()
        buses = {d: MessageBus(d, spine) for d in ("10.0.0.1", "10.0.0.2")}
        bridge_all(buses)
        buses["10.0.0.1"].publish("analyze", msg(Action.DEPLOYMENT_ANALYSIS_REQUEST))
        buses["10.0.0.1"].publish("deploy", msg(Action.DEPLOYMENT_REQUEST))
        # a one-copy record, then a bridged one
        assert [len(record["copies"]) for record in spine.log] == [1, 2]
        for index, record in enumerate(spine.log):
            malform(record)
            with pytest.raises(error):
                RunReport("s", 0, log=[record]).write(tmp_path / str(index))
