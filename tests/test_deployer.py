import json

from orchestrion.analyzer import Analyzer
from orchestrion.builtins import builtin_scenario
from orchestrion.bus import Action, EventSpine, Message, MessageBus
from orchestrion.deployer import Deployer, dominant_resource, select_executor
from orchestrion.forecaster import ForecastConfig, Forecaster
from orchestrion.hostsim import HostConfig, HostSimulator
from orchestrion.model import Limits, OptimizationPolicy
from orchestrion.monitor import Monitor, MonitorConfig
from orchestrion.registry import ImageBlob, Registry
from orchestrion.scenario import SimulationRunner, run_scenario

from conftest import collect, corrupt_stored, load_perfbench


class TestSelectExecutor:
    TABLE_EQUAL = {
        "10.0.0.1": {"cpu": 1000, "mem": 800},
        "10.0.0.2": {"cpu": 1000, "mem": 800},
        "10.0.0.3": {"cpu": 1000, "mem": 800},
    }

    def test_all_equal_smallest_address_wins(self):
        assert select_executor(self.TABLE_EQUAL, "mem", "10.0.0.2") == "10.0.0.1"

    def test_highest_availability_wins(self):
        table = {
            "10.0.0.1": {"cpu": 1000, "mem": 650},
            "10.0.0.2": {"cpu": 1000, "mem": 800},
            "10.0.0.3": {"cpu": 1000, "mem": 800},
        }
        assert select_executor(table, "mem", "10.0.0.1") == "10.0.0.2"

    def test_two_way_tie_then_all_equal(self):
        table = {
            "10.0.0.1": {"cpu": 1000, "mem": 650},
            "10.0.0.2": {"cpu": 1000, "mem": 650},
            "10.0.0.3": {"cpu": 1000, "mem": 800},
        }
        assert select_executor(table, "mem", "10.0.0.1") == "10.0.0.3"
        assert select_executor(self.TABLE_EQUAL, "mem", "10.0.0.3") == "10.0.0.1"

    def test_secondary_resource_breaks_ties(self):
        table = {
            "10.0.0.1": {"cpu": 500, "mem": 800},
            "10.0.0.2": {"cpu": 900, "mem": 800},
        }
        assert select_executor(table, "mem", "10.0.0.1") == "10.0.0.2"

    def test_empty_table_elects_self(self):
        assert select_executor({}, "mem", "10.0.0.9") == "10.0.0.9"

    def test_numeric_not_lexicographic_address_order(self):
        table = {
            "10.0.0.10": {"cpu": 1000, "mem": 800},
            "10.0.0.9": {"cpu": 1000, "mem": 800},
        }
        assert select_executor(table, "mem", "10.0.0.10") == "10.0.0.9"

    def test_dominant_resource(self):
        assert dominant_resource(100, 150, 1000, 1000) == "mem"
        assert dominant_resource(300, 64, 1000, 1000) == "cpu"


def build_device(reserved_mem=0, reserved_cpu=0, register_image=True, request=None, base=None, cluster_mode=False):
    spine = EventSpine()
    bus = MessageBus("10.0.0.1", spine)
    host = HostSimulator(
        HostConfig(reserved_mem=reserved_mem, reserved_cpu=reserved_cpu), device="10.0.0.1"
    )
    registry = Registry()
    events = []
    policy = OptimizationPolicy(warmup_delay_s=300)
    deployer = Deployer(bus, registry, host, policy, events.append, cluster_mode=cluster_mode)
    monitor = Monitor(bus, host, deployer.deployments, registry, MonitorConfig(), policy, events.append)
    Forecaster(bus, monitor.metrics, ForecastConfig(bucket_s=60))
    Analyzer(bus, host, monitor.metrics, policy, horizon=3, emit=events.append)
    if register_image:
        blob = ImageBlob(
            [json.dumps({"workload": {"pattern": 3, "workload_class": "mem", "period_s": 1800, "peak": 95}}).encode()]
        )
        registry.publish_image(
            "vendor", "app", blob, request or {"cpu": 100, "mem": 150}, base or {"cpu": 50, "mem": 100}
        )
    return spine, bus, host, registry, deployer, events


class TestIngressSurface:
    def test_submit_returns_request_id_and_status_shape(self):
        spine, bus, host, registry, deployer, _ = build_device()
        response = deployer.submit({"owner": "vendor", "image": "app", "requester": "user-1"})
        assert set(response) == {"request_id"}
        spine.drain()
        status = deployer.deployment_status(response["request_id"])
        assert status["state"] == "running"
        assert status["decisions"] == [
            {"verdict": "accept", "role": "request", "attempt": 1, "target": {"cpu": 100, "mem": 150}}
        ]
        assert len(status["containers"]) == 1
        assert status["executor"] == "10.0.0.1"

    def test_unknown_image_immediate_rejection(self):
        spine, bus, host, registry, deployer, events = build_device(register_image=False)
        response = deployer.submit({"owner": "vendor", "image": "ghost"})
        spine.drain()
        status = deployer.deployment_status(response["request_id"])
        assert status["state"] == "rejected"
        assert "not found" in status["detail"]

    def test_image_lookup_rejections_name_their_attempt(self):
        spine, bus, host, registry, deployer, events = build_device()
        corrupt_stored(registry, registry.get_image("vendor", "app").image_hash)
        tampered = deployer.submit({"owner": "vendor", "image": "app"})["request_id"]
        missing = deployer.submit({"owner": "vendor", "image": "ghost"})["request_id"]
        spine.drain()
        assert [e for e in events if e["type"] == "deployment_rejected"] == [
            {"type": "deployment_rejected", "deployment": tampered, "attempt": 1, "reason": "image_tampered"},
            {"type": "deployment_rejected", "deployment": missing, "attempt": 1, "reason": "image_not_found"},
        ]
        assert deployer.deployment_status(tampered)["state"] == "rejected"

    def test_image_lookup_rejections_count_their_attempt(self):
        spine, bus, host, registry, deployer, events = build_device()
        corrupt_stored(registry, registry.get_image("vendor", "app").image_hash)
        tampered = deployer.submit({"owner": "vendor", "image": "app"})["request_id"]
        missing = deployer.submit({"owner": "vendor", "image": "ghost"})["request_id"]
        spine.drain()
        for request_id in (tampered, missing):
            status = deployer.deployment_status(request_id)
            assert (status["state"], status["attempts"]) == ("rejected", 1)

    def test_unknown_request_id_status(self):
        _, _, _, _, deployer, _ = build_device()
        assert deployer.deployment_status("nope")["state"] == "unknown"

    def test_status_lists_a_deployments_retries_in_host_order(self):
        # exp2_mem OOM-kills and retries each of its five deployments several
        # times, so their containers interleave on the host
        runner = SimulationRunner(builtin_scenario("exp2_mem"))
        report = runner.run()
        stack = runner.devices["10.0.0.1"]
        deployed = {}
        for event in report.events_of("deployed"):
            deployed.setdefault(event["deployment"], []).append((event["container"], event["attempt"]))
        assert len(deployed) == 5 and all(len(runs) > 1 for runs in deployed.values())
        host_order = [state.container_id for state in stack.host.containers()]
        for deployment_id, runs in deployed.items():
            containers = stack.deployer.deployment_status(deployment_id)["containers"]
            assert containers == [cid for cid, _ in runs]
            assert containers == sorted(containers, key=host_order.index)
            labels = [(stack.host.container(cid).deployment_id, stack.host.container(cid).attempt) for cid in containers]
            assert labels == [(deployment_id, attempt) for _, attempt in runs]


class TestFallbackDiscipline:
    def test_request_then_base_then_reject(self):
        # 120MB free: request (150) fails, base (100) fails at equality-free margin
        spine, bus, host, registry, deployer, events = build_device(
            reserved_mem=900, request={"cpu": 100, "mem": 150}, base={"cpu": 50, "mem": 100}
        )
        response = deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        status = deployer.deployment_status(response["request_id"])
        assert status["state"] == "rejected"
        assert [d["role"] for d in status["decisions"]] == ["request", "base"]
        assert [d["target"]["mem"] for d in status["decisions"]] == [150, 100]

    def test_base_fallback_accepts(self):
        # 120MB free admits the 100MB base limits
        spine, bus, host, registry, deployer, _ = build_device(
            reserved_mem=880, request={"cpu": 100, "mem": 150}, base={"cpu": 50, "mem": 100}
        )
        response = deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        status = deployer.deployment_status(response["request_id"])
        assert status["state"] == "running"
        assert [(d["verdict"], d["target"]["mem"]) for d in status["decisions"]] == [
            ("reject", 150),
            ("accept", 100),
        ]

    def test_escalated_attempt_analyzed_exactly_once(self):
        spine, bus, host, registry, deployer, _ = build_device(reserved_mem=990)
        # attempt 3 target mem = base 100 + 20, against 10MB free -> one rejection only
        bus.publish(
            "deploy",
            Message(
                action=Action.DEPLOYMENT_REQUEST,
                payload={"deployment_id": "dX", "owner": "vendor", "image": "app", "attempt": 3},
                correlation_id="dX",
            ),
        )
        spine.drain()
        status = deployer.deployment_status("dX")
        assert status["state"] == "failed"
        assert [d["role"] for d in status["decisions"]] == ["escalated"]


class TestRetryTargets:
    def test_formula(self):
        _, _, _, registry, deployer, _ = build_device()
        image = registry.get_image("vendor", "app")
        role1, target1 = deployer._target_for_attempt(image, 1)
        role2, target2 = deployer._target_for_attempt(image, 2)
        role5, target5 = deployer._target_for_attempt(image, 5)
        assert (role1, target1) == ("request", Limits(cpu=100, mem=150))
        assert (role2, target2) == ("base", Limits(cpu=50, mem=100))
        assert (role5, target5) == ("escalated", Limits(cpu=50, mem=100 + 3 * 20))

    def test_escalation_monotone_and_clamped(self):
        _, _, _, registry, deployer, _ = build_device()
        image = registry.get_image("vendor", "app")
        targets = [deployer._target_for_attempt(image, k)[1].mem for k in range(2, 40)]
        assert targets == sorted(targets)
        assert max(targets) == deployer.policy.mem_max

    def test_cpu_not_escalated(self):
        _, _, _, registry, deployer, _ = build_device()
        image = registry.get_image("vendor", "app")
        for attempt in range(2, 10):
            assert deployer._target_for_attempt(image, attempt)[1].cpu == image.base.cpu


class TestVerdictHandling:
    def test_duplicate_accept_ignored(self):
        spine, bus, host, registry, deployer, _ = build_device()
        response = deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        assert len(host.running_containers()) == 1
        analysis_id = [e for e in spine.log if e["action"] == "deployment_accept"][0]["correlation_id"]
        bus.publish(
            "deploy",
            Message(
                action=Action.DEPLOYMENT_ACCEPT,
                payload={"deployment_id": response["request_id"], "analysis_id": analysis_id, "target": {"cpu": 100, "mem": 150}},
                correlation_id=analysis_id,
            ),
        )
        spine.drain()
        assert len(host.running_containers()) == 1  # idempotent

    def test_stale_cancel_during_base_analysis_ignored(self):
        # no analyzer: the test delivers every verdict itself
        spine = EventSpine()
        bus = MessageBus("10.0.0.1", spine)
        host = HostSimulator(HostConfig(), device="10.0.0.1")
        registry = Registry()
        blob = ImageBlob(
            [json.dumps({"workload": {"pattern": 3, "workload_class": "mem", "period_s": 1800, "peak": 95}}).encode()]
        )
        registry.publish_image("vendor", "app", blob, {"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 100})
        deployer = Deployer(bus, registry, host, OptimizationPolicy(), lambda event: None)
        analyses = collect(bus, "analyze")

        def verdict(action, analysis_id):
            payload = {"deployment_id": deployment_id, "analysis_id": analysis_id}
            bus.publish("deploy", Message(action=action, payload=payload, correlation_id=analysis_id))
            spine.drain()

        deployment_id = deployer.submit({"owner": "vendor", "image": "app"})["request_id"]
        spine.drain()
        (request,) = analyses
        analyses.clear()
        verdict(Action.DEPLOYMENT_CANCEL, request.payload["analysis_id"])
        (base,) = analyses
        analyses.clear()
        assert base.payload["role"] == "base"
        verdict(Action.DEPLOYMENT_CANCEL, request.payload["analysis_id"])  # stale duplicate
        assert analyses == []
        verdict(Action.DEPLOYMENT_ACCEPT, base.payload["analysis_id"])
        status = deployer.deployment_status(deployment_id)
        assert status["state"] == "running"
        assert [(d["verdict"], d["role"]) for d in status["decisions"]] == [("reject", "request"), ("accept", "base")]
        assert analyses == []
        assert len(host.running_containers()) == 1

    def test_update_applies_without_restart(self):
        spine, bus, host, registry, deployer, events = build_device()
        deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        (container,) = host.running_containers()
        cid = container.container_id
        bus.publish(
            "deploy",
            Message(
                action=Action.DEPLOYMENT_UPDATE,
                payload={"container": cid, "limits": {"cpu": 80, "mem": 130}},
                correlation_id="opt",
            ),
        )
        spine.drain()
        assert host.container(cid).limits == Limits(cpu=80, mem=130)
        assert host.container(cid).status == "running"
        assert [c.container_id for c in host.running_containers()] == [cid]


class TestAdmissionCycleOrdering:
    def test_admission_queues_behind_inflight_cycle(self):
        spine, bus, host, registry, deployer, events = build_device()
        deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        (container,) = host.running_containers()
        for t in range(1, 31):
            host.tick()
        # enqueue a full optimization batch, then an admission, before draining:
        # the verdict must come after the cycle's forecast exchange resolves
        bus.publish(
            "analyze",
            Message(
                action=Action.DEPLOYMENT_OPTIMIZATION_REQUEST,
                payload={"cycle": 1, "index": 0, "count": 1, "container": container.container_id},
                correlation_id="cycle-1",
            ),
        )
        bus.publish(
            "analyze",
            Message(
                action=Action.DEPLOYMENT_ANALYSIS_REQUEST,
                payload={
                    "deployment_id": "dq",
                    "analysis_id": "aq",
                    "target": {"cpu": 10, "mem": 10},
                    "role": "request",
                    "attempt": 1,
                },
                correlation_id="aq",
            ),
        )
        spine.drain()
        actions = [e["action"] for e in spine.log]
        first_response = actions.index("forecast_response")
        verdict = [i for i, a in enumerate(actions) if a in ("deployment_accept", "deployment_cancel") and spine.log[i]["correlation_id"] == "aq"]
        assert verdict and verdict[0] > first_response
        cycle_events = [e for e in events if e["type"] == "optimization_cycle"]
        assert len(cycle_events) == 1


class TestAnalyzerInFlightSlot:
    def analysis(self, analysis_id):
        payload = {
            "deployment_id": "d-" + analysis_id,
            "analysis_id": analysis_id,
            "target": {"cpu": 10, "mem": 10},
            "role": "request",
            "attempt": 1,
        }
        return Message(action=Action.DEPLOYMENT_ANALYSIS_REQUEST, payload=payload, correlation_id=analysis_id)

    def test_only_the_inflight_forecast_response_is_taken(self):
        spine, bus, host, registry, deployer, events = build_device()
        deployer.submit({"owner": "vendor", "image": "app"})
        spine.drain()
        (container,) = host.running_containers()
        # a forecast that would reject any admission if the analyzer took it
        overload = {container.container_id: {"cpu_util": [5000.0], "mem_util": [5000.0], "throttle_pct": [0.0]}}

        def respond(correlation_id):
            message = Message(
                action=Action.FORECAST_RESPONSE, payload={"results": overload, "horizon": 3}, correlation_id=correlation_id
            )
            bus.publish("forecast", message)

        handled = []

        def inject(_topic, msg):
            # runs right after the analyzer handles the same message; once aq2's
            # forecast is requested, an unknown id and a duplicate of the
            # submission's answered forecast are queued behind aq2's answer,
            # so they reach the analyzer while aq3 is in flight
            handled.append((msg.action.value, msg.correlation_id))
            if msg.action is Action.FORECAST_REQUEST and msg.correlation_id == "fc0003@10.0.0.1":
                respond("fc9999@10.0.0.1")
                respond("fc0001@10.0.0.1")

        def verdicts():
            return [e["correlation_id"] for e in spine.log if e["action"] in ("deployment_accept", "deployment_cancel")]

        def admissions():
            return [(e["analysis_id"], e["verdict"]) for e in events if e["type"] == "admission"]

        bus.subscribe("forecast", inject)
        for analysis_id in ("aq1", "aq2", "aq3"):
            bus.publish("analyze", self.analysis(analysis_id))
        spine.drain()

        aq3_in_flight = handled.index(("forecast_response", "fc0003@10.0.0.1"))
        aq3_answered = handled.index(("forecast_response", "fc0004@10.0.0.1"))
        assert aq3_in_flight < handled.index(("forecast_response", "fc9999@10.0.0.1")) < aq3_answered
        assert aq3_in_flight < handled.index(("forecast_response", "fc0001@10.0.0.1"), aq3_in_flight) < aq3_answered
        assert admissions() == [("a0001@10.0.0.1", "accept"), ("aq1", "accept"), ("aq2", "accept"), ("aq3", "accept")]
        assert verdicts() == ["a0001@10.0.0.1", "aq1", "aq2", "aq3"]

        # a duplicate of an answered response finds the slot empty
        respond("fc0004@10.0.0.1")
        spine.drain()
        assert len(admissions()) == 4
        assert verdicts() == ["a0001@10.0.0.1", "aq1", "aq2", "aq3"]


class TestAvailabilityTable:
    def monitoring(self, device, t, cpu, mem):
        return Message(
            action=Action.MONITORING_RESULT,
            payload={"device": device, "t": t, "containers": {}, "avail": {"cpu": cpu, "mem": mem}},
            origin=device,
        )

    def test_self_and_peer_updates(self):
        spine, bus, host, registry, deployer, _ = build_device(cluster_mode=True)
        bus.publish("monitor", self.monitoring("10.0.0.1", 10, 900, 800))
        spine.drain()
        assert deployer.table == {"10.0.0.1": {"cpu": 900, "mem": 800}}
        assert deployer._table_t == {"10.0.0.1": 10}

    def test_stale_result_ignored(self):
        spine, bus, host, registry, deployer, _ = build_device(cluster_mode=True)
        bus.publish("monitor", self.monitoring("10.0.0.1", 20, 900, 800))
        bus.publish("monitor", self.monitoring("10.0.0.1", 10, 100, 100))
        spine.drain()
        assert deployer.table["10.0.0.1"]["mem"] == 800
        assert deployer._table_t["10.0.0.1"] == 20


class TestElectionBeforeFirstScrape:
    def test_submission_before_first_scrape_deploys_once(self):
        # every availability table is still empty at t=2: all peers must
        # elect the same device, the one the request came from
        scenario = builtin_scenario("cluster_3dev")
        scenario["schedule"] = [{**scenario["schedule"][0], "at_s": 2}]
        report = run_scenario(scenario)
        selects = report.events_of("cluster_select")
        assert len(selects) == 3
        assert all(e["table"] == {} for e in selects)
        assert {e["winner"] for e in selects} == {"10.0.0.1"}
        deployed = report.events_of("deployed")
        assert [(e["device"], e["deployment"]) for e in deployed] == [("10.0.0.1", "d001@10.0.0.1")]


class TestElectionOnUnequalHosts:
    def test_peers_rank_on_the_origins_dominant_resource(self):
        # 300 mCPU / 150 MB leans on cpu against 10.0.0.1's 1000/1000 but on
        # mem against 10.0.0.2's 4000/1000: every election must still rank
        # on the resource the submitting device works out
        scenario = {
            "name": "unequal_hosts",
            "duration_s": 60,
            "cluster": True,
            "devices": [
                {"address": "10.0.0.1"},
                {"address": "10.0.0.2", "cpu_total": 4000, "mem_total": 1000, "reserved_mem": 500},
            ],
            "images": [
                {
                    "owner": "vendor",
                    "name": "app",
                    "workload": {"pattern": 3, "workload_class": "mem", "period_s": 1800, "peak": 95},
                    "request": {"cpu": 300, "mem": 150},
                    "base": {"cpu": 200, "mem": 100},
                }
            ],
            "schedule": [{"owner": "vendor", "image": "app", "at_s": 15}],
        }
        report = run_scenario(scenario)
        selects = report.events_of("cluster_select")
        assert [(e["device"], e["winner"], e["dominant"]) for e in selects] == [
            ("10.0.0.1", "10.0.0.2", "cpu"),
            ("10.0.0.2", "10.0.0.2", "cpu"),
        ]
        deployed = report.events_of("deployed")
        assert [(e["device"], e["deployment"]) for e in deployed] == [("10.0.0.2", "d001@10.0.0.1")]
        assert load_perfbench("checks").single_executor(report, scenario) == []
