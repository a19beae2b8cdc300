import json
from collections import Counter
from pathlib import Path

import pytest

from orchestrion.builtins import BUILTIN_SCENARIOS, builtin_scenario
from orchestrion.bus import TOPIC_MONITOR, copies
from orchestrion.cli import main
from orchestrion.hostsim import HostSimulator
from orchestrion.model import ContractViolation
from orchestrion.scenario import ScenarioError, SimulationRunner, run_scenario, validate_scenario

from conftest import load_perfbench

# the benchmark's invariant checks
checks = load_perfbench("checks")


def exp1_mem_images_with_first(**fields):
    """exp1_mem's images, with ``fields`` merged into the first one's entries."""
    images = builtin_scenario("exp1_mem")["images"]
    for key, value in fields.items():
        images[0][key] = {**images[0][key], **value}
    return images


def exp1_mem_schedule_with_first(**fields):
    """exp1_mem's schedule, with its first entry's ``at_s`` replaced by ``fields``."""
    schedule = builtin_scenario("exp1_mem")["schedule"]
    first = {key: value for key, value in schedule[0].items() if key != "at_s"}
    schedule[0] = {**first, **fields}
    return schedule


def exp1_mem_with_first(section, **fields):
    """exp1_mem's ``section`` list, with ``fields`` replacing its first entry's."""
    entries = builtin_scenario("exp1_mem")[section]
    entries[0] = {**entries[0], **fields}
    return entries


class TestBuiltinCatalog:
    def test_all_eleven_present(self):
        assert set(BUILTIN_SCENARIOS) == {
            "exp1_mem",
            "exp1_cpu",
            "exp2_mem",
            "exp2_cpu",
            "exp3_mem",
            "exp3_cpu",
            "exp4_mem_400",
            "exp4_mem_200",
            "exp4_cpu_350",
            "exp4_cpu_100",
            "cluster_3dev",
        }

    def test_exp1_limit_values(self):
        mem = builtin_scenario("exp1_mem")["images"][0]
        assert (mem["request"]["mem"], mem["base"]["mem"]) == (150, 100)
        cpu = builtin_scenario("exp1_cpu")["images"][0]
        assert (cpu["request"]["cpu"], cpu["base"]["cpu"]) == (300, 100)

    def test_exp2_limit_values(self):
        mem = builtin_scenario("exp2_mem")["images"][0]
        assert (mem["request"]["mem"], mem["base"]["mem"]) == (15, 10)
        cpu = builtin_scenario("exp2_cpu")["images"][0]
        assert (cpu["request"]["cpu"], cpu["base"]["cpu"]) == (100, 50)

    def test_exp4_availability_values(self):
        assert builtin_scenario("exp4_mem_400")["devices"][0]["reserved_mem"] == 600
        assert builtin_scenario("exp4_mem_200")["devices"][0]["reserved_mem"] == 800
        assert builtin_scenario("exp4_cpu_350")["devices"][0]["reserved_cpu"] == 650
        assert builtin_scenario("exp4_cpu_100")["devices"][0]["reserved_cpu"] == 900

    def test_workload_peaks(self):
        mem_peaks = [img["workload"]["peak"] for img in builtin_scenario("exp1_mem")["images"]]
        assert mem_peaks == [95, 95, 95, 80, 95]
        cpu_peaks = [img["workload"]["peak"] for img in builtin_scenario("exp1_cpu")["images"]]
        assert cpu_peaks == [150, 150, 150, 120, 140]

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_scenario("exp99")


class TestValidation:
    def test_missing_keys(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"duration_s": 10})

    def test_schedule_outside_duration(self):
        scenario = builtin_scenario("exp4_mem_400")
        scenario["schedule"][0]["at_s"] = 10_000
        with pytest.raises(ScenarioError):
            validate_scenario(scenario)

    def test_schedule_unknown_image(self):
        scenario = builtin_scenario("exp4_mem_400")
        scenario["schedule"][0]["image"] = "ghost"
        with pytest.raises(ScenarioError):
            validate_scenario(scenario)

    def test_schedule_is_read_once_into_the_queued_requests(self):
        scenario = builtin_scenario("cluster_3dev")
        owner = scenario["schedule"][0]["owner"]
        scenario["schedule"] = [
            {"at_s": 30, "owner": owner, "image": "memory-1", "device": "10.0.0.3"},
            {"after_stable_cycles": 2, "owner": owner, "image": "memory-2"},
        ]
        assert [(r.device, r.image, r.at_s, r.stable_cycles) for r in validate_scenario(scenario)] == [
            ("10.0.0.3", "memory-1", 30, None),
            ("10.0.0.1", "memory-2", None, 2),
        ]

    def test_unknown_expectation_type_is_a_failed_result(self, tmp_path, capsys):
        scenario = {**builtin_scenario("exp1_mem"), "duration_s": 60, "expectations": [{"type": "nonsense"}]}
        scenario_path = tmp_path / "unknown.json"
        scenario_path.write_text(json.dumps(scenario))
        assert main(["run", str(scenario_path)]) == 2
        assert "[FAIL] nonsense: unknown expectation type 'nonsense'" in capsys.readouterr().out

    def test_duplicate_devices(self):
        scenario = builtin_scenario("cluster_3dev")
        scenario["devices"][1]["address"] = scenario["devices"][0]["address"]
        with pytest.raises(ScenarioError):
            validate_scenario(scenario)


class TestTraceEmission:
    def test_csv_schema_and_summary(self, tmp_path, run_builtin):
        report, _ = run_builtin("exp4_mem_400")
        paths = report.write(tmp_path)
        trace_files = sorted((tmp_path / "traces").glob("*.csv"))
        assert trace_files, "expected per-container trace files"
        header = trace_files[0].read_text().splitlines()[0]
        assert header == "t,container,cpu_util,cpu_limit,cpu_throttle,mem_util,mem_limit,status"
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["scenario"] == "exp4_mem_400"
        assert all("avail" in d and "target" in d for d in summary["decisions"])

    def test_delays_visible_as_full_throttle_intervals(self, run_builtin):
        report, _ = run_builtin("exp2_cpu")
        rows = [r for rows in report.traces.values() for r in rows]
        assert any(r["cpu_throttle"] == 100.0 for r in rows)

    def test_trace_rows_are_the_monitoring_rows(self):
        runner = SimulationRunner(builtin_scenario("cluster_3dev"))
        published = {}

        def capture(topic, msg):
            payload = msg.payload
            for cid, row in payload["containers"].items():
                published[(payload["device"], cid, payload["t"])] = row

        for stack in runner.devices.values():
            stack.bus.subscribe(TOPIC_MONITOR, capture)
        report = runner.run()
        rows = [(device, cid, row) for (device, cid), trace in report.traces.items() for row in trace]
        assert rows and len(rows) == len(published)
        assert all(row is published[(device, cid, row["t"])] for device, cid, row in rows)

    def test_every_observed_action_topic_pair_is_allowed(self, run_builtin):
        from orchestrion.bus import ACTION_TOPIC, Action, base_topic

        for name in ("exp1_cpu", "cluster_3dev"):
            report, _ = run_builtin(name)
            assert report.messages
            for record in report.messages:
                assert base_topic(record["topic"]) == ACTION_TOPIC[Action(record["action"])]

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(builtin_scenario("exp4_mem_400")).write(out_a)
        run_scenario(builtin_scenario("exp4_mem_400")).write(out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_different_seed_changes_gently_shaking_trace(self, tmp_path):
        base = run_scenario(builtin_scenario("exp2_cpu"), seed=11)
        other = run_scenario(builtin_scenario("exp2_cpu"), seed=12)
        # pattern 4 (gently shaking) demand differs across seeds
        def rows_for(report, image):
            cids = report.containers_of_image(image)
            return [r for (_, cid), rows in report.traces.items() if cid in cids for r in rows]

        assert rows_for(base, "cpu-4") != rows_for(other, "cpu-4")


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestMessageView:
    """``RunReport.messages`` is a view of the publish log, one dict per copy."""

    @pytest.fixture
    def cluster(self):
        scenario = builtin_scenario("cluster_3dev")
        return run_scenario(scenario), scenario

    def test_messages_is_one_list_expanded_from_the_log(self, cluster):
        report, _ = cluster
        assert report.messages is report.messages
        assert report.messages == list(copies(report.log))
        assert len(report.messages) > len(report.log)

    @pytest.mark.parametrize("edit", ["delete", "append"])
    def test_edits_to_messages_reach_the_checks(self, cluster, edit):
        report, scenario = cluster
        assert checks.check_report(report, scenario) == []
        index = next(i for i, m in enumerate(report.messages) if m["topic"] == "cluster/monitor")
        if edit == "delete":
            del report.messages[index]
        else:
            report.messages.append(dict(report.messages[index]))
        failures = checks.check_report(report, scenario)
        assert failures and all(f.startswith("monitoring_fanout: ") for f in failures)

    def test_write_does_not_depend_on_reading_messages(self, tmp_path):
        unread = run_scenario(builtin_scenario("cluster_3dev"))
        unread.write(tmp_path / "unread")
        assert "messages" not in vars(unread)
        read = run_scenario(builtin_scenario("cluster_3dev"))
        assert read.messages
        read.write(tmp_path / "read")
        assert tree_bytes(tmp_path / "unread") == tree_bytes(tmp_path / "read")


def count_calls(counts, key, function):
    """``function``, counting its calls under ``key``."""

    def counted(*args):
        counts[key] += 1
        return function(*args)

    return counted


class TestSpanStepping:
    def test_quiet_hosts_tick_only_at_wake_ups(self):
        runner = SimulationRunner(builtin_scenario("exp1_mem"))
        (host,) = [stack.host for stack in runner.devices.values()]
        counts = Counter()
        host.tick = count_calls(counts, "ticks", host.tick)
        runner._next_wake_up = count_calls(counts, "wake_ups", runner._next_wake_up)
        runner.run()
        assert counts["ticks"] == counts["wake_ups"] < runner.duration / 5


class TestFailedStart:
    def test_a_start_the_host_refuses_is_a_failed_deployment(self, monkeypatch):
        run_container = HostSimulator.run_container
        refused = []

        def refuse_first_start(host, spec, limits):
            if not refused:
                refused.append(limits)
                raise ContractViolation("limits need more than is left")
            return run_container(host, spec, limits)

        monkeypatch.setattr(HostSimulator, "run_container", refuse_first_start)
        report = run_scenario(builtin_scenario("exp4_mem_400"))
        deployments = report.final_state["10.0.0.1"]["deployments"]
        assert deployments["d001@10.0.0.1"]["state"] == "failed"
        (accept,) = [e for e in report.admissions() if e["deployment"] == "d001@10.0.0.1"]
        (rejected,) = report.events_of("deployment_rejected")
        assert accept["verdict"] == "accept"
        assert [limits.as_dict() for limits in refused] == [accept["target"]]
        assert rejected == {
            "t": accept["t"],
            "device": "10.0.0.1",
            "type": "deployment_rejected",
            "deployment": "d001@10.0.0.1",
            "attempt": 1,
            "reason": "execution_failed",
        }
        assert report.events.index(rejected) == report.events.index(accept) + 1
        assert not [
            m for m in report.messages
            if m["action"] == "deployment_cancel" and m["correlation_id"] == accept["analysis_id"]
        ]
        # the deployer takes the next request as before
        assert [e["deployment"] for e in report.events_of("deployed")] == ["d002@10.0.0.1", "d003@10.0.0.1"]
        assert deployments["d002@10.0.0.1"]["state"] == deployments["d003@10.0.0.1"]["state"] == "running"


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "exp1_mem" in out and "cluster_3dev" in out

    def test_run_builtin_with_output(self, tmp_path, capsys):
        code = main(["run", "--builtin", "exp4_mem_400", "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] decision_sequence" in out
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_output_path_that_is_a_file_reports_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["run", "--builtin", "exp4_mem_400", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert "[PASS] decision_sequence" in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(taken) in line
        assert taken.read_text() == "not a directory"

    def test_run_scenario_file(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(builtin_scenario("exp4_mem_200")))
        assert main(["run", str(scenario_path)]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_failing_expectation_nonzero_exit(self, tmp_path, capsys):
        scenario = builtin_scenario("exp4_mem_200")
        scenario["expectations"] = [
            {"type": "decision_sequence", "resource": "mem", "expect": [["accept", 150]] * 3}
        ]
        scenario_path = tmp_path / "wrong.json"
        scenario_path.write_text(json.dumps(scenario))
        assert main(["run", str(scenario_path)]) == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_run_needs_exactly_one_source(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "x.json", "--builtin", "exp1_mem"]) == 2

    def test_missing_file_reports_error(self, capsys):
        assert main(["run", "/nonexistent/scenario.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scenario_file_that_is_not_utf8_reports_error(self, tmp_path, capsys):
        scenario_path = tmp_path / "latin1.json"
        scenario_path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert main(["run", str(scenario_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "utf-8" in err[0]

    def test_unknown_builtin_reports_error(self, capsys):
        assert main(["run", "--builtin", "exp99"]) == 2

    def test_seed_option_outside_64_bits_reports_error(self, capsys):
        assert main(["run", "--builtin", "exp3_mem", "--seed", str(2**63)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed 9223372036854775808 outside the signed 64-bit range"]

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_seed_at_the_64_bit_bounds_runs(self, seed):
        # exp3_mem deploys its pattern-4 image, whose noise packs the seed in 8 bytes
        assert main(["run", "--builtin", "exp3_mem", "--seed", str(seed)]) == 0

    @pytest.mark.parametrize(
        "block",
        [
            {"monitor": {"retention_s": 0}},
            {"forecast": {"min_point": 7}},
            {"forecast": {"bucket_s": 0}},
            {"policy": {"cpu_buffer": 1.0}},
            {"devices": [{"address": "10.0.0.1", "cpu_total": 0}]},
            {"images": exp1_mem_images_with_first(workload={"pattern": 9})},
            {"images": exp1_mem_images_with_first(base={"cpu": 50, "mem": 151})},
            {"forecast": {"ar_order": 0}},
            {"forecast": {"diff_order": 2, "min_points": 8}},
            {"forecast": {"horizon": 5}},
            {"monitor": {"scrape_interval_s": 7.5}},
            {"policy": {"warmup_delay_s": 30.5}},
            {"duration_s": "abc"},
            {"seed": "x"},
            {"schedule": exp1_mem_schedule_with_first(at_s="x")},
            {"schedule": exp1_mem_schedule_with_first(after_stable_cycles="x")},
            {
                "cluster": True,
                "devices": [{"address": "edge-0"}, {"address": "edge-1"}],
                "schedule": [{"at_s": 15, "owner": "vendor-a", "image": "memory-1"}],
            },
            {"images": exp1_mem_images_with_first(request={"cpu": "x"})},
            {"images": exp1_mem_images_with_first(request={"cpu": -5}, base={"cpu": -10})},
            {"cluster": "false"},
            {"schedule": exp1_mem_schedule_with_first(at_s=15.5)},
            {"devices": 5},
            {"schedule": [5]},
            {"images": {}},
            {"devices": [{"address": "10.0.0.1", "cpu_total": 1000.9}]},
            {"images": exp1_mem_images_with_first(workload={"period_s": 1800.9})},
            {"devices": [{"address": "10.0.0.1", "reserved_mem": 0.5}]},
            {"images": exp1_mem_images_with_first(workload={"pattern": 1.0})},
            {"images": exp1_mem_images_with_first(workload={"peak": 95.5})},
            {"images": [5]},
            {"images": exp1_mem_images_with_first(base={"mem": 0})},
            {"policy": {"mem_min": 32.5}},
            {"policy": {"mem_max": 100.5}},
            {"forecast": {"bucket_s": 60.5}},
            {"forecast": {"min_points": 7.5}},
            {"images": exp1_mem_with_first("images", owner=["a"])},
            {"images": exp1_mem_with_first("images", name=5)},
            {"schedule": exp1_mem_with_first("schedule", owner=["a"])},
            {"schedule": exp1_mem_with_first("schedule", image=None)},
            {"devices": [{"address": 5}]},
            {"policy": []},
            {"policy": None},
            {"monitor": []},
            {"forecast": [["bucket_s", 60]]},
            {"name": ["x"]},
            {"schedule": exp1_mem_with_first("schedule", after_stable_cycles="x")},
            {"schedule": exp1_mem_with_first("schedule", after_stable_cycles=1)},
            {"schedule": exp1_mem_with_first("schedule", device="")},
            {"schedule": exp1_mem_with_first("schedule", device=[])},
            {"schedule": exp1_mem_with_first("schedule", device=0)},
            {"schedule": exp1_mem_with_first("schedule", device=None)},
            {"schedule": exp1_mem_with_first("schedule", device="10.0.0.9")},
        ],
    )
    def test_invalid_config_block_reports_error(self, tmp_path, capsys, block):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps({**builtin_scenario("exp1_mem"), **block}))
        assert main(["run", str(scenario_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"devices": 5}, "devices: must be a list of objects, got 5"),
            ({"images": {}}, "images: must be a list of objects, got {}"),
            ({"schedule": [5]}, "schedule[0]: must be an object, got 5"),
            (
                {"devices": [{"address": "10.0.0.1", "cpu_total": 1000.9}]},
                "devices[0]: cpu_total must be an integer, got 1000.9",
            ),
            (
                {"images": exp1_mem_images_with_first(workload={"period_s": 1800.9})},
                "images[0]: period_s must be an integer, got 1800.9",
            ),
            (
                {"duration_s": 60, "expectations": [{"type": "throttle_recovered", "max_pct": 25.0}]},
                "expectations[0]: missing key 'from_s'",
            ),
            (
                {"duration_s": 60, "expectations": [{"type": "zero_oom"}, {"type": "min_oom_per_deployment", "min": "x"}]},
                "expectations[1]: min must be an integer, got 'x'",
            ),
            (
                {"duration_s": 60, "expectations": {"type": "zero_oom"}},
                "expectations: must be a list of objects, got {'type': 'zero_oom'}",
            ),
            (
                {"duration_s": 60, "expectations": [{"type": "min_oom_per_deployment", "min": 1.5}]},
                "expectations[0]: min must be an integer, got 1.5",
            ),
            (
                {"images": exp1_mem_images_with_first(request={"cpu": 0}, base={"cpu": 0})},
                "images[0]: cpu limits must be positive, got request 0 and base 0",
            ),
            ({"seed": 2**63}, "seed 9223372036854775808 outside the signed 64-bit range"),
            ({"seed": -(2**63) - 1}, "seed -9223372036854775809 outside the signed 64-bit range"),
            ({"images": exp1_mem_with_first("images", owner=["a"])}, "images[0]: owner must be a string, got ['a']"),
            ({"images": exp1_mem_with_first("images", name=5)}, "images[0]: name must be a string, got 5"),
            (
                {"schedule": exp1_mem_with_first("schedule", owner=["a"])},
                "schedule[0]: owner must be a string, got ['a']",
            ),
            ({"schedule": exp1_mem_with_first("schedule", image=None)}, "schedule[0]: image must be a string, got None"),
            ({"devices": [{"address": 5}]}, "devices[0]: address must be a string, got 5"),
            ({"policy": []}, "policy: must be an object, got []"),
            ({"forecast": [["bucket_s", 60]]}, "forecast: must be an object, got [['bucket_s', 60]]"),
            ({"name": ["x"]}, "name must be a string, got ['x']"),
            (
                {"schedule": exp1_mem_with_first("schedule", after_stable_cycles="x")},
                "schedule[0]: schedule entries need exactly one of at_s and after_stable_cycles",
            ),
            (
                {"schedule": exp1_mem_with_first("schedule", after_stable_cycles=1)},
                "schedule[0]: schedule entries need exactly one of at_s and after_stable_cycles",
            ),
            (
                {"schedule": exp1_mem_schedule_with_first()},
                "schedule[0]: schedule entries need exactly one of at_s and after_stable_cycles",
            ),
            ({"schedule": exp1_mem_with_first("schedule", device="")}, "schedule[0]: schedule references unknown device ''"),
            ({"schedule": exp1_mem_with_first("schedule", device=[])}, "schedule[0]: schedule references unknown device []"),
            ({"schedule": exp1_mem_with_first("schedule", device=0)}, "schedule[0]: schedule references unknown device 0"),
            (
                {"schedule": exp1_mem_with_first("schedule", device=None)},
                "schedule[0]: schedule references unknown device None",
            ),
            (
                {"schedule": exp1_mem_with_first("schedule", device="10.0.0.9")},
                "schedule[0]: schedule references unknown device '10.0.0.9'",
            ),
        ],
    )
    def test_bad_entry_names_its_section_and_index(self, tmp_path, capsys, block, message):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps({**builtin_scenario("exp1_mem"), **block}))
        assert main(["run", str(scenario_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("content", ["[]", "5"])
    @pytest.mark.parametrize("seed_option", [[], ["--seed", "3"]])
    def test_scenario_file_that_is_no_object_reports_error(self, tmp_path, capsys, content, seed_option):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(content)
        assert main(["run", str(scenario_path), *seed_option]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: scenario: must be an object, got {content}"]

    def test_entry_missing_a_key_names_it(self, tmp_path, capsys):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps({**builtin_scenario("exp1_mem"), "devices": [{"cpu_total": 1000}]}))
        assert main(["run", str(scenario_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: devices[0]: missing key 'address'"]

    def test_key_error_inside_a_run_is_not_a_scenario_error(self, monkeypatch):
        def run(runner):
            raise KeyError("a bug, not bad input")

        monkeypatch.setattr(SimulationRunner, "run", run)
        with pytest.raises(KeyError, match="a bug"):
            main(["run", "--builtin", "exp1_mem"])
