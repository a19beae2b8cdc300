import json
from pathlib import Path

import pytest

from orchestrion.builtins import BUILTIN_SCENARIOS, builtin_scenario
from orchestrion.cli import main
from orchestrion.scenario import ScenarioError, SimulationRunner, run_scenario, validate_scenario


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

    def test_unknown_builtin_reports_error(self, capsys):
        assert main(["run", "--builtin", "exp99"]) == 2

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
        ],
    )
    def test_bad_entry_names_its_section_and_index(self, tmp_path, capsys, block, message):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps({**builtin_scenario("exp1_mem"), **block}))
        assert main(["run", str(scenario_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

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
