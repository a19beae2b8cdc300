"""Tests of the benchmark's correctness checks.

Each check must pass on a real report and fail on a deliberately broken copy
of it. Run with ``python3 perfbench/selftest.py`` from the root of a checkout.
"""
from __future__ import annotations

import copy
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from orchestrion.builtins import builtin_scenario  # noqa: E402
from orchestrion.scenario import run_scenario  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_CLUSTER = builtin_scenario("cluster_3dev")
_CLUSTER_REPORT = run_scenario(_CLUSTER)


def _first(report, kind: str) -> dict:
    return next(e for e in report.events if e["type"] == kind)


class ChecksCatchPlantedFaults(unittest.TestCase):
    def setUp(self) -> None:
        self.report = copy.deepcopy(_CLUSTER_REPORT)

    def failing(self) -> set[str]:
        return {name for name, check in checks.CHECKS.items() if check(self.report, _CLUSTER)}

    def failed_operations(self) -> int:
        return checks.count_operations(self.report)[1]

    def test_real_report_passes(self) -> None:
        self.assertEqual(checks.check_report(self.report, _CLUSTER), [])
        self.assertEqual(checks.count_operations(self.report), (4, 0))

    def test_failed_expectation(self) -> None:
        self.report.expectation_results[0]["passed"] = False
        self.assertEqual(self.failing(), {"expectations_pass"})

    def test_missing_expectation(self) -> None:
        del self.report.expectation_results[-1]
        self.assertEqual(self.failing(), {"expectations_pass"})

    def test_flipped_verdict(self) -> None:
        admission = _first(self.report, "admission")
        self.assertEqual(admission["verdict"], "accept")
        admission["verdict"] = "reject"
        self.assertEqual(self.failing(), {"admissions_strict"})
        self.assertEqual(self.failed_operations(), 1)

    def test_accept_at_equality(self) -> None:
        admission = _first(self.report, "admission")
        admission["avail"]["mem"] = admission["target"]["mem"]
        self.assertEqual(self.failing(), {"admissions_strict"})
        self.assertEqual(self.failed_operations(), 1)

    def test_backlog_not_conserved(self) -> None:
        state = next(iter(self.report.final_state.values()))
        container = next(iter(state["containers"].values()))
        container["backlog"] += 1
        self.assertEqual(self.failing(), {"backlog_conserved"})

    def test_memory_above_limit(self) -> None:
        rows = next(iter(self.report.traces.values()))
        row = next(r for r in rows if r["status"] == "running")
        row["mem_util"] = row["mem_limit"] + 1
        self.assertEqual(self.failing(), {"memory_within_limit"})

    def test_missing_scrape(self) -> None:
        index = next(i for i, m in enumerate(self.report.messages) if m["topic"] == "monitor")
        del self.report.messages[index]
        self.assertEqual(self.failing(), {"monitoring_fanout"})

    def test_missing_bridged_copy(self) -> None:
        index = next(i for i, m in enumerate(self.report.messages) if m["topic"] == "cluster/monitor")
        del self.report.messages[index]
        self.assertEqual(self.failing(), {"monitoring_fanout"})

    def test_duplicated_bridged_copy(self) -> None:
        copy_record = next(m for m in self.report.messages if m["topic"] == "cluster/monitor")
        self.report.messages.append(dict(copy_record))
        self.assertEqual(self.failing(), {"monitoring_fanout"})

    def test_deployed_on_second_device(self) -> None:
        deployed = _first(self.report, "deployed")
        other = next(a for a in self.report.final_state if a != deployed["device"])
        self.report.events.append({**deployed, "device": other})
        self.assertEqual(self.failing(), {"single_executor"})
        self.assertEqual(self.failed_operations(), 1)

    def test_mismatched_election(self) -> None:
        select = _first(self.report, "cluster_select")
        select["winner"] = next(a for a in self.report.final_state if a != select["winner"])
        self.assertEqual(self.failing(), {"single_executor", "election_ranking"})

    def test_unanimous_wrong_election(self) -> None:
        # every device agrees and the container runs where they agreed, but
        # the table says another device should have won
        deployed = _first(self.report, "deployed")
        wrong = next(a for a in self.report.final_state if a != deployed["device"])
        for e in self.report.events:
            if e["type"] == "cluster_select" and e["deployment"] == deployed["deployment"]:
                e["winner"] = wrong
        deployed["device"] = wrong
        self.assertEqual(self.failing(), {"election_ranking"})

    def test_wrong_dominant_resource(self) -> None:
        select = _first(self.report, "cluster_select")
        select["dominant"] = "cpu" if select["dominant"] == "mem" else "mem"
        self.assertEqual(self.failing(), {"election_ranking"})

    def test_election_on_partial_table(self) -> None:
        select = _first(self.report, "cluster_select")
        del select["table"][next(iter(select["table"]))]
        self.assertEqual(self.failing(), {"election_ranking"})

    def test_non_terminal_deployment(self) -> None:
        deployed = _first(self.report, "deployed")
        self.report.final_state[deployed["device"]]["deployments"][deployed["deployment"]]["state"] = "analyzing"
        self.assertEqual(self.failed_operations(), 1)


class ForecastCheck(unittest.TestCase):
    GOOD = {"cpu_util": [1.0, 2.0], "mem_util": [0.0, 3.0], "throttle_pct": [0.0, 100.0], "error": None}

    def test_good(self) -> None:
        self.assertEqual(checks.check_forecast(self.GOOD, 2), [])

    def test_short(self) -> None:
        self.assertTrue(checks.check_forecast(self.GOOD, 3))

    def test_negative_utilization(self) -> None:
        self.assertTrue(checks.check_forecast({**self.GOOD, "mem_util": [0.0, -1.0]}, 2))

    def test_throttle_out_of_range(self) -> None:
        self.assertTrue(checks.check_forecast({**self.GOOD, "throttle_pct": [0.0, 100.5]}, 2))


class RaisingRun(unittest.TestCase):
    def test_raising_scenario_is_a_failure(self) -> None:
        # a schedule naming an image no vendor published: the runner raises
        raising = {**_CLUSTER, "images": []}
        measure.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=measure.OUT_DIR) as scratch:
            out = measure.run_round([_CLUSTER, raising], Path(scratch))
        self.assertEqual(len(out.failures), 1)
        self.assertIn("raised", out.failures[0])
        self.assertEqual((out.attempted, out.failed), (8, 4))
        # the raising run wrote nothing, so it gives no write time
        self.assertEqual(list(out.writes), [0])


class Workloads(unittest.TestCase):
    def test_seeded(self) -> None:
        for make in WORKLOADS.values():
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))

    def test_cluster_submissions_follow_first_scrape(self) -> None:
        for seed in range(20):
            for scn in WORKLOADS["cluster_fanout"](seed):
                interval = scn["monitor"]["scrape_interval_s"]
                self.assertTrue(all(entry["at_s"] > interval for entry in scn["schedule"]))


if __name__ == "__main__":
    unittest.main()
