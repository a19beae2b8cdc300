"""The benchmark harness under ``perfbench/`` keeps working against the program.

Its own check tests run as they do from the command line, and its tracer is
installed over a short run that expires rows and over a bridged cluster run, so
that a change to the host, the store, the forecaster, the bus or the deployer
cannot silently leave ``--trace 1`` counting nothing.
"""
import subprocess
import sys
from pathlib import Path

from orchestrion.builtins import builtin_scenario
from orchestrion.scenario import run_scenario

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_selftest_suite_passes():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-4000:]


def traced_round(monkeypatch, scenario):
    """Times and counts of one traced run of ``scenario``, and the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_scenario(scenario)
    finally:
        tracer.uninstall()
    times, counts = tracer.take_round()
    return times, counts, tracer


def test_tracer_counts_store_and_forecaster_work(monkeypatch):
    scenario = builtin_scenario("exp1_mem")
    scenario["monitor"] = {**scenario.get("monitor", {}), "retention_s": 600}
    times, counts, tracer = traced_round(monkeypatch, scenario)
    for name in (
        "hostsim.container_ticks",
        "monitor.rows_stored",
        "monitor.rows_expired",
        "forecaster.points_bucketed",
        "forecaster.forecasts",
    ):
        assert counts[name] > 0, name
    for name in ("hostsim.tick_s", "hostsim.sample_s", "forecaster.bucket_s"):
        assert times[name] > 0, name
    assert tracer.forecast_failures == []


def test_tracer_counts_bus_and_deployer_work(monkeypatch):
    # the tracer counts deliveries and table updates through the handlers it
    # wraps at subscribe time
    _, counts, _ = traced_round(monkeypatch, builtin_scenario("cluster_3dev"))
    for name in ("bus.publishes", "bus.deliveries", "deployer.table_updates"):
        assert counts[name] > 0, name
