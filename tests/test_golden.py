"""Golden digests of the artifacts each built-in writes at its default seed.

Every artifact is a pure function of ``(scenario, seed)``, so a refactor that
keeps behaviour must keep these bytes. A digest changes only in a change that
alters artifacts on purpose and says why; to re-baseline, print a fresh run's
digest for every pinned run with ``PYTHONPATH=src python tests/test_golden.py``.
Adding ``--bench-seed 5`` also prints the digest of each benchmark workload's
seed-5 round, which ``BENCH_GOLDEN`` pins.

Each pinned run must also pass the benchmark's invariant checks in
``perfbench/checks.py``, each of its ``messages.jsonl`` lines must be the
line ``json.dumps(copy, sort_keys=True)`` writes for the copy it records, and
each of its trace rows must be a host sample row: the ``TRACE_COLUMNS`` keys
and the unrounded ``throttle_pct`` that ``cpu_throttle`` rounds.

The runner steps quiet hosts a span at a time. Its oracle is the same runner
with every host quiet for no second, so that every second is a wake-up at
which every host ticks, and each tick is the frozen per-second reference in
``tests/reference_host.py``, not the host's own span path: it must write the
same bytes.

Hosts share one process-wide demand table per workload spec, filled by
whichever host reaches a phase first. ``exp1_mem`` and ``cluster_3dev`` must
write their pinned bytes whatever those tables hold: on an emptied map, after
every other built-in, and after each other. The expectations need no such
case: ``initial_throttle_full`` computes demand with ``workload_demand``
itself, not through a table.

The spine sends each publish along one cached route. Its oracle is the frozen
per-copy spine in ``tests/reference_spine.py``, which logs and queues every
copy, and every handler, alone, logging each copy as a one-copy publish:
every pinned run, and the benchmark's seed-5 ``cluster_fanout`` round, must
write the same bytes on it.
"""
import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from orchestrion.builtins import BUILTIN_SCENARIOS, CPU_PEAKS, MEM_PEAKS, builtin_scenario
from orchestrion.bus import EventSpine, MessageBus, copies, message_lines
from orchestrion.hostsim import TRACE_COLUMNS, HostSimulator, shared_table
from orchestrion.scenario import SimulationRunner, run_scenario
from conftest import PERFBENCH, load_perfbench
from reference_host import PerSecondHost
from reference_spine import PerCopyBus, PerCopySpine

# the benchmark's invariant checks
checks = load_perfbench("checks")

GOLDEN = {
    "exp1_mem": "ebe1663f14393f0d638516a80ca2328fec003fbe1f17a1d87ab69a68989cadf6",
    "exp1_cpu": "89903a64ad8186eda3c6ab7628f81cc58f06bbce096e4a2b18553cae7724ffbb",
    "exp2_mem": "67c931332c4d61e150cc67a43d7d5eb3cf7ce69183e66597fcefaed758c646c2",
    "exp2_cpu": "330bba47b5b601c0017c02b6ad0ebb438f54689ab16d0f8d5eaf24a9df9b66d8",
    "exp3_mem": "7551728ec245326134dc33d9315b36ef9a548c0c374ace3b6bfcf57f3952f7ac",
    "exp3_cpu": "2cb5169789ab71157bdc6dbb6214ffb07c3df5338af1fa7b9a9a4c265ddb3751",
    "exp4_mem_400": "c27eb993cb3ca0b05ac482d3ec306dec8e211fcc5d2598a419fcbf6d9e8c5f10",
    "exp4_mem_200": "286c3cee128195b7c12058dad0e007544beb981075c202aafe9383bd7f24d101",
    "exp4_cpu_350": "cce19e520de0c6ffa779792d8dfe9fe08e15ba1a173f09a9190366462b0a786e",
    "exp4_cpu_100": "8b09d74f7cf57f1124f998d31311dcc70a98b67f0dd01e0c481c585cde6ec6f8",
    "cluster_3dev": "f72df688dc57811f8032237ce25dd88a49f83049008b4d1a27b9f98cc71031ed",
}

# No built-in outlives its 7200 s retention window; this run expires and
# archives rows, so it pins the metrics_archived events and their hashes.
EXPIRING_SCENARIO = "exp1_mem"
EXPIRING_RETENTION_S = 600
EXPIRING_GOLDEN = "516bfc8526f6e35f86f8ea63ddfbd00bc475a2255e8a01c9713d8f603cf4df2e"

# Twenty containers on one device, run two 600 s retention windows long with
# 60 s buckets: every forecast past the first window fits AR(5) on a full
# window of eleven buckets, and rows expire on every scrape.
FULL_WINDOW_GOLDEN = "7546cc9ba15b97382af8a1df9b808d56973db8169cfdcd4cfcd0fd1bf1ed37b3"

# One device off the built-ins' 10 s / 300 s cadence: 7 s scrapes and cycles
# every 60 s after a 45 s warm-up, so the cycles of the three start times fall
# on every residue mod 7. It pins when the runner must wake between scrapes:
# optimization cycles, OOM kills between scrapes (an on-off image killed on its
# first tick and retried to exhaustion, a ramp killed after a downscale), and a
# one-stable-cycle request injected the second after the cycle that allows it.
OFF_CADENCE_GOLDEN = "1fc8618b2bf050ea0563b1cfb0cf29140ef03a1219f416a9f9cc858238b87bef"

# Twelve bridged devices, so that address-string order (10.0.0.10 before
# 10.0.0.2) differs from numeric order: it pins the order in which bridged
# copies reach the peers, which messages.jsonl records.
CLUSTER_12_GOLDEN = "1d90ed1fcca89c8451eb4c4c35b1ba64ca73d28f5fe9197e2da2b9e28ae1c45f"

# Each benchmark workload's round at seed 5, as ``bench_round_digests`` writes it.
BENCH_SEED = 5
BENCH_GOLDEN = {
    "paper_builtins": "24a4cb8010be2dbc9d1dd9dd43a412f41bbf0180523b12650e5ddc4e22358f1c",
    "forecast_heavy": "2b45a1f6618792d3b707cc1674b158d9b9cdff551e4923c9070dafcf2f6e296e",
    "cluster_fanout": "684ec9f34ead1efd11161ca28cc3e07a8cb0e09a92e04fde865bae7c315f12dc",
}


def expiring_scenario() -> dict:
    scenario = builtin_scenario(EXPIRING_SCENARIO)
    scenario["monitor"] = {**scenario.get("monitor", {}), "retention_s": EXPIRING_RETENTION_S}
    return scenario


def off_cadence_scenario() -> dict:
    device = "10.0.0.1"

    def image(name, pattern, workload_class, period_s, peak, request, base):
        workload = {"pattern": pattern, "workload_class": workload_class, "period_s": period_s, "peak": peak}
        return {"owner": "golden", "name": name, "workload": workload, "request": request, "base": base}

    return {
        "name": "off_cadence",
        "seed": 4,
        "duration_s": 900,
        "cluster": False,
        "devices": [{"address": device, "cpu_total": 1000, "mem_total": 1000}],
        "images": [
            image("shaky-cpu", 4, "cpu", 300, 120, {"cpu": 300, "mem": 64}, {"cpu": 100, "mem": 32}),
            image("onoff-mem", 3, "mem", 240, 95, {"cpu": 100, "mem": 15}, {"cpu": 50, "mem": 10}),
            image("ramp-mem", 1, "mem", 420, 95, {"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 100}),
            image("step-cpu", 2, "cpu", 360, 150, {"cpu": 300, "mem": 64}, {"cpu": 100, "mem": 32}),
        ],
        "schedule": [
            {"at_s": 3, "owner": "golden", "image": "shaky-cpu", "device": device},
            {"at_s": 17, "owner": "golden", "image": "onoff-mem", "device": device},
            {"at_s": 53, "owner": "golden", "image": "ramp-mem", "device": device},
            {"after_stable_cycles": 1, "owner": "golden", "image": "step-cpu", "device": device},
        ],
        "policy": {
            "scale_up": {"cpu": 50, "mem": 20},
            "scale_down": {"cpu": 100, "mem": 20},
            "cpu_buffer": 1.10,
            "mem_margin": 1.10,
            "throttle_limit_pct": 25.0,
            "mem_min": 32,
            "mem_max": 500,
            "optimization_interval_s": 60,
            "warmup_delay_s": 45,
        },
        "monitor": {"scrape_interval_s": 7, "retention_s": 300, "max_attempts": 3},
        "forecast": {"bucket_s": 30, "min_points": 7},
    }


def cluster_12_scenario() -> dict:
    addresses = [f"10.0.0.{index}" for index in range(1, 13)]
    images = [
        {
            "owner": "golden",
            "name": f"memory-{pattern}",
            "workload": {"pattern": pattern, "workload_class": "mem", "period_s": 600, "peak": MEM_PEAKS[pattern - 1]},
            "request": {"cpu": 100, "mem": 150},
            "base": {"cpu": 50, "mem": 100},
        }
        for pattern in (1, 2, 3)
    ]
    submitters = ("10.0.0.12", "10.0.0.2", "10.0.0.10")
    return {
        "name": "cluster_12",
        "seed": 7,
        "duration_s": 600,
        "cluster": True,
        "devices": [{"address": address, "cpu_total": 1000, "mem_total": 1000} for address in addresses],
        "images": images,
        "schedule": [
            {"at_s": 15 + 10 * index, "owner": "golden", "image": image["name"], "device": device}
            for index, (image, device) in enumerate(zip(images, submitters))
        ],
        "policy": {
            "scale_up": {"cpu": 50, "mem": 20},
            "scale_down": {"cpu": 100, "mem": 20},
            "cpu_buffer": 1.10,
            "mem_margin": 1.10,
            "throttle_limit_pct": 25.0,
            "mem_min": 32,
            "mem_max": 500,
            "optimization_interval_s": 120,
            "warmup_delay_s": 120,
        },
        "monitor": {"scrape_interval_s": 10, "retention_s": 600},
        "forecast": {"bucket_s": 60, "min_points": 7},
    }


def full_window_scenario() -> dict:
    images = []
    for index in range(20):
        workload_class = "mem" if index % 2 else "cpu"
        pattern = index % 5 + 1
        if workload_class == "mem":
            peak, request, base = MEM_PEAKS[pattern - 1], {"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 100}
        else:
            peak, request, base = CPU_PEAKS[pattern - 1], {"cpu": 300, "mem": 64}, {"cpu": 100, "mem": 32}
        period_s = (600, 900, 1200, 1800)[index % 4]
        images.append(
            {
                "owner": "golden",
                "name": f"{workload_class}-{pattern}-{index:02d}",
                "workload": {"pattern": pattern, "workload_class": workload_class, "period_s": period_s, "peak": peak},
                "request": request,
                "base": base,
            }
        )
    device = "10.0.0.1"
    return {
        "name": "full_window",
        "seed": 3,
        "duration_s": 1200,
        "cluster": False,
        "devices": [{"address": device, "cpu_total": 4000, "mem_total": 4000}],
        "images": images,
        "schedule": [
            {"at_s": 2 + 29 * index, "owner": "golden", "image": image["name"], "device": device}
            for index, image in enumerate(images)
        ],
        "monitor": {"scrape_interval_s": 10, "retention_s": 600},
        "forecast": {"bucket_s": 60, "min_points": 7},
    }


# every pinned run: name -> (scenario builder, digest)
PINNED = {name: (lambda name=name: builtin_scenario(name), digest) for name, digest in sorted(GOLDEN.items())}
PINNED.update(
    expiring=(expiring_scenario, EXPIRING_GOLDEN),
    full_window=(full_window_scenario, FULL_WINDOW_GOLDEN),
    off_cadence=(off_cadence_scenario, OFF_CADENCE_GOLDEN),
    cluster_12=(cluster_12_scenario, CLUSTER_12_GOLDEN),
)


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def assert_invariants_hold(report, scenario: dict) -> None:
    """Every check of the benchmark passes on ``report``, no deployment
    fails, every message is written as the line ``json.dumps`` would write,
    and every trace row is a host sample row. ``expectations_pass`` is left out: the acceptance tests hold the
    built-ins to their expectations, and the expiring run's 600 s retention
    breaks its own on purpose."""
    failures = {name: check(report, scenario) for name, check in checks.CHECKS.items() if name != "expectations_pass"}
    assert {name: found for name, found in failures.items() if found} == {}
    attempted, failed = checks.count_operations(report)
    assert attempted and not failed
    for record in report.log:
        assert message_lines(record) == [json.dumps(copy, sort_keys=True) + "\n" for copy in copies([record])]
    for rows in report.traces.values():
        for row in rows:
            assert row.keys() == {*TRACE_COLUMNS, "throttle_pct"}
            assert row["cpu_throttle"] == round(row["throttle_pct"], 6)


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_artifacts_unchanged(name, tmp_path):
    scenario = builtin_scenario(name)
    report = run_scenario(scenario)
    assert_invariants_hold(report, scenario)
    report.write(tmp_path)
    assert tree_digest(tmp_path) == GOLDEN[name]


def test_expiring_run_artifacts_unchanged(tmp_path):
    scenario = expiring_scenario()
    report = run_scenario(scenario)
    assert_invariants_hold(report, scenario)
    assert report.events_of("metrics_archived"), "the run must expire rows to pin them"
    report.write(tmp_path)
    assert tree_digest(tmp_path) == EXPIRING_GOLDEN


def test_expiring_run_keeps_only_the_image_blobs():
    scenario = expiring_scenario()
    runner = SimulationRunner(scenario)
    report = runner.run()
    assert report.events_of("metrics_archived"), "the run must expire rows"
    registry = runner.registry
    published = {registry.get_image(image["owner"], image["name"]).image_hash for image in scenario["images"]}
    assert registry._store.keys() == published
    for digest in published:
        registry.fetch_blob(digest)


def test_full_window_run_artifacts_unchanged(tmp_path):
    scenario = full_window_scenario()
    report = run_scenario(scenario)
    assert_invariants_hold(report, scenario)
    assert len(report.events_of("metrics_archived")) > 50, "rows must expire on every scrape of the second window"
    report.write(tmp_path)
    assert tree_digest(tmp_path) == FULL_WINDOW_GOLDEN


def test_off_cadence_run_artifacts_unchanged(tmp_path):
    scenario = off_cadence_scenario()
    report = run_scenario(scenario)
    assert_invariants_hold(report, scenario)
    cycles = [e["t"] for e in report.events_of("optimization_cycle")]
    assert {t % 7 for t in cycles} == set(range(7)), "cycles must fall on every residue of the scrape interval"
    kills = [e["t"] for e in report.events_of("oom_kill")]
    assert kills and all(t % 7 for t in kills), "every OOM kill must fall between scrapes"
    assert report.events_of("retry_exhausted")
    (late,) = [e for e in report.events_of("request_submitted") if e["image"] == "step-cpu"]
    assert late["t"] - 1 in cycles and late["t"] % 7, "the stable-cycle request lands the second after a cycle"
    report.write(tmp_path)
    assert tree_digest(tmp_path) == OFF_CADENCE_GOLDEN


def test_cluster_12_run_artifacts_unchanged(tmp_path):
    scenario = cluster_12_scenario()
    report = run_scenario(scenario)
    assert_invariants_hold(report, scenario)
    assert len(report.events_of("deployed")) == 3, "each request runs on exactly one device"
    assert any(m["bridged_from"] == "10.0.0.10" for m in report.messages)
    report.write(tmp_path)
    assert tree_digest(tmp_path) == CLUSTER_12_GOLDEN


CACHE_STATE_RUNS = ("exp1_mem", "cluster_3dev")
OTHER_BUILTINS = tuple(name for name in BUILTIN_SCENARIOS if name not in CACHE_STATE_RUNS)


@pytest.mark.parametrize(
    "order",
    [
        ("exp1_mem",),
        ("cluster_3dev",),
        (*OTHER_BUILTINS, "exp1_mem", "cluster_3dev"),
        (*OTHER_BUILTINS, "cluster_3dev", "exp1_mem"),
        ("exp1_mem", "cluster_3dev"),
        ("cluster_3dev", "exp1_mem"),
    ],
    ids=[
        "exp1_mem",
        "cluster_3dev",
        "others-exp1_mem-cluster_3dev",
        "others-cluster_3dev-exp1_mem",
        "exp1_mem-cluster_3dev",
        "cluster_3dev-exp1_mem",
    ],
)
def test_pinned_bytes_whatever_the_shared_tables_hold(order, tmp_path):
    # the built-ins in ``order`` run in turn, from an emptied table map
    shared_table.cache_clear()
    for index, name in enumerate(order):
        report = run_scenario(builtin_scenario(name))
        if name in CACHE_STATE_RUNS:
            report.write(tmp_path / f"{index:02d}")
            assert tree_digest(tmp_path / f"{index:02d}") == GOLDEN[name], (order, name)


def tick_every_second(monkeypatch):
    """Make every host quiet for no second, so that every second is a wake-up,
    and step each second with the frozen per-second reference tick."""
    monkeypatch.setattr(HostSimulator, "quiet_until", lambda host, wake: host.now + 1)
    monkeypatch.setattr(HostSimulator, "tick", PerSecondHost.tick)


@pytest.mark.parametrize("name", list(PINNED))
def test_per_second_runner_writes_the_pinned_bytes(name, tmp_path, monkeypatch):
    tick_every_second(monkeypatch)
    build, digest = PINNED[name]
    run_scenario(build()).write(tmp_path)
    assert tree_digest(tmp_path) == digest


@pytest.mark.parametrize("workload", ["paper_builtins", "forecast_heavy", "cluster_fanout"])
def test_per_second_runner_matches_on_benchmark_scenarios(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    scenario = WORKLOADS[workload](5)[0]
    run_scenario(scenario).write(tmp_path / "spans")
    tick_every_second(monkeypatch)
    run_scenario(scenario).write(tmp_path / "seconds")
    assert tree_digest(tmp_path / "spans") == tree_digest(tmp_path / "seconds")


def deliver_per_copy(monkeypatch):
    """Publish, log and queue every copy, and every handler, alone, with the
    frozen per-copy reference spine."""
    monkeypatch.setattr(MessageBus, "publish", PerCopyBus.publish)
    monkeypatch.setattr(EventSpine, "deliver", PerCopySpine.deliver)
    monkeypatch.setattr(EventSpine, "drain", PerCopySpine.drain)


@pytest.mark.parametrize("name", list(PINNED))
def test_per_copy_spine_writes_the_pinned_bytes(name, tmp_path, monkeypatch):
    deliver_per_copy(monkeypatch)
    build, digest = PINNED[name]
    run_scenario(build()).write(tmp_path)
    assert tree_digest(tmp_path) == digest


def bench_round_digests(seed: int, names=None) -> dict[str, str]:
    """``tree_digest`` of the round at ``seed`` of each benchmark workload in
    ``names`` (all by default): every scenario's ``RunReport.write`` tree, in a
    directory named by its index."""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    digests = {}
    for name in names or WORKLOADS:
        with tempfile.TemporaryDirectory() as out:
            for index, scenario in enumerate(WORKLOADS[name](seed)):
                run_scenario(scenario).write(Path(out) / f"{index:03d}")
            digests[name] = tree_digest(Path(out))
    return digests


@pytest.mark.parametrize("workload", sorted(BENCH_GOLDEN))
def test_benchmark_round_artifacts_unchanged(workload):
    assert bench_round_digests(BENCH_SEED, [workload]) == {workload: BENCH_GOLDEN[workload]}


def test_per_copy_spine_writes_the_cluster_fanout_round(monkeypatch):
    deliver_per_copy(monkeypatch)
    assert bench_round_digests(BENCH_SEED, ["cluster_fanout"]) == {"cluster_fanout": BENCH_GOLDEN["cluster_fanout"]}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the tree_digest of a fresh run of every pinned run.")
    parser.add_argument(
        "--bench-seed", type=int, help="also print the digest of each benchmark workload's round at this seed"
    )
    args = parser.parse_args()
    for name, (build, _) in PINNED.items():
        with tempfile.TemporaryDirectory() as out:
            run_scenario(build()).write(out)
            print(name, tree_digest(Path(out)))
    if args.bench_seed is not None:
        for name, digest in bench_round_digests(args.bench_seed).items():
            print(f"{name}@{args.bench_seed}", digest)
