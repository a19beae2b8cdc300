"""Scenario generators for the benchmark's three workloads.

Every generator is a pure function of the benchmark seed: it returns the list
of scenario dicts one round of the workload runs, in order. The program under
test only ever sees these dicts.
"""
from __future__ import annotations

import random

from orchestrion.builtins import BUILTIN_SCENARIOS, CPU_PEAKS, MEM_PEAKS

OWNER = "bench"

# Seeds the built-in scenarios run at in one round of paper_builtins, drawn
# from the range in which every built-in was scanned to pass every check.
BUILTIN_SEEDS_PER_ROUND = 3
BUILTIN_SEED_RANGE = range(0, 160)

# Several scenarios per round, so that a round's cost does not hinge on one
# draw of images and times.
FORECAST_SCENARIOS = 6
FORECAST_IMAGES = 20
FORECAST_DURATION_S = 2400
FORECAST_RETENTION_S = 600

CLUSTER_SCENARIOS = 3
CLUSTER_DEVICES = 16
CLUSTER_IMAGES = 32
CLUSTER_DURATION_S = 1800
SCRAPE_INTERVAL_S = 10


def _synthetic_image(index: int, pattern: int, workload_class: str, period_s: int) -> dict:
    """One of the ten synthetic workloads, with the built-ins' peaks and the
    request/base limits of the built-ins' ample-limit experiments."""
    if workload_class == "mem":
        peak = MEM_PEAKS[pattern - 1]
        request, base = {"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 100}
    else:
        peak = CPU_PEAKS[pattern - 1]
        request, base = {"cpu": 300, "mem": 64}, {"cpu": 100, "mem": 32}
    return {
        "owner": OWNER,
        "name": f"{workload_class}-{pattern}-{index:02d}",
        "workload": {"pattern": pattern, "workload_class": workload_class, "period_s": period_s, "peak": peak},
        "request": request,
        "base": base,
    }


def _draw_images(rng: random.Random, count: int) -> list[dict]:
    images = []
    for index in range(count):
        # alternate classes so both are always mixed; the pattern and the
        # period are drawn
        workload_class = "mem" if index % 2 else "cpu"
        pattern = rng.randint(1, 5)
        period_s = rng.choice((600, 900, 1200, 1800))
        images.append(_synthetic_image(index, pattern, workload_class, period_s))
    return images


def paper_builtins(seed: int) -> list[dict]:
    """The eleven built-in experiments, each at three seeds drawn from ``seed``."""
    rng = random.Random(f"paper_builtins:{seed}")
    seeds = rng.sample(BUILTIN_SEED_RANGE, BUILTIN_SEEDS_PER_ROUND)
    return [{**make(), "seed": s} for s in seeds for make in BUILTIN_SCENARIOS.values()]


def forecast_heavy(seed: int) -> list[dict]:
    """Single devices with twenty containers each, run four retention
    windows long."""
    rng = random.Random(f"forecast_heavy:{seed}")
    return [_forecast_scenario(rng, index) for index in range(FORECAST_SCENARIOS)]


def _forecast_scenario(rng: random.Random, index: int) -> dict:
    images = _draw_images(rng, FORECAST_IMAGES)
    device = "10.0.0.1"
    starts = sorted(rng.sample(range(2, FORECAST_RETENTION_S), FORECAST_IMAGES))
    return {
        "name": f"forecast_heavy_{index}",
        "seed": rng.randint(1, 100_000),
        "duration_s": FORECAST_DURATION_S,
        "cluster": False,
        "devices": [{"address": device, "cpu_total": 4000, "mem_total": 4000}],
        "images": images,
        "schedule": [
            {"at_s": at, "owner": OWNER, "image": image["name"], "device": device}
            for at, image in zip(starts, images)
        ],
        "monitor": {"scrape_interval_s": SCRAPE_INTERVAL_S, "retention_s": FORECAST_RETENTION_S},
        "forecast": {"bucket_s": 60, "min_points": 7},
    }


def cluster_fanout(seed: int) -> list[dict]:
    """Bridged clusters of sixteen devices with thirty-two deployments each,
    submitted at random devices after the first scrape."""
    rng = random.Random(f"cluster_fanout:{seed}")
    return [_cluster_scenario(rng, index) for index in range(CLUSTER_SCENARIOS)]


def _cluster_scenario(rng: random.Random, index: int) -> dict:
    images = _draw_images(rng, CLUSTER_IMAGES)
    devices = [f"10.0.0.{i}" for i in range(1, CLUSTER_DEVICES + 1)]
    # strictly after the first scrape: an election on an empty availability
    # table runs the deployment on every device
    starts = sorted(rng.sample(range(SCRAPE_INTERVAL_S + 1, 900), CLUSTER_IMAGES))
    return {
        "name": f"cluster_fanout_{index}",
        "seed": rng.randint(1, 100_000),
        "duration_s": CLUSTER_DURATION_S,
        "cluster": True,
        "devices": [{"address": a, "cpu_total": 1000, "mem_total": 1000} for a in devices],
        "images": images,
        "schedule": [
            {"at_s": at, "owner": OWNER, "image": image["name"], "device": rng.choice(devices)}
            for at, image in zip(starts, images)
        ],
        "monitor": {"scrape_interval_s": SCRAPE_INTERVAL_S, "retention_s": 7200},
        "forecast": {"bucket_s": 60, "min_points": 7},
    }


WORKLOADS = {
    "paper_builtins": paper_builtins,
    "forecast_heavy": forecast_heavy,
    "cluster_fanout": cluster_fanout,
}
