import time

import pytest

from orchestrion.builtins import builtin_scenario
from orchestrion.scenario import run_scenario

_CACHE: dict[str, tuple] = {}


def collect(bus, topic: str) -> list:
    """Subscribe a handler on ``topic`` that appends every delivered message
    to the returned list, in delivery order."""
    received = []
    bus.subscribe(topic, lambda _topic, msg: received.append(msg))
    return received


@pytest.fixture(scope="session")
def run_builtin():
    """Run a built-in scenario once per test session; returns (report, wall_seconds)."""

    def _run(name: str):
        if name not in _CACHE:
            start = time.perf_counter()
            report = run_scenario(builtin_scenario(name))
            _CACHE[name] = (report, time.perf_counter() - start)
        return _CACHE[name]

    return _run
