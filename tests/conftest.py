import importlib.util
import time
from pathlib import Path

import pytest

from orchestrion.builtins import builtin_scenario
from orchestrion.scenario import run_scenario

_CACHE: dict[str, tuple] = {}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """The module ``name`` of the benchmark, loaded by path: perfbench/ is
    no package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect(bus, topic: str) -> list:
    """Subscribe a handler on ``topic`` that appends every delivered message
    to the returned list, in delivery order."""
    received = []
    bus.subscribe(topic, lambda _topic, msg: received.append(msg))
    return received


def corrupt_stored(registry, digest: str, offset: int = 0) -> None:
    """Flip every bit of one byte of the blob ``registry`` stores under
    ``digest``, so that a fetch must detect the tampering."""
    raw = bytearray(registry._store[digest])
    raw[offset] ^= 0xFF
    registry._store[digest] = bytes(raw)


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
