"""Decentralized edge container orchestration engine with a deterministic simulator.

The package wires four orchestration components (monitor, analyzer, forecaster,
deployer) over a topic-based message bus, backed by a content-addressed image
registry and a simulated container host. Scenarios are driven through
:mod:`orchestrion.scenario` or the ``orchestrion`` command line tool.
"""

__version__ = "0.1.0"

from .model import Limits, OptimizationPolicy

__all__ = [
    "Limits",
    "OptimizationPolicy",
    "__version__",
]
