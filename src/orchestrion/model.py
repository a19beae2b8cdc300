"""Shared domain vocabulary: resources, limits and scaling policies.

All resource amounts are non-negative integers: milli-CPU units for CPU
(1000 mCPU = one core) and megabytes for memory. Integer accounting keeps
the availability arithmetic exact across components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping


class ContractViolation(ValueError):
    """An operation was invoked outside its stated preconditions."""


RESOURCES = ("cpu", "mem")


@dataclass(frozen=True)
class Limits:
    """A per-resource pair of amounts (request, base, current or target role).

    Values are mCPU for cpu and MB for mem and must be non-negative.
    """

    cpu: int
    mem: int

    def __post_init__(self) -> None:
        for res in RESOURCES:
            value = getattr(self, res)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ContractViolation(f"{res} amount must be an integer, got {value!r}")
            if value < 0:
                raise ContractViolation(f"{res} amount must be >= 0, got {value}")

    def as_dict(self) -> dict[str, int]:
        return {"cpu": self.cpu, "mem": self.mem}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "Limits":
        return cls(cpu=data["cpu"], mem=data["mem"])


def require_int(name: str, value) -> None:
    """Durations and counts are whole numbers: the simulation clock ticks in
    integer seconds."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or a float, not a bool, and a finite float
    holds it: no NaN, no infinity and no int beyond a float's range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class OptimizationPolicy:
    """Knobs for the vertical-scaling loop.

    scale_up / scale_down are per-resource step amounts; cpu_buffer and
    mem_margin are the multiplicative headroom ratios kept above observed
    peaks; throttle_limit_pct is the tolerated CPU throttling percentage.
    Durations are simulated seconds.
    """

    scale_up: Limits = field(default_factory=lambda: Limits(cpu=50, mem=20))
    scale_down: Limits = field(default_factory=lambda: Limits(cpu=100, mem=20))
    cpu_buffer: float = 1.10
    mem_margin: float = 1.10
    throttle_limit_pct: float = 25.0
    mem_min: int = 32
    mem_max: int = 500
    optimization_interval_s: int = 300
    warmup_delay_s: int = 300

    def __post_init__(self) -> None:
        for name in ("cpu_buffer", "mem_margin", "throttle_limit_pct"):
            if not is_finite_number(getattr(self, name)):
                raise ContractViolation(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.cpu_buffer <= 1.0:
            raise ContractViolation(f"cpu_buffer must be > 1, got {self.cpu_buffer}")
        if self.mem_margin < 1.0:
            raise ContractViolation(f"mem_margin must be >= 1, got {self.mem_margin}")
        if not 0.0 <= self.throttle_limit_pct <= 100.0:
            raise ContractViolation(f"throttle_limit_pct out of [0,100]: {self.throttle_limit_pct}")
        for name in ("mem_min", "mem_max", "optimization_interval_s", "warmup_delay_s"):
            require_int(name, getattr(self, name))
        if self.mem_min > self.mem_max:
            raise ContractViolation(f"mem_min {self.mem_min} > mem_max {self.mem_max}")
        for res in RESOURCES:
            if getattr(self.scale_up, res) <= 0 or getattr(self.scale_down, res) <= 0:
                raise ContractViolation("scale amounts must be > 0")
        if self.optimization_interval_s <= 0 or self.warmup_delay_s < 0:
            raise ContractViolation("intervals must be positive")

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizationPolicy":
        kwargs = dict(data)
        for key in ("scale_up", "scale_down"):
            if key in kwargs and not isinstance(kwargs[key], Limits):
                kwargs[key] = Limits.from_dict(kwargs[key])
        return cls(**kwargs)
