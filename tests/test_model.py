import pytest
from hypothesis import given, strategies as st

from orchestrion.model import (
    ContractViolation,
    DeviceId,
    Limits,
    OptimizationPolicy,
    clamp,
)


class TestClamp:
    def test_below_floor(self):
        assert clamp(50, 64, 512) == 64

    def test_above_ceiling(self):
        assert clamp(600, 64, 512) == 512

    def test_inside(self):
        assert clamp(128, 64, 512) == 128

    def test_inverted_bounds(self):
        with pytest.raises(ContractViolation):
            clamp(10, 100, 50)

    @given(
        value=st.integers(min_value=-1000, max_value=10_000),
        lo=st.integers(min_value=0, max_value=5_000),
        span=st.integers(min_value=0, max_value=5_000),
    )
    def test_idempotent_and_bounded(self, value, lo, span):
        hi = lo + span
        once = clamp(value, lo, hi)
        assert lo <= once <= hi
        assert clamp(once, lo, hi) == once


class TestLimits:
    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            Limits(cpu=-1, mem=0)

    def test_rejects_non_integer(self):
        with pytest.raises(ContractViolation):
            Limits(cpu=1.5, mem=0)

    def test_round_trip(self):
        limits = Limits(cpu=300, mem=150)
        assert Limits.from_dict(limits.as_dict()) == limits


class TestDeviceId:
    def test_numeric_order(self):
        assert DeviceId(address="10.0.0.2") < DeviceId(address="10.0.0.10")
        assert DeviceId(address="9.255.255.255") < DeviceId(address="10.0.0.1")

    def test_invalid_addresses(self):
        for bad in ("10.0.0", "a.b.c.d", "1.2.3.500"):
            with pytest.raises(ContractViolation):
                DeviceId(address=bad)


class TestOptimizationPolicy:
    def test_defaults_valid(self):
        policy = OptimizationPolicy()
        assert policy.cpu_buffer == pytest.approx(1.10)
        assert policy.mem_margin == pytest.approx(1.10)
        assert policy.throttle_limit_pct == pytest.approx(25.0)
        assert policy.optimization_interval_s == 300

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_buffer": 1.0},
            {"mem_margin": 0.9},
            {"throttle_limit_pct": 101},
            {"mem_min": 600, "mem_max": 500},
            {"scale_up": Limits(cpu=0, mem=20)},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ContractViolation):
            OptimizationPolicy(**kwargs)

    def test_dict_round_trip(self):
        policy = OptimizationPolicy(warmup_delay_s=1800)
        assert OptimizationPolicy.from_dict(policy.as_dict()) == policy
