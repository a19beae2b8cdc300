import math

import pytest

from orchestrion.model import ContractViolation, Limits, OptimizationPolicy


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
            {"cpu_buffer": math.inf},
            {"cpu_buffer": math.nan},
            {"cpu_buffer": "1.5"},
            {"mem_margin": math.nan},
            {"mem_margin": math.inf},
            {"mem_margin": True},
            {"throttle_limit_pct": math.nan},
            {"throttle_limit_pct": True},
            {"mem_margin": 10**400},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ContractViolation):
            OptimizationPolicy(**kwargs)

    def test_dict_round_trip(self):
        data = {
            "scale_up": {"cpu": 60, "mem": 30},
            "scale_down": {"cpu": 120, "mem": 25},
            "cpu_buffer": 1.2,
            "mem_margin": 1.05,
            "throttle_limit_pct": 30.0,
            "mem_min": 40,
            "mem_max": 400,
            "optimization_interval_s": 600,
            "warmup_delay_s": 1800,
        }
        assert OptimizationPolicy.from_dict(data) == OptimizationPolicy(
            scale_up=Limits(cpu=60, mem=30),
            scale_down=Limits(cpu=120, mem=25),
            cpu_buffer=1.2,
            mem_margin=1.05,
            throttle_limit_pct=30.0,
            mem_min=40,
            mem_max=400,
            optimization_interval_s=600,
            warmup_delay_s=1800,
        )
        assert OptimizationPolicy.from_dict({"warmup_delay_s": 1800}) == OptimizationPolicy(warmup_delay_s=1800)
