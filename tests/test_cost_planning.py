"""Tests for repro.cost.planning: right-sizing power capacity."""

import pytest

from repro.cost.planning import plan_power, servers_for_demand, stranded_power_profile
from repro.errors import ConfigError
from repro.workloads.traces import ConstantTrace, DiurnalTrace


class TestPlanPower:
    def test_provisioning_covers_every_sampled_draw(self, xapian):
        trace = DiurnalTrace(min_fraction=0.1, max_fraction=0.9)
        plan = plan_power(xapian, trace)
        assert plan.provisioned_power_w >= plan.mean_draw_w
        assert plan.peak_load_fraction == pytest.approx(0.9, abs=0.02)

    def test_constant_low_load_provisions_low(self, xapian):
        low = plan_power(xapian, ConstantTrace(0.1))
        high = plan_power(xapian, ConstantTrace(0.9))
        assert low.provisioned_power_w < high.provisioned_power_w

    def test_diurnal_strands_power(self, xapian):
        """The paper's premise: diurnal load strands provisioned watts."""
        plan = plan_power(xapian, DiurnalTrace(min_fraction=0.1, max_fraction=0.9))
        assert plan.stranded_fraction > 0.10
        assert plan.stranded_w > 10.0

    def test_constant_peak_strands_little(self, xapian):
        plan = plan_power(xapian, ConstantTrace(0.9), safety_margin=0.0)
        assert plan.stranded_fraction == pytest.approx(0.0, abs=0.01)

    def test_safety_margin_scales_capacity(self, xapian):
        base = plan_power(xapian, ConstantTrace(0.5), safety_margin=0.0)
        padded = plan_power(xapian, ConstantTrace(0.5), safety_margin=0.10)
        assert padded.provisioned_power_w == pytest.approx(
            base.provisioned_power_w * 1.10
        )

    def test_validation(self, xapian):
        with pytest.raises(ConfigError):
            plan_power(xapian, ConstantTrace(0.5), horizon_s=0.0)
        with pytest.raises(ConfigError):
            plan_power(xapian, ConstantTrace(0.5), safety_margin=-0.1)


class TestServersForDemand:
    def test_simple_division(self, xapian):
        # xapian peak 4000 rps; 75% target -> 3000 rps/server.
        assert servers_for_demand(xapian, 30_000.0) == 10

    def test_rounds_up(self, xapian):
        assert servers_for_demand(xapian, 30_001.0) == 11

    def test_at_least_one(self, xapian):
        assert servers_for_demand(xapian, 1.0) == 1

    def test_validation(self, xapian):
        with pytest.raises(ConfigError):
            servers_for_demand(xapian, 0.0)


class TestStrandedProfile:
    def test_profile_nonnegative_and_diurnal(self, xapian):
        trace = DiurnalTrace(min_fraction=0.1, max_fraction=0.9)
        profile = stranded_power_profile(xapian, trace, samples=24)
        assert len(profile) == 24
        stranded = [w for _, w in profile]
        assert all(w >= 0.0 for w in stranded)
        # Off-peak strands much more than peak.
        assert max(stranded) > 3 * (min(stranded) + 1.0)

    def test_explicit_capacity_respected(self, xapian):
        profile = stranded_power_profile(
            xapian, ConstantTrace(0.5), provisioned_power_w=154.0, samples=4
        )
        for _, stranded in profile:
            assert stranded <= 154.0

    def test_validation(self, xapian):
        with pytest.raises(ConfigError):
            stranded_power_profile(xapian, ConstantTrace(0.5), samples=0)
