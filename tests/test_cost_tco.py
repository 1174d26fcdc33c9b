"""Tests for repro.cost.tco: the Hamilton-style TCO model."""

import pytest

from repro.cost import tco
from repro.cost.tco import (
    HOURS_PER_MONTH,
    PolicyOperatingPoint,
    compare_policies,
    monthly_tco,
    relative_savings,
)
from repro.errors import ConfigError


@pytest.fixture()
def point():
    return PolicyOperatingPoint(
        name="p", throughput_per_server=1.0,
        provisioned_w_per_server=150.0, avg_power_w_per_server=120.0,
    )


class TestMonthlyTco:
    def test_hand_computed_breakdown(self, point):
        b = monthly_tco(point, reference_throughput=1.0)
        assert b.num_servers == pytest.approx(100_000)
        assert b.servers_usd == pytest.approx(100_000 * 1450 / 36)
        assert b.power_infra_usd == pytest.approx(100_000 * 150 * 9 / 180)
        assert b.energy_usd == pytest.approx(
            100_000 * 120 * 1.1 * HOURS_PER_MONTH * 0.07 / 1000
        )
        assert b.total_usd == pytest.approx(
            b.servers_usd + b.power_infra_usd + b.energy_usd
        )

    def test_server_count_scales_inversely_with_throughput(self, point):
        faster = PolicyOperatingPoint(
            name="fast", throughput_per_server=2.0,
            provisioned_w_per_server=150.0, avg_power_w_per_server=120.0,
        )
        slow_b = monthly_tco(point, reference_throughput=1.0)
        fast_b = monthly_tco(faster, reference_throughput=1.0)
        assert fast_b.num_servers == pytest.approx(slow_b.num_servers / 2)
        assert fast_b.total_usd < slow_b.total_usd

    def test_higher_provisioning_costs_more(self, point):
        fat = PolicyOperatingPoint(
            name="fat", throughput_per_server=1.0,
            provisioned_w_per_server=185.0, avg_power_w_per_server=120.0,
        )
        assert monthly_tco(fat).power_infra_usd > monthly_tco(point).power_infra_usd
        assert monthly_tco(fat).servers_usd == monthly_tco(point).servers_usd

    def test_higher_draw_costs_energy_only(self, point):
        hot = PolicyOperatingPoint(
            name="hot", throughput_per_server=1.0,
            provisioned_w_per_server=150.0, avg_power_w_per_server=150.0,
        )
        assert monthly_tco(hot).energy_usd > monthly_tco(point).energy_usd
        assert monthly_tco(hot).power_infra_usd == monthly_tco(point).power_infra_usd

    def test_invalid_reference_rejected(self, point):
        with pytest.raises(ConfigError):
            monthly_tco(point, reference_throughput=0.0)


class TestParamsValidation:
    def test_paper_defaults(self):
        assert tco.BASELINE_NUM_SERVERS == 100_000
        assert tco.SERVER_COST_USD == 1450.0
        assert tco.POWER_INFRA_USD_PER_W == 9.0
        assert tco.ENERGY_USD_PER_KWH == 0.07
        assert tco.PUE == 1.1

    def test_operating_point_validation(self):
        with pytest.raises(ConfigError):
            PolicyOperatingPoint("x", 0.0, 150.0, 100.0)
        with pytest.raises(ConfigError):
            PolicyOperatingPoint("x", 1.0, 0.0, 100.0)
        with pytest.raises(ConfigError):
            PolicyOperatingPoint("x", 1.0, 150.0, -1.0)


class TestComparePolicies:
    @pytest.fixture()
    def points(self):
        return [
            PolicyOperatingPoint("random", 0.85, 150.5, 146.0),
            PolicyOperatingPoint("pocolo", 0.95, 150.5, 136.0),
        ]

    def test_constant_throughput_across_policies(self, points):
        breakdowns = compare_policies(points, reference="random")
        work_random = breakdowns["random"].num_servers * 0.85
        work_pocolo = breakdowns["pocolo"].num_servers * 0.95
        assert work_random == pytest.approx(work_pocolo)

    def test_better_policy_cheaper(self, points):
        breakdowns = compare_policies(points, reference="random")
        assert breakdowns["pocolo"].total_usd < breakdowns["random"].total_usd

    def test_default_reference_is_first(self, points):
        breakdowns = compare_policies(points)
        assert breakdowns["random"].num_servers == pytest.approx(100_000)

    def test_duplicate_names_rejected(self, points):
        with pytest.raises(ConfigError):
            compare_policies(points + [points[0]])

    def test_unknown_reference_rejected(self, points):
        with pytest.raises(ConfigError):
            compare_policies(points, reference="ghost")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compare_policies([])


class TestRelativeSavings:
    def test_savings_formula(self):
        points = [
            PolicyOperatingPoint("a", 1.0, 150.0, 120.0),
            PolicyOperatingPoint("b", 1.25, 150.0, 120.0),
        ]
        breakdowns = compare_policies(points, reference="a")
        savings = relative_savings(breakdowns, winner="b")
        expected = 1.0 - breakdowns["b"].total_usd / breakdowns["a"].total_usd
        assert savings["a"] == pytest.approx(expected)
        assert "b" not in savings

    def test_unknown_winner_rejected(self):
        points = [PolicyOperatingPoint("a", 1.0, 150.0, 120.0)]
        breakdowns = compare_policies(points)
        with pytest.raises(ConfigError):
            relative_savings(breakdowns, winner="zzz")
