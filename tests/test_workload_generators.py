"""Tests for the production-shaped traces of repro.workloads.traces:
weekday/weekend modulation and flash crowds."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.workloads.traces import (
    DAY_S,
    WEEK_S,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    WeeklyTrace,
)


class TestWeeklyTrace:
    def test_weekend_slump(self):
        trace = WeeklyTrace()
        peak_hour = trace.base.peak_time_s
        weekday = trace.load_fraction(peak_hour)          # day 0
        weekend = trace.load_fraction(5 * DAY_S + peak_hour)  # day 5
        assert weekend < weekday

    def test_weekly_periodicity(self):
        trace = WeeklyTrace()
        assert trace.load_fraction(1234.0) == pytest.approx(
            trace.load_fraction(1234.0 + WEEK_S)
        )

    def test_unit_factors_reduce_to_base(self):
        trace = WeeklyTrace(day_factors=(1.0,) * 7)
        for t in (0.0, 3 * 3600.0, 2 * DAY_S + 1000.0):
            assert trace.load_fraction(t) == pytest.approx(
                trace.base.load_fraction(t)
            )

    @given(st.floats(min_value=0.0, max_value=3 * WEEK_S))
    def test_bounds(self, t):
        assert 0.0 <= WeeklyTrace().load_fraction(t) <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            WeeklyTrace(day_factors=(1.0,) * 6)
        with pytest.raises(ConfigError):
            WeeklyTrace(day_factors=(1.0,) * 6 + (-0.5,))


class TestFlashCrowdTrace:
    @pytest.fixture()
    def trace(self):
        return FlashCrowdTrace(
            base=ConstantTrace(0.3),
            events=((1000.0, 600.0, 0.8),),
            decay_s=300.0,
        )

    def test_quiet_before_event(self, trace):
        assert trace.load_fraction(500.0) == pytest.approx(0.3)

    def test_lift_during_event(self, trace):
        # 0.3 + 0.8 * (1 - 0.3) = 0.86
        assert trace.load_fraction(1200.0) == pytest.approx(0.86)

    def test_exponential_decay_after(self, trace):
        just_after = trace.load_fraction(1601.0)
        later = trace.load_fraction(1600.0 + 900.0)
        assert 0.3 < later < just_after <= 0.86 + 1e-9

    def test_overlapping_events_compound_but_cap(self):
        trace = FlashCrowdTrace(
            base=ConstantTrace(0.5),
            events=((0.0, 100.0, 1.0), (0.0, 100.0, 1.0)),
        )
        assert trace.load_fraction(50.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlashCrowdTrace(ConstantTrace(0.5), events=((-1.0, 10.0, 0.5),))
        with pytest.raises(ConfigError):
            FlashCrowdTrace(ConstantTrace(0.5), events=((0.0, 0.0, 0.5),))
        with pytest.raises(ConfigError):
            FlashCrowdTrace(ConstantTrace(0.5), events=((0.0, 10.0, 1.5),))
        with pytest.raises(ConfigError):
            FlashCrowdTrace(ConstantTrace(0.5), events=(), decay_s=0.0)


class TestPlanningIntegration:
    def test_weekly_trace_plans_lower_than_flash_crowd(self, xapian):
        """Capacity planning consumes these traces directly."""
        from repro.cost.planning import plan_power

        calm = WeeklyTrace(base=DiurnalTrace(min_fraction=0.1, max_fraction=0.7))
        spiky = FlashCrowdTrace(
            base=DiurnalTrace(min_fraction=0.1, max_fraction=0.7),
            events=((12 * 3600.0, 3600.0, 0.9),),
        )
        calm_plan = plan_power(xapian, calm, horizon_s=WEEK_S)
        spiky_plan = plan_power(xapian, spiky, horizon_s=WEEK_S)
        assert spiky_plan.provisioned_power_w > calm_plan.provisioned_power_w
