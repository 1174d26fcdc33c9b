"""Tests for repro.workloads.traces: load generation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.workloads.traces import (
    UNIFORM_EVAL_LEVELS,
    ConstantTrace,
    DiurnalTrace,
    StepTrace,
    uniform_levels,
)


class TestConstantTrace:
    def test_constant_everywhere(self):
        trace = ConstantTrace(0.4)
        assert trace.load_fraction(0.0) == 0.4
        assert trace.load_fraction(1e6) == 0.4

    def test_bounds_enforced(self):
        with pytest.raises(ConfigError):
            ConstantTrace(1.5)
        with pytest.raises(ConfigError):
            ConstantTrace(-0.1)


class TestDiurnalTrace:
    def test_peak_at_peak_time(self):
        trace = DiurnalTrace(min_fraction=0.1, max_fraction=0.9,
                             peak_time_s=14 * 3600.0)
        assert trace.load_fraction(14 * 3600.0) == pytest.approx(0.9)

    def test_trough_half_period_later(self):
        trace = DiurnalTrace(min_fraction=0.1, max_fraction=0.9,
                             peak_time_s=14 * 3600.0)
        assert trace.load_fraction(2 * 3600.0) == pytest.approx(0.1)

    def test_periodicity(self):
        trace = DiurnalTrace()
        assert trace.load_fraction(5000.0) == pytest.approx(
            trace.load_fraction(5000.0 + 86400.0)
        )

    @given(st.floats(min_value=0.0, max_value=86400.0 * 3))
    def test_always_in_bounds(self, t):
        trace = DiurnalTrace(min_fraction=0.2, max_fraction=0.8)
        assert 0.2 - 1e-9 <= trace.load_fraction(t) <= 0.8 + 1e-9

    def test_sharpness_narrows_extremes_but_keeps_them(self):
        smooth = DiurnalTrace(sharpness=1)
        sharp = DiurnalTrace(sharpness=3)
        peak_t = smooth.peak_time_s
        # Extremes preserved exactly.
        assert sharp.load_fraction(peak_t) == pytest.approx(
            smooth.load_fraction(peak_t)
        )
        # Off-phase values move toward the midpoint (0.5 by default).
        t = 4 * 3600.0
        assert abs(sharp.load_fraction(t) - 0.5) < abs(smooth.load_fraction(t) - 0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            DiurnalTrace(min_fraction=0.9, max_fraction=0.1)
        with pytest.raises(ConfigError):
            DiurnalTrace(sharpness=2)  # must be odd


class TestStepTrace:
    def test_steps_apply_at_breakpoints(self):
        trace = StepTrace.of((0.0, 0.5), (60.0, 0.8))
        assert trace.load_fraction(0.0) == 0.5
        assert trace.load_fraction(59.9) == 0.5
        assert trace.load_fraction(60.0) == 0.8
        assert trace.load_fraction(1e5) == 0.8

    def test_before_first_breakpoint(self):
        trace = StepTrace.of((10.0, 0.7))
        assert trace.load_fraction(0.0) == 0.7

    def test_unordered_breakpoints_rejected(self):
        with pytest.raises(ConfigError):
            StepTrace.of((60.0, 0.5), (0.0, 0.8))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            StepTrace(steps=())

    def test_out_of_bounds_fraction_rejected(self):
        with pytest.raises(ConfigError):
            StepTrace.of((0.0, 1.5))


class TestUniformLevels:
    def test_paper_sweep(self):
        assert list(UNIFORM_EVAL_LEVELS) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        )

    def test_custom_range(self):
        assert uniform_levels(0.2, 0.6, 0.2) == pytest.approx([0.2, 0.4, 0.6])

    def test_validation(self):
        with pytest.raises(ConfigError):
            uniform_levels(0.5, 0.1, 0.1)
        with pytest.raises(ConfigError):
            uniform_levels(0.1, 0.9, 0.0)
        with pytest.raises(ConfigError):
            uniform_levels(0.5, 1.5, 0.5)
