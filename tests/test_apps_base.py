"""Tests for repro.apps.base: ground-truth surfaces and noise."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.base import (
    PerformanceSurface,
    PowerSurface,
    measured,
    saturate,
)
from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation


class TestSaturation:
    def test_fixed_points(self):
        assert saturate(0.0, 0.15) == 0.0
        assert saturate(1.0, 0.15) == pytest.approx(1.0)

    def test_concave_boost_for_small_x(self):
        assert saturate(0.1, 0.15) > 0.1

    def test_kappa_zero_is_identity(self):
        for x in (0.0, 0.3, 0.7, 1.0):
            assert saturate(x, 0.0) == pytest.approx(x)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError):
            saturate(0.5, -0.1)

    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=0.01, max_value=1.0))
    def test_saturate_monotone(self, x, kappa):
        assert saturate(x + 0.001, kappa) > saturate(x, kappa)


class TestPerformanceSurface:
    @pytest.fixture()
    def surface(self):
        return PerformanceSurface(alpha_cores=0.6, alpha_ways=0.4, alpha_freq=0.8)

    def test_full_allocation_is_one(self, surface, spec):
        assert surface.normalized(spec.full_allocation(), spec) == pytest.approx(1.0)

    def test_empty_allocation_is_zero(self, surface, spec):
        assert surface.normalized(Allocation.empty(), spec) == 0.0

    def test_monotone_in_cores(self, surface, spec):
        lo = surface.normalized(Allocation(cores=3, ways=10), spec)
        hi = surface.normalized(Allocation(cores=6, ways=10), spec)
        assert hi > lo

    def test_monotone_in_ways(self, surface, spec):
        lo = surface.normalized(Allocation(cores=6, ways=5), spec)
        hi = surface.normalized(Allocation(cores=6, ways=10), spec)
        assert hi > lo

    def test_frequency_scales_performance(self, surface, spec):
        full = Allocation(cores=6, ways=10, freq_ghz=2.2)
        slow = Allocation(cores=6, ways=10, freq_ghz=1.2)
        ratio = surface.normalized(slow, spec) / surface.normalized(full, spec)
        assert ratio == pytest.approx((1.2 / 2.2) ** 0.8)

    def test_duty_cycle_scales_linearly(self, surface, spec):
        alloc = Allocation(cores=6, ways=10)
        half = alloc.with_duty_cycle(0.5)
        assert surface.normalized(half, spec) == pytest.approx(
            0.5 * surface.normalized(alloc, spec)
        )

    def test_invalid_elasticities_rejected(self):
        with pytest.raises(ConfigError):
            PerformanceSurface(alpha_cores=0.0, alpha_ways=0.4, alpha_freq=0.5)
        with pytest.raises(ConfigError):
            PerformanceSurface(alpha_cores=0.4, alpha_ways=0.4, alpha_freq=-0.5)


class TestPowerSurface:
    @pytest.fixture()
    def surface(self):
        return PowerSurface(p_core_w=4.0, p_way_w=2.0, static_w=5.0)

    def test_additive_at_max_frequency(self, surface, spec):
        alloc = Allocation(cores=3, ways=4)
        assert surface.active_power_w(alloc, spec) == pytest.approx(
            5.0 + 3 * 4.0 + 4 * 2.0
        )

    def test_empty_draws_nothing(self, surface, spec):
        assert surface.active_power_w(Allocation.empty(), spec) == 0.0

    def test_core_power_scales_superlinearly_with_freq(self, surface, spec):
        hi = surface.active_power_w(Allocation(cores=6, ways=1), spec)
        lo = surface.active_power_w(Allocation(cores=6, ways=1, freq_ghz=1.2), spec)
        phi = 1.2 / 2.2
        # core part scales with phi^2.2, way part with 0.3 + 0.7*phi
        expected = 5.0 + 24.0 * phi ** 2.2 + 2.0 * (0.3 + 0.7 * phi)
        assert lo == pytest.approx(expected)
        assert lo < hi

    def test_duty_cycle_not_applied_here(self, surface, spec):
        alloc = Allocation(cores=3, ways=4)
        assert surface.active_power_w(
            alloc.with_duty_cycle(0.5), spec
        ) == surface.active_power_w(alloc, spec)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            PowerSurface(p_core_w=-1.0, p_way_w=1.0)
        with pytest.raises(ConfigError):
            PowerSurface(p_core_w=1.0, p_way_w=1.0, way_static_share=1.5)


class TestApplicationProfile:
    def test_server_power_includes_idle(self, xapian, spec):
        alloc = Allocation(cores=2, ways=3)
        assert xapian.profile.server_power_w(alloc) == pytest.approx(
            spec.idle_power_w + xapian.profile.active_power_w(alloc)
        )

    def test_true_preference_ratio_matches_catalog(self, xapian):
        # xapian is calibrated to indirect preferences 0.30 : 0.70
        ratio = xapian.profile.true_preference_ratio()
        share = ratio / (1.0 + ratio)
        assert share == pytest.approx(0.30, abs=0.01)


class TestMeasuredNoise:
    def test_none_rng_passthrough(self):
        assert measured(5.0, None, 0.1) == 5.0

    def test_zero_sigma_passthrough(self, rng):
        assert measured(5.0, rng, 0.0) == 5.0

    def test_nonpositive_value_passthrough(self, rng):
        assert measured(0.0, rng, 0.1) == 0.0
        assert measured(-3.0, rng, 0.1) == -3.0

    def test_noise_is_multiplicative_and_unbiased_in_log(self):
        rng = np.random.default_rng(0)
        samples = [measured(10.0, rng, 0.1) for _ in range(2000)]
        assert abs(np.mean(np.log(samples)) - np.log(10.0)) < 0.01
        assert all(s > 0 for s in samples)
