"""Tests for repro.core.multires: the k-resource generalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multires import (
    DEFAULT_RESOURCE_NAMES,
    THREE_RESOURCE_FULL_ACTIVE_W,
    THREE_RESOURCE_PREFERENCES,
    THREE_RESOURCE_STATIC_W,
    KResourceProfile,
    fit_k_model,
    integer_min_power_allocation_k,
    make_three_resource_app,
    profile_k_resources,
    profiling_grid_k,
)
from repro.errors import CapacityError, ConfigError, ModelFitError


@pytest.fixture()
def app():
    return make_three_resource_app()


@pytest.fixture()
def fitted(app):
    rng = np.random.default_rng(3)
    grid = profiling_grid_k(app.limits, points_per_axis=4)
    samples = profile_k_resources(app, grid, rng)
    return fit_k_model(samples)


class TestKResourceProfile:
    def test_full_allocation_normalizes_to_one(self, app):
        assert app.normalized_throughput(app.limits) == pytest.approx(1.0)

    def test_zero_resource_zero_performance(self, app):
        assert app.normalized_throughput((0, 5, 5)) == 0.0

    def test_monotone_in_each_axis(self, app):
        base = app.normalized_throughput((4, 8, 4))
        assert app.normalized_throughput((6, 8, 4)) > base
        assert app.normalized_throughput((4, 10, 4)) > base
        assert app.normalized_throughput((4, 8, 6)) > base

    def test_power_additive(self, app):
        expected = app.static_w + sum(
            x * px for x, px in zip((3, 5, 2), app.p)
        )
        assert app.active_power_w((3, 5, 2)) == pytest.approx(expected)

    def test_preference_vector_matches_calibration(self):
        app = make_three_resource_app()
        assert app.true_preference_vector() == pytest.approx(THREE_RESOURCE_PREFERENCES)

    def test_full_power_matches_calibration(self):
        app = make_three_resource_app()
        assert app.static_w == THREE_RESOURCE_STATIC_W
        assert app.active_power_w(app.limits) == pytest.approx(THREE_RESOURCE_FULL_ACTIVE_W)

    def test_arity_checked(self, app):
        with pytest.raises(ConfigError):
            app.normalized_throughput((1, 2))
        with pytest.raises(ConfigError):
            app.active_power_w((1, 2, 3, 4))

    def test_validation(self):
        with pytest.raises(ConfigError):
            KResourceProfile("x", alphas=(0.5, 0.5), p=(1.0,), limits=(4, 4))


class TestGridAndProfiling:
    def test_grid_covers_extremes(self, app):
        grid = profiling_grid_k(app.limits, points_per_axis=3)
        assert (1, 1, 1) in grid
        assert tuple(app.limits) in grid

    def test_grid_size(self, app):
        assert len(profiling_grid_k(app.limits, points_per_axis=3)) == 27

    def test_grid_validation(self, app):
        with pytest.raises(ConfigError):
            profiling_grid_k(app.limits, points_per_axis=1)

    def test_noiseless_profiling_matches_truth(self, app):
        grid = profiling_grid_k(app.limits, points_per_axis=3)
        samples = profile_k_resources(app, grid, rng=None, perf_noise=0.0,
                                      power_noise=0.0)
        for s, point in zip(samples, grid):
            assert s.perf == pytest.approx(app.normalized_throughput(point))
            assert s.power_w == pytest.approx(app.active_power_w(point))

    def test_empty_grid_rejected(self, app):
        with pytest.raises(ConfigError):
            profile_k_resources(app, [])


class TestFitKModel:
    def test_r2_bands(self, fitted):
        _, r2_perf, r2_power = fitted
        assert 0.80 <= r2_perf <= 1.0
        assert 0.90 <= r2_power <= 1.0

    def test_preferences_recovered(self, app, fitted):
        model, _, _ = fitted
        pref = model.preference_vector()
        true = dict(zip(DEFAULT_RESOURCE_NAMES, app.true_preference_vector()))
        for name in DEFAULT_RESOURCE_NAMES:
            assert pref[name] == pytest.approx(true[name], abs=0.06)

    def test_exact_recovery_without_noise_or_saturation(self):
        app = KResourceProfile(
            "exact", alphas=(0.4, 0.3, 0.3), p=(2.0, 1.0, 3.0),
            limits=(12, 20, 10), static_w=5.0, saturation_kappa=0.0,
        )
        grid = profiling_grid_k(app.limits, points_per_axis=4)
        samples = profile_k_resources(app, grid, rng=None, perf_noise=0.0,
                                      power_noise=0.0)
        model, r2_perf, r2_power = fit_k_model(samples)
        assert r2_perf == pytest.approx(1.0)
        assert r2_power == pytest.approx(1.0)
        assert model.perf.alphas == pytest.approx((0.4, 0.3, 0.3))
        assert model.power.p == pytest.approx((2.0, 1.0, 3.0))

    def test_too_few_samples_rejected(self, app):
        grid = profiling_grid_k(app.limits, points_per_axis=2)[:3]
        samples = profile_k_resources(app, grid, rng=None)
        with pytest.raises(ModelFitError):
            fit_k_model(samples)


class TestIntegerProjectionK:
    def test_feasible_and_locally_minimal(self, fitted, app):
        model, _, _ = fitted
        target = 0.4 * model.performance(tuple(float(x) for x in app.limits))
        point = integer_min_power_allocation_k(model, target, app.limits)
        assert model.performance(point) >= target
        cost = model.power_w(point)
        for j in range(3):
            neighbor = list(point)
            neighbor[j] -= 1
            if neighbor[j] >= 1 and model.performance(tuple(neighbor)) >= target:
                assert model.power_w(tuple(neighbor)) >= cost - 1e-9

    def test_unreachable_target_raises(self, fitted, app):
        model, _, _ = fitted
        full = model.performance(tuple(float(x) for x in app.limits))
        with pytest.raises(CapacityError):
            integer_min_power_allocation_k(model, full * 2.0, app.limits)

    def test_arity_checked(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ConfigError):
            integer_min_power_allocation_k(model, 0.1, (12, 20))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_projection_scales_with_target(self, frac):
        app = make_three_resource_app()
        grid = profiling_grid_k(app.limits, points_per_axis=4)
        samples = profile_k_resources(app, grid, rng=None, perf_noise=0.0,
                                      power_noise=0.0)
        model, _, _ = fit_k_model(samples)
        full = model.performance(tuple(float(x) for x in app.limits))
        point = integer_min_power_allocation_k(model, frac * full, app.limits)
        assert model.performance(point) >= frac * full
        assert all(1 <= point[j] <= app.limits[j] for j in range(3))
