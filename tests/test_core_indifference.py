"""Tests for repro.core.indifference: curves, expansion path, Edgeworth box."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.indifference import (
    EdgeworthBox,
    indifference_curve,
    path_is_ray,
)
from repro.core.utility import (
    CobbDouglasParams,
    IndirectUtilityModel,
    LinearPowerParams,
)
from repro.errors import ConfigError


def _least_power_path(model, perf_levels):
    """Fig 5's dotted curve: the least-power allocation per level."""
    return [tuple(model.least_power_allocation(u)) for u in perf_levels]


@pytest.fixture()
def model():
    return IndirectUtilityModel(
        perf=CobbDouglasParams(alpha0=1.5, alphas=(0.6, 0.4)),
        power=LinearPowerParams(p_static=5.0, p=(8.0, 1.5)),
    )


class TestIndifferenceCurve:
    def test_every_point_has_equal_performance(self, model):
        curve = indifference_curve(model, perf_level=4.0, ways=[2, 5, 10, 20])
        for cores, ways in curve:
            assert model.performance((cores, ways)) == pytest.approx(4.0)

    def test_curve_is_decreasing_in_ways(self, model):
        curve = indifference_curve(model, perf_level=4.0, ways=[2, 5, 10, 20])
        cores = [c for c, _ in curve]
        assert cores == sorted(cores, reverse=True)

    def test_higher_level_needs_more_cores(self, model):
        low = indifference_curve(model, 2.0, ways=[10])[0][0]
        high = indifference_curve(model, 6.0, ways=[10])[0][0]
        assert high > low

    def test_validation(self, model):
        with pytest.raises(ConfigError):
            indifference_curve(model, 0.0, ways=[5])
        with pytest.raises(ConfigError):
            indifference_curve(model, 1.0, ways=[0])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.5, max_value=20.0),
           st.floats(min_value=1.0, max_value=20.0))
    def test_curve_inverts_performance(self, level, ways):
        model = IndirectUtilityModel(
            perf=CobbDouglasParams(alpha0=1.5, alphas=(0.6, 0.4)),
            power=LinearPowerParams(p_static=5.0, p=(8.0, 1.5)),
        )
        (cores, w), = indifference_curve(model, level, ways=[ways])
        assert model.performance((cores, w)) == pytest.approx(level, rel=1e-9)


class TestExpansionPath:
    def test_path_is_a_ray(self, model):
        path = _least_power_path(model, [1.0, 2.0, 4.0, 8.0])
        assert path_is_ray(path, tolerance=1e-9)

    def test_ray_slope_is_preference_ratio(self, model):
        (c, w), = _least_power_path(model, [3.0])
        expected = (0.6 / 8.0) / (0.4 / 1.5)
        assert c / w == pytest.approx(expected)

    def test_points_lie_on_their_curves(self, model):
        for level, (c, w) in zip([1.0, 5.0], _least_power_path(model, [1.0, 5.0])):
            assert model.performance((c, w)) == pytest.approx(level)

    def test_path_is_ray_edge_cases(self):
        assert path_is_ray([])
        assert path_is_ray([(1.0, 2.0)])
        assert not path_is_ray([(1.0, 2.0), (2.0, 2.0)])


class TestEdgeworthBox:
    def test_primary_and_spare_are_complements(self, model, spec):
        box = EdgeworthBox(model=model, spec=spec)
        point = box.point(perf_level=3.0)
        assert point.primary[0] + point.spare[0] == pytest.approx(spec.cores)
        assert point.primary[1] + point.spare[1] == pytest.approx(spec.llc_ways)

    def test_spare_clipped_at_zero(self, model, spec):
        box = EdgeworthBox(model=model, spec=spec)
        huge = model.performance((spec.cores * 3.0, spec.llc_ways * 3.0))
        point = box.point(huge)
        assert point.spare[0] >= 0.0
        assert point.spare[1] >= 0.0

    def test_spare_shrinks_with_load(self, model, spec):
        box = EdgeworthBox(model=model, spec=spec)
        trace = box.trace([1.0, 2.0, 4.0])
        spare_cores = [p.spare[0] for p in trace]
        assert spare_cores == sorted(spare_cores, reverse=True)

    def test_primary_power_increases_with_load(self, model, spec):
        box = EdgeworthBox(model=model, spec=spec)
        trace = box.trace([1.0, 2.0, 4.0])
        powers = [p.primary_power_w for p in trace]
        assert powers == sorted(powers)

    def test_feasible_corner_equals_spare(self, model, spec):
        box = EdgeworthBox(model=model, spec=spec)
        assert box.secondary_feasible_corner(2.0) == box.point(2.0).spare


class TestPaperShape:
    """Fig 5/6 as the paper describes them, using the fitted sphinx model."""

    def test_sphinx_expansion_prefers_ways(self, catalog):
        model = catalog.lc_fits["sphinx"].model
        path = _least_power_path(model, [model.performance((2.0, 8.0))])
        cores, ways = path[0]
        assert ways > cores  # cache-leaning power-efficient path

    def test_sphinx_low_load_point_matches_fig6(self, catalog):
        """Fig 6: 'at 20% load, primary uses ~1 core and ~5 cache ways'."""
        model = catalog.lc_fits["sphinx"].model
        app = catalog.lc_apps["sphinx"]
        cores, ways = model.least_power_allocation(0.2 * app.peak_load)
        assert 1.0 <= cores <= 3.0
        assert 4.0 <= ways <= 8.0
