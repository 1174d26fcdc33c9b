"""Tests for repro.apps.latency: the tail-latency model."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.latency import (
    SATURATED_LATENCY_FACTOR,
    LatencySlo,
    TailLatencyModel,
)
from repro.errors import ConfigError


@pytest.fixture()
def model():
    return TailLatencyModel(slo=LatencySlo(p95_s=0.5, p99_s=1.0))


class TestLatencySlo:
    def test_valid(self):
        slo = LatencySlo(p95_s=0.010, p99_s=0.020)
        assert slo.p99_s == 0.020

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            LatencySlo(p95_s=0.0, p99_s=1.0)
        with pytest.raises(ConfigError):
            LatencySlo(p95_s=1.0, p99_s=-1.0)

    def test_p95_above_p99_rejected(self):
        with pytest.raises(ConfigError):
            LatencySlo(p95_s=2.0, p99_s=1.0)


class TestTailLatencyModel:
    def test_p99_hits_slo_exactly_at_capacity(self, model):
        assert model.p99_s(load=100.0, capacity=100.0) == pytest.approx(1.0)

    def test_base_latency_at_zero_load(self, model):
        assert model.p99_s(0.0, 100.0) == pytest.approx(model.base_latency_s)
        assert model.base_latency_s == pytest.approx(0.15)

    def test_monotone_in_load(self, model):
        lats = [model.p99_s(load, 100.0) for load in (10, 40, 70, 95, 100)]
        assert lats == sorted(lats)

    def test_zero_capacity_saturates(self, model):
        assert model.p99_s(10.0, 0.0) == SATURATED_LATENCY_FACTOR * 1.0

    def test_overload_saturates_finitely(self, model):
        lat = model.p99_s(1000.0, 100.0)
        assert lat == SATURATED_LATENCY_FACTOR * 1.0

    def test_negative_load_rejected(self, model):
        with pytest.raises(ConfigError):
            model.p99_s(-1.0, 100.0)

    def test_slack_signs(self, model):
        assert model.slack(50.0, 100.0) > 0
        assert model.slack(100.0, 100.0) == pytest.approx(0.0)
        assert model.slack(110.0, 100.0) < 0


class TestInverses:
    def test_max_load_for_zero_slack_is_capacity(self, model):
        assert model.max_load_for_slack(100.0, 0.0) == pytest.approx(100.0)

    def test_max_load_for_slack_is_tight(self, model):
        load = model.max_load_for_slack(100.0, 0.10)
        assert model.slack(load, 100.0) == pytest.approx(0.10)

    def test_capacity_for_load_is_tight(self, model):
        cap = model.capacity_for_load(80.0, 0.10)
        assert model.slack(80.0, cap) == pytest.approx(0.10)

    def test_zero_capacity_or_load_edge_cases(self, model):
        assert model.max_load_for_slack(0.0, 0.1) == 0.0
        assert model.capacity_for_load(0.0, 0.1) == 0.0

    def test_invalid_slack_rejected(self, model):
        with pytest.raises(ConfigError):
            model.max_load_for_slack(100.0, 1.0)
        with pytest.raises(ConfigError):
            model.max_load_for_slack(100.0, -0.1)

    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=0.8),
    )
    def test_roundtrip_capacity_load(self, load, slack_target):
        model = TailLatencyModel(slo=LatencySlo(p95_s=0.5, p99_s=1.0))
        cap = model.capacity_for_load(load, slack_target)
        back = model.max_load_for_slack(cap, slack_target)
        assert back == pytest.approx(load, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_slack_decreases_with_utilization(self, rho):
        model = TailLatencyModel(slo=LatencySlo(p95_s=0.5, p99_s=1.0))
        assert model.slack(rho * 100.0, 100.0) >= model.slack((rho + 0.01) * 100.0, 100.0)


class TestAgainstCatalogApps:
    def test_capacity_scaling(self, xapian, spec):
        full = spec.full_allocation()
        assert xapian.capacity(full) == pytest.approx(xapian.peak_load)

    def test_lc_app_slo_boundary(self, xapian, spec):
        full = spec.full_allocation()
        assert xapian.meets_slo(xapian.peak_load, full)
        assert not xapian.meets_slo(xapian.peak_load * 1.05, full)

    def test_required_capacity_round_trip(self, xapian):
        load = 0.5 * xapian.peak_load
        cap = xapian.required_capacity(load, 0.10)
        assert xapian.latency.slack(load, cap) == pytest.approx(0.10)
