"""Tests for repro.sim.telemetry: time-series collection."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.telemetry import Telemetry, TimeSeries


class TestTimeSeries:
    def test_record_and_len(self):
        s = TimeSeries(name="power")
        s.record(0.0, 100.0)
        s.record(1.0, 110.0)
        assert len(s) == 2
        assert not s.empty

    def test_out_of_order_rejected(self):
        s = TimeSeries(name="power")
        s.record(5.0, 1.0)
        # A time going backwards is a simulation-state fault, not a
        # configuration mistake.
        with pytest.raises(SimulationError):
            s.record(4.0, 2.0)

    def test_equal_times_allowed(self):
        s = TimeSeries(name="power")
        s.record(1.0, 1.0)
        s.record(1.0, 2.0)
        assert len(s) == 2

    def test_mean(self):
        s = TimeSeries(name="x")
        for t, v in enumerate([1.0, 2.0, 3.0]):
            s.record(float(t), v)
        assert s.mean() == pytest.approx(2.0)

    def test_empty_statistics(self):
        s = TimeSeries(name="x")
        assert s.mean() == 0.0
        assert s.maximum() == 0.0
        assert s.percentile(99) == 0.0
        assert s.fraction_above(0.0) == 0.0
        assert s.time_weighted_mean() == 0.0

    def test_time_weighted_mean(self):
        s = TimeSeries(name="x")
        s.record(0.0, 10.0)   # holds for 1 s
        s.record(1.0, 20.0)   # holds for 3 s
        s.record(4.0, 99.0)   # endpoint, no holding time
        assert s.time_weighted_mean() == pytest.approx((10.0 + 60.0) / 4.0)

    def test_time_weighted_falls_back_on_zero_span(self):
        s = TimeSeries(name="x")
        s.record(1.0, 10.0)
        s.record(1.0, 30.0)
        assert s.time_weighted_mean() == pytest.approx(20.0)

    def test_percentile(self):
        s = TimeSeries(name="x")
        for i in range(101):
            s.record(float(i), float(i))
        assert s.percentile(50) == pytest.approx(50.0)
        assert s.percentile(99) == pytest.approx(99.0)
        with pytest.raises(ConfigError):
            s.percentile(101)

    def test_fraction_above(self):
        s = TimeSeries(name="x")
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            s.record(float(i), v)
        assert s.fraction_above(2.5) == pytest.approx(0.5)
        assert s.fraction_above(10.0) == 0.0

    def test_maximum_and_arrays(self):
        s = TimeSeries(name="x")
        s.record(0.0, 5.0)
        s.record(1.0, 3.0)
        assert s.maximum() == 5.0
        times, values = s.as_arrays()
        assert list(times) == [0.0, 1.0]
        assert list(values) == [5.0, 3.0]


class TestTelemetry:
    def test_series_created_on_demand(self):
        t = Telemetry()
        assert "power" not in t
        t.record("power", 0.0, 100.0)
        assert "power" in t
        assert t.series("power").mean() == 100.0

    def test_names_in_creation_order(self):
        t = Telemetry()
        t.record("b", 0.0, 1.0)
        t.record("a", 0.0, 1.0)
        assert t.names() == ("b", "a")

    def test_same_series_instance(self):
        t = Telemetry()
        assert t.series("x") is t.series("x")
