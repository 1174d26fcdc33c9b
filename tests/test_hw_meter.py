"""Tests for repro.hwmodel.meter: power metering and energy counting."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.hwmodel.meter import (
    EnergyCounter,
    PowerMeter,
    PowerReading,
)


class TestPowerMeter:
    def test_noiseless_meter_reports_source(self, rng):
        meter = PowerMeter(source=lambda: 120.0, rng=rng, noise_sigma_w=0.0)
        reading = meter.sample(0.0)
        assert reading.watts == 120.0
        assert reading.filtered_watts == 120.0

    def test_noise_has_expected_spread(self):
        meter = PowerMeter(
            source=lambda: 100.0,
            rng=np.random.default_rng(0),
            noise_sigma_w=2.0,
            ewma_alpha=1.0,
        )
        samples = [meter.sample(i * 0.1).watts for i in range(500)]
        assert abs(np.mean(samples) - 100.0) < 0.5
        assert 1.5 < np.std(samples) < 2.5

    def test_readings_clipped_at_zero(self):
        meter = PowerMeter(
            source=lambda: 0.5,
            rng=np.random.default_rng(0),
            noise_sigma_w=50.0,
        )
        for i in range(100):
            assert meter.sample(i * 0.1).watts >= 0.0

    def test_ewma_smooths_steps(self):
        values = iter([100.0] + [200.0] * 10)
        meter = PowerMeter(
            source=lambda: next(values), rng=np.random.default_rng(0),
            noise_sigma_w=0.0, ewma_alpha=0.5,
        )
        meter.sample(0.0)
        second = meter.sample(0.1)
        assert second.watts == 200.0
        assert second.filtered_watts == pytest.approx(150.0)

    def test_last_reading_tracks(self, rng):
        meter = PowerMeter(source=lambda: 75.0, rng=rng, noise_sigma_w=0.0)
        assert meter.last_reading is None
        meter.sample(1.5)
        assert meter.last_reading.time_s == 1.5

    def test_reset_clears_filter(self, rng):
        meter = PowerMeter(source=lambda: 80.0, rng=rng, noise_sigma_w=0.0,
                           ewma_alpha=0.1)
        meter.sample(0.0)
        meter.reset()
        assert meter.last_reading is None

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ConfigError):
            PowerMeter(source=lambda: 1.0, rng=rng, noise_sigma_w=-1.0)
        with pytest.raises(ConfigError):
            PowerMeter(source=lambda: 1.0, rng=rng, ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            PowerMeter(source=lambda: 1.0, rng=rng, ewma_alpha=1.5)

    def test_ewma_alpha_boundaries(self, rng):
        # The valid interval is (0, 1]: exactly 1 disables smoothing and
        # must be accepted; values arbitrarily close to 0 are fine too.
        meter = PowerMeter(source=lambda: 50.0, rng=rng, noise_sigma_w=0.0,
                           ewma_alpha=1.0)
        meter.sample(0.0)
        assert meter.sample(0.1).filtered_watts == 50.0
        PowerMeter(source=lambda: 50.0, rng=rng, ewma_alpha=1e-9)
        with pytest.raises(ConfigError):
            PowerMeter(source=lambda: 50.0, rng=rng, ewma_alpha=-1e-9)

    def test_noise_sigma_property_reported(self, rng):
        assert PowerMeter(source=lambda: 1.0, rng=rng,
                          noise_sigma_w=2.5).noise_sigma_w == 2.5
        assert PowerMeter(source=lambda: 1.0, rng=rng,
                          noise_sigma_w=0.0).noise_sigma_w == 0.0


class TestEnergyCounter:
    def test_trapezoid_integration(self):
        counter = EnergyCounter()
        counter.record(PowerReading(0.0, 100.0, 100.0))
        counter.record(PowerReading(10.0, 200.0, 200.0))
        assert counter.joules == pytest.approx(1500.0)

    def test_kwh_conversion(self):
        counter = EnergyCounter()
        counter.record(PowerReading(0.0, 1000.0, 1000.0))
        counter.record(PowerReading(3600.0, 1000.0, 1000.0))
        assert counter.kwh == pytest.approx(1.0)

    def test_single_reading_is_zero_energy(self):
        counter = EnergyCounter()
        counter.record(PowerReading(5.0, 100.0, 100.0))
        assert counter.joules == 0.0

    def test_out_of_order_rejected(self):
        counter = EnergyCounter()
        counter.record(PowerReading(10.0, 100.0, 100.0))
        # Out-of-order feeding is a simulation-state fault, not a config
        # mistake — the error type says so.
        with pytest.raises(SimulationError):
            counter.record(PowerReading(5.0, 100.0, 100.0))

    def test_monotonic_under_irregular_gaps(self):
        # RAPL-style counters only ever go up: with non-negative power,
        # arbitrary (even zero-length) gaps between readings must never
        # decrease the accumulated energy.
        counter = EnergyCounter()
        times = [0.0, 0.1, 0.1, 0.35, 2.0, 2.0, 17.5]
        watts = [100.0, 0.0, 50.0, 120.0, 0.0, 0.0, 80.0]
        previous = 0.0
        for t, w in zip(times, watts):
            total = counter.record(PowerReading(t, w, w))
            assert total >= previous
            previous = total
        assert counter.joules > 0.0

    def test_zero_gap_adds_no_energy(self):
        counter = EnergyCounter()
        counter.record(PowerReading(1.0, 100.0, 100.0))
        counter.record(PowerReading(1.0, 300.0, 300.0))
        assert counter.joules == 0.0

    def test_reset(self):
        counter = EnergyCounter()
        counter.record(PowerReading(0.0, 100.0, 100.0))
        counter.record(PowerReading(1.0, 100.0, 100.0))
        counter.reset()
        assert counter.joules == 0.0
        counter.record(PowerReading(0.0, 50.0, 50.0))  # earlier time OK after reset
