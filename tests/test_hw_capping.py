"""Tests for repro.hwmodel.capping: the 100 ms power-cap loop."""

import numpy as np
import pytest

from repro.hwmodel.capping import RESTORE_MARGIN_W, PowerCapController
from repro.hwmodel.meter import PowerMeter
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import Allocation


class FreqSensitiveModel:
    """Power scales with cores * (f/2.2)^2 — enough structure for capping."""

    def __init__(self, per_core=10.0):
        self.per_core = per_core

    def active_power_w(self, alloc):
        phi = alloc.freq_ghz / 2.2
        return alloc.cores * self.per_core * phi * phi


def build(spec, cap_w, be_cores=6, noise=0.0, seed=0, **ctrl_kwargs):
    server = Server(spec, provisioned_power_w=cap_w)
    server.attach("lc", FreqSensitiveModel(per_core=5.0), role=PRIMARY)
    server.apply_allocation("lc", Allocation(cores=2, ways=4))
    server.attach("be", FreqSensitiveModel(per_core=10.0), role=SECONDARY)
    server.apply_allocation("be", Allocation(cores=be_cores, ways=10))
    meter = PowerMeter(server.power_w, rng=np.random.default_rng(seed),
                       noise_sigma_w=noise, ewma_alpha=1.0)
    return server, PowerCapController(server, meter, **ctrl_kwargs)


class TestThrottleOrdering:
    def test_frequency_reduced_before_duty(self, spec):
        # true power: 50 idle + 10 lc + 60 be = 120; cap at 110
        server, ctrl = build(spec, cap_w=110.0)
        ctrl.step(0.0)
        be = server.allocation_of("be")
        assert be.freq_ghz < spec.max_freq_ghz
        assert be.duty_cycle == 1.0

    def test_duty_engaged_only_at_min_frequency(self, spec):
        server, ctrl = build(spec, cap_w=80.0)  # deep cap
        t = ctrl.run_until_stable(max_steps=300)
        be = server.allocation_of("be")
        # 50 + 10 + 60*(1.2/2.2)^2 = 77.9 > 80? -> 50+10+17.9=77.9 < 80, so
        # frequency floor alone may suffice; drive deeper to force duty.
        server2, ctrl2 = build(spec, cap_w=70.0)
        ctrl2.run_until_stable(max_steps=300)
        be2 = server2.allocation_of("be2" if False else "be")
        assert be2.freq_ghz == pytest.approx(spec.min_freq_ghz)
        assert be2.duty_cycle < 1.0

    def test_converges_under_cap(self, spec):
        server, ctrl = build(spec, cap_w=100.0)
        ctrl.run_until_stable(max_steps=300)
        assert server.power_w() <= 100.0 + 1e-6

    def test_primary_untouched(self, spec):
        server, ctrl = build(spec, cap_w=90.0)
        before = server.allocation_of("lc")
        ctrl.run_until_stable(max_steps=300)
        assert server.allocation_of("lc") == before


class TestRestoreOrdering:
    def test_restores_duty_before_frequency(self, spec):
        server, ctrl = build(spec, cap_w=200.0)
        server.apply_allocation(
            "be", Allocation(cores=6, ways=10, freq_ghz=1.2, duty_cycle=0.5)
        )
        ctrl.step(0.0)
        be = server.allocation_of("be")
        assert be.duty_cycle > 0.5
        assert be.freq_ghz == pytest.approx(1.2)

    def test_full_recovery_when_headroom(self, spec):
        server, ctrl = build(spec, cap_w=500.0)
        server.apply_allocation(
            "be", Allocation(cores=6, ways=10, freq_ghz=1.5, duty_cycle=0.7)
        )
        for i in range(100):
            ctrl.step(i * 0.1)
        be = server.allocation_of("be")
        assert be.duty_cycle == pytest.approx(1.0)
        assert be.freq_ghz == pytest.approx(spec.max_freq_ghz)

    def test_hysteresis_band_prevents_flapping(self, spec):
        # Sit just under the cap: inside the restore margin, nothing moves.
        server, ctrl = build(spec, cap_w=120.0 + RESTORE_MARGIN_W / 4)
        # power = 120, just under the cap and inside the restore margin
        # -> no throttle, no restore: allocation must be stable.
        before = server.allocation_of("be")
        for i in range(20):
            ctrl.step(i * 0.1)
        assert server.allocation_of("be") == before


class TestStats:
    def test_counters_track_actions(self, spec):
        server, ctrl = build(spec, cap_w=100.0)
        ctrl.run_until_stable(max_steps=300)
        assert ctrl.stats.samples > 0
        assert ctrl.stats.throttle_events > 0
        assert ctrl.stats.over_cap_samples > 0
        assert 0.0 < ctrl.stats.over_cap_fraction <= 1.0
        assert 0.0 < ctrl.stats.throttle_fraction <= 1.0

    def test_no_secondary_no_actions(self, spec):
        server = Server(spec, provisioned_power_w=60.0)
        server.attach("lc", FreqSensitiveModel(), role=PRIMARY)
        server.apply_allocation("lc", Allocation(cores=4, ways=4))
        meter = PowerMeter(server.power_w, rng=np.random.default_rng(0),
                           noise_sigma_w=0.0)
        ctrl = PowerCapController(server, meter)
        ctrl.step(0.0)
        assert ctrl.stats.throttle_events == 0
        assert ctrl.stats.over_cap_samples == 1  # 50+40 = 90 > 60

    def test_parked_secondary_no_actions(self, spec):
        server, ctrl = build(spec, cap_w=90.0)
        server.release_allocation("be")
        ctrl.step(0.0)
        assert ctrl.stats.throttle_events == 0


class TestValidation:
    def test_noisy_meter_still_converges(self, spec):
        server, ctrl = build(spec, cap_w=100.0, noise=1.0, seed=3)
        for i in range(200):
            ctrl.step(i * 0.1)
        assert server.power_w() <= 102.0  # small slack for noise
