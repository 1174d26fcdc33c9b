"""Meter watchdog and safe mode (graceful degradation of the cap loop).

A lying power sensor is the one fault that silently breaches the
provisioned capacity — these tests pin the watchdog's detection latency
(the ISSUE acceptance criterion: safe mode within 5 samples of a stuck-at
fault), the safe-mode floor semantics, recovery, and the end-to-end
containment of the true over-cap fraction.
"""

import numpy as np
import pytest

from repro.core.server_manager import PowerOptimizedManager
from repro.faults import FaultSchedule, FaultyPowerMeter, MeterStuckAt
from repro.hwmodel.capping import MIN_DUTY_CYCLE, RECOVERY_SAMPLES, PowerCapController
from repro.hwmodel.meter import PowerMeter
from repro.sim import ColocationSim, SimConfig, build_colocated_server
from repro.workloads import ConstantTrace


def capped_server(catalog, schedule=None, noise_sigma_w=0.5, **capper_kwargs):
    """A loaded server + cap loop, optionally behind a faulty meter."""
    from repro.evaluation.motivation import true_min_power_allocation

    lc = catalog.lc_apps["xapian"]
    be = catalog.be_apps["graph"]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=132.0, be_app=be
    )
    server.apply_allocation(lc.name, true_min_power_allocation(lc, 0.1))
    server.apply_allocation(be.name, server.spare_allocation())
    rng = np.random.default_rng(0)
    if schedule is not None:
        meter = FaultyPowerMeter(
            source=server.power_w, schedule=schedule, rng=rng,
            noise_sigma_w=noise_sigma_w,
        )
    else:
        meter = PowerMeter(
            source=server.power_w, rng=rng, noise_sigma_w=noise_sigma_w
        )
    capper = PowerCapController(server, meter, **capper_kwargs)
    return server, be, capper


class TestWatchdogDetection:
    def test_stuck_meter_trips_within_five_samples(self, catalog):
        schedule = FaultSchedule([MeterStuckAt(start_s=2.0, duration_s=2.0)])
        server, be, capper = capped_server(catalog, schedule)
        onset_sample = 20  # t = 2.0 at 100 ms per sample
        first_safe = None
        for k in range(40):
            capper.step(k * 0.1)
            if capper.safe_mode and first_safe is None:
                first_safe = k
        assert first_safe is not None
        assert onset_sample <= first_safe <= onset_sample + 5
        assert capper.stats.watchdog_trips == 1
        assert capper.stats.safe_mode_entries == 1
        assert capper.stats.safe_mode_steps > 0

    def test_safe_mode_floors_the_be_tenant(self, catalog):
        schedule = FaultSchedule([MeterStuckAt(start_s=1.0, duration_s=None)])
        server, be, capper = capped_server(catalog, schedule)
        for k in range(30):
            capper.step(k * 0.1)
        assert capper.safe_mode
        alloc = server.allocation_of(be.name)
        assert alloc.freq_ghz == pytest.approx(server.spec.ladder.min_ghz)
        assert alloc.duty_cycle == pytest.approx(MIN_DUTY_CYCLE)

    def test_recovery_after_the_fault_clears(self, catalog):
        schedule = FaultSchedule([MeterStuckAt(start_s=2.0, duration_s=2.0)])
        server, be, capper = capped_server(catalog, schedule)
        recovery_sample = 40  # fault window closes at t = 4.0
        cleared_at = None
        for k in range(70):
            capper.step(k * 0.1)
            if (
                k > recovery_sample
                and not capper.safe_mode
                and cleared_at is None
            ):
                cleared_at = k
        assert cleared_at is not None
        assert cleared_at - recovery_sample <= RECOVERY_SAMPLES + 1
        assert not capper.safe_mode

    def test_implausible_reading_trips_immediately(self, catalog):
        schedule = FaultSchedule([
            # 10x the cap: fails the plausibility bound on the very first
            # faulty sample, no repeat streak needed.
            MeterStuckAt(start_s=1.0, duration_s=None, value_w=1320.0)
        ])
        server, be, capper = capped_server(catalog, schedule)
        for k in range(10):
            capper.step(k * 0.1)
        assert not capper.safe_mode
        capper.step(10 * 0.1)  # t = 1.0: the first implausible reading
        assert capper.safe_mode
        assert capper.stats.watchdog_trips == 1

    def test_exact_meter_never_trips_on_repeats(self, catalog):
        # A noiseless meter legitimately repeats at steady state; the
        # stale check must stay disarmed for it.
        server, be, capper = capped_server(catalog, noise_sigma_w=0.0)
        for k in range(60):
            capper.step(k * 0.1)
        assert not capper.safe_mode
        assert capper.stats.watchdog_trips == 0

    def test_watchdog_can_be_disabled(self, catalog):
        schedule = FaultSchedule([MeterStuckAt(start_s=1.0, duration_s=None)])
        server, be, capper = capped_server(catalog, schedule, watchdog=False)
        for k in range(40):
            capper.step(k * 0.1)
        assert not capper.safe_mode
        assert capper.stats.watchdog_trips == 0


def run_colocation(catalog, faults=None, duration_s=40.0):
    lc = catalog.lc_apps["xapian"]
    be = catalog.be_apps["rnn"]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(), be_app=be
    )
    manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
    sim = ColocationSim(
        server=server, lc_app=lc, trace=ConstantTrace(0.5), manager=manager,
        be_app=be, config=SimConfig(seed=0), faults=faults,
    )
    return sim.run(duration_s=duration_s), server


class TestSafeModeEndToEnd:
    """The ISSUE acceptance criterion, measured on *true* power."""

    def test_stuck_meter_contained_to_twice_faultfree_overcap(self, catalog):
        clean, clean_server = run_colocation(catalog)
        schedule = FaultSchedule([MeterStuckAt(start_s=15.0, duration_s=15.0)])
        stuck, stuck_server = run_colocation(catalog, faults=schedule)

        cap = stuck_server.provisioned_power_w
        clean_frac = clean.telemetry.series("power_w").fraction_above(cap)
        stuck_frac = stuck.telemetry.series("power_w").fraction_above(cap)
        # Graceful degradation: the lying sensor must not let true power
        # float above the cap — no worse than twice the fault-free rate
        # (with a tiny absolute allowance for the zero-violation case).
        assert stuck_frac <= max(2.0 * clean_frac, 0.02)

        # The watchdog actually engaged, and safe mode covers the window.
        assert stuck.cap_stats.watchdog_trips >= 1
        safe = stuck.telemetry.series("safe_mode")
        in_window = [v for t, v in zip(safe.times, safe.values) if 16.0 <= t < 30.0]
        assert in_window and max(in_window) == 1.0
        # Fault-free runs never enter safe mode.
        assert clean.cap_stats.safe_mode_steps == 0
        assert max(clean.telemetry.series("safe_mode").values) == 0.0

    def test_be_throughput_recovers_after_the_fault(self, catalog):
        schedule = FaultSchedule([MeterStuckAt(start_s=10.0, duration_s=10.0)])
        result, _ = run_colocation(catalog, faults=schedule)
        tput = result.telemetry.series("be_throughput_norm")
        during = [v for t, v in zip(tput.times, tput.values) if 12.0 <= t < 20.0]
        after = [v for t, v in zip(tput.times, tput.values) if t >= 35.0]
        # Floored during the fault, climbing again after recovery.
        assert max(during) < max(after)
        assert max(after) > 0.1
