"""Unit tests for the runtime safety invariants and the guard monitor.

Each invariant is exercised in isolation against hand-built
:class:`GuardSample` snapshots — both the healthy path (no violation)
and a planted breach — and the monitor's record/enforce split is pinned:
record accumulates (capped), enforce raises
:class:`~repro.errors.InvariantViolationError` on the first hit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError, InvariantViolationError
from repro.faults import FaultSchedule, MeterDrift
from repro.guard.invariants import (
    BudgetConservationInvariant,
    EnergyConservationInvariant,
    GuardConfig,
    GuardReport,
    GuardSample,
    InvariantRegistry,
    LcSloFloorInvariant,
    MonotonicTimeInvariant,
    PowerCapInvariant,
    RngIsolationInvariant,
    Violation,
)
from repro.guard.monitor import GuardMonitor
from repro.hwmodel import Allocation
from repro.sim.colocation import build_colocated_server

#: Evaluate every invariant every tick — unit tests want exact timing.
EVERY_TICK = GuardConfig(deep_check_every=1)


@pytest.fixture()
def server(spec, lc_apps, be_apps):
    """A colocated xapian+rnn server in the post-assembly safe state."""
    lc = lc_apps["xapian"]
    box = build_colocated_server(
        spec=spec,
        lc_app=lc,
        provisioned_power_w=lc.peak_server_power_w(),
        be_app=be_apps["rnn"],
    )
    # Give the BE tenant a real slice so both tenants hold resources.
    box.apply_allocation(lc.name, Allocation(cores=8, ways=14))
    box.apply_allocation("rnn", Allocation(cores=4, ways=6))
    return box


def sample_at(server, time_s=1.0, power_w=None, capper=None, faults=None,
              in_window=True, final=False):
    """A GuardSample over ``server`` with stubbed capper/manager."""
    return GuardSample(
        time_s=time_s,
        in_window=in_window,
        power_w=server.power_w() if power_w is None else power_w,
        server=server,
        capper=capper if capper is not None else SimpleNamespace(safe_mode=False),
        manager=SimpleNamespace(),
        faults=faults,
        rng=np.random.default_rng(0),
        final=final,
    )


class TestGuardConfig:
    def test_defaults_are_record_mode(self):
        config = GuardConfig()
        assert config.mode == "record"
        assert not config.enforcing
        assert GuardConfig(mode="enforce").enforcing

    @pytest.mark.parametrize("kwargs", [
        {"mode": "observe"},
        {"cap_grace_steps": -1},
        {"energy_abs_tol_w": -1e-9},
        {"energy_rel_tol": -1e-9},
        {"lc_min_cores": 0},
        {"lc_min_ways": 0},
        {"max_violations": 0},
        {"deep_check_every": 0},
        {"cap_margin_w": float("nan")},
        {"cap_margin_w": float("inf")},
        {"cap_margin_w": float("-inf")},
        {"energy_abs_tol_w": float("nan")},
        {"energy_abs_tol_w": float("inf")},
        {"energy_rel_tol": float("nan")},
        {"energy_rel_tol": float("inf")},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GuardConfig(**kwargs)

    def test_hashable_and_comparable(self):
        # The config rides inside cell-dedupe keys and checkpoint run
        # keys, so value semantics are load-bearing.
        assert GuardConfig() == GuardConfig()
        assert hash(GuardConfig()) == hash(GuardConfig())
        assert GuardConfig() != GuardConfig(cap_margin_w=5.0)


class TestReportTypes:
    def test_violation_render_names_invariant_and_clock(self):
        violation = Violation(
            invariant="power-cap", time_s=3.5, message="over the envelope",
            observed=160.0, limit=157.0,
        )
        text = violation.render()
        assert "[power-cap]" in text and "t=3.5s" in text
        assert "160" in text and "157" in text

    def test_report_clean_truncated_and_count(self):
        v = Violation("power-cap", 1.0, "m", 1.0, 0.0)
        report = GuardReport(mode="record", checks=60, total_violations=5,
                             violations=(v, v))
        assert not report.clean
        assert report.truncated
        assert report.count("power-cap") == 2
        assert report.count("monotonic-time") == 0
        assert GuardReport("record", 60, 0, ()).clean


class TestPowerCapInvariant:
    def test_draw_inside_envelope_is_clean(self, server):
        inv = PowerCapInvariant(EVERY_TICK)
        cap = server.provisioned_power_w
        for _ in range(10):
            assert inv.observe(sample_at(server, power_w=cap - 5.0)) is None

    def test_excursion_beyond_grace_fires(self, server):
        inv = PowerCapInvariant(EVERY_TICK)
        over = server.provisioned_power_w + 10.0
        for _ in range(EVERY_TICK.cap_grace_steps):
            assert inv.observe(sample_at(server, power_w=over)) is None
        violation = inv.observe(sample_at(server, power_w=over))
        assert violation is not None
        assert violation.invariant == "power-cap"
        assert violation.observed == pytest.approx(over)

    def test_recovery_resets_the_streak(self, server):
        inv = PowerCapInvariant(EVERY_TICK)
        over = server.provisioned_power_w + 10.0
        for _ in range(EVERY_TICK.cap_grace_steps):
            assert inv.observe(sample_at(server, power_w=over)) is None
        # One in-envelope tick forgives the streak entirely.
        assert inv.observe(sample_at(server, power_w=1.0)) is None
        for _ in range(EVERY_TICK.cap_grace_steps):
            assert inv.observe(sample_at(server, power_w=over)) is None

    def test_warmup_ticks_are_ignored(self, server):
        inv = PowerCapInvariant(EVERY_TICK)
        over = server.provisioned_power_w + 50.0
        for _ in range(10):
            assert inv.observe(
                sample_at(server, power_w=over, in_window=False)
            ) is None

    def test_negative_drift_bias_is_excused(self, server):
        # A meter under-reporting by b watts makes cap+b look on-cap:
        # during the window the controller cannot see the excursion.
        faults = FaultSchedule([
            MeterDrift(start_s=0.0, duration_s=100.0, rate_w_per_s=-2.0)
        ])
        drift_bias = 2.0 * 10.0  # at t=10s
        over = server.provisioned_power_w + EVERY_TICK.cap_margin_w / 2.0
        inv = PowerCapInvariant(EVERY_TICK)
        for _ in range(10):
            assert inv.observe(sample_at(
                server, time_s=10.0, power_w=over + drift_bias, faults=faults,
            )) is None
        # The same draw with no drift active is a genuine excursion.
        blamed = PowerCapInvariant(EVERY_TICK)
        hits = [blamed.observe(sample_at(server, power_w=over + drift_bias))
                for _ in range(EVERY_TICK.cap_grace_steps + 1)]
        assert hits[-1] is not None

    def test_safe_mode_excuses_the_floored_be_draw(self, server):
        safe = SimpleNamespace(safe_mode=True)
        be_draw = sum(
            server.tenant_power_w(name) for name in server.secondary_tenants()
        )
        assert be_draw > 0.0
        over = server.provisioned_power_w + be_draw
        inv = PowerCapInvariant(EVERY_TICK)
        for _ in range(10):
            assert inv.observe(
                sample_at(server, power_w=over, capper=safe)
            ) is None


class TestEnergyConservationInvariant:
    def test_noiseless_attribution_conserves(self, server):
        inv = EnergyConservationInvariant(EVERY_TICK)
        for _ in range(5):
            assert inv.observe(sample_at(server)) is None

    def test_accounting_gap_fires(self, server):
        inv = EnergyConservationInvariant(EVERY_TICK)
        bogus = server.power_w() + 7.0
        violation = inv.observe(sample_at(server, power_w=bogus))
        assert violation is not None
        assert violation.invariant == "energy-conservation"
        assert violation.observed == pytest.approx(7.0)

    def test_deep_check_stride_skips_between_anchors(self, server):
        config = GuardConfig(deep_check_every=4)
        inv = EnergyConservationInvariant(config)
        bogus = server.power_w() + 7.0
        hits = [inv.observe(sample_at(server, power_w=bogus))
                for _ in range(8)]
        # Ticks 0 and 4 check (and fire); the strided ticks pass.
        assert [h is not None for h in hits] == [
            True, False, False, False, True, False, False, False,
        ]

    def test_final_tick_checks_despite_stride(self, server):
        """Regression: a cell shorter than the stride still gets its
        cumulative check — the final sample always evaluates."""
        config = GuardConfig(deep_check_every=100)
        inv = EnergyConservationInvariant(config)
        bogus = server.power_w() + 7.0
        assert inv.observe(sample_at(server, power_w=bogus)) is not None
        for _ in range(3):
            assert inv.observe(sample_at(server, power_w=bogus)) is None
        violation = inv.observe(
            sample_at(server, power_w=bogus, final=True)
        )
        assert violation is not None
        assert violation.invariant == "energy-conservation"

    def test_final_tick_rng_check_despite_stride(self, server):
        """Same regression for the other strided (cumulative) check."""
        config = GuardConfig(deep_check_every=100)
        inv = RngIsolationInvariant(config)
        assert inv.observe(sample_at(server)) is None  # baselines
        np.random.random()  # pocolint: disable=determinism-taint
        for _ in range(3):
            assert inv.observe(sample_at(server)) is None
        violation = inv.observe(sample_at(server, final=True))
        assert violation is not None
        assert violation.invariant == "rng-isolation"


class TestLcSloFloorInvariant:
    def test_healthy_primary_passes(self, server):
        assert LcSloFloorInvariant(EVERY_TICK).observe(sample_at(server)) is None

    def test_missing_primary_fires(self, server):
        server.detach("xapian")
        violation = LcSloFloorInvariant(EVERY_TICK).observe(sample_at(server))
        assert violation is not None
        assert "primary" in violation.message

    def test_starved_core_floor_fires(self, server):
        config = GuardConfig(deep_check_every=1,
                             lc_min_cores=server.spec.cores + 1)
        violation = LcSloFloorInvariant(config).observe(sample_at(server))
        assert violation is not None
        assert "core floor" in violation.message

    def test_duty_cycled_primary_fires(self, server):
        server.apply_allocation(
            "xapian", Allocation(cores=8, ways=14, duty_cycle=0.8)
        )
        violation = LcSloFloorInvariant(EVERY_TICK).observe(sample_at(server))
        assert violation is not None
        assert "duty-cycled" in violation.message


class _FakeAllocServer:
    """Duck-typed server whose allocations bypass apply-time validation.

    The real :meth:`Server.apply_allocation` refuses oversubscription, so
    a budget breach can only come from a bookkeeping bug; this stub lets
    the test plant one.
    """

    def __init__(self, spec, allocations, provisioned_power_w=150.0):
        self.spec = spec
        self.provisioned_power_w = provisioned_power_w
        self._allocations = allocations

    def tenants(self):
        return tuple(self._allocations)

    def allocation_of(self, tenant):
        return self._allocations[tenant]


class TestBudgetConservationInvariant:
    def test_real_server_never_oversubscribes(self, server):
        inv = BudgetConservationInvariant(EVERY_TICK)
        assert inv.observe(sample_at(server)) is None

    def test_core_oversubscription_fires(self, spec):
        fake = _FakeAllocServer(spec, {
            "a": Allocation(cores=spec.cores, ways=10),
            "b": Allocation(cores=2, ways=2),
        })
        violation = BudgetConservationInvariant(EVERY_TICK).observe(
            sample_at(fake, power_w=100.0)
        )
        assert violation is not None
        assert "oversubscribe the socket" in violation.message

    def test_off_ladder_frequency_fires(self, spec):
        fake = _FakeAllocServer(spec, {
            "a": Allocation(cores=2, ways=2, freq_ghz=99.0),
        })
        violation = BudgetConservationInvariant(EVERY_TICK).observe(
            sample_at(fake, power_w=100.0)
        )
        assert violation is not None
        assert "DVFS ladder" in violation.message


class TestMonotonicTimeInvariant:
    def test_advancing_clock_passes(self, server):
        inv = MonotonicTimeInvariant(EVERY_TICK)
        for t in (0.1, 0.2, 0.3):
            assert inv.observe(sample_at(server, time_s=t)) is None

    def test_stalled_clock_fires(self, server):
        inv = MonotonicTimeInvariant(EVERY_TICK)
        assert inv.observe(sample_at(server, time_s=1.0)) is None
        violation = inv.observe(sample_at(server, time_s=1.0))
        assert violation is not None
        assert violation.invariant == "monotonic-time"


class TestRngIsolationInvariant:
    def test_stray_global_draw_is_caught_then_rebaselined(self, server):
        inv = RngIsolationInvariant(EVERY_TICK)
        assert inv.observe(sample_at(server)) is None  # baseline tick
        np.random.random()  # pocolint: disable=determinism-taint
        violation = inv.observe(sample_at(server))
        assert violation is not None
        assert "global legacy RNG" in violation.message
        # One stray draw reports once; the next tick is clean again.
        assert inv.observe(sample_at(server)) is None

    def test_seeded_generators_never_trip_it(self, server, rng):
        inv = RngIsolationInvariant(EVERY_TICK)
        assert inv.observe(sample_at(server)) is None
        rng.random(100)
        assert inv.observe(sample_at(server)) is None

    def test_check_rng_false_disables_the_invariant(self, server):
        inv = RngIsolationInvariant(GuardConfig(check_rng=False,
                                                deep_check_every=1))
        assert inv.observe(sample_at(server)) is None
        np.random.random()  # pocolint: disable=determinism-taint
        assert inv.observe(sample_at(server)) is None


class TestRegistryAndMonitor:
    def test_default_registry_order(self):
        names = InvariantRegistry.default(GuardConfig()).names()
        assert names == (
            "power-cap", "energy-conservation", "lc-slo-floor",
            "budget-conservation", "monotonic-time", "rng-isolation",
        )

    def test_record_mode_accumulates_capped(self, server):
        config = GuardConfig(max_violations=2, deep_check_every=1)
        monitor = GuardMonitor(
            config, InvariantRegistry([MonotonicTimeInvariant(config)])
        )
        for _ in range(5):
            monitor.observe(sample_at(server, time_s=1.0))
        report = monitor.report()
        assert report.total_violations == 4  # first tick sets the baseline
        assert len(report.violations) == 2  # capped
        assert report.truncated
        assert report.checks == 5

    def test_enforce_mode_raises_on_first_violation(self, server):
        config = GuardConfig(mode="enforce", deep_check_every=1)
        monitor = GuardMonitor(
            config, InvariantRegistry([MonotonicTimeInvariant(config)])
        )
        monitor.observe(sample_at(server, time_s=1.0))
        with pytest.raises(InvariantViolationError, match="monotonic-time"):
            monitor.observe(sample_at(server, time_s=1.0))
        # The violation is also recorded, so post-mortems see it.
        assert monitor.report().total_violations == 1
