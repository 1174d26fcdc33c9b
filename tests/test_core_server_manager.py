"""Tests for repro.core.server_manager: POM and the Heracles baseline."""

import pytest

from repro.core.server_manager import (
    FLOOR_TTL,
    HeraclesLikeManager,
    PowerOptimizedManager,
)
from repro.errors import ConfigError
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import Allocation


def build_server(spec, lc_app, be_app=None, provisioned=None):
    cap = provisioned if provisioned is not None else lc_app.peak_server_power_w()
    server = Server(spec, provisioned_power_w=cap)
    server.attach(lc_app.name, lc_app, role=PRIMARY)
    server.apply_allocation(lc_app.name, spec.full_allocation())
    if be_app is not None:
        server.attach(be_app.name, be_app, role=SECONDARY)
    return server


def drive_to_steady(manager, lc_app, load, steps=40):
    """Feed noiseless telemetry until the controller settles."""
    primary = manager.server.primary_tenant()
    for _ in range(steps):
        alloc = manager.server.allocation_of(primary)
        slack = lc_app.slack(load, alloc)
        manager.control_step(load, slack)
    return manager.server.allocation_of(primary)


class TestPowerOptimizedManager:
    def test_shrinks_from_full_at_low_load(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        alloc = drive_to_steady(manager, lc, 0.1 * lc.peak_load)
        assert alloc.cores <= 3
        assert alloc.ways <= 5

    def test_steady_state_meets_slo(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        for level in (0.1, 0.5, 0.9):
            server = build_server(spec, lc)
            manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
            alloc = drive_to_steady(manager, lc, level * lc.peak_load)
            assert lc.slack(level * lc.peak_load, alloc) >= 0.0

    def test_grows_on_load_step(self, catalog, spec):
        """The Section II-C reclamation: load 50% -> 80% takes resources back."""
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server = build_server(spec, lc, be)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        low = drive_to_steady(manager, lc, 0.5 * lc.peak_load)
        be_before = server.allocation_of(be.name)
        high = drive_to_steady(manager, lc, 0.8 * lc.peak_load)
        be_after = server.allocation_of(be.name)
        assert high.cores + high.ways > low.cores + low.ways
        assert be_after.cores < be_before.cores or be_after.ways < be_before.ways

    def test_be_receives_spare(self, catalog, spec):
        lc = catalog.lc_apps["sphinx"]
        be = catalog.be_apps["graph"]
        server = build_server(spec, lc, be)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["sphinx"].model)
        lc_alloc = drive_to_steady(manager, lc, 0.3 * lc.peak_load)
        be_alloc = server.allocation_of(be.name)
        assert be_alloc.cores == spec.cores - lc_alloc.cores
        assert be_alloc.ways == spec.llc_ways - lc_alloc.ways

    def test_be_throttle_state_preserved_across_reallocations(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["graph"]
        server = build_server(spec, lc, be)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        drive_to_steady(manager, lc, 0.5 * lc.peak_load)
        # Simulate the cap loop having throttled the BE tenant.
        throttled = server.allocation_of(be.name).with_freq(1.5).with_duty_cycle(0.8)
        server.apply_allocation(be.name, throttled)
        drive_to_steady(manager, lc, 0.6 * lc.peak_load, steps=5)
        after = server.allocation_of(be.name)
        assert after.freq_ghz == pytest.approx(1.5)
        assert after.duty_cycle == pytest.approx(0.8)

    def test_uses_less_power_than_baseline(self, catalog, spec):
        """The POM premise: same load, same SLO, fewer watts."""
        lc = catalog.lc_apps["sphinx"]
        load = 0.4 * lc.peak_load

        server_pom = build_server(spec, lc)
        pom = PowerOptimizedManager(server_pom, model=catalog.lc_fits["sphinx"].model)
        alloc_pom = drive_to_steady(pom, lc, load)

        server_base = build_server(spec, lc)
        base = HeraclesLikeManager(server_base)
        alloc_base = drive_to_steady(base, lc, load, steps=120)

        assert lc.slack(load, alloc_pom) >= 0
        assert lc.slack(load, alloc_base) >= 0
        assert lc.active_power_w(alloc_pom) < lc.active_power_w(alloc_base)

    def test_freq_trim_engages_at_floor(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        alloc = drive_to_steady(manager, lc, 0.02 * lc.peak_load, steps=60)
        assert alloc.freq_ghz < spec.max_freq_ghz

    def test_stats_track_activity(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        drive_to_steady(manager, lc, 0.5 * lc.peak_load, steps=10)
        assert manager.stats.control_steps == 10
        assert manager.stats.reconfigurations >= 1

    def test_validation(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        model = catalog.lc_fits["xapian"].model
        with pytest.raises(ConfigError):
            PowerOptimizedManager(server, model=model, slack_target=1.5)
        with pytest.raises(ConfigError):
            PowerOptimizedManager(server, model=model, slack_target=0.2,
                                  slack_upper=0.1)

    def test_requires_primary(self, spec, catalog):
        server = Server(spec, provisioned_power_w=100.0)
        with pytest.raises(ConfigError):
            PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)

    def test_negative_load_rejected(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        with pytest.raises(ConfigError):
            manager.control_step(-1.0, 0.5)


class TestHeraclesLikeManager:
    def test_walks_balanced_path(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = HeraclesLikeManager(server)
        alloc = drive_to_steady(manager, lc, 0.3 * lc.peak_load, steps=120)
        # Balanced path: ways ~ cores * (20/12)
        assert alloc.ways == pytest.approx(alloc.cores * spec.llc_ways / spec.cores,
                                           abs=1.0)

    def test_slo_held_through_shrink(self, catalog, spec):
        lc = catalog.lc_apps["tpcc"]
        server = build_server(spec, lc)
        manager = HeraclesLikeManager(server)
        load = 0.5 * lc.peak_load
        violations = 0
        for _ in range(120):
            alloc = server.allocation_of(lc.name)
            slack = lc.slack(load, alloc)
            if slack < 0:
                violations += 1
            manager.control_step(load, slack)
        assert violations <= 3  # transient dips only, then floor kicks in

    def test_violation_recovery_sets_floor(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        manager = HeraclesLikeManager(server)
        # No more steps than the floor's lifetime, so it cannot decay.
        drive_to_steady(manager, lc, 0.5 * lc.peak_load, steps=FLOOR_TTL)
        floor = manager._floor_cores
        steady = server.allocation_of(lc.name)
        assert steady.cores >= floor

    def test_grow_floor_blocks_shrink_until_it_ages_out(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        server.apply_allocation(lc.name, Allocation(cores=2, ways=3))
        manager = HeraclesLikeManager(server)
        manager.control_step(0.5 * lc.peak_load, -0.5)   # starved -> grow
        grown = server.allocation_of(lc.name)
        # The grown size is the new floor: lavish slack far past the
        # shrink patience cannot shrink below it while the floor lives.
        for _ in range(FLOOR_TTL):
            manager.control_step(0.0, 0.99)
            assert server.allocation_of(lc.name) == grown
        manager.control_step(0.0, 0.99)   # the floor has aged out
        assert server.allocation_of(lc.name).cores == grown.cores - 1

    def test_stats_and_validation(self, catalog, spec):
        lc = catalog.lc_apps["xapian"]
        server = build_server(spec, lc)
        with pytest.raises(ConfigError):
            HeraclesLikeManager(server, slack_target=0.2, slack_upper=0.1)
        manager = HeraclesLikeManager(server)
        drive_to_steady(manager, lc, 0.2 * lc.peak_load, steps=60)
        assert manager.stats.shrink_actions > 0
