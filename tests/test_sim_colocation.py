"""Tests for repro.sim.colocation: the time-stepped colocation harness."""

import pytest

from repro.core.server_manager import HeraclesLikeManager, PowerOptimizedManager
from repro.errors import ConfigError, SimulationError
from repro.hwmodel.meter import DEFAULT_SAMPLE_INTERVAL_S
from repro.hwmodel.server import Server
from repro.sim.colocation import (
    CONTROL_INTERVAL_S,
    SUBTICKS,
    ColocationSim,
    SimConfig,
    build_colocated_server,
)
from repro.workloads.traces import ConstantTrace, StepTrace


def make_sim(catalog, lc_name="xapian", be_name="rnn", seed=0, manager="pom"):
    lc = catalog.lc_apps[lc_name]
    be = catalog.be_apps[be_name]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(), be_app=be
    )
    if manager == "pom":
        mgr = PowerOptimizedManager(server, model=catalog.lc_fits[lc_name].model)
    else:
        mgr = HeraclesLikeManager(server)
    return ColocationSim(
        server=server, lc_app=lc, trace=ConstantTrace(0.4),
        manager=mgr, be_app=be, config=SimConfig(seed=seed),
    )


class TestSimConfig:
    def test_defaults_match_paper_cadence(self):
        assert CONTROL_INTERVAL_S == 1.0
        assert DEFAULT_SAMPLE_INTERVAL_S == 0.1
        assert SUBTICKS == 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(warmup_s=-1.0)

    @pytest.mark.parametrize("warmup_s", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_warmup_rejected(self, warmup_s):
        with pytest.raises(ConfigError, match="warmup_s must be non-negative and finite"):
            SimConfig(warmup_s=warmup_s)

    @pytest.mark.parametrize("name", ["load_noise", "latency_noise"])
    @pytest.mark.parametrize(
        "value", [-0.01, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
    )
    def test_bad_noise_rejected(self, name, value):
        """An infinite latency noise used to zero the BE throughput."""
        with pytest.raises(ConfigError, match=f"{name} must be non-negative and finite"):
            SimConfig(**{name: value})


class TestBuildColocatedServer:
    def test_lc_starts_on_full_box(self, catalog):
        lc = catalog.lc_apps["xapian"]
        server = build_colocated_server(catalog.spec, lc, 154.0)
        assert server.allocation_of(lc.name) == catalog.spec.full_allocation()
        assert server.primary_tenant() == lc.name
        assert server.secondary_tenant() is None

    def test_be_attached_but_parked(self, catalog):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["graph"]
        server = build_colocated_server(catalog.spec, lc, 154.0, be_app=be)
        assert server.secondary_tenant() == be.name
        assert server.allocation_of(be.name).is_empty


class TestRun:
    def test_aggregates_are_sane(self, catalog):
        result = make_sim(catalog).run(duration_s=20.0)
        assert 0.0 < result.avg_be_throughput_norm < 1.0
        assert result.avg_be_throughput_abs == pytest.approx(
            result.avg_be_throughput_norm * catalog.be_apps["rnn"].peak_throughput
        )
        assert result.avg_lc_load_fraction == pytest.approx(0.4, abs=0.01)
        assert 50.0 < result.avg_power_w < 200.0
        assert 0.0 < result.power_utilization <= 1.05
        assert result.energy_kwh > 0.0

    def test_power_stays_near_cap(self, catalog):
        result = make_sim(catalog).run(duration_s=30.0)
        cap = catalog.lc_apps["xapian"].peak_server_power_w()
        assert result.telemetry.series("power_w").percentile(95) <= cap + 3.0

    def test_pom_keeps_slo(self, catalog):
        result = make_sim(catalog).run(duration_s=30.0)
        assert result.slo_violation_fraction <= 0.05

    def test_deterministic_given_seed(self, catalog):
        a = make_sim(catalog, seed=11).run(duration_s=10.0)
        b = make_sim(catalog, seed=11).run(duration_s=10.0)
        assert a.avg_be_throughput_norm == b.avg_be_throughput_norm
        assert a.avg_power_w == b.avg_power_w

    def test_seed_changes_results(self, catalog):
        a = make_sim(catalog, seed=1).run(duration_s=10.0)
        b = make_sim(catalog, seed=2).run(duration_s=10.0)
        assert a.avg_power_w != b.avg_power_w

    def test_telemetry_series_present(self, catalog):
        result = make_sim(catalog).run(duration_s=5.0)
        for name in ("power_w", "lc_load_fraction", "lc_slack", "lc_cores",
                     "lc_ways", "be_throughput_norm", "be_freq_ghz", "be_duty"):
            assert name in result.telemetry
            assert len(result.telemetry.series(name)) == 5

    def test_warmup_excluded_from_window(self, catalog):
        cfg = SimConfig(seed=0, warmup_s=10.0)
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server = build_colocated_server(
            catalog.spec, lc, lc.peak_server_power_w(), be_app=be
        )
        mgr = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        sim = ColocationSim(server=server, lc_app=lc, trace=ConstantTrace(0.4),
                            manager=mgr, be_app=be, config=cfg)
        result = sim.run(duration_s=5.0)
        times = result.telemetry.series("power_w").times
        assert min(times) >= 0.0

    def test_reacts_to_load_step(self, catalog):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server = build_colocated_server(
            catalog.spec, lc, lc.peak_server_power_w(), be_app=be
        )
        mgr = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        sim = ColocationSim(
            server=server, lc_app=lc,
            trace=StepTrace.of((0.0, 0.2), (15.0, 0.8)),
            manager=mgr, be_app=be, config=SimConfig(seed=0),
        )
        result = sim.run(duration_s=30.0)
        cores = result.telemetry.series("lc_cores")
        early = [v for t, v in zip(cores.times, cores.values) if t < 14]
        late = [v for t, v in zip(cores.times, cores.values) if t > 20]
        assert max(early) < max(late)
        assert result.slo_violation_fraction < 0.2

    def test_without_be_app(self, catalog):
        lc = catalog.lc_apps["xapian"]
        server = build_colocated_server(catalog.spec, lc, lc.peak_server_power_w())
        mgr = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        sim = ColocationSim(server=server, lc_app=lc, trace=ConstantTrace(0.5),
                            manager=mgr, config=SimConfig(seed=0))
        result = sim.run(duration_s=10.0)
        assert result.avg_be_throughput_norm == 0.0
        assert result.be_name is None

    def test_invalid_duration_rejected(self, catalog):
        with pytest.raises(ConfigError):
            make_sim(catalog).run(duration_s=0.0)


class TestWiringValidation:
    def test_manager_bound_elsewhere_rejected(self, catalog):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server_a = build_colocated_server(catalog.spec, lc, 154.0, be_app=be)
        server_b = build_colocated_server(catalog.spec, lc, 154.0, be_app=be)
        mgr = PowerOptimizedManager(server_b, model=catalog.lc_fits["xapian"].model)
        with pytest.raises(SimulationError):
            ColocationSim(server=server_a, lc_app=lc, trace=ConstantTrace(0.5),
                          manager=mgr, be_app=be)

    def test_missing_primary_rejected(self, catalog):
        server = Server(catalog.spec, provisioned_power_w=100.0)
        lc = catalog.lc_apps["xapian"]
        with pytest.raises(ConfigError):
            # manager construction itself requires a primary
            PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)

    def test_be_app_without_tenant_rejected(self, catalog):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server = build_colocated_server(catalog.spec, lc, 154.0)  # no BE slot
        mgr = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        with pytest.raises(SimulationError):
            ColocationSim(server=server, lc_app=lc, trace=ConstantTrace(0.5),
                          manager=mgr, be_app=be)
