"""Tests for repro.hwmodel.attribution: per-tenant power accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hwmodel.attribution import AttributedPowerMeter
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import Allocation


class FlatModel:
    def __init__(self, per_core, per_way):
        self.per_core = per_core
        self.per_way = per_way

    def active_power_w(self, alloc):
        return alloc.cores * self.per_core + alloc.ways * self.per_way


@pytest.fixture()
def server(spec):
    s = Server(spec, provisioned_power_w=150.0)
    s.attach("lc", FlatModel(3.0, 1.0), role=PRIMARY)
    s.attach("be", FlatModel(2.0, 2.0), role=SECONDARY)
    s.apply_allocation("lc", Allocation(cores=6, ways=10))
    s.apply_allocation("be", Allocation(cores=3, ways=5))
    return s


class TestAttributedPowerMeter:
    def test_active_power_matches_server_accounting(self, server):
        readings = AttributedPowerMeter(server).read()
        assert readings["lc"].active_w == pytest.approx(
            server.tenant_power_w("lc")
        )
        assert readings["be"].active_w == pytest.approx(
            server.tenant_power_w("be")
        )

    def test_idle_apportioned_by_resource_share(self, server, spec):
        readings = AttributedPowerMeter(server).read()
        # lc holds 6/12 cores and 10/20 ways -> half the idle power.
        assert readings["lc"].idle_share_w == pytest.approx(
            spec.idle_power_w * 0.5
        )
        # be holds 3/12 and 5/20 -> a quarter.
        assert readings["be"].idle_share_w == pytest.approx(
            spec.idle_power_w * 0.25
        )

    def test_unallocated_pseudo_tenant_closes_the_books(self, server):
        meter = AttributedPowerMeter(server)
        assert meter.conservation_error_w() < 1e-9

    def test_parked_tenant_charged_nothing(self, server):
        server.release_allocation("be")
        readings = AttributedPowerMeter(server).read()
        assert readings["be"].total_w == 0.0

    def test_noise_breaks_conservation_boundedly(self, server):
        meter = AttributedPowerMeter(
            server, rng=np.random.default_rng(0), noise_sigma=0.05
        )
        error = meter.conservation_error_w()
        assert 0.0 < error < 0.2 * server.power_w()

    def test_validation(self, server):
        with pytest.raises(ConfigError):
            AttributedPowerMeter(server, noise_sigma=-0.1)
