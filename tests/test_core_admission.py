"""Tests for repro.core.admission: when to colocate."""

import pytest

from repro.core.admission import AdmissionController
from repro.errors import ConfigError


@pytest.fixture()
def controller(catalog):
    lc = catalog.lc_apps["xapian"]
    return AdmissionController(
        lc_model=catalog.lc_fits["xapian"].model,
        peak_load=lc.peak_load,
        provisioned_power_w=lc.peak_server_power_w(),
        spec=catalog.spec,
    )


@pytest.fixture()
def be_model(catalog):
    return catalog.be_fits["rnn"].model


class TestDecide:
    def test_admits_at_low_load(self, controller, be_model):
        decision = controller.decide(0.1 * controller.peak_load, be_model)
        assert decision.admit
        assert decision.predicted_be_throughput > 0.1
        assert decision.predicted_headroom_w > 0.0

    def test_rejects_at_peak_load(self, controller, be_model):
        decision = controller.decide(controller.peak_load, be_model)
        assert not decision.admit
        assert decision.reason

    def test_boundary_monotonicity(self, controller, be_model):
        """Once rejected, higher loads stay rejected (scan downward)."""
        admits = [
            controller.decide(f * controller.peak_load, be_model).admit
            for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        # True prefix then False suffix.
        assert admits == sorted(admits, reverse=True)

    def test_throughput_threshold_bites(self, catalog, be_model):
        lc = catalog.lc_apps["xapian"]
        strict = AdmissionController(
            lc_model=catalog.lc_fits["xapian"].model,
            peak_load=lc.peak_load,
            provisioned_power_w=lc.peak_server_power_w(),
            spec=catalog.spec,
            min_be_throughput=0.9,  # nearly impossible next to any LC load
        )
        decision = strict.decide(0.3 * lc.peak_load, be_model)
        assert not decision.admit
        assert "threshold" in decision.reason

    def test_headroom_floor_bites(self, catalog, be_model):
        lc = catalog.lc_apps["xapian"]
        strict = AdmissionController(
            lc_model=catalog.lc_fits["xapian"].model,
            peak_load=lc.peak_load,
            provisioned_power_w=lc.peak_server_power_w(),
            spec=catalog.spec,
            min_headroom_w=500.0,
        )
        decision = strict.decide(0.1 * lc.peak_load, be_model)
        assert not decision.admit
        assert "headroom" in decision.reason

    def test_negative_load_rejected(self, controller, be_model):
        with pytest.raises(ConfigError):
            controller.decide(-1.0, be_model)


class TestAdmissionBoundary:
    def test_boundary_in_open_interval(self, controller, be_model):
        boundary = controller.admission_boundary(be_model, resolution=50)
        assert 0.3 < boundary < 1.0

    def test_boundary_consistent_with_decide(self, controller, be_model):
        boundary = controller.admission_boundary(be_model, resolution=50)
        assert controller.decide(boundary * controller.peak_load, be_model).admit
        above = min(1.0, boundary + 0.04)
        if above > boundary:
            assert not controller.decide(
                above * controller.peak_load, be_model
            ).admit

    def test_power_hungry_be_admitted_less(self, catalog, controller):
        """graph (power-hungry) should be cut off earlier than lstm on a
        tightly provisioned server."""
        lc = catalog.lc_apps["img-dnn"]  # 133 W, tight
        tight = AdmissionController(
            lc_model=catalog.lc_fits["img-dnn"].model,
            peak_load=lc.peak_load,
            provisioned_power_w=lc.peak_server_power_w(),
            spec=catalog.spec,
            min_be_throughput=0.25,
        )
        graph_boundary = tight.admission_boundary(catalog.be_fits["graph"].model)
        lstm_boundary = tight.admission_boundary(catalog.be_fits["lstm"].model)
        assert lstm_boundary >= graph_boundary

    def test_resolution_validation(self, controller, be_model):
        with pytest.raises(ConfigError):
            controller.admission_boundary(be_model, resolution=1)


class TestValidation:
    def test_constructor_guards(self, catalog):
        model = catalog.lc_fits["xapian"].model
        with pytest.raises(ConfigError):
            AdmissionController(model, peak_load=0.0, provisioned_power_w=150.0,
                                spec=catalog.spec)
        with pytest.raises(ConfigError):
            AdmissionController(model, peak_load=100.0, provisioned_power_w=0.0,
                                spec=catalog.spec)
        with pytest.raises(ConfigError):
            AdmissionController(model, peak_load=100.0, provisioned_power_w=150.0,
                                spec=catalog.spec, min_be_throughput=1.0)
