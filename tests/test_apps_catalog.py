"""Tests for repro.apps.catalog: the paper-calibrated application set.

These tests pin the reproduction to the paper's anchor numbers — if a
calibration change breaks one of them, a figure has silently drifted.
"""

import pytest

from repro.apps.catalog import (
    BE_NAMES,
    LC_NAMES,
    NOCAP_PROVISIONED_W,
    XAPIAN_MOTIVATION_CAPACITY_W,
    derive_power_coefficients,
)
from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation, spare_of


class TestRegistries:
    def test_paper_order(self):
        assert LC_NAMES == ("img-dnn", "sphinx", "xapian", "tpcc")
        assert BE_NAMES == ("lstm", "rnn", "graph", "pbzip")

    def test_registries_complete(self, lc_apps, be_apps):
        assert tuple(lc_apps) == LC_NAMES
        assert tuple(be_apps) == BE_NAMES


class TestTable2Anchors:
    """Peak load, SLO latency, and peak power from Table II."""

    @pytest.mark.parametrize("name,peak_load,p99_s,peak_power", [
        ("img-dnn", 3500.0, 0.020, 133.0),
        ("sphinx", 10.0, 3.03, 182.0),
        ("xapian", 4000.0, 0.004020, 154.0),
        ("tpcc", 8000.0, 0.707, 133.0),
    ])
    def test_lc_characteristics(self, lc_apps, name, peak_load, p99_s, peak_power):
        app = lc_apps[name]
        assert app.peak_load == peak_load
        assert app.latency.slo.p99_s == pytest.approx(p99_s)
        assert app.peak_server_power_w() == pytest.approx(peak_power, abs=0.5)


class TestSection2Anchors:
    """The xapian 10 %-load anchor and the Fig 2 colocation range."""

    def test_xapian_low_load_allocation(self, xapian, spec):
        # Paper: ~1 core, 2 ways, ~64 W at 10 % load.
        need = xapian.required_capacity(0.10 * xapian.peak_load, 0.0)
        best = None
        for alloc in spec.iter_allocations():
            if xapian.capacity(alloc) >= need:
                p = xapian.profile.server_power_w(alloc)
                if best is None or p < best[0]:
                    best = (p, alloc)
        power, alloc = best
        assert alloc.cores == 1
        assert alloc.ways <= 3
        assert 60.0 <= power <= 68.0

    def test_fig2_colocation_power_range(self, xapian, be_apps, spec):
        # Paper: naive colocation draws 138-155 W against 132 W capacity.
        lc_alloc = Allocation(cores=1, ways=2)
        spare = spare_of(spec, lc_alloc)
        base = spec.idle_power_w + xapian.active_power_w(lc_alloc)
        draws = [base + be.active_power_w(spare) for be in be_apps.values()]
        assert all(d > XAPIAN_MOTIVATION_CAPACITY_W for d in draws)
        assert 133.0 <= min(draws) <= 140.0
        assert 150.0 <= max(draws) <= 158.0


class TestPreferenceCalibration:
    """Indirect preference vectors from Sections III / V-C."""

    @pytest.mark.parametrize("name,kind,cores_share", [
        ("sphinx", "lc", 0.20),
        ("img-dnn", "lc", 0.75),
        ("lstm", "be", 0.13),
        ("graph", "be", 0.80),
    ])
    def test_paper_quoted_preferences(self, lc_apps, be_apps, name, kind, cores_share):
        app = (lc_apps if kind == "lc" else be_apps)[name]
        ratio = app.profile.true_preference_ratio()
        assert ratio / (1.0 + ratio) == pytest.approx(cores_share, abs=0.01)

    def test_sphinx_direct_vs_indirect_flip(self, lc_apps):
        """The paper's running example: sphinx prefers cores in direct
        utility (0.6:0.4) but ways once power enters (0.2:0.8)."""
        sphinx = lc_apps["sphinx"].profile
        direct_cores = sphinx.perf.alpha_cores / (
            sphinx.perf.alpha_cores + sphinx.perf.alpha_ways
        )
        indirect = sphinx.true_preference_ratio()
        indirect_cores = indirect / (1.0 + indirect)
        assert direct_cores > 0.5
        assert indirect_cores < 0.5

    def test_complementary_pairs(self, lc_apps, be_apps):
        """Graph complements sphinx; LSTM complements img-dnn (Fig 14)."""
        def cores_share(app):
            r = app.profile.true_preference_ratio()
            return r / (1.0 + r)

        assert cores_share(be_apps["graph"]) > 0.5 > cores_share(lc_apps["sphinx"])
        assert cores_share(be_apps["lstm"]) < 0.5 < cores_share(lc_apps["img-dnn"])


class TestDerivePowerCoefficients:
    def test_full_allocation_budget_met(self, spec):
        p_core, p_way = derive_power_coefficients(
            0.6, 0.4, 0.2, 0.8, full_active_w=132.0, static_w=5.0, spec=spec
        )
        total = spec.cores * p_core + spec.llc_ways * p_way
        assert total == pytest.approx(127.0)

    def test_preference_ratio_achieved(self, spec):
        p_core, p_way = derive_power_coefficients(
            0.6, 0.4, 0.2, 0.8, full_active_w=132.0, static_w=5.0, spec=spec
        )
        indirect_c = 0.6 / p_core
        indirect_w = 0.4 / p_way
        assert indirect_c / (indirect_c + indirect_w) == pytest.approx(0.2)

    def test_invalid_inputs_rejected(self, spec):
        with pytest.raises(ConfigError):
            derive_power_coefficients(0.0, 0.4, 0.2, 0.8, 100.0, 5.0, spec)
        with pytest.raises(ConfigError):
            derive_power_coefficients(0.6, 0.4, 0.2, 0.8, 4.0, 5.0, spec)


class TestBestEffortApps:
    def test_units_and_peaks(self, be_apps):
        units = {name: app.unit for name, app in be_apps.items()}
        assert units == {
            "lstm": "samples/s", "rnn": "samples/s",
            "graph": "Medges/s", "pbzip": "MB/s",
        }
        for app in be_apps.values():
            assert app.peak_throughput > 0

    def test_throughput_normalization(self, be_apps, spec):
        for app in be_apps.values():
            assert app.normalized_throughput(spec.full_allocation()) == pytest.approx(1.0)
            assert app.throughput(spec.full_allocation()) == pytest.approx(
                app.peak_throughput
            )

    def test_graph_is_most_power_hungry(self, be_apps):
        powers = {name: app.uncapped_full_power_w() for name, app in be_apps.items()}
        assert max(powers, key=powers.get) == "graph"
        assert min(powers, key=powers.get) in ("lstm", "rnn")

    def test_nocap_provisioning_covers_all_lc_peaks(self, lc_apps):
        assert NOCAP_PROVISIONED_W >= max(
            app.peak_server_power_w() for app in lc_apps.values()
        )
