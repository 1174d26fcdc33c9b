"""Tests for repro.evaluation.motivation: Figs 1-4 invariants."""

import pytest

from repro.apps.catalog import XAPIAN_MOTIVATION_CAPACITY_W
from repro.errors import ConfigError
from repro.evaluation.motivation import (
    fig1_diurnal_overshoot,
    fig2_power_overshoot,
    fig3_capped_throughput,
    fig4_load_spectrum,
    true_min_power_allocation,
)


class TestTrueMinPowerAllocation:
    def test_xapian_anchor(self, xapian):
        alloc = true_min_power_allocation(xapian, 0.10)
        assert alloc.cores == 1
        assert alloc.ways <= 3

    def test_allocation_serves_load(self, xapian):
        for level in (0.1, 0.5, 0.9):
            alloc = true_min_power_allocation(xapian, level)
            assert xapian.slack(level * xapian.peak_load, alloc) >= 0.0

    def test_monotone_power_in_load(self, xapian):
        powers = [
            xapian.profile.server_power_w(true_min_power_allocation(xapian, level))
            for level in (0.1, 0.4, 0.7, 0.95)
        ]
        assert powers == sorted(powers)

    def test_invalid_fraction_rejected(self, xapian):
        with pytest.raises(ConfigError):
            true_min_power_allocation(xapian, 1.5)


class TestFig1:
    def test_overshoot_only_off_peak(self):
        points, capacity = fig1_diurnal_overshoot()
        assert len(points) == 24
        over = [p for p in points if p.power_colocated_w > capacity + 1e-9]
        assert len(over) >= 6  # a solid block of off-peak overshoot hours
        # Peak (non-admitted) hours stay within the right-sized capacity.
        for p in points:
            if p.load_fraction > 0.75:
                assert p.power_colocated_w <= capacity + 1e-9

    def test_core_utilization_never_exceeds_one(self):
        points, _ = fig1_diurnal_overshoot()
        assert all(p.core_utilization <= 1.0 + 1e-9 for p in points)

    def test_capacity_defaults_to_daily_peak(self):
        points, capacity = fig1_diurnal_overshoot()
        assert capacity == pytest.approx(max(p.power_lc_only_w for p in points))

    def test_explicit_capacity_respected(self):
        _, capacity = fig1_diurnal_overshoot(capacity_w=140.0)
        assert capacity == 140.0


class TestFig2:
    def test_every_be_app_overshoots(self):
        draws = fig2_power_overshoot()
        assert set(draws) == {"lstm", "rnn", "graph", "pbzip"}
        for name, draw in draws.items():
            assert draw > XAPIAN_MOTIVATION_CAPACITY_W

    def test_range_matches_paper(self):
        """Paper: 138-155 W, i.e. ~5-17 % above the 132 W capacity."""
        draws = fig2_power_overshoot()
        rel = {n: d / XAPIAN_MOTIVATION_CAPACITY_W - 1 for n, d in draws.items()}
        assert 0.02 <= min(rel.values()) <= 0.08
        assert 0.12 <= max(rel.values()) <= 0.22

    def test_graph_is_worst(self):
        draws = fig2_power_overshoot()
        assert max(draws, key=draws.get) == "graph"


class TestFig3:
    def test_drop_ordering_matches_paper(self):
        """LSTM/RNN lose a few percent, Graph ~20 %, pbzip in between."""
        rows = {r.be_name: r for r in fig3_capped_throughput()}
        assert rows["lstm"].drop_fraction < 0.08
        assert rows["rnn"].drop_fraction < 0.08
        assert 0.15 <= rows["graph"].drop_fraction <= 0.30
        assert rows["rnn"].drop_fraction < rows["pbzip"].drop_fraction
        assert rows["pbzip"].drop_fraction < rows["graph"].drop_fraction

    def test_capped_never_exceeds_uncapped(self):
        for row in fig3_capped_throughput():
            assert row.capped_norm <= row.uncapped_norm + 1e-9

    def test_throttle_mechanism_recorded(self):
        rows = {r.be_name: r for r in fig3_capped_throughput()}
        # Graph must have been frequency-throttled well below max.
        assert rows["graph"].final_freq_ghz < 2.0
        # LSTM barely moves.
        assert rows["lstm"].final_freq_ghz >= 1.9


class TestFig4:
    def test_rnn_beats_lstm_at_all_loads(self):
        curves = fig4_load_spectrum(levels=[0.1, 0.3, 0.5, 0.7])
        for (l_level, l_tput), (r_level, r_tput) in zip(curves["lstm"], curves["rnn"]):
            assert l_level == r_level
            assert r_tput >= l_tput - 1e-9

    def test_throughput_decreases_with_lc_load(self):
        curves = fig4_load_spectrum(levels=[0.1, 0.5, 0.9])
        for series in curves.values():
            tputs = [t for _, t in series]
            assert tputs == sorted(tputs, reverse=True)

    def test_custom_app_selection(self):
        curves = fig4_load_spectrum(be_names=("graph",), levels=[0.2])
        assert set(curves) == {"graph"}
