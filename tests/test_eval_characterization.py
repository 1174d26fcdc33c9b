"""Tests for repro.evaluation.characterization: Figs 5, 6, 8, 9-11."""


import pytest

from repro.evaluation.characterization import (
    fig5_indifference,
    fig6_edgeworth,
    fig8_goodness_of_fit,
    fig9_10_11_preferences,
)


class TestFig5:
    def test_curves_for_each_level(self, catalog):
        fig = fig5_indifference(catalog)
        assert fig.app_name == "sphinx"
        assert fig.levels == (0.2, 0.4, 0.6, 0.8)
        assert set(fig.curves) == set(fig.levels)

    def test_curve_points_share_performance(self, catalog):
        fig = fig5_indifference(catalog)
        model = catalog.lc_fits["sphinx"].model
        app = catalog.lc_apps["sphinx"]
        for level, curve in fig.curves.items():
            target = level * app.peak_load
            for cores, ways in curve:
                assert model.performance((cores, ways)) == pytest.approx(target)

    def test_expansion_point_is_cheapest_on_curve(self, catalog):
        fig = fig5_indifference(catalog)
        model = catalog.lc_fits["sphinx"].model
        for level, (exp_c, exp_w) in zip(fig.levels, fig.expansion):
            exp_power = model.power_w((exp_c, exp_w))
            for cores, ways in fig.curves[level]:
                assert model.power_w((cores, ways)) >= exp_power - 1e-6


class TestFig6:
    def test_points_are_complements(self, catalog):
        points = fig6_edgeworth(catalog)
        spec = catalog.spec
        for p in points:
            assert p.primary[0] + p.spare[0] <= spec.cores + 1e-9 or p.spare[0] == 0.0
            if p.spare[0] > 0:
                assert p.primary[0] + p.spare[0] == pytest.approx(spec.cores)

    def test_spare_shrinks_with_load(self, catalog):
        points = fig6_edgeworth(catalog)
        spare_totals = [p.spare[0] + p.spare[1] for p in points]
        assert spare_totals == sorted(spare_totals, reverse=True)


class TestFig8:
    def test_all_eight_apps_reported(self, catalog):
        rows = fig8_goodness_of_fit(catalog)
        assert len(rows) == 8
        assert sum(1 for r in rows if r.kind == "lc") == 4
        assert sum(1 for r in rows if r.kind == "be") == 4

    def test_r2_in_paper_band(self, catalog):
        """Fig 8: perf R² 0.8-0.95, power R² 0.8-0.98 (we allow a margin)."""
        for row in fig8_goodness_of_fit(catalog):
            assert 0.70 <= row.r2_perf <= 1.0
            assert 0.80 <= row.r2_power <= 1.0

    def test_sample_counts_positive(self, catalog):
        assert all(r.n_samples >= 10 for r in fig8_goodness_of_fit(catalog))


class TestFig9To11:
    def test_shares_sum_to_one(self, catalog):
        for row in fig9_10_11_preferences(catalog):
            assert row.direct_cores + row.direct_ways == pytest.approx(1.0)
            assert row.power_cores + row.power_ways == pytest.approx(1.0)
            assert row.indirect_cores + row.indirect_ways == pytest.approx(1.0)

    def test_sphinx_pivot(self, catalog):
        """Fig 9 vs Fig 11: sphinx flips from cores to ways under power."""
        rows = {r.app_name: r for r in fig9_10_11_preferences(catalog)}
        sphinx = rows["sphinx"]
        assert sphinx.direct_cores > 0.5
        assert sphinx.indirect_cores < 0.3

    def test_quoted_preference_values(self, catalog):
        """Section V-C quotes: sphinx indirect ~0.2:0.8, graph ~0.8:0.2."""
        rows = {r.app_name: r for r in fig9_10_11_preferences(catalog)}
        assert rows["sphinx"].indirect_cores == pytest.approx(0.2, abs=0.06)
        assert rows["graph"].indirect_cores == pytest.approx(0.8, abs=0.06)
        assert rows["lstm"].indirect_cores == pytest.approx(0.13, abs=0.06)

    def test_indirect_consistency(self, catalog):
        """indirect share must equal (direct/power) renormalized."""
        for row in fig9_10_11_preferences(catalog):
            raw_c = row.direct_cores / row.power_cores
            raw_w = row.direct_ways / row.power_ways
            assert row.indirect_cores == pytest.approx(raw_c / (raw_c + raw_w))
