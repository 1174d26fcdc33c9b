"""Tests for repro.evaluation.pipeline: the end-to-end wiring."""

import pytest

from repro.apps.catalog import NOCAP_PROVISIONED_W
from repro.core.server_manager import HeraclesLikeManager, PowerOptimizedManager
from repro.errors import ConfigError
from repro.evaluation.pipeline import (
    cluster_plans,
    fit_catalog,
    manager_factory,
    placement_for_policy,
    run_policy,
    summarize_policy,
)
from repro.sim.colocation import SimConfig, build_colocated_server


class TestFitCatalog:
    def test_covers_all_apps(self, catalog):
        assert set(catalog.lc_fits) == {"img-dnn", "sphinx", "xapian", "tpcc"}
        assert set(catalog.be_fits) == {"lstm", "rnn", "graph", "pbzip"}

    def test_reproducible_by_seed(self):
        a = fit_catalog(seed=3)
        b = fit_catalog(seed=3)
        assert a.lc_fits["xapian"].r2_perf == b.lc_fits["xapian"].r2_perf
        assert a.be_fits["graph"].model.perf.alphas == b.be_fits["graph"].model.perf.alphas

    def test_different_seeds_differ(self):
        a = fit_catalog(seed=3)
        b = fit_catalog(seed=4)
        assert a.lc_fits["xapian"].r2_perf != b.lc_fits["xapian"].r2_perf

    def test_server_sides_carry_provisioning(self, catalog):
        sides = catalog.lc_server_sides()
        by_name = {s.name: s for s in sides}
        assert by_name["sphinx"].provisioned_power_w == pytest.approx(182.0, abs=0.5)
        assert by_name["xapian"].peak_load == 4000.0

    def test_performance_matrix_shape(self, catalog):
        matrix = catalog.performance_matrix(levels=[0.3, 0.6])
        assert matrix.values.shape == (4, 4)


class TestPlacementForPolicy:
    def test_pocolo_is_deterministic(self, catalog):
        a = placement_for_policy(catalog, "pocolo")
        b = placement_for_policy(catalog, "pocolo")
        assert a.mapping == b.mapping
        assert a.method == "hungarian"

    def test_random_uses_seed(self, catalog):
        a = placement_for_policy(catalog, "random", seed=1)
        b = placement_for_policy(catalog, "random", seed=1)
        c = placement_for_policy(catalog, "random", seed=2)
        assert a.mapping == b.mapping
        assert a.mapping != c.mapping or True  # may collide; seeded path exercised

    def test_pom_uses_random_placement(self, catalog):
        a = placement_for_policy(catalog, "pom", seed=5)
        b = placement_for_policy(catalog, "random", seed=5)
        assert a.mapping == b.mapping

    def test_unknown_policy_rejected(self, catalog):
        with pytest.raises(ConfigError):
            placement_for_policy(catalog, "qos-aware")


class TestManagerFactory:
    def test_random_builds_heracles(self, catalog):
        lc = catalog.lc_apps["xapian"]
        server = build_colocated_server(catalog.spec, lc, 154.0)
        manager = manager_factory(catalog, "xapian", "random")(server)
        assert isinstance(manager, HeraclesLikeManager)
        assert not manager.power_aware

    def test_pom_and_pocolo_build_power_optimized(self, catalog):
        lc = catalog.lc_apps["xapian"]
        for policy in ("pom", "pocolo"):
            server = build_colocated_server(catalog.spec, lc, 154.0)
            manager = manager_factory(catalog, "xapian", policy)(server)
            assert isinstance(manager, PowerOptimizedManager)
            assert manager.power_aware
            assert manager.model is catalog.lc_fits["xapian"].model

    def test_unknown_policy_rejected(self, catalog):
        with pytest.raises(ConfigError):
            manager_factory(catalog, "xapian", "mystery")


class TestClusterPlans:
    def test_one_plan_per_lc_server(self, catalog):
        placement = placement_for_policy(catalog, "pocolo")
        plans = cluster_plans(catalog, placement, "pocolo")
        assert len(plans) == 4
        assert {p.lc_app.name for p in plans} == set(catalog.lc_apps)

    def test_be_apps_follow_placement(self, catalog):
        placement = placement_for_policy(catalog, "pocolo")
        plans = cluster_plans(catalog, placement, "pocolo")
        for plan in plans:
            assert plan.be_app is not None
            assert placement.mapping[plan.be_app.name] == plan.lc_app.name

    def test_right_sized_provisioning(self, catalog):
        placement = placement_for_policy(catalog, "pocolo")
        plans = cluster_plans(catalog, placement, "pocolo")
        for plan in plans:
            assert plan.provisioned_power_w == pytest.approx(
                plan.lc_app.peak_server_power_w(), abs=0.5
            )

    def test_nocap_override(self, catalog):
        placement = placement_for_policy(catalog, "random", seed=0)
        plans = cluster_plans(catalog, placement, "random",
                              provisioned_override_w=NOCAP_PROVISIONED_W)
        assert all(p.provisioned_power_w == NOCAP_PROVISIONED_W for p in plans)


class TestRunPolicyAndSummaries:
    def test_run_policy_produces_full_grid(self, catalog):
        result = run_policy(catalog, "pocolo", levels=[0.3, 0.7],
                            duration_s=8.0, sim_config=SimConfig(seed=0))
        assert len(result.outcomes) == 8  # 4 servers x 2 levels

    def test_summary_fields(self, catalog):
        result = run_policy(catalog, "pocolo", levels=[0.3, 0.7],
                            duration_s=8.0, sim_config=SimConfig(seed=0))
        summary = summarize_policy("pocolo", result, catalog)
        assert summary.throughput_per_server == pytest.approx(
            0.5 + summary.be_throughput_norm, abs=0.03
        )
        assert 100.0 < summary.provisioned_w_per_server < 200.0
        assert 0.0 < summary.power_utilization <= 1.05

    def test_nocap_summary_uses_override(self, catalog):
        result = run_policy(catalog, "random-nocap", levels=[0.5],
                            duration_s=8.0, seed=0, sim_config=SimConfig(seed=0))
        summary = summarize_policy("random-nocap", result, catalog,
                                   provisioned_override_w=NOCAP_PROVISIONED_W)
        assert summary.provisioned_w_per_server == NOCAP_PROVISIONED_W
