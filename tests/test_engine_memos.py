"""The engines' value-keyed memos: exact, shared by value, cleared as one.

Every memo the engines fill on a cold start is keyed by the values its
result depends on, never by an application's name, so a fleet of
renamed replicas builds each table once.  ``clear_engine_caches``
empties them all, which is what makes a benchmark's cold set-up cold.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import utility
from repro.engine import batched, clear_engine_caches, vectorized
from repro.evaluation.pipeline import (
    FittedCatalog,
    cluster_plans,
    placement_for_policy,
)
from repro.hwmodel.spec import Allocation
from repro.sim.cluster import Cell, run_cluster
from repro.sim.colocation import SimConfig
from repro.workloads.traces import UNIFORM_EVAL_LEVELS


def _memo_sizes():
    return {
        "surface tables": len(batched._SURFACE_TABLES),
        "solver memo": len(batched._SOLVER_MEMO),
        "ladder maps": len(batched._LADDER_MAPS),
        "series layouts": batched._series_layout.cache_info().currsize,
        "spare capacity": len(vectorized._SPARE_CAPACITY),
        "model grids": len(utility._MODEL_GRIDS),
    }


def _renamed(catalog: FittedCatalog, copies: int) -> FittedCatalog:
    """The catalog ``copies`` times over, each app renamed through its
    profile and sharing its fit (perfbench's ``fleet_run`` fleet)."""
    def renamed(app, name):
        return replace(app, profile=replace(app.profile, name=name))

    lc_apps, be_apps, lc_fits, be_fits = {}, {}, {}, {}
    for k in range(copies):
        for name, app in catalog.lc_apps.items():
            lc_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            lc_fits[f"{name}-{k:02d}"] = catalog.lc_fits[name]
        for name, app in catalog.be_apps.items():
            be_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            be_fits[f"{name}-{k:02d}"] = catalog.be_fits[name]
    return FittedCatalog(spec=catalog.spec, lc_apps=lc_apps, be_apps=be_apps,
                         lc_fits=lc_fits, be_fits=be_fits)


def _sweep(catalog: FittedCatalog):
    placement = placement_for_policy(catalog, "pocolo")
    plans = cluster_plans(catalog, placement, "pocolo")
    return run_cluster(
        plans, catalog.spec, levels=(0.5,), duration_s=2.0,
        config=SimConfig(warmup_s=1.0, seed=0), engine="batched",
    )


@pytest.fixture
def cold():
    clear_engine_caches()
    yield
    clear_engine_caches()


class TestClearEngineCaches:
    def test_every_memo_is_emptied(self, catalog, cold):
        # Building the cells fills the series layouts, which a sweep
        # reads only when a cell is indexed.
        list(_sweep(catalog).outcomes)
        filled = _memo_sizes()
        assert all(filled.values()), f"a memo stayed empty: {filled}"
        clear_engine_caches()
        assert not any(_memo_sizes().values()), _memo_sizes()


class TestRenamedFleet:
    def test_each_distinct_table_and_solve_is_built_once(self, catalog, cold):
        fleet = _renamed(catalog, 12)
        assert len(fleet.lc_apps) == len(fleet.be_apps) == 48
        placement_for_policy(fleet, "pocolo")
        # 4 distinct LC servers x 9 levels, not 48 x 9.
        assert len(vectorized._SPARE_CAPACITY) == 4 * len(UNIFORM_EVAL_LEVELS) == 36
        result = _sweep(fleet)
        assert len(result.outcomes) == 48
        # 4 LC and 4 BE surface pairs, not one per renamed app.
        assert len(batched._SURFACE_TABLES) == 8
        # One grid per fitted model, one solver memo per POM model.
        assert len(utility._MODEL_GRIDS) == 8
        assert len(batched._SOLVER_MEMO) == 4

    def test_lanes_index_one_stacked_table_per_surface_pair(self, catalog):
        fleet = _renamed(catalog, 3)
        plans = cluster_plans(fleet, placement_for_policy(fleet, "pocolo"), "pocolo")
        cells = [
            Cell(plan=p, spec=fleet.spec, level=0.5, duration_s=2.0,
                 config=SimConfig(seed=0), be_app=p.be_app)
            for p in plans
        ]
        _groups, fallback, infos = batched._partition(cells, {})
        assert not fallback
        sim = batched.BatchedClusterSim(cells, infos)
        assert sim.lc_norm.shape[0] == sim.be_norm.shape[0] == 4
        for i, plan in enumerate(plans):
            lc = batched._surface_tables(plan.lc_app.profile, fleet.spec)
            be = batched._surface_tables(plan.be_app.profile, fleet.spec)
            assert sim.lc_norm[sim.lc_tbl[i]] is not lc[0]  # a stacked copy
            assert np.array_equal(sim.lc_norm[sim.lc_tbl[i]], lc[0])
            assert np.array_equal(sim.lc_act[sim.lc_tbl[i]], lc[1])
            assert np.array_equal(sim.be_norm[sim.be_tbl[i]], be[0])
            assert np.array_equal(sim.be_act[sim.be_tbl[i]], be[1])


class TestSurfaceTables:
    def test_every_entry_is_the_scalar_value(self, catalog, cold):
        spec = catalog.spec
        freqs = batched._ladder_maps(spec)["vals"]
        apps = list(catalog.lc_apps.values()) + list(catalog.be_apps.values())
        assert len(apps) == 8
        for app in apps:
            profile = app.profile
            norm, act = batched._surface_tables(profile, spec)
            assert norm.shape == act.shape == (
                spec.cores + 1, spec.llc_ways + 1, len(freqs)
            )
            assert not norm[0].any() and not norm[:, 0].any()
            assert not act[0].any() and not act[:, 0].any()
            for c in range(1, spec.cores + 1):
                for w in range(1, spec.llc_ways + 1):
                    for k, freq in enumerate(freqs):
                        alloc = Allocation(cores=c, ways=w, freq_ghz=freq)
                        assert norm[c, w, k] == profile.normalized_throughput(alloc)
                        assert act[c, w, k] == profile.active_power_w(alloc)
