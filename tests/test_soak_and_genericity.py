"""Long-horizon soak and hardware-genericity tests.

The soak test (marked slow) runs a compressed multi-day workload —
weekly trace with a flash crowd — through the full POM + cap-loop stack
and checks nothing drifts: SLO held, power bounded, BE work still
flowing at the end.

The genericity tests re-run the pipeline on a *different* server SKU
(8 cores, 16 ways, slower ladder): nothing in the stack may assume the
Table I constants.
"""

import numpy as np
import pytest

from repro.apps import best_effort_apps, latency_critical_apps
from repro.core.fitting import fit_indirect_utility
from repro.core.placement import build_performance_matrix, pocolo_placement
from repro.core.placement import LcServerSide
from repro.core.profiler import (
    default_profiling_grid,
    profile_best_effort,
    profile_latency_critical,
)
from repro.core.server_manager import PowerOptimizedManager
from repro.core.utility import integer_min_power_allocation
from repro.hwmodel.spec import FrequencyLadder, ServerSpec
from repro.sim.colocation import ColocationSim, SimConfig, build_colocated_server
from repro.workloads.traces import DiurnalTrace, FlashCrowdTrace, WeeklyTrace


class CompressedTrace:
    """Any trace replayed at one simulated second per real minute."""

    def __init__(self, base, factor=60.0):
        self._base = base
        self._factor = factor

    def load_fraction(self, time_s):
        return self._base.load_fraction(time_s * self._factor)


@pytest.mark.slow
class TestSoak:
    def test_three_compressed_days_under_pom(self, catalog):
        base = FlashCrowdTrace(
            base=WeeklyTrace(base=DiurnalTrace(min_fraction=0.1, max_fraction=0.85)),
            events=((30 * 3600.0, 2 * 3600.0, 0.9),),  # a flash crowd on day 2
            decay_s=1800.0,
        )
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        server = build_colocated_server(
            catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(),
            be_app=be,
        )
        manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
        sim = ColocationSim(
            server=server, lc_app=lc, trace=CompressedTrace(base),
            manager=manager, be_app=be, config=SimConfig(seed=5),
        )
        # 3 compressed days = 72 simulated minutes.
        result = sim.run(duration_s=72 * 60.0)
        assert result.slo_violation_fraction < 0.05
        assert result.telemetry.series("power_w").percentile(99) <= (
            server.provisioned_power_w + 5.0
        )
        # BE work still flows in the final compressed day.
        tput = result.telemetry.series("be_throughput_norm")
        last_day = [v for t, v in zip(tput.times, tput.values) if t > 48 * 60.0]
        assert max(last_day) > 0.1
        # The controller did not wedge: it kept reconfiguring all along.
        assert result.manager_stats.reconfigurations > 20


SMALL_SPEC = ServerSpec(
    cores=8,
    llc_ways=16,
    llc_mb=20.0,
    ladder=FrequencyLadder(min_ghz=1.0, max_ghz=2.0),
    idle_power_w=35.0,
    nameplate_power_w=95.0,
    name="small-sku",
)


class TestHardwareGenericity:
    """The whole pipeline on a non-Table-I server."""

    @pytest.fixture(scope="class")
    def small_world(self):
        lc_apps = latency_critical_apps(SMALL_SPEC)
        be_apps = best_effort_apps(SMALL_SPEC)
        return lc_apps, be_apps

    def test_apps_calibrate_to_the_new_spec(self, small_world):
        lc_apps, be_apps = small_world
        for app in lc_apps.values():
            full = SMALL_SPEC.full_allocation()
            assert app.capacity(full) == pytest.approx(app.peak_load)
        for app in be_apps.values():
            assert app.normalized_throughput(
                SMALL_SPEC.full_allocation()
            ) == pytest.approx(1.0)

    def test_fit_and_projection_on_small_sku(self, small_world):
        lc_apps, _ = small_world
        rng = np.random.default_rng(3)
        grid = default_profiling_grid(SMALL_SPEC)
        samples = profile_latency_critical(
            lc_apps["xapian"], grid, load_fraction=0.3, rng=rng
        )
        fit = fit_indirect_utility(samples)
        assert fit.r2_perf > 0.7
        target = 0.5 * fit.model.performance(
            (float(SMALL_SPEC.cores), float(SMALL_SPEC.llc_ways))
        )
        alloc = integer_min_power_allocation(fit.model, target, SMALL_SPEC)
        assert 1 <= alloc.cores <= SMALL_SPEC.cores
        assert 1 <= alloc.ways <= SMALL_SPEC.llc_ways

    def test_placement_pipeline_on_small_sku(self, small_world):
        lc_apps, be_apps = small_world
        rng = np.random.default_rng(4)
        grid = default_profiling_grid(SMALL_SPEC)
        lc_sides = []
        for name, app in lc_apps.items():
            fit = fit_indirect_utility(
                profile_latency_critical(app, grid, load_fraction=0.3, rng=rng)
            )
            lc_sides.append(LcServerSide(
                name=name, model=fit.model,
                provisioned_power_w=app.peak_server_power_w(),
                peak_load=app.peak_load,
            ))
        be_models = {
            name: fit_indirect_utility(profile_best_effort(app, grid, rng=rng)).model
            for name, app in be_apps.items()
        }
        matrix = build_performance_matrix(lc_sides, be_models, SMALL_SPEC)
        decision = pocolo_placement(matrix)
        assert len(set(decision.mapping.values())) == 4
        # The complementarity story survives the SKU change.
        assert decision.mapping["graph"] == "sphinx"

    def test_managed_colocation_on_small_sku(self, small_world):
        lc_apps, be_apps = small_world
        rng = np.random.default_rng(5)
        grid = default_profiling_grid(SMALL_SPEC)
        lc = lc_apps["xapian"]
        fit = fit_indirect_utility(
            profile_latency_critical(lc, grid, load_fraction=0.3, rng=rng)
        )
        from repro.workloads.traces import ConstantTrace

        server = build_colocated_server(
            SMALL_SPEC, lc, provisioned_power_w=lc.peak_server_power_w(),
            be_app=be_apps["rnn"],
        )
        manager = PowerOptimizedManager(server, model=fit.model)
        sim = ColocationSim(
            server=server, lc_app=lc, trace=ConstantTrace(0.4),
            manager=manager, be_app=be_apps["rnn"], config=SimConfig(seed=0),
        )
        result = sim.run(duration_s=20.0)
        assert result.slo_violation_fraction < 0.10
        assert result.avg_be_throughput_norm > 0.05
