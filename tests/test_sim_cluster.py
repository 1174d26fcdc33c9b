"""Tests for repro.sim.cluster: multi-server sweeps and aggregation."""

import pytest

from repro.core.server_manager import PowerOptimizedManager
from repro.errors import ConfigError
from repro.sim import cluster as cluster_module
from repro.sim.cluster import Cell, ClusterRunResult, ServerPlan, run_cluster
from repro.sim.colocation import SimConfig


def plans_for(catalog, pairs):
    plans = []
    for lc_name, be_name in pairs:
        lc = catalog.lc_apps[lc_name]
        model = catalog.lc_fits[lc_name].model
        plans.append(
            ServerPlan(
                lc_app=lc,
                be_app=catalog.be_apps[be_name] if be_name else None,
                provisioned_power_w=lc.peak_server_power_w(),
                manager_factory=lambda s, m=model: PowerOptimizedManager(s, model=m),
            )
        )
    return plans


class TestRunCluster:
    def test_outcome_grid_complete(self, catalog):
        plans = plans_for(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        result = run_cluster(plans, catalog.spec, levels=[0.2, 0.6],
                             duration_s=10.0, config=SimConfig(seed=0))
        assert len(result.outcomes) == 4
        assert result.servers() == ["xapian", "sphinx"]

    def test_per_server_aggregation(self, catalog):
        plans = plans_for(catalog, [("xapian", "rnn")])
        result = run_cluster(plans, catalog.spec, levels=[0.2, 0.6],
                             duration_s=10.0, config=SimConfig(seed=0))
        by_server = result.be_throughput_by_server()
        values = [o.result.avg_be_throughput_norm for o in result.outcomes]
        assert by_server["xapian"] == pytest.approx(sum(values) / 2)

    def test_utilization_bounded(self, catalog):
        plans = plans_for(catalog, [("tpcc", "pbzip")])
        result = run_cluster(plans, catalog.spec, levels=[0.5],
                             duration_s=10.0, config=SimConfig(seed=0))
        util = result.power_utilization_by_server()["tpcc"]
        assert 0.3 < util <= 1.05

    def test_mapping_reported(self, catalog):
        plans = plans_for(catalog, [("xapian", "rnn"), ("sphinx", None)])
        result = run_cluster(plans, catalog.spec, levels=[0.3],
                             duration_s=5.0, config=SimConfig(seed=0))
        mapping = result.be_names_by_server()
        assert mapping["xapian"] == "rnn"
        assert mapping["sphinx"] is None

    def test_cluster_scalars(self, catalog):
        plans = plans_for(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        result = run_cluster(plans, catalog.spec, levels=[0.3],
                             duration_s=10.0, config=SimConfig(seed=0))
        assert 0.0 < result.cluster_be_throughput() < 1.0
        assert 0.0 < result.cluster_power_utilization() <= 1.05
        assert result.total_energy_kwh() > 0.0
        assert 0.0 <= result.cluster_violation_fraction() <= 1.0

    def test_empty_result_scalars(self):
        empty = ClusterRunResult()
        assert empty.cluster_be_throughput() == 0.0
        assert empty.cluster_power_utilization() == 0.0
        assert empty.cluster_violation_fraction() == 0.0
        assert empty.servers() == []

    def test_validation(self, catalog):
        with pytest.raises(ConfigError):
            run_cluster([], catalog.spec)
        plans = plans_for(catalog, [("xapian", "rnn")])
        with pytest.raises(ConfigError):
            run_cluster(plans, catalog.spec, levels=[])
        with pytest.raises(ConfigError):
            ServerPlan(
                lc_app=catalog.lc_apps["xapian"],
                manager_factory=lambda s: None,
                provisioned_power_w=0.0,
            )

    @pytest.mark.parametrize("power_w", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_provisioned_power_rejected(self, catalog, power_w):
        """NaN used to run to a NaN power utilization, and inf to 0.0."""
        with pytest.raises(ConfigError, match="provisioned power must be positive and finite"):
            ServerPlan(
                lc_app=catalog.lc_apps["xapian"],
                manager_factory=lambda s: None,
                provisioned_power_w=power_w,
            )

    def test_fresh_state_per_cell(self, catalog):
        """Order of levels must not change per-level outcomes."""
        plans = plans_for(catalog, [("xapian", "rnn")])
        fwd = run_cluster(plans, catalog.spec, levels=[0.2, 0.8],
                          duration_s=10.0, config=SimConfig(seed=0))
        rev = run_cluster(plans, catalog.spec, levels=[0.8, 0.2],
                          duration_s=10.0, config=SimConfig(seed=0))
        fwd_by_level = {o.level: o.result.avg_be_throughput_norm for o in fwd.outcomes}
        rev_by_level = {o.level: o.result.avg_be_throughput_norm for o in rev.outcomes}
        assert fwd_by_level == rev_by_level


class TestCellValidation:
    """A malformed cell is refused when built, naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("spec", "reference-spec"),
        ("config", {"seed": 0}),
        ("faults", []),
        ("guard", {"mode": "enforce"}),
        ("schedule", (0.0, 120.0)),
        ("duration_s", 0.0),
        ("duration_s", -3.0),
        ("duration_s", "3"),
        ("level", 1.5),
        ("level", -0.1),
        ("level", float("nan")),
        ("level", "0.5"),
        ("duration_s", float("inf")),
        ("duration_s", float("nan")),
    ])
    def test_rejected_field(self, catalog, field, value):
        plan = plans_for(catalog, [("xapian", "rnn")])[0]
        fields = dict(
            plan=plan, spec=catalog.spec, level=0.5, duration_s=3.0,
            config=SimConfig(seed=0), be_app=plan.be_app,
        )
        fields[field] = value
        with pytest.raises(ConfigError, match=f"cell {field} "):
            Cell(**fields)

    @pytest.mark.parametrize("sweep", [
        dict(levels=[0.3, 1.5]),
        dict(levels=[0.3], duration_s=0.0),
    ], ids=["level", "duration_s"])
    def test_sweep_refused_before_any_cell_runs(
        self, catalog, monkeypatch, sweep
    ):
        def never(cell):
            raise AssertionError(f"{cell!r} ran")

        monkeypatch.setattr(cluster_module, "_run_cell", never)
        plans = plans_for(catalog, [("xapian", "rnn")])
        with pytest.raises(ConfigError, match="sweep "):
            run_cluster(plans, catalog.spec, config=SimConfig(seed=0), **sweep)

    def test_repr_names_the_cell(self, catalog):
        plan = plans_for(catalog, [("xapian", "rnn")])[0]
        cell = Cell(plan, catalog.spec, 0.25, 4.0, SimConfig(), plan.be_app)
        assert repr(cell) == (
            "Cell(lc='xapian', be='rnn', level=0.25, duration_s=4.0)"
        )
