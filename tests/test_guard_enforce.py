"""Enforce-mode guard runs: golden scenarios and the fault matrix stay clean.

The acceptance criterion for the guard subsystem's false-positive rate:
the healthy control stack, run under ``GuardConfig(mode="enforce")``,
completes every policy sweep and every crash/fault matrix cell without
a single invariant violation — so anything enforce mode ever kills is
signal.  The flip side is pinned too: a planted contract breach fails
the cell immediately instead of producing a quietly wrong number.
"""

import pytest

from repro.errors import ExecutionError, InvariantViolationError
from repro.evaluation import placement_for_policy, policy_sweep
from repro.evaluation.pipeline import cluster_plans
from repro.faults import (
    ClusterFaultPlan,
    FaultSchedule,
    MeterStuckAt,
    ServerCrash,
)
from repro.guard import GuardConfig
from repro.sim import SimConfig, run_cluster
from repro.sim.cluster import run_sweeps
from repro.sim.colocation import ColocationSim, build_colocated_server
from repro.workloads.traces import ConstantTrace

FAST = SimConfig(seed=0, warmup_s=2.0)
ENFORCE = GuardConfig(mode="enforce")


@pytest.fixture(scope="module")
def plans(catalog):
    placement = placement_for_policy(catalog, "pocolo")
    return cluster_plans(catalog, placement, "pocolo")


def _flat(result):
    return [
        (o.lc_name, o.be_name, o.level, o.result.avg_be_throughput_norm,
         o.result.avg_power_w, o.result.energy_kwh)
        for o in result.outcomes
    ]


class TestEnforceCleanRuns:
    @pytest.mark.slow
    @pytest.mark.parametrize("policy", ["pocolo", "pom"])
    def test_policy_sweep_completes_in_enforce_mode(self, catalog, policy):
        sweep = policy_sweep(
            catalog, policy, levels=[0.3, 0.7], duration_s=6.0,
            sim_config=FAST, guard=ENFORCE,
        )
        result = run_sweeps([sweep])[0]
        reports = [o.result.guard_report for o in result.outcomes]
        assert reports and all(r is not None for r in reports)
        assert all(r.mode == "enforce" and r.clean for r in reports)
        assert all(r.checks > 0 for r in reports)

    @pytest.mark.slow
    def test_fault_matrix_completes_in_enforce_mode(self, plans, catalog):
        """Crash, recovery and a stuck meter — the guards excuse all of
        the *controller's* correct degradations."""
        crashed = plans[0].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(crashed, at_level_index=1,
                                 recover_at_level_index=2),),
            cell_faults=FaultSchedule([
                MeterStuckAt(start_s=1.0, duration_s=3.0)
            ]),
        )
        run = run_cluster(
            plans, catalog.spec, levels=[0.3, 0.5, 0.7], duration_s=6.0,
            config=FAST, fault_plan=fault_plan, guard=ENFORCE,
        )
        assert run.fault_report is not None
        assert run.fault_report.crashes_handled == 1
        reports = [o.result.guard_report for o in run.outcomes]
        assert reports and all(r is not None and r.clean for r in reports)


class TestGuardsObserveNeverSteer:
    def test_guarded_results_bit_identical_to_unguarded(self, plans, catalog):
        base = run_cluster(plans[:2], catalog.spec, levels=[0.5],
                           duration_s=6.0, config=FAST)
        guarded = run_cluster(plans[:2], catalog.spec, levels=[0.5],
                              duration_s=6.0, config=FAST,
                              guard=GuardConfig())
        assert _flat(base) == _flat(guarded)
        assert all(o.result.guard_report is None for o in base.outcomes)
        assert all(o.result.guard_report is not None
                   for o in guarded.outcomes)


class TestEnforceFailsFast:
    #: A floor no allocation can meet: the first checked tick violates.
    def _impossible(self, catalog):
        return GuardConfig(mode="enforce",
                           lc_min_cores=catalog.spec.cores + 1)

    def test_sim_raises_invariant_violation(self, catalog, plans):
        plan = plans[0]
        server = build_colocated_server(
            spec=catalog.spec, lc_app=plan.lc_app,
            provisioned_power_w=plan.provisioned_power_w,
            be_app=plan.be_app,
        )
        sim = ColocationSim(
            server=server, lc_app=plan.lc_app, trace=ConstantTrace(0.5),
            manager=plan.manager_factory(server), be_app=plan.be_app,
            config=FAST, guard=self._impossible(catalog),
        )
        with pytest.raises(InvariantViolationError, match="lc-slo-floor"):
            sim.run(4.0)

    def test_cluster_cell_failure_names_the_violation(self, plans, catalog):
        # Through the engine the cell failure is wrapped, but the
        # invariant name and the failing cell's level must survive into
        # the ExecutionError message.
        with pytest.raises(ExecutionError, match="InvariantViolationError") as info:
            run_cluster(plans[:1], catalog.spec, levels=[0.5],
                        duration_s=4.0, config=FAST,
                        guard=self._impossible(catalog))
        assert "level=0.5" in str(info.value)
