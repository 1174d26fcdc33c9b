"""Differential and drill tests for budgeted cluster runs.

The budget layer must not cost the repo its two hardest-won properties:
bit-exact batched/object equivalence and bit-identical checkpoint
resume.  Every comparison here is exact (``==`` on raw floats), reusing
:func:`tests.test_batched_differential.assert_outcome_equal`.

The headline regression is the kill-the-arbiter drill (the acceptance
criterion of the budget subsystem): with grants outstanding, the
arbiter crashes mid-run — every server must be back at its provisioned
cap within one lease period, both budget invariants must record zero
violations in enforce mode, and a checkpoint resume must reproduce the
telemetry bit for bit.
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.budget import BudgetConfig, plan_budget
from repro.evaluation.pipeline import (
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    run_policy,
)
from repro.faults.cluster import ClusterFaultPlan, ServerCrash, ServerRejoin
from repro.faults.schedule import (
    ArbiterCrash,
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    MeterDrift,
    RackBreakerTrip,
    RackPowerDerate,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import Checkpoint, run_cluster_checkpointed
from repro.sim.cluster import run_cluster
from repro.sim.colocation import SimConfig
from tests.test_batched_differential import assert_outcome_equal

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

BUDGET = BudgetConfig(arbiter_period_s=2.0, lease_s=4.0, rack_size=2)


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


@pytest.fixture(scope="module")
def fleet(catalog):
    """Four uniquely-named LC servers (budget trees need unique leaves)."""
    placement = placement_for_policy(catalog, "pocolo")
    return cluster_plans(catalog, placement, "pocolo")


@pytest.fixture(scope="module")
def infra_battery():
    """Every power-infrastructure fault kind in one schedule."""
    return FaultSchedule([
        RackPowerDerate(start_s=3.0, duration_s=6.0, factor=0.55,
                        rack="rack0"),
        RackBreakerTrip(start_s=12.0, duration_s=3.0, residual=0.3,
                        rack="rack1"),
        ArbiterCrash(start_s=7.0, duration_s=4.0),
        GrantLoss(start_s=16.0, duration_s=2.0),
        GrantDelay(start_s=1.0, duration_s=2.0, delay_s=1.5),
    ])


class TestBudgetedDifferential:
    """Budgeted sweeps: object oracle == batched core, bit for bit."""

    def test_clean_budgeted_run_bit_exact(self, catalog, fleet):
        kwargs = dict(
            levels=(0.3, 0.7), duration_s=8.0,
            config=SimConfig(warmup_s=2.0, seed=1),
            guard=GuardConfig(), budget=BUDGET,
        )
        base = run_cluster(fleet, catalog.spec, engine="object", **kwargs)
        got = run_cluster(fleet, catalog.spec, engine="batched", **kwargs)
        assert len(base.outcomes) == len(got.outcomes) == 8
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "clean-budgeted")
        # The budget plan itself is deterministic.
        assert base.budget_report == got.budget_report

    def test_full_fault_battery_bit_exact(self, catalog, fleet, infra_battery):
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(fleet[1].lc_app.name, at_level_index=1),),
            rejoins=(ServerRejoin(fleet[1].lc_app.name, at_level_index=2),),
            cell_faults=FaultSchedule([
                MeterDrift(start_s=2.0, duration_s=3.0, rate_w_per_s=3.0),
            ]),
            infra_faults=infra_battery,
        )
        kwargs = dict(
            levels=(0.2, 0.5, 0.8), duration_s=7.0,
            config=SimConfig(warmup_s=2.0, seed=5),
            fault_plan=fault_plan, guard=GuardConfig(), budget=BUDGET,
        )
        base = run_cluster(fleet, catalog.spec, engine="object", **kwargs)
        got = run_cluster(fleet, catalog.spec, engine="batched", **kwargs)
        assert len(base.outcomes) == len(got.outcomes)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "battery-budgeted")
        assert base.budget_report == got.budget_report
        assert base.fault_report is not None
        assert base.fault_report.rejoins_handled == 1

    def test_effective_cap_series_present_and_bounded(self, catalog, fleet):
        result = run_cluster(
            fleet, catalog.spec, levels=(0.5,), duration_s=6.0,
            config=SimConfig(warmup_s=1.0, seed=0), budget=BUDGET,
        )
        for outcome in result.outcomes:
            series = outcome.result.telemetry._series
            assert "effective_cap_w" in series
            assert all(v > 0.0 for v in series["effective_cap_w"].values)

    def test_run_policy_budgeted_engines_agree(self, catalog):
        kwargs = dict(levels=(0.4, 0.8), duration_s=6.0,
                      sim_config=SimConfig(seed=3), budget=BUDGET)
        base = run_policy(catalog, "pocolo", engine="object", **kwargs)
        got = run_policy(catalog, "pocolo", engine="batched", **kwargs)
        assert base.budget_report is not None
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "policy-budgeted")


class TestBudgetedCheckpointResume:
    """Budgeted checkpoints resume bit-identically, either engine."""

    def test_partial_resume_cross_engine(
        self, catalog, fleet, infra_battery, tmp_path
    ):
        fault_plan = ClusterFaultPlan(infra_faults=infra_battery)
        kwargs = dict(
            levels=(0.3, 0.7), duration_s=8.0,
            config=SimConfig(warmup_s=2.0, seed=3),
            fault_plan=fault_plan, guard=GuardConfig(), budget=BUDGET,
        )
        clean = run_cluster_checkpointed(
            fleet, catalog.spec, tmp_path / "clean.ckpt", engine="object",
            **kwargs
        )
        path = tmp_path / "clean.ckpt"
        checkpoint = Checkpoint.load(path)
        completed = checkpoint.payload["completed"]
        survivors = {i: completed[i] for i in sorted(completed)[:3]}
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={**checkpoint.payload, "completed": survivors},
        ).save(path)
        resumed = run_cluster_checkpointed(
            fleet, catalog.spec, path, resume=True, engine="batched",
            **kwargs,
        )
        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "budgeted-resume")

    def test_budget_config_changes_run_key(self, catalog, fleet, tmp_path):
        from repro.errors import CheckpointError

        kwargs = dict(
            levels=(0.5,), duration_s=4.0, config=SimConfig(seed=0),
        )
        run_cluster_checkpointed(
            fleet, catalog.spec, tmp_path / "a.ckpt", budget=BUDGET, **kwargs
        )
        with pytest.raises(CheckpointError):
            run_cluster_checkpointed(
                fleet, catalog.spec, tmp_path / "a.ckpt", resume=True,
                budget=BudgetConfig(arbiter_period_s=2.0, lease_s=6.0),
                **kwargs,
            )


#: The drill geometry: 2 levels x 10 s, arbiter killed at 7 s with
#: leases outstanding, never recovering.  Shared by the in-process
#: assertions and the SIGKILL child below.
DRILL_LEVELS = (0.4, 0.8)
DRILL_DURATION_S = 10.0
DRILL_CRASH_S = 7.0
DRILL_PLAN = ClusterFaultPlan(infra_faults=FaultSchedule([
    ArbiterCrash(start_s=DRILL_CRASH_S, duration_s=1e9),
]))


class TestKillTheArbiterDrill:
    """Arbiter dies with grants outstanding; the lease protocol holds."""

    @pytest.fixture(scope="class")
    def drill(self, catalog, fleet):
        guard = GuardConfig(mode="enforce")
        result = run_cluster(
            fleet, catalog.spec, levels=DRILL_LEVELS,
            duration_s=DRILL_DURATION_S,
            config=SimConfig(warmup_s=2.0, seed=2),
            fault_plan=DRILL_PLAN, guard=guard, budget=BUDGET,
            engine="object",
        )
        plan = plan_budget(
            fleet, catalog.spec, DRILL_LEVELS, DRILL_DURATION_S, BUDGET,
            fault_plan=DRILL_PLAN, guard=guard,
        )
        return result, plan

    def test_grants_were_outstanding_at_the_crash(self, drill):
        _, plan = drill
        assert plan.report.stats.grants_issued > 0
        assert plan.report.stats.skipped_ticks > 0
        assert plan.report.stats.grants_expired > 0

    def test_every_server_reverts_within_one_lease(self, fleet, drill):
        _, plan = drill
        floors = {p.lc_app.name: float(p.provisioned_power_w) for p in fleet}
        # The last grants leave at the final pre-crash tick; one lease
        # later every cap must sit at the provisioned fail-safe floor.
        last_tick_s = max(
            t for t in (
                i * BUDGET.arbiter_period_s for i in range(1000)
            ) if t < DRILL_CRASH_S
        )
        settle_s = last_tick_s + BUDGET.lease_s
        assert settle_s <= DRILL_CRASH_S + BUDGET.lease_s
        total_s = len(DRILL_LEVELS) * DRILL_DURATION_S
        for level_index in range(len(DRILL_LEVELS)):
            start_s = level_index * DRILL_DURATION_S
            for plan_ in fleet:
                name = plan_.lc_app.name
                sched = plan.schedule_for(name, level_index)
                assert sched is not None
                probe = max(settle_s, start_s) + 1e-3
                while probe < start_s + DRILL_DURATION_S:
                    assert sched.cap_at(probe - start_s) == floors[name], (
                        f"{name} level {level_index} still off-floor at "
                        f"{probe}s"
                    )
                    probe += BUDGET.arbiter_period_s
        assert total_s > settle_s  # the drill actually exercises the revert

    def test_zero_budget_violations_in_enforce_mode(self, drill):
        result, plan = drill
        # run_cluster completed (enforce mode raises on violation) and
        # both budget invariants stayed clean.
        audit = result.budget_report.guard_report
        assert audit is not None
        assert audit.mode == "enforce"
        assert audit.checks > 0
        assert audit.total_violations == 0
        assert plan.report.guard_report.total_violations == 0

    def test_resume_telemetry_bit_identical(
        self, catalog, fleet, drill, tmp_path
    ):
        result, _ = drill
        kwargs = dict(
            levels=DRILL_LEVELS, duration_s=DRILL_DURATION_S,
            config=SimConfig(warmup_s=2.0, seed=2),
            fault_plan=DRILL_PLAN, guard=GuardConfig(mode="enforce"),
            budget=BUDGET,
        )
        path = tmp_path / "drill.ckpt"
        first = run_cluster_checkpointed(fleet, catalog.spec, path, **kwargs)
        checkpoint = Checkpoint.load(path)
        completed = checkpoint.payload["completed"]
        survivors = {i: completed[i] for i in sorted(completed)[:2]}
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={**checkpoint.payload, "completed": survivors},
        ).save(path)
        resumed = run_cluster_checkpointed(
            fleet, catalog.spec, path, resume=True, engine="batched",
            **kwargs,
        )
        for a, b in zip(result.outcomes, first.outcomes):
            assert_outcome_equal(a, b, "drill-checkpointed")
        for a, b in zip(result.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "drill-resumed")


_DRILL_SNIPPET = """\
from repro.budget import BudgetConfig
from repro.evaluation.pipeline import (
    cluster_plans, fit_catalog, placement_for_policy,
)
from repro.faults.cluster import ClusterFaultPlan
from repro.faults.schedule import ArbiterCrash, FaultSchedule
from repro.guard.invariants import GuardConfig
from repro.sim.colocation import SimConfig


def build_drill():
    catalog = fit_catalog(seed=7)
    placement = placement_for_policy(catalog, "pocolo")
    fleet = cluster_plans(catalog, placement, "pocolo")
    kwargs = dict(
        levels=(0.4, 0.8), duration_s=60.0,
        config=SimConfig(warmup_s=2.0, seed=2),
        fault_plan=ClusterFaultPlan(infra_faults=FaultSchedule([
            ArbiterCrash(start_s=30.0, duration_s=1e9),
        ])),
        guard=GuardConfig(mode="enforce"),
        budget=BudgetConfig(arbiter_period_s=2.0, lease_s=4.0, rack_size=2),
    )
    return fleet, catalog.spec, kwargs
"""

_DRILL_CHILD = _DRILL_SNIPPET + """

if __name__ == "__main__":
    import sys

    from repro.runtime import run_cluster_checkpointed

    fleet, spec, kwargs = build_drill()
    # The oracle lands cells one at a time, so the kill lands mid-sweep.
    run_cluster_checkpointed(
        fleet, spec, sys.argv[1], resume=True, checkpoint_every=1,
        engine="object", **kwargs
    )
"""


class TestDrillSigkillResume:
    """The full drill: SIGKILL the budgeted sweep, resume, compare."""

    def test_sigkill_then_resume(self, tmp_path):
        script = tmp_path / "drill_child.py"
        script.write_text(_DRILL_CHILD)
        ckpt = tmp_path / "drill.ckpt"
        child = subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120.0
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if ckpt.exists():
                    extra = Checkpoint.load(ckpt).extra
                    if extra.get("cells_done", 0) >= 1:
                        progressed = True
                        break
                time.sleep(0.02)
            assert progressed, (
                "child finished or stalled before the kill: "
                f"{child.stderr.read().decode(errors='replace')}"
            )
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        namespace = {}
        exec(_DRILL_SNIPPET, namespace)
        fleet, spec, kwargs = namespace["build_drill"]()
        resumed = run_cluster_checkpointed(
            fleet, spec, ckpt, resume=True, **kwargs
        )
        clean = run_cluster(fleet, spec, engine="object", **kwargs)
        assert len(resumed.outcomes) == len(clean.outcomes) == 8
        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "drill-sigkill-resume")
        assert resumed.budget_report.guard_report.total_violations == 0
