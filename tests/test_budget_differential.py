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

import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import STAGE_NOMINAL, STAGE_SHED, BudgetConfig, plan_budget
from repro.budget.brownout import HOLD_TICKS
from repro.errors import InvariantViolationError
from repro.evaluation.pipeline import (
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    policy_sweep,
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
from repro.runtime import read_journal, run_cluster_checkpointed
from repro.sim.cluster import Sweep, run_cluster, run_sweeps
from repro.sim.colocation import SimConfig
from tests.budget_oracle import plan_budget_per_tick
from tests.test_batched_differential import assert_outcome_equal
from tests.test_runtime_checkpoint import keep_cells

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
        sweep = policy_sweep(catalog, "pocolo", **kwargs)
        base = run_sweeps([sweep], engine="object")[0]
        got = run_sweeps([sweep], engine="batched")[0]
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
        keep_cells(path, sorted(read_journal(path).cells)[:3])
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


class TestReplanIsDeterministic:
    """A resume re-plans the budget; the re-plan must be the same plan.

    This is why the arbiter keeps no state across a restart: the plan
    is a pure function of the plans, levels, config, guard and faults.
    """

    def test_replan_equals_first_plan(self, catalog, fleet, infra_battery):
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(fleet[1].lc_app.name, at_level_index=1),),
            rejoins=(ServerRejoin(fleet[1].lc_app.name, at_level_index=2),),
            infra_faults=infra_battery,
        )
        def sweep():
            return Sweep(
                fleet, catalog.spec, (0.2, 0.5, 0.8), 7.0,
                fault_plan=fault_plan, guard=GuardConfig(), budget=BUDGET,
            )

        first = plan_budget(sweep())
        again = plan_budget(sweep())
        stats = first.report.stats
        assert stats.skipped_ticks > 0
        assert stats.grants_lost > 0
        assert stats.grants_delayed > 0
        assert first.report.max_stage() > 0
        assert again.schedules == first.schedules
        assert again.evicted == first.evicted
        assert again.level_scale == first.level_scale
        assert again.report.stats == stats
        assert again.report.stage_history == first.report.stage_history
        assert again.report.guard_report is not None
        assert again.report.guard_report == first.report.guard_report

    def test_plan_pickles_to_the_same_bytes_under_any_hash_seed(self):
        """Schedules, evictions and sheds are filled in plan order, so
        the pickled plan does not depend on string hashing."""
        # Brownout ratios above any capacity/demand ratio drive every
        # rack to the deepest stage: all three containers are filled.
        script = (
            "import pickle, sys\n"
            "from repro.budget import BudgetConfig, plan_budget\n"
            "from repro.evaluation.pipeline import fit_catalog, policy_sweep\n"
            "budget = BudgetConfig(arbiter_period_s=2.0, lease_s=4.0,\n"
            "    brownout_throttle_ratio=3.0, brownout_evict_ratio=3.0,\n"
            "    brownout_shed_ratio=3.0)\n"
            "sweep = policy_sweep(fit_catalog(seed=7), 'pocolo',\n"
            "    levels=(0.2, 0.5, 0.8), duration_s=6.0, budget=budget)\n"
            "plan = plan_budget(sweep)\n"
            "assert plan.evicted and plan.level_scale, 'ladder never bit'\n"
            "sys.stdout.buffer.write(pickle.dumps(plan))\n"
        )
        dumps = []
        for hash_seed in ("0", "1"):
            child = subprocess.run(
                [sys.executable, "-c", script],
                env={
                    "PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin",
                    "PYTHONHASHSEED": hash_seed,
                },
                capture_output=True, timeout=300,
            )
            assert child.returncode == 0, child.stderr.decode(errors="replace")
            dumps.append(child.stdout)
        assert dumps[0] == dumps[1]


class _App:
    """Duck-typed app: what the budget planner reads of one."""

    def __init__(self, name, peak_w, full_w=0.0, throughput=0.0):
        self.name = name
        self.peak_w = peak_w
        self.full_w = full_w
        self.peak_throughput = throughput

    def peak_server_power_w(self):
        return self.peak_w

    def uncapped_full_power_w(self):
        return self.full_w


class _Plan:
    """Duck-typed server plan: a named LC app, a floor, maybe a BE app."""

    def __init__(self, name, floor_w, lc_peak_w, be=None):
        self.lc_app = _App(name, lc_peak_w)
        self.provisioned_power_w = floor_w
        self.be_app = None if be is None else _App(f"{name}-be", 0.0, *be)


class _Spec:
    idle_power_w = 50.0


def _planned(sweep, planner):
    """The plan, or the enforce-mode violation message it raised."""
    try:
        return planner(sweep)
    except InvariantViolationError as exc:
        return str(exc)


def assert_plans_equal(sweep):
    """The event walk's plan is the per-tick oracle's, field for field
    and in pickle bytes (or both raise the same enforce-mode error)."""
    got = _planned(sweep, plan_budget)
    want = _planned(sweep, plan_budget_per_tick)
    if isinstance(want, str):
        assert got == want
        return
    assert got.schedules == want.schedules
    assert got.evicted == want.evicted
    assert got.level_scale == want.level_scale
    assert got.report.stats == want.report.stats
    assert got.report.guard_report == want.report.guard_report
    assert got.report.stage_history == want.report.stage_history
    assert pickle.dumps(got) == pickle.dumps(want)


@st.composite
def _budgeted_sweeps(draw):
    """A small fleet under a drawn budget config, infra faults and
    crash/rejoin plan.  Periods, leases and delays include the float
    edges: a lease of exactly one period, delays longer than a period,
    equal to the lease and past the horizon."""
    n_servers = draw(st.integers(1, 7))
    plans = [
        _Plan(
            f"s{i}",
            draw(st.floats(60.0, 250.0)),
            draw(st.floats(60.0, 260.0)),
            draw(st.one_of(st.none(), st.tuples(
                st.floats(10.0, 200.0), st.floats(0.5, 3.0),
            ))),
        )
        for i in range(n_servers)
    ]
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    duration_s = draw(st.sampled_from([0.3, 1.0, 2.5, 4.0, 7.0]))
    period_s = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 2.0]))
    lease_s = period_s * draw(st.sampled_from([1.0, 1.0000001, 1.5, 2.0, 2.7, 4.5]))
    ratios = sorted(
        draw(st.lists(
            st.sampled_from([3.0, 1.2, 1.0, 0.95, 0.85, 0.7, 0.5]),
            min_size=3, max_size=3,
        )),
        reverse=True,
    )
    budget = BudgetConfig(
        arbiter_period_s=period_s,
        lease_s=lease_s,
        rack_size=draw(st.integers(1, 4)),
        rack_slack=draw(st.sampled_from([0.0, 0.1, 0.3])),
        oversubscription=draw(st.sampled_from([0.0, 0.1])),
        fairness=draw(st.sampled_from(["max-min", "throughput"])),
        brownout_throttle_ratio=ratios[0],
        brownout_evict_ratio=ratios[1],
        brownout_shed_ratio=ratios[2],
    )
    total_s = len(levels) * duration_s
    n_racks = -(-n_servers // budget.rack_size)
    names = [plan.lc_app.name for plan in plans]
    faults = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(
            [RackPowerDerate, RackBreakerTrip, ArbiterCrash, GrantLoss, GrantDelay]
        ))
        window = dict(
            start_s=draw(st.floats(0.0, total_s)),
            duration_s=draw(st.one_of(st.none(), st.floats(0.2, total_s))),
        )
        rack = f"rack{draw(st.integers(0, n_racks - 1))}"
        targets = tuple(draw(st.lists(st.sampled_from(names), max_size=2, unique=True)))
        if kind is RackPowerDerate:
            faults.append(kind(rack=rack, factor=draw(st.floats(0.05, 0.95)), **window))
        elif kind is RackBreakerTrip:
            faults.append(kind(rack=rack, residual=draw(st.floats(0.0, 0.6)), **window))
        elif kind is ArbiterCrash:
            faults.append(kind(**window))
        elif kind is GrantLoss:
            faults.append(kind(lc_names=targets, **window))
        else:
            delay_s = draw(st.sampled_from([
                0.5 * period_s, 1.5 * period_s, 2.5 * period_s,
                lease_s - period_s, lease_s, 3.0 * lease_s, total_s,
            ]))
            if delay_s > 0.0:
                faults.append(kind(delay_s=delay_s, lc_names=targets, **window))
    crashes, rejoins = (), ()
    if len(levels) > 1 and draw(st.booleans()):
        victim = draw(st.sampled_from(names))
        at = draw(st.integers(1, len(levels) - 1))
        crashes = (ServerCrash(victim, at_level_index=at),)
        if at + 1 < len(levels) and draw(st.booleans()):
            rejoins = (ServerRejoin(victim, at_level_index=at + 1),)
    fault_plan = None
    if faults or crashes:
        fault_plan = ClusterFaultPlan(
            crashes=crashes, rejoins=rejoins,
            infra_faults=FaultSchedule(faults) if faults else None,
        )
    guard = draw(st.sampled_from([
        None, GuardConfig(mode="record"), GuardConfig(max_violations=2),
        GuardConfig(mode="enforce"),
    ]))
    return Sweep(plans, _Spec(), levels, duration_s, fault_plan=fault_plan,
                 guard=guard, budget=budget)


class TestEventWalkEqualsPerTickWalk:
    """``plan_budget`` walks event to event; the per-tick walk it
    replaced (``tests/budget_oracle.py``) is its differential oracle."""

    @given(sweep=_budgeted_sweeps())
    @settings(max_examples=250, deadline=None)
    def test_plans_equal_under_drawn_configs_and_faults(self, sweep):
        assert_plans_equal(sweep)

    @staticmethod
    def _sweep(budget, faults, levels=(0.5, 0.5), duration_s=10.0,
               guard=GuardConfig()):
        plans = [_Plan(f"s{i}", 150.0, 140.0, (60.0, 1.0)) for i in range(4)]
        return Sweep(
            plans, _Spec(), levels, duration_s,
            fault_plan=ClusterFaultPlan(infra_faults=FaultSchedule(faults)),
            guard=guard, budget=budget,
        )

    def test_ladder_walks_down_stage_by_stage(self):
        """A derate drops rack0 to the shed stage; when it lifts, the
        recovered ratio holds still and the ladder steps down one stage
        per ``HOLD_TICKS`` periods."""
        budget = BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=2)
        sweep = self._sweep(budget, [
            RackPowerDerate(start_s=2.0, duration_s=4.0, rack="rack0", factor=0.5),
        ])
        assert_plans_equal(sweep)
        stages = [stage for _, stage in plan_budget(sweep).report.stage_history["rack0"]]
        assert stages[:2] == [STAGE_NOMINAL] * 2
        assert stages[2:6] == [STAGE_SHED] * 4
        walk_down = list(range(STAGE_SHED - 1, STAGE_NOMINAL - 1, -1))
        expected = [STAGE_SHED] * (HOLD_TICKS - 1) + [
            stage for stage in walk_down for _ in range(HOLD_TICKS)
        ]
        assert stages[6:6 + len(expected)] == expected
        assert set(stages[6 + len(expected):]) == {STAGE_NOMINAL}

    def test_delayed_grant_lands_after_a_fresher_one(self):
        """Grants issued at 2 s and 3 s arrive 1.5 s late; the on-time
        grant of the next level (4 s) takes effect first and the stale
        one overrides it from 4.5 s until its lease ends at 5 s."""
        budget = BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=4)
        sweep = Sweep(
            [_Plan(f"s{i}", 150.0, 140.0, (60.0, 1.0)) for i in range(2)],
            _Spec(), (0.2, 0.9), 4.0,
            fault_plan=ClusterFaultPlan(infra_faults=FaultSchedule([
                GrantDelay(start_s=2.0, duration_s=2.0, delay_s=1.5),
            ])),
            guard=GuardConfig(), budget=budget,
        )
        assert_plans_equal(sweep)
        schedule = plan_budget(sweep).schedule_for("s0", 1)
        assert schedule.times_s == (0.0, 0.5, 1.0)
        fresh, stale, _ = schedule.caps_w
        assert stale != fresh
        assert schedule.caps_w[2] == fresh

    def test_leases_run_out_during_an_arbiter_crash(self):
        """The arbiter is down from 5 s to 12 s: the grants of 4 s run
        out at 6 s and every server sits at its floor until the arbiter
        is back."""
        budget = BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=2)
        sweep = self._sweep(budget, [ArbiterCrash(start_s=5.0, duration_s=7.0)])
        assert_plans_equal(sweep)
        plan = plan_budget(sweep)
        assert plan.report.stats.skipped_ticks == 7
        assert plan.report.stats.grants_expired == 4
        schedule = plan.schedule_for("s0", 0)
        assert schedule.cap_at(5.5) != 150.0
        assert schedule.cap_at(6.0) == 150.0
        assert plan.schedule_for("s0", 1).cap_at(1.9) == 150.0
        assert plan.schedule_for("s0", 1).cap_at(2.0) != 150.0


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
        plan = plan_budget(Sweep(
            fleet, catalog.spec, DRILL_LEVELS, DRILL_DURATION_S,
            fault_plan=DRILL_PLAN, guard=guard, budget=BUDGET,
        ))
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
        keep_cells(path, sorted(read_journal(path).cells)[:2])
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
        with subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        ) as child:
            try:
                deadline = time.monotonic() + 120.0
                progressed = False
                while time.monotonic() < deadline:
                    if child.poll() is not None:
                        break
                    if ckpt.exists() and read_journal(ckpt).cells_done >= 1:
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
