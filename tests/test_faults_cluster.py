"""Cluster crash/recovery handling and displaced-BE re-placement.

The ISSUE acceptance criterion lives here: a cluster run with one server
crash completes without raising, re-places the displaced best-effort app
onto a survivor, and retains nonzero BE throughput.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import BudgetConfig
from repro.errors import ConfigError
from repro.faults import (
    ClusterFaultPlan,
    ClusterFaultReport,
    FaultSchedule,
    MeterStuckAt,
    Replacement,
    ServerCrash,
    ServerRejoin,
)
from repro.sim import SimConfig, run_cluster
from repro.sim.cluster import Sweep, plan_cluster_tasks

FAST = SimConfig(seed=0, warmup_s=2.0)


@pytest.fixture(scope="module")
def plans(catalog):
    from repro.evaluation import cluster_plans, placement_for_policy

    placement = placement_for_policy(catalog, "pocolo")
    return cluster_plans(catalog, placement, "pocolo")


class TestFaultPlanTypes:
    def test_crash_validation(self):
        with pytest.raises(ConfigError):
            ServerCrash("xapian", at_level_index=-1)
        with pytest.raises(ConfigError):
            ServerCrash("xapian", at_level_index=2, recover_at_level_index=2)
        with pytest.raises(ConfigError):
            ServerCrash("xapian", at_level_index=2, recover_at_level_index=1)

    def test_one_crash_per_server(self):
        with pytest.raises(ConfigError):
            ClusterFaultPlan(crashes=(
                ServerCrash("xapian", at_level_index=1),
                ServerCrash("xapian", at_level_index=2),
            ))

    def test_event_queries(self):
        plan = ClusterFaultPlan(crashes=(
            ServerCrash("xapian", at_level_index=1, recover_at_level_index=3),
            ServerCrash("tpcc", at_level_index=2),
        ))
        assert [c.lc_name for c in plan.crashes_at(1)] == ["xapian"]
        assert plan.crashes_at(0) == ()
        assert [c.lc_name for c in plan.recoveries_at(3)] == ["xapian"]
        assert plan.recoveries_at(2) == ()

    def test_report_placement_counters(self):
        report = ClusterFaultReport(replacements=[
            Replacement("rnn", "xapian", "tpcc", 1),
            Replacement("graph", "sphinx", None, 1),
        ])
        assert report.displaced_placed == 1
        assert report.displaced_parked == 1


class TestClusterCrash:
    def test_crash_run_completes_and_replaces(self, plans, catalog):
        """The acceptance criterion: crash -> re-place -> keep earning."""
        crashed = plans[0].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(crashed, at_level_index=1),)
        )
        levels = [0.3, 0.6]
        run = run_cluster(plans, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report is not None
        assert report.crashes_handled == 1
        # The displaced BE found a surviving host.
        assert len(report.replacements) == 1
        repl = report.replacements[0]
        assert repl.from_lc == crashed
        survivors = {p.lc_app.name for p in plans} - {crashed}
        assert repl.to_lc in survivors
        assert report.displaced_placed == 1
        # The crashed server's remaining cells are degraded, and the
        # cluster still earns BE throughput on the survivors.
        assert report.degraded_cells == 1  # one remaining level
        assert run.cluster_be_throughput() > 0.0
        # The crashed server ran level 0 but not level 1.
        cells = [(o.lc_name, o.level) for o in run.outcomes]
        assert (crashed, levels[0]) in cells
        assert (crashed, levels[1]) not in cells

    @pytest.mark.parametrize("engine", ["object", "batched"])
    def test_tied_survivors_take_the_first_by_name(self, plans, catalog,
                                                   engine):
        # Equal budgets and one co-runner each give every survivor the
        # same refuge score; the canonical assignment breaks the tie
        # toward the first survivor in sorted-name order.
        tied = [replace(p, provisioned_power_w=185.0) for p in plans]
        names = sorted(p.lc_app.name for p in tied)
        crashed = names[-1]
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(crashed, at_level_index=1),)
        )
        run = run_cluster(tied, catalog.spec, levels=[0.3, 0.6],
                          duration_s=6.0, config=FAST,
                          fault_plan=fault_plan, engine=engine)
        [repl] = run.fault_report.replacements
        assert (repl.from_lc, repl.to_lc) == (crashed, names[0])

    def test_survivor_time_shares_its_slice(self, plans, catalog):
        two = plans[:2]
        crashed, survivor = two[0].lc_app.name, two[1].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(crashed, at_level_index=1),)
        )
        levels = [0.3, 0.6]
        run = run_cluster(two, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        after = [o for o in run.outcomes
                 if o.lc_name == survivor and o.level == levels[1]]
        # Two co-runners on the survivor: its own BE plus the displaced
        # one, each on an equal share of the cell's duration.
        assert len(after) == 2
        assert {o.be_name for o in after} == {two[0].be_app.name,
                                              two[1].be_app.name}
        assert all(o.result.duration_s == pytest.approx(3.0) for o in after)

    def test_recovery_rejoins_empty_handed(self, plans, catalog):
        two = plans[:2]
        crashed = two[0].lc_app.name
        fault_plan = ClusterFaultPlan(crashes=(
            ServerCrash(crashed, at_level_index=1, recover_at_level_index=2),
        ))
        levels = [0.3, 0.5, 0.7]
        run = run_cluster(two, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report.crashes_handled == 1
        assert report.recoveries_handled == 1
        rejoined = [o for o in run.outcomes
                    if o.lc_name == crashed and o.level == levels[2]]
        # Back in service, but without a BE co-runner: the displaced app
        # stays where re-placement put it (migration is not free).
        assert len(rejoined) == 1
        assert rejoined[0].be_name is None

    def test_no_survivors_parks_the_displaced(self, plans, catalog):
        two = plans[:2]
        fault_plan = ClusterFaultPlan(crashes=(
            ServerCrash(two[0].lc_app.name, at_level_index=1),
            ServerCrash(two[1].lc_app.name, at_level_index=1),
        ))
        levels = [0.3, 0.6]
        run = run_cluster(two, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report.crashes_handled == 2
        assert report.displaced_parked == 2
        assert report.displaced_placed == 0
        assert report.degraded_cells == 2  # both servers, one level each

    def test_unknown_crash_name_rejected(self, plans, catalog):
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash("no-such-server", at_level_index=0),)
        )
        with pytest.raises(ConfigError):
            run_cluster(plans[:2], catalog.spec, levels=[0.3],
                        duration_s=6.0, config=FAST, fault_plan=fault_plan)

    def test_cell_faults_reach_every_cell(self, plans, catalog):
        fault_plan = ClusterFaultPlan(cell_faults=FaultSchedule([
            MeterStuckAt(start_s=1.0, duration_s=None)
        ]))
        run = run_cluster(plans[:1], catalog.spec, levels=[0.5],
                          duration_s=6.0, config=FAST, fault_plan=fault_plan)
        outcome = run.outcomes[0]
        assert outcome.result.cap_stats.watchdog_trips >= 1
        assert outcome.result.cap_stats.safe_mode_steps > 0

    def test_faultfree_runs_have_no_report(self, plans, catalog):
        run = run_cluster(plans[:1], catalog.spec, levels=[0.5],
                          duration_s=6.0, config=FAST)
        assert run.fault_report is None

    def test_all_servers_crashed_is_well_formed(self, plans, catalog):
        """Every server down at level 0: zero cells, truthful zeros.

        The run must not raise and must not emit NaN — an empty outcome
        list aggregates to "nothing served, nothing drawn", and the
        policy summary stays finite so downstream TCO tables render.
        """
        import math

        from repro.evaluation.pipeline import summarize_policy

        fault_plan = ClusterFaultPlan(crashes=tuple(
            ServerCrash(p.lc_app.name, at_level_index=0) for p in plans
        ))
        levels = [0.3, 0.6]
        run = run_cluster(plans, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        assert run.outcomes == []
        report = run.fault_report
        assert report.crashes_handled == len(plans)
        assert report.degraded_cells == len(plans) * len(levels)
        assert run.cluster_be_throughput() == 0.0
        assert run.cluster_power_utilization() == 0.0
        assert run.cluster_violation_fraction() == 0.0
        summary = summarize_policy("pocolo", run, catalog)
        assert summary.throughput_per_server == 0.0
        assert summary.avg_power_w_per_server == 0.0
        assert math.isfinite(summary.power_utilization)
        assert math.isfinite(summary.provisioned_w_per_server)


class TestServerRejoin:
    """Repair events: rejoined capacity reopens BE re-placement."""

    def test_rejoin_validation(self):
        from repro.faults import ServerRejoin

        with pytest.raises(ConfigError):
            ServerRejoin("xapian", at_level_index=-1)
        # A rejoin must repair an actual crash...
        with pytest.raises(ConfigError):
            ClusterFaultPlan(rejoins=(ServerRejoin("xapian", 2),))
        # ...must follow it...
        with pytest.raises(ConfigError):
            ClusterFaultPlan(
                crashes=(ServerCrash("xapian", at_level_index=2),),
                rejoins=(ServerRejoin("xapian", at_level_index=2),),
            )
        # ...and cannot double up with a recovery.
        with pytest.raises(ConfigError):
            ClusterFaultPlan(
                crashes=(ServerCrash(
                    "xapian", at_level_index=1, recover_at_level_index=3,
                ),),
                rejoins=(ServerRejoin("xapian", at_level_index=2),),
            )
        plan = ClusterFaultPlan(
            crashes=(ServerCrash("xapian", at_level_index=1),),
            rejoins=(ServerRejoin("xapian", at_level_index=3),),
        )
        assert [r.lc_name for r in plan.rejoins_at(3)] == ["xapian"]
        assert plan.rejoins_at(2) == ()

    def test_rejoin_replaces_parked_displaced(self, plans, catalog):
        """Total blackout, one repair: a parked BE lands on the rejoin."""
        from repro.faults import ServerRejoin

        two = plans[:2]
        rejoined = two[1].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=(
                ServerCrash(two[0].lc_app.name, at_level_index=1),
                ServerCrash(rejoined, at_level_index=1),
            ),
            rejoins=(ServerRejoin(rejoined, at_level_index=3),),
        )
        levels = [0.3, 0.5, 0.6, 0.7]
        run = run_cluster(two, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report.crashes_handled == 2
        assert report.rejoins_handled == 1
        # Both BEs parked at the crash; the repair re-placed one of them.
        landed = [
            r for r in report.replacements
            if r.to_lc == rejoined and r.at_level_index == 3
        ]
        assert len(landed) == 1
        back = [o for o in run.outcomes
                if o.lc_name == rejoined and o.level == levels[3]]
        assert len(back) == 1
        assert back[0].be_name == landed[0].be_name
        assert back[0].result.avg_be_throughput_norm > 0.0

    def test_rejoin_with_nothing_parked_is_empty_handed(self, plans, catalog):
        """With survivors, re-placement already won; the rejoin hosts
        nothing (migration is not free, same rule as recovery)."""
        from repro.faults import ServerRejoin

        crashed = plans[0].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(crashed, at_level_index=1),),
            rejoins=(ServerRejoin(crashed, at_level_index=2),),
        )
        levels = [0.3, 0.5, 0.7]
        run = run_cluster(plans[:3], catalog.spec, levels=levels,
                          duration_s=6.0, config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report.rejoins_handled == 1
        assert report.displaced_parked == 0
        back = [o for o in run.outcomes
                if o.lc_name == crashed and o.level == levels[2]]
        assert len(back) == 1
        assert back[0].be_name is None

    def test_still_unplaced_bes_stay_parked(self, plans, catalog):
        """A rejoin can absorb only what fits; the rest stays parked."""
        from repro.faults import ServerRejoin

        three = plans[:3]
        rejoined = three[2].lc_app.name
        fault_plan = ClusterFaultPlan(
            crashes=tuple(
                ServerCrash(p.lc_app.name, at_level_index=1) for p in three
            ),
            rejoins=(ServerRejoin(rejoined, at_level_index=2),),
        )
        levels = [0.3, 0.5, 0.7]
        run = run_cluster(three, catalog.spec, levels=levels, duration_s=6.0,
                          config=FAST, fault_plan=fault_plan)
        report = run.fault_report
        assert report.rejoins_handled == 1
        placed_after = [
            r for r in report.replacements
            if r.at_level_index == 2 and r.to_lc is not None
        ]
        unplaced_after = [
            r for r in report.replacements
            if r.at_level_index == 2 and r.to_lc is None
        ]
        # One server's worth of capacity came back for three parked BEs.
        assert len(placed_after) >= 1
        assert len(unplaced_after) >= 1


@st.composite
def _membership_plans(draw, names, n_levels):
    """Any mix of crashes, recoveries and rejoins over ``names``."""
    crashes, rejoins = [], []
    for name in names:
        kind = draw(st.sampled_from(("up", "crash", "recover", "rejoin")))
        if kind == "up":
            continue
        at = draw(st.integers(0, n_levels - 1))
        back = None
        if kind != "crash" and at < n_levels - 1:
            back = draw(st.integers(at + 1, n_levels - 1))
        if kind == "rejoin" and back is not None:
            crashes.append(ServerCrash(name, at_level_index=at))
            rejoins.append(ServerRejoin(name, at_level_index=back))
        else:
            crashes.append(ServerCrash(
                name, at_level_index=at,
                recover_at_level_index=back if kind == "recover" else None,
            ))
    return ClusterFaultPlan(crashes=tuple(crashes), rejoins=tuple(rejoins))


class TestBudgetedMembership:
    """The budget planner and the fault planner agree on who is alive.

    Both walk crashes, recoveries and rejoins level by level; a cell the
    fault planner schedules on a server the budget planner thinks is
    down would get no cap schedule and run uncapped.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_planned_cell_carries_a_schedule(self, plans, catalog, data):
        levels = (0.2, 0.4, 0.6, 0.8)
        names = [plan.lc_app.name for plan in plans]
        fault_plan = data.draw(_membership_plans(names, len(levels)))
        sweep = Sweep(
            plans, catalog.spec, levels=levels, duration_s=4.0, config=FAST,
            fault_plan=fault_plan,
            budget=BudgetConfig(arbiter_period_s=1.0, lease_s=2.0),
        )
        cells, _ = plan_cluster_tasks(sweep)
        unscheduled = [
            (cell.plan.lc_app.name, cell.level)
            for cell in cells if cell.schedule is None
        ]
        assert unscheduled == []
