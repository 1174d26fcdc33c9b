"""Tests for repro.budget: tree, schedules, fairness, ladder, arbiter.

The property at the heart of the lease protocol — every deviation from
the fail-safe floor expires, so the arbiter never needs to be trusted —
is pinned twice: directly (grants revert to the floor after ``lease_s``
with no renewal) and via Hypothesis (zero budget-invariant violations
under arbitrary grant/loss/delay/expiry sequences).  Caps are read the
way a budgeted cell sees them: the grants ``tick()`` returned, applied
to the server's :class:`LeaseTimeline` and compiled into a
:class:`CapSchedule`.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.budget.arbiter
import repro.sim.cluster
from repro.budget import (
    STAGE_EVICT,
    STAGE_NOMINAL,
    STAGE_SHED,
    STAGE_THROTTLE,
    BrownoutLadder,
    BrownoutState,
    BudgetArbiter,
    BudgetConfig,
    BudgetStats,
    CapSchedule,
    Grant,
    ServerDemand,
    build_tree,
    distribute,
    max_min_shares,
    throughput_shares,
)
from repro.budget.arbiter import MIN_CAP_FRACTION, plan_budget
from repro.budget.lease import LeaseTimeline
from repro.errors import ConfigError, InvariantViolationError
from repro.evaluation.pipeline import cluster_plans, placement_for_policy
from repro.faults.schedule import (
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    RackBreakerTrip,
    RackPowerDerate,
)
from repro.guard.invariants import (
    GrantConservationInvariant,
    GuardConfig,
    InvariantRegistry,
    RackOvercommitInvariant,
)
from repro.guard.monitor import GuardMonitor
from repro.sim.cluster import Sweep, run_sweeps
from tests.budget_oracle import build_segments


class _App:
    def __init__(self, name):
        self.name = name


class _Plan:
    """Duck-typed stand-in for ServerPlan (build_tree only reads these)."""

    def __init__(self, name, floor_w):
        self.lc_app = _App(name)
        self.provisioned_power_w = floor_w


def _fleet(floors):
    return [_Plan(f"s{i}", w) for i, w in enumerate(floors)]


class TestCapSchedule:
    def test_constant(self):
        sched = CapSchedule.constant(150.0)
        assert sched.is_constant
        assert sched.cap_at(0.0) == 150.0
        assert sched.cap_at(1e9) == 150.0

    def test_lookup_between_breakpoints(self):
        sched = CapSchedule(times_s=(0.0, 5.0, 10.0), caps_w=(100.0, 80.0, 120.0))
        assert sched.cap_at(0.0) == 100.0
        assert sched.cap_at(4.999) == 100.0
        assert sched.cap_at(5.0) == 80.0
        assert sched.cap_at(9.0) == 80.0
        assert sched.cap_at(10.0) == 120.0

    def test_before_first_breakpoint_is_defensive(self):
        sched = CapSchedule(times_s=(2.0,), caps_w=(90.0,))
        assert sched.cap_at(-1.0) == 90.0

    def test_from_segments_merges_repeats(self):
        sched = CapSchedule.from_segments(
            [(0.0, 100.0), (2.0, 100.0), (4.0, 80.0), (6.0, 80.0), (8.0, 100.0)]
        )
        assert sched.times_s == (0.0, 4.0, 8.0)
        assert sched.caps_w == (100.0, 80.0, 100.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CapSchedule(times_s=(), caps_w=())
        with pytest.raises(ConfigError):
            CapSchedule(times_s=(0.0, 1.0), caps_w=(100.0,))
        with pytest.raises(ConfigError):
            CapSchedule(times_s=(0.0, 0.0), caps_w=(100.0, 90.0))
        with pytest.raises(ConfigError):
            CapSchedule(times_s=(0.0,), caps_w=(0.0,))
        with pytest.raises(ConfigError):
            CapSchedule.from_segments([])

    def test_hashable_and_value_equal(self):
        a = CapSchedule.from_segments([(0.0, 100.0), (5.0, 80.0)])
        b = CapSchedule(times_s=(0.0, 5.0), caps_w=(100.0, 80.0))
        assert a == b
        assert hash(a) == hash(b)


class TestLeaseTimeline:
    """The lease rule against the breakpoint scan it replaced.

    ``LeaseTimeline`` applies grants one at a time (``grant``) or a run
    of one cap and delay at once (``grant_run``); both must compile to
    the schedule and expiry count that ``build_segments`` (the per-tick
    oracle's statement of the rule) reads off every live grant at every
    breakpoint.  Delays cover the cases that reorder grants: longer
    than a period (a stale grant lands after a fresher one), as long as
    the lease (dead on arrival), and past the horizon.
    """

    FLOOR_W = 100.0

    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from([90.0, 100.0, 150.0]),
                st.sampled_from([0.0, 0.0, 0.5, 1.5, 2.5, 4.0]),
                st.sampled_from([0, 0, 1, 2]),
                st.integers(1, 8),
            ),
            max_size=6,
        ),
        period_s=st.sampled_from([0.1, 0.3, 1.0]),
        lease_periods=st.sampled_from([1.0, 1.0000001, 1.5, 2.0, 3.0, 4.5]),
        horizon_periods=st.sampled_from([6.5, 15.0, 40.0]),
    )
    @settings(max_examples=500, deadline=None)
    def test_runs_equal_the_breakpoint_scan(
        self, runs, period_s, lease_periods, horizon_periods
    ):
        lease_s = period_s * lease_periods
        total_s = period_s * horizon_periods
        grants = []
        one_by_one = LeaseTimeline(self.FLOOR_W, total_s)
        in_runs = LeaseTimeline(self.FLOOR_W, total_s)
        tick = 0
        for cap_w, delay_periods, gap, length in runs:
            delay_s = delay_periods * period_s
            tick += gap
            in_runs.grant_run(cap_w, delay_s, tick, tick + length, period_s, lease_s)
            for k in range(tick, tick + length):
                issued_s = k * period_s
                grant = Grant("s0", cap_w, issued_s, issued_s + delay_s,
                              issued_s + lease_s)
                grants.append(grant)
                one_by_one.grant(cap_w, grant.effective_s, grant.expires_s)
            tick += length
        stats = BudgetStats()
        expected = CapSchedule.from_segments(
            build_segments(grants, self.FLOOR_W, total_s, stats)
        )
        assert one_by_one.compile() == (expected, stats.grants_expired)
        assert in_runs.compile() == (expected, stats.grants_expired)

    def test_stale_grant_rules_between_two_fresher_ones(self):
        """Grants of ticks 0-3 land 1.5 s late; tick 4's on-time grant
        governs from 4 s, tick 3's stale grant overrides it at 4.5 s,
        and tick 5's grant takes over at 5 s, though the stale lease
        runs to 6 s."""
        period_s, lease_s, total_s = 1.0, 3.0, 12.0
        runs = [(150.0, 1.5, 0, 4), (90.0, 0.0, 4, 9)]
        in_runs = LeaseTimeline(self.FLOOR_W, total_s)
        one_by_one = LeaseTimeline(self.FLOOR_W, total_s)
        grants = []
        for cap_w, delay_s, first, stop in runs:
            in_runs.grant_run(cap_w, delay_s, first, stop, period_s, lease_s)
            for k in range(first, stop):
                grant = Grant("s0", cap_w, k * period_s, k * period_s + delay_s,
                              k * period_s + lease_s)
                grants.append(grant)
                one_by_one.grant(cap_w, grant.effective_s, grant.expires_s)
        stats = BudgetStats()
        expected = CapSchedule.from_segments(
            build_segments(grants, self.FLOOR_W, total_s, stats)
        )
        assert expected.times_s == (0.0, 1.5, 4.0, 4.5, 5.0, 11.0)
        assert expected.caps_w == (100.0, 150.0, 90.0, 150.0, 90.0, 100.0)
        assert stats.grants_expired == 1
        assert in_runs.compile() == one_by_one.compile() == (expected, 1)


class TestBudgetTree:
    def test_auto_racking(self):
        tree = build_tree(_fleet([100.0, 120.0, 80.0]), rack_size=2,
                          rack_slack=0.10)
        assert [rack.name for rack in tree.racks] == ["rack0", "rack1"]
        assert [s.name for s in tree.racks[0].servers] == ["s0", "s1"]
        assert [s.name for s in tree.racks[1].servers] == ["s2"]
        assert tree.racks[0].capacity_w == pytest.approx(220.0 * 1.10)
        assert tree.capacity_w == pytest.approx((220.0 + 80.0) * 1.10)

    def test_lookups(self):
        tree = build_tree(_fleet([100.0, 120.0, 80.0]), 2, 0.0)
        assert tree.rack_of("s2").name == "rack1"
        assert tree.floor_of("s1") == 120.0
        with pytest.raises(ConfigError):
            tree.rack_of("nope")
        with pytest.raises(ConfigError):
            tree.floor_of("nope")

    def test_duplicate_leaves_rejected(self):
        plans = [_Plan("a", 100.0), _Plan("b", 100.0), _Plan("a", 90.0)]
        with pytest.raises(ConfigError):
            build_tree(plans, rack_size=2, rack_slack=0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_tree(_fleet([100.0]), rack_size=0, rack_slack=0.0)
        with pytest.raises(ConfigError):
            build_tree(_fleet([100.0]), rack_size=1, rack_slack=-0.1)
        with pytest.raises(ConfigError):
            build_tree([], rack_size=1, rack_slack=0.0)


class TestFairness:
    def test_max_min_water_filling(self):
        # The small want is satisfied in full; its refund raises the rest.
        grants = max_min_shares(90.0, [10.0, 100.0, 100.0])
        assert grants[0] == 10.0
        assert grants[1] == pytest.approx(40.0)
        assert grants[2] == pytest.approx(40.0)

    def test_max_min_pool_exhausts_equally(self):
        grants = max_min_shares(60.0, [100.0, 100.0, 100.0])
        assert grants == pytest.approx([20.0, 20.0, 20.0])

    def test_max_min_surplus_pool(self):
        grants = max_min_shares(1000.0, [10.0, 20.0])
        assert grants == [10.0, 20.0]

    def test_throughput_serves_heaviest_first(self):
        grants = throughput_shares(50.0, [40.0, 40.0, 40.0], [1.0, 3.0, 2.0])
        assert grants == pytest.approx([0.0, 40.0, 10.0])

    def test_throughput_tie_breaks_by_index(self):
        grants = throughput_shares(40.0, [40.0, 40.0], [1.0, 1.0])
        assert grants == pytest.approx([40.0, 0.0])

    def test_throughput_weight_mismatch(self):
        with pytest.raises(ConfigError):
            throughput_shares(10.0, [1.0, 2.0], [1.0])

    def test_distribute_dispatch(self):
        assert distribute("max-min", 10.0, [20.0], [1.0]) == [10.0]
        assert distribute("throughput", 10.0, [20.0], [1.0]) == [10.0]
        with pytest.raises(ConfigError):
            distribute("nope", 10.0, [20.0], [1.0])

    @given(
        pool=st.floats(0.0, 500.0),
        wants=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_max_min_invariants(self, pool, wants):
        grants = max_min_shares(pool, wants)
        assert sum(grants) <= pool + 1e-6
        for grant, want in zip(grants, wants):
            assert 0.0 <= grant <= want + 1e-6
        # Max-min fairness: every unsatisfied server holds an equal share.
        unsatisfied = [
            grant for grant, want in zip(grants, wants)
            if grant < want - 1e-6
        ]
        if len(unsatisfied) > 1:
            assert max(unsatisfied) - min(unsatisfied) < 1e-6


class TestBrownoutLadder:
    def _ladder(self):
        return BrownoutLadder((1.0, 0.85, 0.70))

    def test_target_stages(self):
        ladder = self._ladder()
        assert ladder.target_stage(1.2) == STAGE_NOMINAL
        assert ladder.target_stage(0.95) == STAGE_THROTTLE
        assert ladder.target_stage(0.80) == STAGE_EVICT
        assert ladder.target_stage(0.50) == STAGE_SHED

    def test_entry_edge_counted_once(self):
        ladder = self._ladder()
        state = BrownoutState()
        assert ladder.step(state, 0.5) is True  # nominal -> shed
        assert state.stage == STAGE_SHED
        assert ladder.step(state, 0.5) is False  # already in brownout

    def test_hysteresis_holds_before_exit(self):
        ladder = self._ladder()
        state = BrownoutState()
        ladder.step(state, 0.95)
        assert state.stage == STAGE_THROTTLE
        # Exit needs ratio >= 1.0 * 1.05 for 2 consecutive ticks.
        ladder.step(state, 1.06)
        assert state.stage == STAGE_THROTTLE
        ladder.step(state, 1.02)  # blip below the exit band: streak resets
        assert state.stage == STAGE_THROTTLE
        ladder.step(state, 1.06)
        ladder.step(state, 1.06)
        assert state.stage == STAGE_NOMINAL

    def test_validation(self):
        with pytest.raises(ConfigError):
            BrownoutLadder((0.7, 0.85, 1.0))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="finite"):
                BrownoutLadder((1.0, bad, 0.7))


class TestBudgetConfig:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(arbiter_period_s=float("nan")), "arbiter_period_s must be positive and finite"),
        (dict(arbiter_period_s=float("inf")), "arbiter_period_s must be positive and finite"),
        (dict(lease_s=float("nan")), "lease_s must be finite"),
        (dict(lease_s=float("inf")), "lease_s must be finite"),
    ], ids=["period-nan", "period-inf", "lease-nan", "lease-inf"])
    def test_non_finite_times_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            BudgetConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "rack_slack", "oversubscription", "brownout_throttle_ratio",
        "brownout_evict_ratio", "brownout_shed_ratio",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            BudgetConfig(**{field: value})

    def test_lease_must_cover_period(self):
        with pytest.raises(ConfigError):
            BudgetConfig(arbiter_period_s=5.0, lease_s=4.0)

    def test_unknown_fairness(self):
        with pytest.raises(ConfigError):
            BudgetConfig(fairness="nope")

    def test_defaults_valid(self):
        config = BudgetConfig()
        assert config.lease_s >= config.arbiter_period_s


def _arbiter(floors=(100.0, 120.0), faults=None, guard=None, **overrides):
    config = BudgetConfig(
        arbiter_period_s=1.0, lease_s=2.0, rack_size=2, rack_slack=0.2,
        **overrides,
    )
    tree = build_tree(_fleet(floors), config.rack_size, config.rack_slack)
    # The audit plan_budget runs: both budget invariants on one monitor,
    # and no monitor at all without a guard.
    monitor = None
    if guard is not None:
        monitor = GuardMonitor(guard, InvariantRegistry([
            GrantConservationInvariant(guard), RackOvercommitInvariant(guard),
        ]))
    return BudgetArbiter(tree, config, faults=faults, monitor=monitor), tree


def _everyone(tree):
    return {server.name for server in tree.servers}


def _cap_at(tree, grants, server, time_s, horizon_s=100.0):
    """The cap in force at ``time_s``, by the planner's lease rule.

    The same path a budgeted cell's schedule takes: the grants
    ``tick()`` returned, applied in issue order to the server's
    :class:`LeaseTimeline` and read from its compiled schedule.
    """
    lease = LeaseTimeline(tree.floor_of(server), horizon_s)
    for grant in grants:
        if grant.server == server:
            lease.grant(grant.cap_w, grant.effective_s, grant.expires_s)
    return lease.compile()[0].cap_at(time_s)


def _hungry(tree):
    """Demands that want more than every floor (so grants move caps)."""
    return {
        server.name: ServerDemand(
            lc_w=server.floor_w * 0.5,
            be_w=server.floor_w,
            be_weight=1.0,
        )
        for server in tree.servers
    }


class TestBudgetArbiter:
    def test_floor_before_any_grant(self):
        arbiter, tree = _arbiter()
        grants = arbiter.tick(1.0, _hungry(tree), _everyone(tree))
        assert _cap_at(tree, [], "s0", 0.0) == tree.floor_of("s0")
        assert _cap_at(tree, grants, "s0", 0.5) == tree.floor_of("s0")
        assert _cap_at(tree, grants, "s0", 1.5) > tree.floor_of("s0")

    def test_grants_lift_caps_then_expire_to_floor(self):
        arbiter, tree = _arbiter()
        issued = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        assert len(issued) == 2
        cap = _cap_at(tree, issued, "s0", 0.5)
        assert cap > tree.floor_of("s0")
        # The lease protocol: no renewal, so the grant dies at lease_s.
        assert _cap_at(tree, issued, "s0", 1.999) == cap
        assert _cap_at(tree, issued, "s0", 2.0) == tree.floor_of("s0")

    def test_latest_grant_governs(self):
        arbiter, tree = _arbiter()
        grants = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        # No demand: caps fall back toward floors.
        renewal = arbiter.tick(1.0, {}, _everyone(tree))
        grants += renewal
        first = _cap_at(tree, grants, "s0", 0.5)
        second = _cap_at(tree, grants, "s0", 1.5)
        assert second != first
        assert second == next(g.cap_w for g in renewal if g.server == "s0")

    def test_grant_loss_keeps_floor(self):
        faults = FaultSchedule([
            GrantLoss(start_s=0.0, duration_s=10.0, lc_names=("s0",)),
        ])
        arbiter, tree = _arbiter(faults=faults)
        grants = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        assert _cap_at(tree, grants, "s0", 0.5) == tree.floor_of("s0")
        assert _cap_at(tree, grants, "s1", 0.5) > tree.floor_of("s1")
        assert arbiter.stats.grants_lost == 1

    def test_grant_delay_shifts_effective_time(self):
        faults = FaultSchedule([
            GrantDelay(start_s=0.0, duration_s=10.0, delay_s=0.7),
        ])
        arbiter, tree = _arbiter(faults=faults)
        grants = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        assert _cap_at(tree, grants, "s0", 0.5) == tree.floor_of("s0")
        assert _cap_at(tree, grants, "s0", 0.8) > tree.floor_of("s0")
        assert arbiter.stats.grants_delayed == 2

    def test_derate_drives_brownout_below_floor(self):
        faults = FaultSchedule([
            RackPowerDerate(start_s=0.0, duration_s=10.0, factor=0.5,
                            rack="rack0"),
        ])
        arbiter, tree = _arbiter(faults=faults)
        grants = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        assert arbiter.stage_of("rack0") > STAGE_NOMINAL
        assert _cap_at(tree, grants, "s0", 0.5) < tree.floor_of("s0")
        assert arbiter.stats.brownout_entries == 1

    def test_breaker_trip_hits_emergency_fraction(self):
        faults = FaultSchedule([
            RackBreakerTrip(start_s=0.0, duration_s=10.0, residual=0.0,
                            rack="rack0"),
        ])
        arbiter, tree = _arbiter(faults=faults)
        grants = arbiter.tick(0.0, _hungry(tree), _everyone(tree))
        floor = tree.floor_of("s0")
        assert _cap_at(tree, grants, "s0", 0.5) == pytest.approx(
            floor * MIN_CAP_FRACTION
        )


@st.composite
def _fault_windows(draw):
    """A random mix of grant-loss/delay/derate/trip windows."""
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        start = draw(st.floats(0.0, 8.0))
        duration = draw(st.floats(0.5, 8.0))
        if kind == 0:
            faults.append(GrantLoss(start_s=start, duration_s=duration))
        elif kind == 1:
            faults.append(GrantDelay(
                start_s=start, duration_s=duration,
                delay_s=draw(st.floats(0.1, 5.0)),
            ))
        elif kind == 2:
            faults.append(RackPowerDerate(
                start_s=start, duration_s=duration,
                factor=draw(st.floats(0.1, 0.95)), rack="rack0",
            ))
        else:
            faults.append(RackBreakerTrip(
                start_s=start, duration_s=duration,
                residual=draw(st.floats(0.0, 0.5)), rack="rack0",
            ))
    return faults


class TestGrantConservationProperty:
    @given(
        faults=_fault_windows(),
        skip=st.lists(st.booleans(), min_size=10, max_size=10),
        hungry=st.lists(st.booleans(), min_size=10, max_size=10),
        oversubscription=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_violations_under_arbitrary_sequences(
        self, faults, skip, hungry, oversubscription
    ):
        """Grant conservation holds for any grant/loss/delay/expiry mix.

        Skipped ticks model arbiter crashes (grants expire un-renewed),
        ``hungry`` toggles demand spikes, and the fault windows inject
        message loss, delivery delay and capacity collapse — under all
        of it the record-mode audit must stay clean, and once the last
        lease runs out every server must sit back at its floor.
        """
        guard = GuardConfig(mode="record")
        arbiter, tree = _arbiter(
            floors=(90.0, 130.0, 110.0),
            faults=FaultSchedule(faults) if faults else None,
            guard=guard,
            oversubscription=oversubscription,
        )
        demands = _hungry(tree)
        grants = []
        last_tick_s = 0.0
        for index, (skipped, wants) in enumerate(zip(skip, hungry)):
            if skipped:
                continue  # the arbiter missed this period (crash window)
            time_s = index * arbiter.config.arbiter_period_s
            grants += arbiter.tick(
                time_s, demands if wants else {}, _everyone(tree)
            )
            last_tick_s = time_s
        report = arbiter.monitor.report()
        assert report.total_violations == 0
        settle_s = last_tick_s + arbiter.config.lease_s
        for server in tree.servers:
            assert _cap_at(tree, grants, server.name, settle_s) == (
                tree.floor_of(server.name)
            )


class TestBudgetAuditModes:
    """``plan_budget``'s audit of a planted over-issuing arbiter.

    Record mode logs the over-issue in the plan's guard report; enforce
    mode fails the sweep before any cell runs.
    """

    @pytest.fixture
    def over_issuing(self, monkeypatch):
        """Every fairness share is the whole pool and then some."""
        monkeypatch.setattr(
            repro.budget.arbiter, "distribute",
            lambda objective, pool_w, wants_w, weights: [
                pool_w + 50.0 for _ in wants_w
            ],
        )

    @staticmethod
    def _sweep(catalog, mode):
        placement = placement_for_policy(catalog, "pocolo")
        return Sweep(
            cluster_plans(catalog, placement, "pocolo"), catalog.spec,
            levels=(0.3, 0.6), duration_s=4.0, guard=GuardConfig(mode=mode),
            budget=BudgetConfig(arbiter_period_s=1.0, lease_s=2.0),
        )

    def test_record_mode_logs_the_over_issue(self, catalog, over_issuing):
        report = plan_budget(self._sweep(catalog, "record")).report.guard_report
        assert report is not None
        assert report.count("grant-conservation") > 0

    def test_enforce_mode_raises_before_any_cell(
        self, catalog, over_issuing, monkeypatch
    ):
        cells_run = []
        monkeypatch.setattr(repro.sim.cluster, "_run_cell", cells_run.append)
        with pytest.raises(InvariantViolationError, match=r"\[grant-conservation\]"):
            run_sweeps([self._sweep(catalog, "enforce")], engine="object")
        assert cells_run == []
