"""Differential proof: the batched engine is bit-exact vs the oracle.

:mod:`repro.engine.batched` re-implements the per-object
:class:`~repro.sim.colocation.ColocationSim` as a structure-of-arrays
core that advances every server of a sweep in lock step.  Its whole
claim is *exact* equality — not tolerance-based closeness — so every
test here compares full :class:`~repro.sim.colocation.ColocationResult`
objects field by field with ``==`` on raw floats:

* every scalar summary (throughput, SLO fraction, energy, utilization);
* :class:`CapStats` / :class:`ManagerStats` counters;
* :class:`~repro.guard.invariants.GuardReport` including the recorded
  :class:`~repro.guard.invariants.Violation` tuples and check counts;
* every telemetry series, name order, tick times and values.

The batched engine hands each cell its telemetry as a lazy view of the
group's shared lane block; :class:`TestLaneViews` pins the view's
series layouts, mutation isolation and pickling against the oracle.

Coverage spans both manager types (POM at the default and at a raised
slack target, and the Heracles baseline), a no-BE plan, a solver that
refuses targets, three fault schedules exercising all six fault types, record- and enforce-mode guards, the ``engine`` knob
on :func:`~repro.sim.cluster.run_cluster` (dedupe on and off), and a
real mid-sweep SIGKILL resumed under the *other* engine.
"""

import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import repro.engine.batched as batched_engine
from repro.budget.schedule import CapSchedule
from repro.core import server_manager
from repro.core.server_manager import PowerOptimizedManager
from repro.core.utility import IndirectUtilityModel, integer_min_power_allocation
from repro.engine.batched import (
    BatchedClusterSim,
    clear_batched_caches,
    partition_cells,
    run_batched_cells,
)
from repro.engine.parallel import map_ordered
from repro.engine.select import default_engine
from repro.errors import CapacityError, ExecutionError
from repro.evaluation import (
    evaluate_all_policies,
    measure_operating_points,
    pipeline,
)
from repro.evaluation.pipeline import (
    PomFactory,
    ServerPlan,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    policy_sweep,
)
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    TelemetryGap,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import read_journal, run_cluster_checkpointed
from repro.sim.cluster import Cell, _run_cell, plan_cluster_tasks, run_cluster, run_sweeps
from repro.sim.colocation import SimConfig
from repro.sim.telemetry import Telemetry
from tests.test_runtime_checkpoint import keep_cells

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: Scalar result fields compared with ``==`` — every float the result
#: reports.  Kept explicit so a new summary field must be added here
#: (or the schema drift is caught by test_result_fields_covered).
RESULT_FIELDS = (
    "lc_name", "be_name", "duration_s",
    "avg_be_throughput_norm", "avg_be_throughput_abs",
    "avg_lc_load_fraction", "avg_power_w", "power_utilization",
    "energy_kwh", "slo_violation_fraction",
)


@dataclass(frozen=True)
class SlackTargetPomFactory:
    """Content-addressable POM factory at the slack ablation's raised
    target, so lanes of one group carry different slack thresholds."""

    model: object
    slack_target: float = 0.3

    def __call__(self, server):
        return PowerOptimizedManager(
            server, model=self.model, slack_target=self.slack_target,
            slack_upper=max(0.45, self.slack_target + 0.2),
        )


def assert_outcome_equal(a, b, where=""):
    """Exact equality of two LevelOutcomes, down to every telemetry tick."""
    assert (a.lc_name, a.be_name, a.level) == (b.lc_name, b.be_name, b.level)
    ra, rb = a.result, b.result
    for field in RESULT_FIELDS:
        va, vb = getattr(ra, field), getattr(rb, field)
        assert va == vb, f"{where}: {field}: {va!r} != {vb!r}"
    assert ra.cap_stats == rb.cap_stats, f"{where}: cap_stats"
    assert ra.manager_stats == rb.manager_stats, f"{where}: manager_stats"
    # GuardReport equality covers mode, check counts, violation totals,
    # and every Violation tuple (invariant, time, message, observed,
    # limit) — dataclass == is exact.
    assert ra.guard_report == rb.guard_report, f"{where}: guard_report"
    sa, sb = ra.telemetry._series, rb.telemetry._series
    assert list(sa) == list(sb), f"{where}: series names"
    for name in sa:
        assert sa[name].times == sb[name].times, f"{where}: {name} times"
        assert sa[name].values == sb[name].values, f"{where}: {name} values"


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


@pytest.fixture(scope="module")
def mixed_plans(catalog):
    """Three manager factories plus a no-BE colocation in one sweep."""
    pom = cluster_plans(catalog, placement_for_policy(catalog, "pocolo"), "pocolo")
    her = cluster_plans(catalog, placement_for_policy(catalog, "random"), "random")
    plans = list(pom[:3]) + list(her[:2])
    base = plans[0]
    plans.append(ServerPlan(
        lc_app=base.lc_app, be_app=base.be_app,
        provisioned_power_w=base.provisioned_power_w,
        manager_factory=SlackTargetPomFactory(base.manager_factory.model),
    ))
    plans.append(ServerPlan(
        lc_app=plans[1].lc_app, be_app=None,
        provisioned_power_w=plans[1].provisioned_power_w,
        manager_factory=plans[1].manager_factory,
    ))
    return plans


def _tasks(plans, spec, levels, duration_s, config, faults=None, guard=None):
    return [
        Cell(plan, spec, level, duration_s, config, plan.be_app, faults, guard)
        for plan in plans
        for level in levels
    ]


def _oracle(tasks):
    return [_run_cell(task) for task in tasks]


#: ``(guard, levels, durations)`` per unfaulted case.  ``exact-energy``
#: zeroes the energy tolerances so the oracle records energy violations,
#: and sets a deep-check stride longer than any run, so after the first
#: tick each lane's energy check runs only on its own final tick, which
#: differs per duration.
UNFAULTED_CASES = {
    "noguard": (None, (0.0, 0.3, 0.8), (7.0,)),
    "default": (GuardConfig(), (0.0, 0.3, 0.8), (7.0,)),
    "deep3": (GuardConfig(deep_check_every=3), (0.0, 0.3, 0.8), (7.0,)),
    "exact-energy": (
        GuardConfig(deep_check_every=100, energy_abs_tol_w=0.0,
                    energy_rel_tol=0.0),
        (0.0, 0.4, 0.9),
        tuple(float(d) for d in range(3, 13)),
    ),
}


class TestUnfaultedDifferential:
    """All manager types, idle through saturated, guard off and on."""

    @pytest.mark.parametrize("case", list(UNFAULTED_CASES))
    def test_bit_exact(self, catalog, mixed_plans, case):
        guard, levels, durations = UNFAULTED_CASES[case]
        config = SimConfig(warmup_s=3.0, seed=1)
        tasks = [
            task
            for duration_s in durations
            for task in _tasks(
                mixed_plans, catalog.spec, levels, duration_s, config,
                guard=guard,
            )
        ]
        groups, fallback = partition_cells(tasks)
        assert not fallback, "every cell must take the batched path"
        assert groups, "partitioning produced no groups"
        oracle = _oracle(tasks)
        if case == "exact-energy":
            assert any(
                v.invariant == "energy-conservation"
                for o in oracle for v in o.result.guard_report.violations
            ), "scenario must actually violate energy conservation"
        for a, b in zip(oracle, run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"case={case}")

    def test_result_fields_covered(self, catalog, mixed_plans):
        """RESULT_FIELDS stays in sync with the result schema."""
        config = SimConfig(warmup_s=1.0, seed=0)
        task = _tasks(mixed_plans[:1], catalog.spec, (0.5,), 3.0, config)[0]
        result = _run_cell(task).result
        import dataclasses

        names = {f.name for f in dataclasses.fields(result)}
        uncovered = names - set(RESULT_FIELDS) - {
            "cap_stats", "manager_stats", "guard_report", "telemetry",
        }
        assert not uncovered, (
            f"new ColocationResult fields {sorted(uncovered)} are not "
            "compared by assert_outcome_equal; add them to RESULT_FIELDS"
        )


class TestSolverFallbackDifferential:
    """POM's solver-fallback branch, on both engines.

    When ``integer_min_power_allocation`` raises ``CapacityError`` the
    manager takes the full server and counts a solver fallback.  The
    fitted catalog never makes it raise (targets are clamped to the
    model's range), so both engines' solver is replaced by one that
    refuses targets above half the model's full-server performance;
    the batched memo is cleared around the test so no refusal outlives
    it.
    """

    @pytest.fixture
    def refusing_solver(self, monkeypatch):
        def refusing(model, target, spec):
            full = model.performance((float(spec.cores), float(spec.llc_ways)))
            if target > 0.5 * full:
                raise CapacityError("target refused by the test solver")
            return integer_min_power_allocation(model, target, spec)

        monkeypatch.setattr(server_manager, "integer_min_power_allocation", refusing)
        monkeypatch.setattr(batched_engine, "integer_min_power_allocation", refusing)
        clear_batched_caches()
        yield
        clear_batched_caches()

    def test_refused_solves_bit_exact(self, catalog, mixed_plans, refusing_solver):
        config = SimConfig(warmup_s=3.0, seed=1)
        tasks = _tasks(mixed_plans, catalog.spec, (0.2, 0.5, 0.9), 8.0, config)
        oracle = _oracle(tasks)
        for a, b in zip(oracle, run_batched_cells(tasks)):
            assert_outcome_equal(a, b, "refusing solver")
        stats = [o.result.manager_stats for o in oracle]
        assert any(m.solver_fallbacks for m in stats), "no solve was refused"
        assert any(
            0 < m.solver_fallbacks < m.control_steps for m in stats
        ), "no lane mixed refused and solved targets"


@pytest.fixture(scope="module")
def schedules(catalog):
    """Three fault schedules exercising all six batched fault types."""
    stale = catalog.lc_fits[list(catalog.lc_fits)[1]].model
    return {
        "meter-mix": FaultSchedule([
            MeterDrift(start_s=1.0, duration_s=3.0,
                       bias_w=-2.0, rate_w_per_s=-1.5),
            MeterDropout(start_s=4.2, duration_s=1.0),
            MeterStuckAt(start_s=6.0, duration_s=2.0),
            MeterStuckAt(start_s=9.0, duration_s=1.5, value_w=400.0),
        ]),
        "control-mix": FaultSchedule([
            LoadSpike(start_s=2.0, duration_s=2.0, factor=1.8),
            TelemetryGap(start_s=5.0, duration_s=2.0),
            ModelStaleness(start_s=3.0, duration_s=4.0, model=stale),
        ]),
        "everything": FaultSchedule([
            LoadSpike(start_s=1.0, duration_s=1.0, factor=2.5),
            TelemetryGap(start_s=2.0, duration_s=1.0),
            MeterDrift(start_s=3.0, duration_s=6.0,
                       bias_w=1.0, rate_w_per_s=2.0),
            MeterStuckAt(start_s=7.0, duration_s=1.0),
            MeterDropout(start_s=8.5, duration_s=0.8),
            ModelStaleness(start_s=4.0, duration_s=2.0, model=stale),
        ]),
    }


class TestFaultedDifferential:
    """Every fault type, alone and overlapping, guard off and on."""

    @pytest.mark.parametrize("name", ["meter-mix", "control-mix", "everything"])
    @pytest.mark.parametrize("guarded", [False, True], ids=["noguard", "guard"])
    def test_bit_exact(self, catalog, mixed_plans, schedules, name, guarded):
        config = SimConfig(warmup_s=2.0, seed=5)
        guard = GuardConfig(deep_check_every=4) if guarded else None
        tasks = _tasks(
            mixed_plans[:-1], catalog.spec, (0.0, 0.4, 0.9), 11.0, config,
            faults=schedules[name], guard=guard,
        )
        _, fallback = partition_cells(tasks)
        assert not fallback
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"{name} guarded={guarded}")


#: The series the oracle's aggregation epilogue reads, and so creates
#: empty, on a cell that ran no control tick.
ZERO_TICK_SERIES = ("be_throughput_norm", "power_w", "lc_load_fraction")


def _scheduled(tasks):
    """Every other task gains a two-segment CapSchedule (a budgeted lane)."""
    out = []
    for k, task in enumerate(tasks):
        if k % 2 == 0:
            cap_w = task.plan.provisioned_power_w
            task = replace(task, schedule=CapSchedule(
                times_s=(0.0, 2.5), caps_w=(0.9 * cap_w, 0.7 * cap_w),
            ))
        out.append(task)
    return out


class TestLaneViews:
    """Per-cell telemetry views of the group's shared lane block."""

    @pytest.mark.parametrize("case", ["zero-tick", "no-be", "budgeted"])
    def test_layout_bit_exact(self, catalog, mixed_plans, case):
        config = SimConfig(warmup_s=1.0, seed=4)
        duration_s = 0.4 if case == "zero-tick" else 6.0
        tasks = _tasks(
            mixed_plans, catalog.spec, (0.0, 0.5), duration_s, config
        )
        if case == "budgeted":
            tasks = _scheduled(tasks)
        _, fallback = partition_cells(tasks)
        assert not fallback
        got = run_batched_cells(tasks)
        for task, a, b in zip(tasks, _oracle(tasks), got):
            assert_outcome_equal(a, b, case)
            tele = b.result.telemetry
            assert isinstance(tele, Telemetry)
            names = tele.names()
            if case == "zero-tick":
                assert names == ZERO_TICK_SERIES
                assert all(tele.series(n).empty for n in names)
            elif task.be_app is None:
                assert names[-1] == "be_throughput_norm"
                assert tele.series("be_throughput_norm").empty
            if case == "budgeted":
                assert ("effective_cap_w" in tele) == (task.schedule is not None)
        if case == "no-be":
            assert any(task.be_app is None for task in tasks)

    def test_record_changes_one_series_of_one_cell(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        tasks = _tasks(mixed_plans[:3], catalog.spec, (0.3, 0.8), 5.0, config)
        oracle, got = _oracle(tasks), run_batched_cells(tasks)
        # Materialise a neighbour first: its lists must not be shared.
        assert "power_w" in got[0].result.telemetry
        got[1].result.telemetry.record("power_w", 99.0, -1.0)
        expected = oracle[1].result.telemetry.series("power_w")
        expected.record(99.0, -1.0)
        for k, (a, b) in enumerate(zip(oracle, got)):
            assert_outcome_equal(a, b, f"cell {k}")

    def test_pickle_gives_plain_telemetry(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        tasks = _scheduled(_tasks(
            mixed_plans, catalog.spec, (0.0, 0.6), 4.0, config,
            guard=GuardConfig(),
        ))
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            # A pickled view is the oracle's plain bundle, byte for byte.
            assert pickle.dumps(b) == pickle.dumps(a)
            clone = pickle.loads(pickle.dumps(b))
            assert type(clone.result.telemetry) is Telemetry
            assert_outcome_equal(a, clone, "pickled")
            assert_outcome_equal(a, b, "after pickling")

    def test_pickled_size_independent_of_group(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        task = _tasks(mixed_plans[:1], catalog.spec, (0.6,), 5.0, config)[0]
        crowd = [task] * 300
        groups, _ = partition_cells(crowd)
        assert [len(p) for p in groups.values()] == [300]
        alone = run_batched_cells([task])[0]
        shared = run_batched_cells(crowd)[150]
        assert len(pickle.dumps(shared)) == len(pickle.dumps(alone))
        assert pickle.dumps(shared) == pickle.dumps(alone)


def _one_block_sweep(plans, spec, schedules, config, guard):
    """One task list whose lanes differ in every lane attribute.

    Manager kinds (POM, Heracles on both paths), two durations, no
    schedule or one of two distinct fault schedules, and budgeted
    lanes, spread so that every combination shares the block.
    """
    faults = (None, schedules["meter-mix"], schedules["control-mix"])
    tasks = [
        Cell(
            plan, spec, level, (6.0, 11.0)[(k + j) % 2], config,
            plan.be_app, faults[(k + 2 * j) % 3], guard,
        )
        for k, plan in enumerate(plans)
        for j, level in enumerate((0.0, 0.4, 0.9))
    ]
    return _scheduled(tasks)


class TestOneBlock:
    """A sweep mixing kinds, durations and schedules is one lane block."""

    @pytest.mark.parametrize("guard", [
        None,
        GuardConfig(deep_check_every=4),
        GuardConfig(cap_margin_w=-40.0, cap_grace_steps=1,
                    lc_min_cores=9, lc_min_ways=6),
    ], ids=["noguard", "guard", "violating"])
    def test_mixed_lanes_bit_exact(
        self, catalog, mixed_plans, schedules, guard
    ):
        config = SimConfig(warmup_s=2.0, seed=5)
        tasks = _one_block_sweep(
            mixed_plans, catalog.spec, schedules, config, guard
        )
        assert {type(t.plan.manager_factory).__name__ for t in tasks} == {
            "PomFactory", "HeraclesFactory", "SlackTargetPomFactory",
        }
        assert {t.duration_s for t in tasks} == {6.0, 11.0}
        assert len({id(t.faults) for t in tasks}) == 3
        assert {t.schedule is None for t in tasks} == {True, False}
        groups, fallback = partition_cells(tasks)
        assert not fallback
        assert [len(p) for p in groups.values()] == [len(tasks)]
        oracle = _oracle(tasks)
        if guard is not None and guard.cap_margin_w < 0:
            assert any(
                o.result.guard_report.total_violations for o in oracle
            ), "scenario must actually violate"
        for k, (a, b) in enumerate(zip(oracle, run_batched_cells(tasks))):
            assert_outcome_equal(a, b, f"lane {k} guard={guard!r}")


class TestNoSilentDemotion:
    """A failure inside an admitted batched group propagates.

    Only the probe routes cells to the oracle.  Rerunning a group on the
    oracle after the batched core raised would hide the bug behind a
    ~55x slower sweep that still returns the right numbers.
    """

    def test_collect_error_reaches_run_cluster(
        self, catalog, mixed_plans, monkeypatch
    ):
        def broken_collect(self):
            raise RuntimeError("planted batched-core bug")

        monkeypatch.setattr(BatchedClusterSim, "collect", broken_collect)
        with pytest.raises(RuntimeError, match="planted batched-core bug"):
            run_cluster(
                mixed_plans[:2], catalog.spec, levels=(0.5,), duration_s=3.0,
                config=SimConfig(seed=0), engine="batched",
            )

    def test_probe_error_raises_like_the_oracle(self, catalog, mixed_plans):
        """A factory that raises on its first call fails both engines
        with the same ``ExecutionError``; the batched engine must not
        retry the cell on the oracle, where the second call succeeds."""
        messages = []
        for engine in ("object", "batched"):
            flaky = FirstCallRaises(mixed_plans[1].manager_factory)
            plans = [mixed_plans[0], replace(mixed_plans[1], manager_factory=flaky)]
            with pytest.raises(ExecutionError, match="planted first-call failure") as info:
                run_cluster(
                    plans, catalog.spec, levels=(0.5,), duration_s=3.0,
                    config=SimConfig(seed=0), engine=engine,
                )
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("task 1 of 2 (_run_cell)")


class FirstCallRaises:
    """Wraps a manager factory; its first call raises, later ones build."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self, server):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("planted first-call failure")
        return self.factory(server)


class UnhashableModel(IndirectUtilityModel):
    """A fitted model that cannot key the batched core's solver memo."""

    __hash__ = None


class SubclassedPomManager(PowerOptimizedManager):
    """A manager type the batched core does not replicate."""


@dataclass(frozen=True)
class SubclassedPomFactory:
    model: object

    def __call__(self, server):
        return SubclassedPomManager(server, model=self.model)


class TestProbeFallback:
    """Cells the probe cannot claim run on the oracle, with a reason."""

    @pytest.mark.parametrize("case, reason", [
        ("unhashable-model", "unhashable POM model"),
        ("custom-manager", "custom manager type SubclassedPomManager"),
    ], ids=["unhashable-model", "custom-manager"])
    def test_fallback_reason(self, catalog, mixed_plans, case, reason):
        pom = mixed_plans[0]
        model = pom.manager_factory.model
        if case == "unhashable-model":
            factory = PomFactory(model=UnhashableModel(model.perf, model.power, model.names))
        else:
            factory = SubclassedPomFactory(model)
        plans = [replace(pom, manager_factory=factory), mixed_plans[3]]
        tasks = _tasks(plans, catalog.spec, (0.3, 0.7), 4.0, SimConfig(seed=0))
        groups, fallback = partition_cells(tasks)
        assert fallback == {0: reason, 1: reason}
        assert [len(p) for p in groups.values()] == [2]
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, case)


class TestGuardReportDifferential:
    """Violating runs: reports and enforce-mode raises must match."""

    def test_record_mode_violations_bit_exact(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        strict = GuardConfig(
            cap_margin_w=-40.0, cap_grace_steps=1,
            lc_min_cores=9, lc_min_ways=6,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=strict,
        )
        oracle = _oracle(tasks)
        total = sum(o.result.guard_report.total_violations for o in oracle)
        assert total > 0, "scenario must actually violate"
        for a, b in zip(oracle, run_batched_cells(tasks)):
            assert_outcome_equal(a, b, "strict")

    def test_enforce_mode_raise_equivalent(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        enforce = GuardConfig(
            mode="enforce", cap_margin_w=-40.0, cap_grace_steps=1,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=enforce,
        )

        def outcome(fn, *args, **kwargs):
            try:
                fn(*args, **kwargs)
                return None
            except Exception as exc:  # noqa: BLE001 - comparing raises
                return type(exc).__name__, str(exc)

        oracle = outcome(map_ordered, _run_cell, [(t,) for t in tasks])
        batched = outcome(run_batched_cells, tasks)
        assert oracle is not None, "enforce scenario must raise"
        assert oracle == batched


class TestEngineKnob:
    """run_cluster / run_policy produce identical results per engine."""

    def test_run_cluster_engines_agree(self, catalog, mixed_plans):
        kwargs = dict(
            levels=(0.2, 0.6), duration_s=7.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        base = run_cluster(mixed_plans, catalog.spec, engine="object", **kwargs)
        for dedupe in (False, True):
            got = run_cluster(
                mixed_plans, catalog.spec, dedupe=dedupe,
                engine="batched", **kwargs,
            )
            assert len(got.outcomes) == len(base.outcomes)
            for a, b in zip(base.outcomes, got.outcomes):
                assert_outcome_equal(a, b, f"dedupe={dedupe}")

    def test_default_engine_context(self, catalog, mixed_plans):
        kwargs = dict(levels=(0.5,), duration_s=5.0, config=SimConfig(seed=3))
        with default_engine("object"):
            base = run_cluster(mixed_plans[:2], catalog.spec, **kwargs)
        got = run_cluster(mixed_plans[:2], catalog.spec, **kwargs)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "ctx")

    def test_run_policy_engines_agree(self, catalog):
        kwargs = dict(levels=(0.2, 0.6), duration_s=7.0,
                      sim_config=SimConfig(seed=3))
        sweep = policy_sweep(catalog, "pocolo", **kwargs)
        base = run_sweeps([sweep], engine="object")[0]
        got = run_sweeps([sweep], engine="batched")[0]
        assert len(base.outcomes) == len(got.outcomes)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "policy")


class TestEvaluationDifferential:
    """The Fig 12/13 and Fig 15 evaluations agree across engines.

    Both evaluators plan every (policy, placement seed) run and execute
    them as one sweep on the default engine; here each runs once under
    the oracle and once under the default, and every outcome field must
    match.  Every evaluation cell must also take the batched path: a
    manager change that demoted cells to the per-object fallback would
    slow the evaluation ~55x without changing a number.
    """

    KWARGS = dict(placement_seeds=range(2), levels=(0.3, 0.7), duration_s=4.0)

    #: The ``policy_eval`` benchmark's shape (its 25 s cells over the
    #: default levels) with one placement seed instead of four: long
    #: enough for the cap loop's restore backoff and duty cycling to
    #: act.  The benchmark's own check compares the batched engine with
    #: itself, so this is the cross-engine check at that shape.
    BENCHMARK_SHAPE = dict(placement_seeds=(1234,), duration_s=25.0)

    def _both_engines(self, monkeypatch, evaluate, *args, kwargs=KWARGS):
        swept = []
        real = pipeline.run_sweeps

        def recording(sweeps, *rest, **kwargs):
            swept.append([
                cell for sweep in sweeps for cell in plan_cluster_tasks(sweep)[0]
            ])
            return real(sweeps, *rest, **kwargs)

        monkeypatch.setattr(pipeline, "run_sweeps", recording)
        with default_engine("object"):
            oracle = evaluate(*args, **kwargs)
        default = evaluate(*args, **kwargs)
        assert len(swept) == 2, "each evaluation must execute as one sweep"
        assert len(swept[0]) == len(swept[1])
        _, fallback = partition_cells(swept[1])
        assert fallback == {}, "evaluation cells fell back to the oracle"
        return oracle, default

    def test_policy_evaluation_engines_agree(self, catalog, monkeypatch):
        self._assert_policies_equal(*self._both_engines(
            monkeypatch, evaluate_all_policies, catalog
        ))

    def test_policy_evaluation_at_benchmark_shape(self, catalog, monkeypatch):
        oracle, default = self._both_engines(
            monkeypatch, evaluate_all_policies, catalog,
            kwargs=self.BENCHMARK_SHAPE,
        )
        self._assert_policies_equal(oracle, default)
        stats = [
            o.result.cap_stats
            for ev in oracle.values() for run in ev.runs for o in run.outcomes
        ]
        assert sum(s.duty_limited_samples for s in stats), (
            "the cap loop never duty-cycled a BE tenant at this shape"
        )

    @staticmethod
    def _assert_policies_equal(oracle, default):
        assert list(oracle) == list(default) == ["random", "pom", "pocolo"]
        for policy, want in oracle.items():
            got = default[policy]
            assert len(got.runs) == len(want.runs)
            for k, (run_a, run_b) in enumerate(zip(want.runs, got.runs)):
                assert len(run_a.outcomes) == len(run_b.outcomes)
                for a, b in zip(run_a.outcomes, run_b.outcomes):
                    assert_outcome_equal(a, b, f"{policy} run {k}")
            for field in (
                "be_throughput_by_server", "power_utilization_by_server",
                "cluster_be_throughput", "cluster_power_utilization",
                "violation_fraction",
            ):
                assert getattr(got, field) == getattr(want, field), (
                    f"{policy}: {field}"
                )

    def test_operating_points_engines_agree(self, catalog, monkeypatch):
        oracle, default = self._both_engines(
            monkeypatch, measure_operating_points, catalog
        )
        assert list(oracle) == list(default)
        assert oracle == default


_SWEEP_SNIPPET = """\
from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.evaluation.pipeline import HeraclesFactory
from repro.sim.cluster import ServerPlan
from repro.sim.colocation import SimConfig


def build_sweep():
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    plans = [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in [("xapian", "rnn"), ("sphinx", "graph")]
    ]
    kwargs = dict(
        levels=[0.25, 0.5, 0.75], duration_s=150.0, config=SimConfig(seed=11)
    )
    return plans, REFERENCE_SPEC, kwargs
"""

_CHILD_MAIN = _SWEEP_SNIPPET + """

if __name__ == "__main__":
    import sys

    from repro.runtime import run_cluster_checkpointed

    plans, spec, kwargs = build_sweep()
    # The oracle lands cells one at a time, so the kill lands mid-sweep.
    run_cluster_checkpointed(
        plans, spec, sys.argv[1], resume=True, checkpoint_every=1,
        engine="object", **kwargs
    )
"""


class TestCrossEngineResume:
    """A checkpoint written under one engine resumes under the other."""

    def _flatten(self, result):
        return [
            (o.lc_name, o.be_name, o.level,
             tuple(getattr(o.result, f) for f in RESULT_FIELDS))
            for o in result.outcomes
        ]

    def test_partial_checkpoints_cross_resume(
        self, catalog, mixed_plans, tmp_path
    ):
        kwargs = dict(
            levels=(0.2, 0.6, 0.9), duration_s=10.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        clean = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "clean.ckpt",
            engine="object", **kwargs
        )
        # Full batched run equals the object run outright.
        batched = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "batched.ckpt",
            engine="batched", **kwargs,
        )
        for a, b in zip(clean.outcomes, batched.outcomes):
            assert_outcome_equal(a, b, "full-batched")
        # Roll each checkpoint back to a partial state and resume it
        # under the *other* engine: results must not change a bit.
        for source, resume_engine, keep in [
            ("clean.ckpt", "batched", 4),
            ("batched.ckpt", "object", 3),
        ]:
            path = tmp_path / source
            keep_cells(path, sorted(read_journal(path).cells)[:keep])
            resumed = run_cluster_checkpointed(
                mixed_plans, catalog.spec, path, resume=True,
                engine=resume_engine, **kwargs,
            )
            for a, b in zip(clean.outcomes, resumed.outcomes):
                assert_outcome_equal(a, b, f"{source}->{resume_engine}")

    def test_sigkill_then_batched_resume(self, tmp_path):
        """A real SIGKILL mid-sweep; the survivor resumes batched."""
        script = tmp_path / "child_sweep.py"
        script.write_text(_CHILD_MAIN)
        ckpt = tmp_path / "sweep.ckpt"
        with subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        ) as child:
            try:
                deadline = time.monotonic() + 60.0
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
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, engine="batched", **kwargs
        )
        clean = run_cluster(plans, spec, engine="object", **kwargs)
        assert len(resumed.outcomes) == len(clean.outcomes) == 6
        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "sigkill-resume")
