"""Perf-regression benchmarks for the execution engine.

Run with timing::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

or as a pure correctness smoke (what CI's perf-smoke job does)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q --benchmark-disable

Every benchmarked pair also asserts result equivalence, so a perf run
doubles as a differential check on the scenario it times.  The numbers
that feed the repo's perf trajectory are produced by ``run_bench.py``
(see ``BENCH_engine.json``); these tests exist to catch *regressions*
— in speed when timed, in correctness always.
"""

import json
import pathlib
import time

import numpy as np
import perf_scenarios as sc
import pytest
import run_bench

from repro.core.placement import _build_performance_matrix_reference
from repro.engine.vectorized import build_performance_matrix_vectorized


@pytest.fixture(scope="module")
def cat():
    return sc.catalog()


def _committed(name):
    """The named scenario of the committed ``BENCH_engine.json``."""
    committed = json.loads(
        (pathlib.Path(__file__).resolve().parents[2]
         / "BENCH_engine.json").read_text()
    )
    return next(s for s in committed["scenarios"] if s["name"] == name)


def _floor_gate(entry, field, measured, slack):
    """Hold a measured speedup to the committed one less ``slack``."""
    floor = entry[field] * (1.0 - slack)
    assert measured >= floor, (
        f"{entry['name']} regressed: measured {field} {measured:.2f}x, "
        f"committed {entry[field]}x, gate floor {floor:.2f}x — "
        "investigate before refreshing BENCH_engine.json"
    )


def _flat(result):
    return [
        (
            o.lc_name,
            o.be_name,
            o.level,
            o.result.avg_be_throughput_norm,
            o.result.avg_power_w,
            o.result.energy_kwh,
        )
        for o in result.outcomes
    ]


class TestMatrixPopulation:
    def test_matrix_reference_loop(self, benchmark, cat):
        servers, be_models = sc.matrix_inputs(cat, replicas=4)
        matrix = benchmark(
            _build_performance_matrix_reference, servers, be_models, cat.spec
        )
        assert matrix.values.shape == (16, 16)

    def test_matrix_vectorized(self, benchmark, cat):
        servers, be_models = sc.matrix_inputs(cat, replicas=4)
        reference = _build_performance_matrix_reference(
            servers, be_models, cat.spec
        )
        from repro.workloads.traces import UNIFORM_EVAL_LEVELS

        matrix = benchmark(
            build_performance_matrix_vectorized,
            servers,
            be_models,
            cat.spec,
            levels=UNIFORM_EVAL_LEVELS,
        )
        assert np.array_equal(matrix.values, reference.values)

    #: Twenty-four ``run_bench.bench_matrix`` runs on the 2-CPU recording
    #: host read 1.40-2.30x cold and 5.58-11.36x warm, medians 1.62x and
    #: 7.4x; all but one read at most 10% below the committed 1.59x and
    #: 7.4x (the exception, 1.40x and 5.58x, ran while the host was about
    #: twice as slow as usual).  The loop reference reads the model grid
    #: through the POM solve, as the engine does, so both ratios moved
    #: when the solve stopped evaluating the scalar model per candidate.
    SLACK = 0.10

    @pytest.mark.parametrize("field", ["speedup", "speedup_warm"])
    def test_matrix_speedup_gate(self, cat, field):
        entry = _committed("matrix_population_16x16")
        measured = run_bench.bench_matrix(cat, replicas=4)[field]
        _floor_gate(entry, field, measured, self.SLACK)


class TestClusterSweep:
    def test_cluster_10_serial(self, benchmark, cat):
        plans = sc.fleet_plans(cat, 10)
        result = benchmark.pedantic(
            sc.run_fleet, args=(cat, plans), kwargs={"engine": "object"},
            rounds=1, iterations=1,
        )
        assert len(result.outcomes) == 10 * len(sc.SWEEP_LEVELS)

    def test_cluster_10_engine(self, benchmark, cat):
        plans = sc.fleet_plans(cat, 10)
        serial = sc.run_fleet(cat, plans, engine="object")
        result = benchmark.pedantic(
            sc.run_fleet, args=(cat, plans), kwargs={"dedupe": True},
            rounds=1, iterations=1,
        )
        assert _flat(result) == _flat(serial)

    def test_cluster_100_engine(self, benchmark, cat):
        plans = sc.fleet_plans(cat, 100)
        result = benchmark.pedantic(
            sc.run_fleet, args=(cat, plans), kwargs={"dedupe": True},
            rounds=1, iterations=1,
        )
        assert len(result.outcomes) == 100 * len(sc.SWEEP_LEVELS)

    def test_cluster_1000_engine(self, benchmark, cat):
        plans = sc.fleet_plans(cat, 1000)
        result = benchmark.pedantic(
            sc.run_fleet, args=(cat, plans), kwargs={"dedupe": True},
            rounds=1, iterations=1,
        )
        assert len(result.outcomes) == 1000 * len(sc.SWEEP_LEVELS)

    #: Both arms are process CPU seconds (``bench_cluster``): the wall
    #: minimum of a ~17 ms engine arm read 262-599x at 1000 servers on
    #: the shared 2-CPU host.  Eleven CPU-time runs there read
    #: 16.0-25.4x (10 servers), 126-167x (100) and 417-561x (1000); the
    #: committed figures are the median of the last five.
    SLACK = {10: 0.20, 100: 0.35, 1000: 0.35}

    @pytest.mark.parametrize("n_servers", [10, 100, 1000])
    def test_dedupe_speedup_gate(self, cat, n_servers):
        entry = _committed(f"cluster_sweep_{n_servers}")
        measured = run_bench.bench_cluster(cat, n_servers)["speedup"]
        _floor_gate(entry, "speedup", measured, self.SLACK[n_servers])


class TestBatchedEngine:
    """The structure-of-arrays core: exactness always, speed gated.

    The speed gate compares the *speedup ratio* (serial / batched, both
    measured here and now, dedupe off on both arms) against the ratio
    recorded in the committed ``BENCH_engine.json`` — ratios transfer
    across machines where absolute wall times do not.  A batched-core
    regression that costs more than 20% of the committed speedup fails
    the perf-smoke job.
    """

    def test_cluster_1000_batched(self, benchmark, cat):
        plans = sc.fleet_plans(cat, 1000)
        sc.run_fleet(cat, sc.fleet_plans(cat, 10), engine="batched")
        result = benchmark.pedantic(
            sc.run_fleet, args=(cat, plans), kwargs={"engine": "batched"},
            rounds=1, iterations=1,
        )
        assert len(result.outcomes) == 1000 * len(sc.SWEEP_LEVELS)

    def test_batched_speedup_regression_gate(self, cat):
        entry = _committed("batched_sweep_100")
        plans = sc.fleet_plans(cat, 100)
        t0 = time.perf_counter()
        serial = sc.run_fleet(cat, plans, engine="object")
        serial_s = time.perf_counter() - t0
        sc.run_fleet(cat, sc.fleet_plans(cat, 10), engine="batched")
        batched = None
        batched_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            batched = sc.run_fleet(cat, plans, engine="batched")
            batched_s = min(batched_s, time.perf_counter() - t0)
        assert _flat(batched) == _flat(serial), "batched != serial"
        speedup = serial_s / batched_s
        floor = 0.8 * entry["speedup"]
        assert speedup >= floor, (
            f"batched engine regressed: measured {speedup:.1f}x, committed "
            f"{entry['speedup']}x, gate floor {floor:.1f}x — investigate "
            "before refreshing BENCH_engine.json"
        )

    #: Twelve ``run_bench.bench_batched(cat, 1000)`` runs on the 2-CPU
    #: recording host (six with the one-block core, six before it) read
    #: 97-187x: at most 48% below the highest reading.  Both arms are
    #: single sweeps of a shared host, and the 12-17 s serial arm moves
    #: most.  Once the POM solve read the model grid, the serial arm ran
    #: about 30% faster while the batched arm did not move; eight runs
    #: then read 99-156x (100 servers: 66-87x), and the committed
    #: figures are the median of the last three.
    SLACK_1000 = 0.50

    def test_batched_1000_speedup_gate(self, cat):
        entry = _committed("batched_sweep_1000")
        measured = run_bench.bench_batched(cat, 1000)["speedup"]
        _floor_gate(entry, "speedup", measured, self.SLACK_1000)


class TestBudgetOverhead:
    """The budget arbiter: exactness across engines, overhead gated.

    The arbiter runs entirely at plan time, so its tax is the plan-time
    tree walk plus one cap-schedule lookup per capper subtick.  Each
    engine's tax is gated against its own committed figure in
    ``BENCH_engine.json``: ``budget_overhead_4`` (per-object engine,
    held to the ≤5% budget) and ``budget_overhead_4_batched`` (the
    default engine, whose short lanes make the same lookups a larger
    share; see ``docs/BUDGETS.md``).  Both arms of a measurement are
    interleaved minima so scheduler jitter cannot masquerade as arbiter
    overhead.
    """

    #: Interleaved reps per arm; a batched sweep takes a few
    #: milliseconds, so its minima need more reps to settle.
    REPS = {"object": 7, "batched": 25}

    def _overhead_pct(self, cat, engine):
        from repro.budget import BudgetConfig

        plans = sc.fleet_plans(cat, 4)
        budget = BudgetConfig(
            arbiter_period_s=0.5, lease_s=1.0, rack_size=2
        )
        sc.run_fleet(cat, plans, engine=engine)  # warm model/grid caches
        plain_s = budgeted_s = float("inf")
        budgeted = None
        for _ in range(self.REPS[engine]):
            t0 = time.perf_counter()
            sc.run_fleet(cat, plans, engine=engine)
            plain_s = min(plain_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            budgeted = sc.run_fleet(cat, plans, budget=budget, engine=engine)
            budgeted_s = min(budgeted_s, time.perf_counter() - t0)
        other = "batched" if engine == "object" else "object"
        crossed = sc.run_fleet(cat, plans, budget=budget, engine=other)
        assert _flat(crossed) == _flat(budgeted), (
            "budgeted batched != budgeted per-object"
        )
        return 100.0 * (budgeted_s / plain_s - 1.0)

    def _gate(self, entry, overhead_pct):
        # 3 percentage points of headroom over the committed number:
        # the effect is ~1ms on a ~30ms baseline, so single-digit
        # jitter is timer noise, not an arbiter regression (the same
        # role the batched gate's 20% speedup slack plays).
        ceiling = max(5.0, entry["overhead_pct"] + 3.0)
        assert overhead_pct <= ceiling, (
            f"budget arbiter overhead regressed: measured "
            f"{overhead_pct:.1f}%, committed {entry['overhead_pct']}%, "
            f"gate ceiling {ceiling:.1f}% — investigate before "
            "refreshing BENCH_engine.json"
        )

    def test_budget_overhead_gate(self, cat):
        entry = _committed("budget_overhead_4")
        assert entry["overhead_pct"] <= 5.0, (
            "the committed budget-arbiter overhead itself exceeds the "
            "5% budget — fix the arbiter, don't refresh the snapshot"
        )
        self._gate(entry, self._overhead_pct(cat, "object"))

    def test_budget_overhead_batched_gate(self, cat):
        entry = _committed("budget_overhead_4_batched")
        self._gate(entry, self._overhead_pct(cat, "batched"))


class TestGuardOverhead:
    """The guard monitor: results unchanged, its CPU cost gated.

    ``run_bench.bench_guard_overhead`` runs the record-mode monitor on
    the 10-server per-object sweep and asserts the guarded floats equal
    the unguarded ones.  The gate holds the CPU time spent in
    ``GuardMonitor.observe``, in units of a fixed reference loop's CPU
    time (``hook_ref``, each the minimum over interleaved reps), to the
    committed figure plus ``SLACK``: it measures what the invariants
    cost, so it stays put when the sweep around them gets faster, as
    the wall-clock overhead ratio did not.  Ten runs read 0.95-1.03
    reference loops; a monitor that ignores its deep-check stride read
    1.82-1.90, above the ceiling.
    """

    SLACK = 0.25

    def test_guard_overhead_gate(self, cat):
        entry = _committed("guard_overhead_10")
        measured = run_bench.bench_guard_overhead(cat)["hook_ref"]
        ceiling = entry["hook_ref"] * (1.0 + self.SLACK)
        assert measured <= ceiling, (
            f"guard monitor overhead regressed: it measured {measured:.2f} "
            f"reference loops, committed {entry['hook_ref']}, gate ceiling "
            f"{ceiling:.2f} — investigate before refreshing "
            "BENCH_engine.json"
        )


class TestFleetRunLayers:
    """The layers that dominated the crash-safe fleet sweep, gated.

    Each gate re-runs its ``run_bench.py`` scenario, which asserts its
    own result equivalence, and holds the measured figure to the
    committed one times a relative slack.  The LP/Hungarian ratio read
    53.0-58.3x over six full ``run_bench.py`` runs on the 2-CPU
    recording host; a dense pivot read 89x, above its ceiling.  The
    default assignment's speedup over the simplex solve read 48.5-54.6x
    (at most 11% below the highest reading); a Hungarian inner loop
    back on numpy scalar indexing lands below its floor.  The checkpoint
    gate holds the CPU time of the sweep's checkpoint hook, in units of
    a fixed reference loop's CPU time (``hook_ref``), to the committed
    figure: it measures what journaling costs, so it stays put when the
    sweep around it gets faster.  Ten runs of the scenario read
    3.67-4.42 reference loops; a copy that pickles every completed cell
    a second time on each save read 5.12-5.51, and one that fsyncs
    every cell 7.1, both above the ceiling.
    """

    LP_SLACK = 0.25
    CANONICAL_SLACK = 0.15
    CHECKPOINT_SLACK = 0.25

    def test_lp_assignment_gate(self, cat):
        entry = _committed("lp_assignment_48")
        measured = run_bench.bench_lp_assignment(cat)["lp_over_hungarian"]
        ceiling = entry["lp_over_hungarian"] * (1.0 + self.LP_SLACK)
        assert measured <= ceiling, (
            f"the simplex LP regressed against the Hungarian solver: "
            f"measured {measured:.1f}x, committed "
            f"{entry['lp_over_hungarian']}x, gate ceiling {ceiling:.1f}x — "
            "investigate before refreshing BENCH_engine.json"
        )

    def test_canonical_assignment_gate(self, cat):
        entry = _committed("canonical_assignment_48")
        measured = run_bench.bench_canonical_assignment(cat)["speedup"]
        _floor_gate(entry, "speedup", measured, self.CANONICAL_SLACK)

    def test_checkpoint_overhead_gate(self, cat):
        entry = _committed("checkpoint_overhead_48")
        measured = run_bench.bench_checkpoint_overhead(cat)["hook_ref"]
        ceiling = entry["hook_ref"] * (1.0 + self.CHECKPOINT_SLACK)
        assert measured <= ceiling, (
            f"checkpointing regressed: its hook measured {measured:.2f} "
            f"reference loops, committed {entry['hook_ref']}, gate "
            f"ceiling {ceiling:.2f} — investigate before refreshing "
            "BENCH_engine.json"
        )


class TestStepCallCount:
    """The batched core's per-tick work is flat in lanes, counted.

    Profiled call counts repeat exactly across processes once
    ``PYTHONHASHSEED`` is fixed, so this gate holds on any host, unlike
    the wall-clock gates above: ``BatchedClusterSim.step`` must make the
    same number of calls per tick at 100 and at 1000 servers, and no
    more than the ceiling ``run_bench.py`` recorded (with its Python and
    numpy versions).  A per-lane Python loop inside ``step()`` breaks
    the first check; a lost solver memo, a solve per lane and tick,
    breaks the second.
    """

    def test_step_calls_flat_in_lanes(self):
        entry = _committed("batched_step_calls")
        small, large = sc.step_calls(100), sc.step_calls(1000)
        assert small["steps"] == large["steps"] > 0
        assert small["calls"] == large["calls"], (
            f"step() calls grow with lanes: {small['calls']} over "
            f"{small['steps']} steps at 100 servers, {large['calls']} at "
            "1000 — a per-lane Python loop in the batched core?"
        )
        per_step = small["calls"] / small["steps"]
        assert per_step <= entry["ceiling"], (
            f"step() makes {per_step:.1f} profiled calls per tick, over the "
            f"recorded ceiling of {entry['ceiling']} (Python "
            f"{entry['python']}, numpy {entry['numpy']}) — investigate "
            "before refreshing BENCH_engine.json"
        )


class TestCollectCallCount:
    """The batched core's result assembly builds no per-lane object, counted.

    Counted like ``TestStepCallCount``: the profiled calls of
    ``BatchedClusterSim.collect`` and of its constructor over the
    fleet_wide-shaped sweep (3 levels of 3 s cells) at 100 and 1000
    servers, in a fresh ``PYTHONHASHSEED=0`` process.  ``collect`` fills
    numpy columns, so it must make the same number of calls at both
    sizes; the constructor reads each lane's plan and must stay under
    the ceiling ``run_bench.py`` recorded at 1000 servers.  A collect
    that builds each lane's ``LevelOutcome`` again makes five
    constructor calls per lane and fails the first check.
    """

    def test_collect_calls_flat_in_lanes(self):
        entry = _committed("batched_collect_calls")
        small, large = sc.collect_calls(100), sc.collect_calls(1000)
        assert (small["cells"], large["cells"]) == (
            100 * len(sc.SWEEP_LEVELS), 1000 * len(sc.SWEEP_LEVELS)
        )
        assert small["collect"] == large["collect"], (
            f"collect() calls grow with lanes: {small['collect']} at 100 "
            f"servers, {large['collect']} at 1000 — per-lane objects built "
            "in result assembly again?"
        )
        assert large["init"] <= entry["ceiling"], (
            f"BatchedClusterSim() makes {large['init']} profiled calls at "
            f"1000 servers, over the recorded ceiling of {entry['ceiling']} "
            f"(Python {entry['python']}, numpy {entry['numpy']}) — "
            "investigate before refreshing BENCH_engine.json"
        )


class TestColdSetupCallCount:
    """A cold set-up does each scalar evaluation once per distinct value.

    Counted like ``TestStepCallCount``: the profiled calls of one cold
    POColo placement and batched sweep of the catalog renamed to 48
    servers (every engine memo cleared first, a fresh
    ``PYTHONHASHSEED=0`` process) must stay under the ceiling
    ``run_bench.py`` recorded.  The memos are keyed by value, so the
    renamed replicas share the original catalog's 8 surface tables, 8
    model grids and 36 spare-capacity solves; a surface memo keyed by
    the profile's name again builds 96 tables and lands about 40% over
    the recorded count, and a spare-capacity memo keyed by the server's
    name makes 432 solves and lands about 30% over it.
    """

    def test_cold_setup_calls_under_ceiling(self):
        entry = _committed("cold_setup_calls")
        counted = sc.cold_setup_calls()
        assert counted["servers"] == entry["servers"]
        assert counted["calls"] <= entry["ceiling"], (
            f"a cold set-up makes {counted['calls']} profiled calls, over "
            f"the recorded ceiling of {entry['ceiling']} (Python "
            f"{entry['python']}, numpy {entry['numpy']}) — a memo keyed by "
            "name again? Investigate before refreshing BENCH_engine.json"
        )


class TestBudgetPlanCallCount:
    """The budget planner decides once per event, not once per period.

    Counted like ``TestStepCallCount``: the profiled calls of one
    ``plan_budget`` of the renamed 48-server fleet (racks of 4, 3 levels
    x 30 s, one crash, a record-mode guard, no infra faults), in a fresh
    ``PYTHONHASHSEED=0`` process, at the fleet's 1 s arbiter period and
    at 0.25 s.  Four times the ticks bring no new events, so the denser
    count must stay within ``BUDGET_PLAN_DENSITY_RATIO`` of the sparser
    one, and both under the ceiling ``run_bench.py`` recorded.  The
    per-tick walk the planner replaced reads 125,598 calls at 1 s and
    475,692 at 0.25 s, failing both checks.
    """

    def test_plan_calls_flat_in_ticks(self):
        entry = _committed("budget_plan_calls")
        counted = sc.budget_plan_calls()
        assert counted["servers"] == entry["servers"]
        sparse, dense = (
            counted["calls"][str(period)] for period in sc.BUDGET_PLAN_PERIODS_S
        )
        ratio = run_bench.BUDGET_PLAN_DENSITY_RATIO
        assert dense <= sparse * ratio, (
            f"plan_budget makes {dense} profiled calls at a "
            f"{sc.BUDGET_PLAN_PERIODS_S[1]}s arbiter period against {sparse} "
            f"at {sc.BUDGET_PLAN_PERIODS_S[0]}s, over {ratio}x — does the "
            "planner walk every tick again?"
        )
        assert max(sparse, dense) <= entry["ceiling"], (
            f"plan_budget makes {max(sparse, dense)} profiled calls, over the "
            f"recorded ceiling of {entry['ceiling']} (Python "
            f"{entry['python']}, numpy {entry['numpy']}) — investigate "
            "before refreshing BENCH_engine.json"
        )
