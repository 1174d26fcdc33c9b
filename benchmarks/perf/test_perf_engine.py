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
    """The guard monitor: results unchanged, overhead gated.

    Mirrors the budget gate: the record-mode monitor's tax on the
    10-server per-object sweep (the engine the committed figure was
    recorded on) must stay within ``max(5%, committed + 3 pp)`` of the
    committed ``guard_overhead_10`` figure, measured as interleaved
    per-arm minima.
    """

    def test_guard_overhead_gate(self, cat):
        from repro.guard import GuardConfig

        entry = _committed("guard_overhead_10")
        plans = sc.fleet_plans(cat, 10)
        guard = GuardConfig()
        kwargs = dict(dedupe=True, engine="object")
        sc.run_fleet(cat, plans, **kwargs)  # warm model/grid caches
        plain_s = guarded_s = float("inf")
        plain = guarded = None
        for _ in range(7):
            t0 = time.perf_counter()
            plain = sc.run_fleet(cat, plans, **kwargs)
            plain_s = min(plain_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            guarded = sc.run_fleet(cat, plans, guard=guard, **kwargs)
            guarded_s = min(guarded_s, time.perf_counter() - t0)
        assert _flat(guarded) == _flat(plain), "guards changed the results"
        overhead_pct = 100.0 * (guarded_s / plain_s - 1.0)
        ceiling = max(5.0, entry["overhead_pct"] + 3.0)
        assert overhead_pct <= ceiling, (
            f"guard monitor overhead regressed: measured "
            f"{overhead_pct:.1f}%, committed {entry['overhead_pct']}%, "
            f"gate ceiling {ceiling:.1f}% — investigate before "
            "refreshing BENCH_engine.json"
        )


class TestFleetRunLayers:
    """The two layers that dominated the crash-safe fleet sweep, gated.

    Each gate re-runs its ``run_bench.py`` scenario, which asserts its
    own result equivalence, and holds the measured figure to the
    committed one times a relative slack.  The slacks come from four
    full ``run_bench.py`` runs on the 2-CPU recording host, which read
    14.8-21.1x for the LP/Hungarian ratio and 335-578% for the
    checkpoint overhead, plus standalone repeats that reached 23.3x and
    666%.  The dense pivot read 26-41x there, and re-pickling every
    completed cell per save 1159-1402%, so both land above the
    ceilings.
    """

    LP_SLACK = 0.25
    CHECKPOINT_SLACK = 1.0

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

    def test_checkpoint_overhead_gate(self, cat):
        entry = _committed("checkpoint_overhead_48")
        measured = run_bench.bench_checkpoint_overhead(cat)["overhead_pct"]
        ceiling = entry["overhead_pct"] * (1.0 + self.CHECKPOINT_SLACK)
        assert measured <= ceiling, (
            f"checkpointing regressed: measured {measured:.0f}% over the "
            f"plain sweep, committed {entry['overhead_pct']}%, gate "
            f"ceiling {ceiling:.0f}% — investigate before refreshing "
            "BENCH_engine.json"
        )
