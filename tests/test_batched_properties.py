"""Property-based invariants of the batched structure-of-arrays core.

Hypothesis pins the algebra the batched engine must obey if its lanes
are truly independent reproductions of the per-object oracle:

* **permutation invariance** — shuffling the task list shuffles the
  results and changes nothing else (no cross-lane leakage);
* **batch of one is the scalar path** — a single-lane batch equals the
  oracle cell bit for bit;
* **concatenation is union** — running two clusters in one batch equals
  running them separately and concatenating;
* **one block, any lane mix** — sub-sweeps that differ in manager kind,
  duration, fault schedule and cap schedule share one lane block, and a
  shuffled concatenation of them equals each sub-sweep run alone.

All comparisons reuse :func:`assert_outcome_equal`, i.e. exact floats
down to every telemetry tick and guard violation.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.budget.schedule import CapSchedule
from repro.engine.batched import partition_cells, run_batched_cells
from repro.evaluation.pipeline import (
    ServerPlan,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
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
from repro.sim.cluster import Cell, _run_cell
from repro.sim.colocation import SimConfig

from tests.test_batched_differential import (
    SlackTargetPomFactory,
    assert_outcome_equal,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_CACHE = {}


def _fixture():
    """Task pool + baseline batched results, built once per process."""
    if "tasks" not in _CACHE:
        catalog = fit_catalog(seed=7)
        pom = cluster_plans(
            catalog, placement_for_policy(catalog, "pocolo"), "pocolo"
        )
        her = cluster_plans(
            catalog, placement_for_policy(catalog, "random"), "random"
        )
        plans = list(pom[:2]) + list(her[:1])
        plans.append(ServerPlan(
            lc_app=pom[0].lc_app, be_app=pom[0].be_app,
            provisioned_power_w=pom[0].provisioned_power_w,
            manager_factory=SlackTargetPomFactory(pom[0].manager_factory.model),
        ))
        plans.append(ServerPlan(
            lc_app=pom[1].lc_app, be_app=None,
            provisioned_power_w=pom[1].provisioned_power_w,
            manager_factory=pom[1].manager_factory,
        ))
        config = SimConfig(warmup_s=2.0, seed=4)
        guard = GuardConfig(deep_check_every=3)
        tasks = [
            Cell(plan, catalog.spec, level, 5.0, config, plan.be_app, None, guard)
            for plan in plans
            for level in (0.0, 0.5, 0.9)
        ]
        _CACHE["tasks"] = tasks
        _CACHE["catalog"] = catalog
        _CACHE["plans"] = plans
        _CACHE["config"] = config
        _CACHE["guard"] = guard
        _CACHE["baseline"] = run_batched_cells(tasks)
    return _CACHE["tasks"], _CACHE["baseline"]


N_TASKS = 15  # len(plans) * len(levels); pinned so strategies can draw


def test_pool_size_matches_strategies():
    tasks, baseline = _fixture()
    assert len(tasks) == len(baseline) == N_TASKS


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(perm=st.permutations(range(N_TASKS)))
def test_server_permutation_invariance(perm):
    tasks, baseline = _fixture()
    shuffled = run_batched_cells([tasks[i] for i in perm])
    for out_pos, src in enumerate(perm):
        assert_outcome_equal(
            baseline[src], shuffled[out_pos], f"perm pos {out_pos}"
        )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(index=st.integers(min_value=0, max_value=N_TASKS - 1))
def test_batch_of_one_is_scalar_path(index):
    tasks, baseline = _fixture()
    solo = run_batched_cells([tasks[index]])
    assert len(solo) == 1
    # Equal to the same lane inside the full batch...
    assert_outcome_equal(baseline[index], solo[0], "vs-batch")
    # ...and to the per-object oracle outright.
    key = ("scalar", index)
    if key not in _CACHE:
        _CACHE[key] = _run_cell(tasks[index])
    assert_outcome_equal(_CACHE[key], solo[0], "vs-oracle")


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(split=st.integers(min_value=0, max_value=N_TASKS))
def test_concat_of_clusters_is_union(split):
    tasks, baseline = _fixture()
    first, second = tasks[:split], tasks[split:]
    merged = (
        (run_batched_cells(first) if first else [])
        + (run_batched_cells(second) if second else [])
    )
    for a, b in zip(baseline, merged):
        assert_outcome_equal(a, b, f"split={split}")


def _sub_sweeps():
    """Sub-sweeps differing in every lane attribute, and each one's
    outcomes when it runs alone."""
    if "subs" not in _CACHE:
        _fixture()
        catalog, plans = _CACHE["catalog"], _CACHE["plans"]
        config, guard = _CACHE["config"], _CACHE["guard"]
        stale = catalog.lc_fits[list(catalog.lc_fits)[1]].model
        meter = FaultSchedule([
            MeterDrift(start_s=0.5, duration_s=2.0,
                       bias_w=-2.0, rate_w_per_s=-1.5),
            MeterDropout(start_s=2.6, duration_s=0.5),
            MeterStuckAt(start_s=3.2, duration_s=1.0),
        ])
        control = FaultSchedule([
            LoadSpike(start_s=1.0, duration_s=1.5, factor=1.8),
            TelemetryGap(start_s=2.0, duration_s=1.0),
            ModelStaleness(start_s=0.5, duration_s=2.0, model=stale),
        ])

        def sub(plan_ids, duration_s, faults, budgeted=False):
            cells = []
            for k in plan_ids:
                plan = plans[k]
                schedule = None
                if budgeted:
                    cap_w = plan.provisioned_power_w
                    schedule = CapSchedule(
                        times_s=(0.0, 1.5), caps_w=(0.9 * cap_w, 0.7 * cap_w),
                    )
                for level in (0.0, 0.5, 0.9):
                    cells.append(Cell(
                        plan, catalog.spec, level, duration_s, config,
                        plan.be_app, faults, guard, schedule,
                    ))
            return cells

        subs = [
            sub((0, 1), 5.0, None),              # POM, unfaulted
            sub((2,), 3.0, meter),               # Heracles
            sub((3,), 5.0, control),             # POM, raised slack target
            sub((4, 0), 3.0, control, budgeted=True),  # POM, budgeted
        ]
        _CACHE["subs"] = subs
        _CACHE["alone"] = [run_batched_cells(cells) for cells in subs]
    return _CACHE["subs"], _CACHE["alone"]


def test_sub_sweeps_alone_match_the_oracle():
    subs, alone = _sub_sweeps()
    for s, (cells, outcomes) in enumerate(zip(subs, alone)):
        for j, (cell, outcome) in enumerate(zip(cells, outcomes)):
            assert_outcome_equal(_run_cell(cell), outcome, f"sub {s} cell {j}")


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_shuffled_concat_of_sub_sweeps_is_each_alone(data):
    subs, alone = _sub_sweeps()
    chosen = data.draw(st.lists(
        st.sampled_from(range(len(subs))), min_size=1,
        max_size=len(subs), unique=True,
    ))
    cells = [(s, j) for s in chosen for j in range(len(subs[s]))]
    perm = data.draw(st.permutations(range(len(cells))))
    shuffled = [cells[p] for p in perm]
    tasks = [subs[s][j] for s, j in shuffled]
    groups, fallback = partition_cells(tasks)
    assert not fallback
    assert [len(p) for p in groups.values()] == [len(tasks)]
    for (s, j), outcome in zip(shuffled, run_batched_cells(tasks)):
        assert_outcome_equal(alone[s][j], outcome, f"sub {s} cell {j}")
