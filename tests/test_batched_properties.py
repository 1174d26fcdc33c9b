"""Property-based invariants of the batched structure-of-arrays core.

Hypothesis pins the algebra the batched engine must obey if its lanes
are truly independent reproductions of the per-object oracle:

* **permutation invariance** — shuffling the task list shuffles the
  results and changes nothing else (no cross-lane leakage);
* **batch of one is the scalar path** — a single-lane batch equals the
  oracle cell bit for bit;
* **concatenation is union** — running two clusters in one batch equals
  running them separately and concatenating;
* **state round-trip** — :meth:`BatchedClusterSim.export_state` /
  :meth:`import_state` taken at *any* tick resumes to a bit-identical
  result (the in-process analogue of the checkpoint codec).

All comparisons reuse :func:`assert_outcome_equal`, i.e. exact floats
down to every telemetry tick and guard violation.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.batched import (
    BatchedClusterSim,
    _partition,
    run_batched_cells,
)
from repro.evaluation.pipeline import (
    ServerPlan,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
)
from repro.guard.invariants import GuardConfig
from repro.sim.cluster import Cell, _run_cell
from repro.sim.colocation import SimConfig

from tests.test_batched_differential import (
    RandomHeraclesFactory,
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
            manager_factory=RandomHeraclesFactory(),
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


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pause_after=st.integers(min_value=0, max_value=6))
def test_state_roundtrip_resumes_bit_identical(pause_after):
    """Export at tick k, import into a fresh sim, finish: same result."""
    tasks, _ = _fixture()
    groups, fallback, infos = _partition(tasks, {})
    assert not fallback
    positions = max(groups.values(), key=len)
    group_tasks = [tasks[i] for i in positions]
    group_infos = [infos[i] for i in positions]

    donor = BatchedClusterSim(group_tasks, group_infos)
    for _ in range(pause_after):
        donor.step()
    snapshot = donor.export_state()
    donor.run()
    expected = donor.collect()

    resumed = BatchedClusterSim(group_tasks, group_infos)
    resumed.import_state(snapshot)
    resumed.run()
    for a, b in zip(expected, resumed.collect()):
        assert_outcome_equal(a, b, f"pause={pause_after}")
