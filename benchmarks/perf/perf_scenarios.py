"""Shared scenario builders for the engine perf harness.

Used by the ``pytest-benchmark`` tests (``test_perf_engine.py``, which
CI also runs with ``--benchmark-disable`` as a correctness smoke) and by
``run_bench.py`` (which times serial-vs-engine pairs and emits
``BENCH_engine.json``).

The scenarios are built from the paper's fitted catalog so that the
timed code paths are the production ones:

* **matrix** — the placement performance matrix over an ``R``-times
  replicated catalog (R x 4 BE apps, R x 4 LC servers, 9 load levels);
* **cluster** — a fleet of N servers cycling the four paper server
  plans, swept over load levels (the Fig 12/13 shape at fleet scale);
* **placement LP** — the POColo matrix of the catalog replicated to
  fleet size, the assignment the cluster manager solves;
* **checkpointed sweep** — the cluster sweep through the crash-safe
  runner, checkpointing after every cell;
* **step calls** — the profiled calls the batched core makes per
  control tick of a fleet sweep, counted in a fresh process;
* **collect calls** — the profiled calls of the batched core's set-up
  and result assembly over a fleet sweep, counted in a fresh process;
* **cold set-up calls** — the profiled calls of one cold placement and
  batched sweep of the catalog renamed to 48 servers, counted in a
  fresh process;
* **budget plan calls** — the profiled calls of one ``plan_budget`` of
  a budgeted 48-server sweep at two arbiter periods, counted in a fresh
  process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.placement import LcServerSide
from repro.evaluation.pipeline import (
    FittedCatalog,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
)
from repro.sim.cluster import ServerPlan
from repro.sim.colocation import SimConfig

#: Load levels used by the cluster sweeps (a thinned Fig 12 sweep keeps
#: serial baselines measurable at 1000 servers).
SWEEP_LEVELS: Tuple[float, ...] = (0.2, 0.5, 0.8)

#: Per-cell simulated duration / warmup for the sweeps.
SWEEP_DURATION_S = 3.0
SWEEP_CONFIG = SimConfig(warmup_s=2.0, seed=0)


def catalog() -> FittedCatalog:
    """The paper's fitted catalog (same seed the benchmarks use)."""
    return fit_catalog(seed=7)


def matrix_inputs(
    cat: FittedCatalog, replicas: int = 4
) -> Tuple[List[LcServerSide], Dict[str, object]]:
    """Replicate the fitted 4x4 placement inputs ``replicas`` times.

    Every replica keeps its model (the expensive part is per-model) but
    gets a distinct name and slightly distinct provisioning, mirroring
    a heterogeneous fleet's matrix.
    """
    servers = [
        replace(
            s,
            name=f"{s.name}-r{k}",
            provisioned_power_w=s.provisioned_power_w + 0.25 * k,
        )
        for s in cat.lc_server_sides()
        for k in range(replicas)
    ]
    be_models = {
        f"{name}-r{k}": fit.model
        for name, fit in cat.be_fits.items()
        for k in range(replicas)
    }
    return servers, be_models


def renamed_catalog(cat: FittedCatalog, copies: int) -> FittedCatalog:
    """The catalog ``copies`` times over, every app under a distinct name.

    Replicas are renamed through their profiles and share their fits,
    as the benchmark's checkpointed fleet is: the physics of each
    replica is its original's, only the name differs.
    """
    def renamed(app, name):
        return replace(app, profile=replace(app.profile, name=name))

    lc_apps, be_apps, lc_fits, be_fits = {}, {}, {}, {}
    for k in range(copies):
        for name, app in cat.lc_apps.items():
            lc_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            lc_fits[f"{name}-{k:02d}"] = cat.lc_fits[name]
        for name, app in cat.be_apps.items():
            be_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            be_fits[f"{name}-{k:02d}"] = cat.be_fits[name]
    return FittedCatalog(spec=cat.spec, lc_apps=lc_apps, be_apps=be_apps,
                         lc_fits=lc_fits, be_fits=be_fits)


def fleet_plans(cat: FittedCatalog, n_servers: int) -> List[ServerPlan]:
    """A fleet of ``n_servers`` cycling the paper's four server plans.

    Replicated servers share app objects and value-equal manager
    factories — exactly the structure the engine's cell deduplication
    recognizes (one distinct (plan, level) cell per template).
    """
    placement = placement_for_policy(cat, "pocolo")
    base = cluster_plans(cat, placement, "pocolo")
    return [base[i % len(base)] for i in range(n_servers)]


def run_fleet(
    cat: FittedCatalog,
    plans: Sequence[ServerPlan],
    duration_s: float = SWEEP_DURATION_S,
    **kwargs,
):
    """One fleet sweep over :data:`SWEEP_LEVELS` (kwargs -> engine knobs)."""
    from repro.sim.cluster import run_cluster

    return run_cluster(
        plans,
        cat.spec,
        levels=SWEEP_LEVELS,
        duration_s=duration_s,
        config=SWEEP_CONFIG,
        **kwargs,
    )


def placement_matrix(cat: FittedCatalog, copies: int = 12) -> np.ndarray:
    """The POColo matrix of the catalog replicated ``copies`` times.

    Replicas share their fits, so the replicated catalog's matrix is the
    4 x 4 one tiled: ``4 * copies`` square, and full of exact ties.
    """
    return np.tile(cat.performance_matrix().values, (copies, copies))


def run_fleet_checkpointed(
    cat: FittedCatalog,
    plans: Sequence[ServerPlan],
    path: Path,
    duration_s: float = SWEEP_DURATION_S,
    **kwargs,
):
    """:func:`run_fleet` through the crash-safe runner, saving to ``path``."""
    from repro.runtime import run_cluster_checkpointed

    return run_cluster_checkpointed(
        plans,
        cat.spec,
        path,
        levels=SWEEP_LEVELS,
        duration_s=duration_s,
        config=SWEEP_CONFIG,
        **kwargs,
    )


#: Child process of :func:`step_calls`: after a 10-server sweep warms
#: the memos, a batched fleet sweep whose ``BatchedClusterSim.step``
#: calls run under cProfile; prints the profiled calls and the steps as
#: JSON.
_STEP_CALLS_CHILD = """\
import cProfile
import json
import pstats
import sys

import perf_scenarios as sc
from repro.engine.batched import BatchedClusterSim

cat = sc.catalog()
plans = sc.fleet_plans(cat, int(sys.argv[1]))
sc.run_fleet(cat, sc.fleet_plans(cat, 10), engine="batched")
profiler = cProfile.Profile()
step = BatchedClusterSim.step
steps = []


def profiled_step(self):
    steps.append(1)
    profiler.enable()
    step(self)
    profiler.disable()


BatchedClusterSim.step = profiled_step
sc.run_fleet(cat, plans, engine="batched", dedupe=False)
print(json.dumps({"calls": pstats.Stats(profiler).total_calls,
                  "steps": len(steps)}))
"""


def step_calls(n_servers: int) -> Dict[str, int]:
    """Profiled calls inside ``BatchedClusterSim.step`` over one batched
    fleet sweep of ``n_servers`` (dedupe off, warm memos), and the
    steps it took.

    Counted in a fresh process with ``PYTHONHASHSEED=0``: string
    hashing decides set and dict iteration order, and so the exact
    count; with it fixed the count repeats on any host.
    """
    return _child_json(_STEP_CALLS_CHILD, str(n_servers))


def _child_json(script: str, arg: str) -> Dict[str, int]:
    """Run ``script`` with ``arg`` in a fresh ``PYTHONHASHSEED=0``
    process; its last stdout line, parsed as JSON."""
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", script, arg],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


#: Child process of :func:`collect_calls`: after a 10-server sweep warms
#: the memos, a batched fleet sweep whose ``BatchedClusterSim``
#: constructor and ``collect`` each run under their own cProfile;
#: prints each one's profiled calls as JSON.
_COLLECT_CALLS_CHILD = """\
import cProfile
import json
import pstats
import sys

import perf_scenarios as sc
from repro.engine.batched import BatchedClusterSim

cat = sc.catalog()
plans = sc.fleet_plans(cat, int(sys.argv[1]))
sc.run_fleet(cat, sc.fleet_plans(cat, 10), engine="batched")
profilers = {"init": cProfile.Profile(), "collect": cProfile.Profile()}


def profiled(profiler, method):
    def run(self, *args):
        profiler.enable()
        try:
            return method(self, *args)
        finally:
            profiler.disable()
    return run


BatchedClusterSim.__init__ = profiled(profilers["init"], BatchedClusterSim.__init__)
BatchedClusterSim.collect = profiled(profilers["collect"], BatchedClusterSim.collect)
result = sc.run_fleet(cat, plans, engine="batched", dedupe=False)
counts = {name: pstats.Stats(p).total_calls for name, p in profilers.items()}
print(json.dumps(dict(counts, cells=len(result.outcomes))))
"""


def collect_calls(n_servers: int) -> Dict[str, int]:
    """Profiled calls inside ``BatchedClusterSim.__init__`` and
    ``collect`` over one batched fleet sweep of ``n_servers`` (dedupe
    off, warm memos), and the cells it returned.

    Counted in a fresh ``PYTHONHASHSEED=0`` process, as
    :func:`step_calls` is.
    """
    return _child_json(_COLLECT_CALLS_CHILD, str(n_servers))


#: Child process of :func:`cold_setup_calls`: a small sweep imports
#: every lazily loaded module, the engine memos are cleared, and the
#: POColo placement and batched sweep of the renamed catalog run under
#: cProfile; prints the profiled calls as JSON.
_COLD_SETUP_CHILD = """\
import cProfile
import json
import pstats
import sys

import perf_scenarios as sc
from repro.engine import clear_engine_caches
from repro.evaluation.pipeline import cluster_plans, placement_for_policy

cat = sc.catalog()
sc.run_fleet(cat, sc.fleet_plans(cat, 4), engine="batched")
fleet = sc.renamed_catalog(cat, int(sys.argv[1]))
clear_engine_caches()
profiler = cProfile.Profile()
profiler.enable()
plans = cluster_plans(fleet, placement_for_policy(fleet, "pocolo"), "pocolo")
sc.run_fleet(fleet, plans, engine="batched")
profiler.disable()
print(json.dumps({"calls": pstats.Stats(profiler).total_calls,
                  "servers": len(plans)}))
"""


#: Copies in the renamed fleet of :func:`cold_setup_calls`: 48 servers,
#: the size of the benchmark's checkpointed fleet.
RENAMED_COPIES = 12


def cold_setup_calls() -> Dict[str, int]:
    """Profiled calls of one cold POColo placement and batched sweep of
    the catalog renamed :data:`RENAMED_COPIES` times.

    Every engine memo starts empty, so the count is the set-up work a
    cold sweep does: surface tables, model grids, spare-capacity and
    POM solves.  Counted in a fresh process with ``PYTHONHASHSEED=0``,
    as :func:`step_calls` is.
    """
    return _child_json(_COLD_SETUP_CHILD, str(RENAMED_COPIES))


#: Child process of :func:`budget_plan_calls`: the POColo plans of the
#: renamed catalog, then for each arbiter period in ``argv[1]`` one
#: warm-up ``plan_budget`` and one under cProfile; prints the profiled
#: calls per period as JSON.
_BUDGET_PLAN_CHILD = """\
import cProfile
import json
import pstats
import sys

import perf_scenarios as sc
from repro.budget import BudgetConfig, plan_budget
from repro.evaluation.pipeline import cluster_plans, placement_for_policy
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.guard.invariants import GuardConfig
from repro.sim.cluster import Sweep

fleet = sc.renamed_catalog(sc.catalog(), sc.RENAMED_COPIES)
plans = cluster_plans(fleet, placement_for_policy(fleet, "pocolo"), "pocolo")
crash = ServerCrash(plans[0].lc_app.name, at_level_index=1)
calls = {}
for period_s in sys.argv[1].split(","):
    sweep = Sweep(
        plans, fleet.spec, sc.SWEEP_LEVELS, sc.BUDGET_PLAN_DURATION_S,
        fault_plan=ClusterFaultPlan(crashes=(crash,)),
        guard=GuardConfig(mode="record"),
        budget=BudgetConfig(arbiter_period_s=float(period_s),
                            lease_s=sc.BUDGET_PLAN_LEASE_S, rack_size=4),
    )
    plan_budget(sweep)
    profiler = cProfile.Profile()
    profiler.enable()
    plan_budget(sweep)
    profiler.disable()
    calls[period_s] = pstats.Stats(profiler).total_calls
print(json.dumps({"calls": calls, "servers": len(plans)}))
"""

#: The budgeted sweep of :func:`budget_plan_calls`, shaped like the
#: benchmark's checkpointed fleet: 30 s levels, 2 s leases, racks of 4.
BUDGET_PLAN_DURATION_S = 30.0
BUDGET_PLAN_LEASE_S = 2.0
#: Arbiter periods :func:`budget_plan_calls` counts at: the fleet's own
#: and one four times denser.
BUDGET_PLAN_PERIODS_S: Tuple[float, ...] = (1.0, 0.25)


def budget_plan_calls() -> Dict[str, object]:
    """Profiled calls of one ``plan_budget`` of the POColo plans of the
    catalog renamed :data:`RENAMED_COPIES` times (48 servers, racks of
    4, one crash, guarded, no infra faults), at each arbiter period of
    :data:`BUDGET_PLAN_PERIODS_S`.

    The planner walks event to event, so a denser arbiter period adds
    ticks but no events, and the count barely moves.  Counted in a
    fresh process with ``PYTHONHASHSEED=0``, as :func:`step_calls` is.
    """
    return _child_json(
        _BUDGET_PLAN_CHILD, ",".join(str(p) for p in BUDGET_PLAN_PERIODS_S)
    )
