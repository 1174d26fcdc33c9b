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
  control tick of a fleet sweep, counted in a fresh process.
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
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", _STEP_CALLS_CHILD, str(n_servers)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])
