"""Sharing-mode experiments: time-sharing vs spatial sharing (Section V-G).

The paper runs one best-effort app per server and sketches two ways to
host more: time-sharing ("first-come first-served, shortest job first")
and spatial sharing ("further partitioning of direct resources and
power", left as future work).  These drivers measure both on the
simulated substrate:

* :func:`compare_schedulers` — A4: a job mix under FCFS / SJF /
  round-robin, comparing mean response time and makespan.
* :func:`compare_sharing_modes` — A5: two BE apps on one LC server,
  time-shared (round-robin) vs spatially partitioned, comparing
  aggregate harvested throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.server_manager import PowerOptimizedManager
from repro.core.spatial import partition_spare
from repro.evaluation.motivation import true_min_power_allocation
from repro.evaluation.pipeline import FittedCatalog
from repro.hwmodel.capping import PowerCapController
from repro.hwmodel.meter import DEFAULT_SAMPLE_INTERVAL_S, PowerMeter
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import spare_of
from repro.sim.colocation import SimConfig, build_colocated_server
from repro.sim.timeshare import (
    BestEffortJob,
    FcfsScheduler,
    RoundRobinScheduler,
    SjfScheduler,
    TimeSharedColocationSim,
    TimeShareResult,
)
from repro.workloads.traces import ConstantTrace

#: Job mix for the scheduler comparison: one long job and
#: several short ones, the mix where FCFS and SJF diverge most.
DEFAULT_JOB_MIX: Tuple[Tuple[str, str, float], ...] = (
    ("train-big", "rnn", 25.0),
    ("compress-1", "pbzip", 3.0),
    ("rank-small", "graph", 3.0),
    ("train-small", "lstm", 4.0),
)


@dataclass(frozen=True)
class SchedulerComparisonRow:
    """One scheduler's outcome on the shared job mix."""

    scheduler: str
    mean_response_time_s: float
    makespan_s: float
    slo_violation_fraction: float
    all_done: bool


def _run_mix(catalog: FittedCatalog, scheduler) -> TimeShareResult:
    lc = catalog.lc_apps["xapian"]
    jobs = [
        BestEffortJob(name=name, app=catalog.be_apps[app], work_units=work)
        for name, app, work in DEFAULT_JOB_MIX
    ]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w()
    )
    manager = PowerOptimizedManager(server, model=catalog.lc_fits["xapian"].model)
    sim = TimeSharedColocationSim(
        server=server, lc_app=lc, trace=ConstantTrace(0.4),
        manager=manager, jobs=jobs, scheduler=scheduler,
        config=SimConfig(seed=0, warmup_s=0.0),
    )
    return sim.run(max_duration_s=600.0)


def compare_schedulers(catalog: FittedCatalog) -> List[SchedulerComparisonRow]:
    """A4: run the job mix under FCFS, SJF and round-robin.

    xapian serves 40 % load; each run stops after 600 s.
    """
    rows = []
    for scheduler in (FcfsScheduler(), SjfScheduler(),
                      RoundRobinScheduler(quantum_s=5.0)):
        result = _run_mix(catalog, scheduler)
        rows.append(
            SchedulerComparisonRow(
                scheduler=scheduler.name,
                mean_response_time_s=result.mean_response_time_s,
                makespan_s=result.makespan_s,
                slo_violation_fraction=result.slo_violation_fraction,
                all_done=result.all_done,
            )
        )
    return rows


@dataclass(frozen=True)
class SharingModeResult:
    """A5: aggregate harvested throughput under each sharing mode."""

    lc_name: str
    be_names: Tuple[str, ...]
    temporal_total: float
    spatial_total: float
    spatial_allocations: Dict[str, Tuple[int, int]]

    @property
    def spatial_advantage(self) -> float:
        """Relative gain of spatial over temporal sharing."""
        if self.temporal_total <= 0:
            return float("inf") if self.spatial_total > 0 else 0.0
        return self.spatial_total / self.temporal_total - 1.0


def compare_sharing_modes(catalog: FittedCatalog) -> SharingModeResult:
    """A5: graph and lstm on one sphinx server, time-shared vs spatially split.

    Both modes run sphinx at its least-power allocation for 30 % load
    for 120 s and enforce the provisioned cap with the real cap loop
    (round-robin quantum 5 s); the comparison metric is aggregate
    normalized BE throughput (time-average of the sum over tenants).
    """
    lc_name = "sphinx"
    be_names = ("graph", "lstm")
    level = 0.3
    duration_s = 120.0
    lc = catalog.lc_apps[lc_name]
    spec = catalog.spec
    provisioned = lc.peak_server_power_w()
    lc_alloc = true_min_power_allocation(lc, level)

    # --- temporal: round-robin over two endless jobs -------------------
    endless = 10_000.0
    jobs = [
        BestEffortJob(name=name, app=catalog.be_apps[name], work_units=endless)
        for name in be_names
    ]
    server = build_colocated_server(spec, lc, provisioned_power_w=provisioned)
    manager = PowerOptimizedManager(server, model=catalog.lc_fits[lc_name].model)
    sim = TimeSharedColocationSim(
        server=server, lc_app=lc, trace=ConstantTrace(level),
        manager=manager, jobs=jobs,
        scheduler=RoundRobinScheduler(quantum_s=5.0),
        config=SimConfig(seed=0, warmup_s=0.0),
    )
    temporal = sim.run(max_duration_s=duration_s)
    temporal_total = temporal.total_work_done / duration_s

    # --- spatial: partition the spare, run both tenants at once --------
    server = Server(spec, provisioned_power_w=provisioned, name="spatial")
    server.attach(lc.name, lc, role=PRIMARY)
    server.apply_allocation(lc.name, lc_alloc)
    spare = spare_of(spec, lc_alloc)
    budget = max(0.0, provisioned - spec.idle_power_w - lc.active_power_w(lc_alloc))
    models = {name: catalog.be_fits[name].model for name in be_names}
    share = partition_spare(models, spare, budget, spec)
    for name in be_names:
        app = catalog.be_apps[name]
        server.attach(name, app, role=SECONDARY)
        alloc = share.allocation_of(name)
        if not alloc.is_empty:
            server.apply_allocation(name, alloc)
    meter = PowerMeter(server.power_w, rng=np.random.default_rng(0))
    capper = PowerCapController(server, meter)
    rates = []
    steps = int(round(duration_s / DEFAULT_SAMPLE_INTERVAL_S))
    for k in range(steps):
        capper.step(k * DEFAULT_SAMPLE_INTERVAL_S)
        total = sum(
            catalog.be_apps[name].normalized_throughput(server.allocation_of(name))
            for name in be_names
        )
        rates.append(total)
    spatial_total = float(np.mean(rates))

    return SharingModeResult(
        lc_name=lc_name,
        be_names=be_names,
        temporal_total=temporal_total,
        spatial_total=spatial_total,
        spatial_allocations={
            name: (share.allocation_of(name).cores, share.allocation_of(name).ways)
            for name in be_names
        },
    )
