"""The benchmark's workloads: seeded inputs, one iteration, checks.

Every workload drives the program only through its public entry points
and receives inputs generated here from the workload seed.  Each class
knows how to run one iteration, how many cells and simulated
server-seconds an iteration covers, the simulated cluster results
(``sim.*``), and how to re-run a fixed sample of its cells on the other
engine for the bit-identity check.

Simulated results come from the modelled cluster and are deterministic
for a given seed; host time is measured by the caller.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.budget.arbiter import BudgetConfig
from repro.engine.select import default_engine
from repro.evaluation import evaluate_all_policies
from repro.evaluation.pipeline import (
    FittedCatalog,
    cluster_plans,
    placement_for_policy,
    run_policy,
)
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.faults.schedule import FaultSchedule, LoadSpike, MeterDrift
from repro.guard.invariants import GuardConfig
from repro.guard.ledger import render_ledger
from repro.runtime import run_cluster_checkpointed
from repro.sim.cluster import ClusterRunResult, LevelOutcome, run_cluster
from repro.sim.colocation import SimConfig

#: Scalar ColocationResult fields compared for bit-identity.
RESULT_FIELDS = (
    "lc_name", "be_name", "duration_s",
    "avg_be_throughput_norm", "avg_be_throughput_abs",
    "avg_lc_load_fraction", "avg_power_w", "power_utilization",
    "energy_kwh", "slo_violation_fraction",
)

#: (be_throughput, power_utilization, slo_violation_fraction)
SimResults = Tuple[float, float, float]


def same_outcome(a: LevelOutcome, b: LevelOutcome) -> bool:
    """Exact equality of two cells: aggregates, stats and telemetry."""
    if (a.lc_name, a.be_name, a.level) != (b.lc_name, b.be_name, b.level):
        return False
    ra, rb = a.result, b.result
    if any(getattr(ra, f) != getattr(rb, f) for f in RESULT_FIELDS):
        return False
    if (ra.cap_stats, ra.manager_stats, ra.guard_report) != (
        rb.cap_stats, rb.manager_stats, rb.guard_report
    ):
        return False
    sa, sb = ra.telemetry._series, rb.telemetry._series
    if list(sa) != list(sb):
        return False
    return all(
        sa[n].times == sb[n].times and sa[n].values == sb[n].values
        for n in sa
    )


def count_mismatches(got: Sequence[LevelOutcome], want: Sequence[LevelOutcome]) -> int:
    """Cells of ``got`` that differ from ``want`` (missing cells count)."""
    paired = sum(1 for a, b in zip(got, want) if not same_outcome(a, b))
    return paired + abs(len(got) - len(want))


class Workload:
    """One benchmark workload bound to its generated inputs.

    Subclasses set ``config``, the SimConfig their cells run with.  The
    defaults read an iteration that returns one ClusterRunResult.
    """

    name = ""
    why = ""

    def run(self) -> Any:
        """One iteration through the program's public entry points."""
        raise NotImplementedError

    def outcomes(self, result: Any) -> List[LevelOutcome]:
        """Every cell an iteration produced."""
        return result.outcomes

    def sim(self, result: Any) -> SimResults:
        return (
            result.cluster_be_throughput(),
            result.cluster_power_utilization(),
            result.cluster_violation_fraction(),
        )

    def sim_seconds(self, result: Any) -> float:
        """Simulated server-seconds (warmup included) of one iteration."""
        return sum(self.config.warmup_s + o.result.duration_s
                   for o in self.outcomes(result))

    def check(self, result: Any) -> Tuple[int, int]:
        """Re-run a fixed sample on the other engine: (cells, mismatches)."""
        raise NotImplementedError

    def counts(self, result: Any) -> Dict[str, float]:
        """Per-iteration counters read from the result."""
        return {}


# ----------------------------------------------------------------------
# fleet_wide: many lanes, few ticks
# ----------------------------------------------------------------------
class FleetWide(Workload):
    name = "fleet_wide"
    why = ("1000 servers x 3 levels of 3 s cells on the batched engine: many "
           "lanes, few ticks, so lane set-up and result assembly dominate")

    servers = 1000
    levels = (0.2, 0.5, 0.8)
    duration_s = 3.0
    config = SimConfig(warmup_s=2.0, seed=0)
    #: Servers re-run on the object engine by the correctness check.
    check_servers = tuple(range(0, 1000, 125))

    def __init__(self, catalog: FittedCatalog, seed: int, workdir: Path) -> None:
        base = cluster_plans(catalog, placement_for_policy(catalog, "pocolo"), "pocolo")
        cycle = [base[i % len(base)] for i in range(self.servers)]
        order = np.random.default_rng(seed).permutation(self.servers)
        self.plans = [cycle[int(i)] for i in order]
        self.spec = catalog.spec

    def _sweep(self, plans: Sequence[Any], engine: str) -> ClusterRunResult:
        return run_cluster(
            plans, self.spec, levels=self.levels, duration_s=self.duration_s,
            config=self.config, engine=engine, dedupe=False,
        )

    def run(self) -> ClusterRunResult:
        return self._sweep(self.plans, "batched")

    def check(self, result: ClusterRunResult) -> Tuple[int, int]:
        oracle = self._sweep([self.plans[i] for i in self.check_servers], "object")
        n = len(self.levels)
        timed = [result.outcomes[i * n + k]
                 for i in self.check_servers for k in range(n)]
        return len(oracle.outcomes), count_mismatches(timed, oracle.outcomes)


# ----------------------------------------------------------------------
# policy_eval: few lanes, many ticks, default engine
# ----------------------------------------------------------------------
class PolicyEval(Workload):
    name = "policy_eval"
    why = ("the Fig 12/13 three-policy evaluation as the CLI runs it, on the "
           "default engine: few lanes, many ticks, per-object control stack")

    duration_s = 25.0
    placement_seed_count = 4
    #: The sim seed evaluate_all_policies uses by default.
    config = SimConfig(seed=0)

    def __init__(self, catalog: FittedCatalog, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.catalog = catalog
        self.placement_seeds = tuple(
            int(s) for s in rng.choice(10_000, self.placement_seed_count, replace=False)
        )

    def run(self) -> Dict[str, Any]:
        return evaluate_all_policies(
            self.catalog, placement_seeds=self.placement_seeds,
            duration_s=self.duration_s,
        )

    def outcomes(self, result: Dict[str, Any]) -> List[LevelOutcome]:
        return [o for ev in result.values() for run in ev.runs for o in run.outcomes]

    def sim(self, result: Dict[str, Any]) -> SimResults:
        ev = result["pocolo"]
        return (ev.cluster_be_throughput, ev.cluster_power_utilization,
                ev.violation_fraction)

    def check(self, result: Dict[str, Any]) -> Tuple[int, int]:
        # The POColo run and the first seeded random run, on the batched
        # engine, with the exact arguments evaluate_all_policies passes.
        sample = (("pocolo", 0, 0), ("random", self.placement_seeds[0], 0))
        cells = mismatches = 0
        with default_engine("batched"):
            for policy, seed, index in sample:
                other = run_policy(
                    self.catalog, policy, duration_s=self.duration_s,
                    seed=seed, sim_config=self.config,
                )
                timed = result[policy].runs[index].outcomes
                cells += len(other.outcomes)
                mismatches += count_mismatches(timed, other.outcomes)
        return cells, mismatches


# ----------------------------------------------------------------------
# fleet_run: crash-safe sweep at fleet scale (solver + write-side layers)
# ----------------------------------------------------------------------
def replicate_catalog(catalog: FittedCatalog, copies: int) -> FittedCatalog:
    """The catalog ``copies`` times over, every app under a distinct name.

    Budget trees need unique leaves, so replicas are renamed through
    their profiles; fits are shared (a replica is the same binary).
    """
    def renamed(app: Any, name: str) -> Any:
        return replace(app, profile=replace(app.profile, name=name))

    lc_apps, be_apps, lc_fits, be_fits = {}, {}, {}, {}
    for k in range(copies):
        for name, app in catalog.lc_apps.items():
            lc_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            lc_fits[f"{name}-{k:02d}"] = catalog.lc_fits[name]
        for name, app in catalog.be_apps.items():
            be_apps[f"{name}-{k:02d}"] = renamed(app, f"{name}-{k:02d}")
            be_fits[f"{name}-{k:02d}"] = catalog.be_fits[name]
    return FittedCatalog(spec=catalog.spec, lc_apps=lc_apps, be_apps=be_apps,
                         lc_fits=lc_fits, be_fits=be_fits)


class FleetRun(Workload):
    name = "fleet_run"
    why = ("crash-safe checkpointed sweep of 48 servers: LP placement, budget "
           "tree, guard ledger, a crash with re-placement and cell faults")

    copies = 12
    levels = (0.2, 0.5, 0.8)
    duration_s = 30.0
    config = SimConfig(seed=0)
    guard = GuardConfig(mode="record")
    budget = BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=4)

    def __init__(self, catalog: FittedCatalog, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.catalog = replicate_catalog(catalog, self.copies)
        names = sorted(self.catalog.lc_apps)
        crash = ServerCrash(
            lc_name=names[int(rng.integers(len(names)))],
            at_level_index=int(rng.integers(1, len(self.levels))),
        )
        # Fixed fault shapes at seeded positions inside the measured
        # window of every cell (time-shared cells run half of it).
        spike = LoadSpike(start_s=float(rng.uniform(0.0, 10.0)),
                          duration_s=5.0, factor=1.4)
        drift = MeterDrift(start_s=float(rng.uniform(0.0, 10.0)),
                           duration_s=8.0, rate_w_per_s=-0.5)
        self.fault_plan = ClusterFaultPlan(
            crashes=(crash,), cell_faults=FaultSchedule([spike, drift]),
        )
        self.checkpoint = workdir / "fleet_run.ckpt"
        self.ledger = workdir / "fleet_run.ledger.jsonl"
        self.plans: List[Any] = []

    def run(self) -> ClusterRunResult:
        placement = placement_for_policy(self.catalog, "pocolo")
        self.plans = cluster_plans(self.catalog, placement, "pocolo")
        return run_cluster_checkpointed(
            self.plans, self.catalog.spec, self.checkpoint, levels=self.levels,
            duration_s=self.duration_s, config=self.config,
            fault_plan=self.fault_plan, engine="batched", checkpoint_every=1,
            guard=self.guard, ledger_path=self.ledger, budget=self.budget,
        )

    def check(self, result: ClusterRunResult) -> Tuple[int, int]:
        # Crash re-placement and the budget couple cells across servers,
        # so the sample is the whole sweep, on the plain object-engine
        # entry point; the ledger on disk must match it byte for byte.
        oracle = run_cluster(
            self.plans, self.catalog.spec, levels=self.levels,
            duration_s=self.duration_s, config=self.config,
            fault_plan=self.fault_plan, guard=self.guard, engine="object",
            budget=self.budget,
        )
        mismatches = count_mismatches(result.outcomes, oracle.outcomes)
        if self.ledger.read_text() != render_ledger(oracle):
            mismatches += 1
        return len(oracle.outcomes), mismatches

    def counts(self, result: ClusterRunResult) -> Dict[str, float]:
        reports = [o.result.guard_report for o in result.outcomes
                   if o.result.guard_report is not None]
        faults = result.fault_report
        return {
            "guard.checks": sum(r.checks for r in reports),
            "guard.violations": sum(r.total_violations for r in reports),
            "faults.replacements": len(faults.replacements) if faults else 0,
            "faults.degraded_cells": faults.degraded_cells if faults else 0,
        }


WORKLOADS = {cls.name: cls for cls in (FleetWide, PolicyEval, FleetRun)}
