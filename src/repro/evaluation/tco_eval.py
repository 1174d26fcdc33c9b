"""TCO evaluation: Fig 15 (Section V-F).

Four policies, one constant delivered throughput:

* ``random-nocap`` — random placement, Heracles management, every server
  provisioned at 185 W (no aggressive under-provisioning);
* ``random`` — same but right-sized (aggressively under-provisioned)
  power, hence heavy capping;
* ``pom`` — power-optimized server management;
* ``pocolo`` — POM + power-optimized placement.

Paper: "Pocolo results in 12%, 16% and 8% lower TCO compared to
Random(NoCap), Random and POM respectively."
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.apps.catalog import NOCAP_PROVISIONED_W
from repro.cost.tco import (
    PolicyOperatingPoint,
    TcoBreakdown,
    TcoParams,
    compare_policies,
    relative_savings,
)
from repro.evaluation.pipeline import (
    POLICY_RANDOM_NOCAP,
    FittedCatalog,
    PolicySummary,
    run_policies,
    summarize_policy,
)
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

#: Policy order of Fig 15's bars.
FIG15_POLICIES = (POLICY_RANDOM_NOCAP, "random", "pom", "pocolo")


@dataclass
class TcoEvaluation:
    """Fig 15 outputs: per-policy operating points and cost breakdowns."""

    summaries: Dict[str, PolicySummary]
    breakdowns: Dict[str, TcoBreakdown]
    savings_of_pocolo: Dict[str, float]


def measure_operating_points(
    catalog: FittedCatalog,
    policies: Sequence[str] = FIG15_POLICIES,
    placement_seeds: Iterable[int] = range(4),
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 30.0,
    sim_seed: int = 0,
) -> Dict[str, PolicySummary]:
    """Simulate every policy and reduce to per-server operating points.

    Random-placement policies are averaged over ``placement_seeds``.
    Every run is planned first and all of them execute as one sweep
    (:func:`~repro.evaluation.pipeline.run_policies`).
    """
    runs_by_policy = run_policies(
        catalog, policies, placement_seeds, levels=levels,
        duration_s=duration_s, sim_seed=sim_seed,
    )
    summaries: Dict[str, PolicySummary] = {}
    for policy, runs in runs_by_policy.items():
        override = NOCAP_PROVISIONED_W if policy == POLICY_RANDOM_NOCAP else None
        collected = [
            summarize_policy(policy, run, catalog, provisioned_override_w=override)
            for run in runs
        ]
        summaries[policy] = PolicySummary(policy=policy, **{
            f.name: float(np.mean([getattr(s, f.name) for s in collected]))
            for f in fields(PolicySummary) if f.name != "policy"
        })
    return summaries


def fig15_tco(
    catalog: FittedCatalog,
    params: TcoParams = TcoParams(),
    policies: Sequence[str] = FIG15_POLICIES,
    placement_seeds: Iterable[int] = range(4),
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 30.0,
    reference: str = "random",
) -> TcoEvaluation:
    """Fig 15 end to end: simulate policies, price them, rank POColo."""
    summaries = measure_operating_points(
        catalog, policies=policies, placement_seeds=placement_seeds,
        levels=levels, duration_s=duration_s,
    )
    points = [
        PolicyOperatingPoint(
            name=s.policy,
            throughput_per_server=s.throughput_per_server,
            provisioned_w_per_server=s.provisioned_w_per_server,
            avg_power_w_per_server=s.avg_power_w_per_server,
        )
        for s in summaries.values()
    ]
    breakdowns = compare_policies(points, params=params, reference=reference)
    savings = relative_savings(breakdowns, winner="pocolo") if "pocolo" in breakdowns else {}
    return TcoEvaluation(
        summaries=summaries, breakdowns=breakdowns, savings_of_pocolo=savings
    )
