"""Cluster evaluation: Figs 12, 13, 14 (Sections V-D, V-E).

* **Fig 12** — average normalized BE throughput per LC server under
  Random / POM / POColo (uniform 10-90 % load sweep).
* **Fig 13** — average server power draw normalized to provisioned
  capacity under the same three policies.
* **Fig 14** — POColo's placement against the exhaustive 4x4 placement
  sweep: total server load (LC + BE) across the LC load spectrum.

Random and POM use random placement, so their numbers are averaged over
several placement seeds; POColo's placement is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementDecision, enumerate_placements
from repro.errors import ConfigError
from repro.evaluation.pipeline import (
    FittedCatalog,
    cluster_plans,
    placement_for_policy,
    run_policies,
)
from repro.sim.cluster import ClusterRunResult, Sweep, run_sweeps
from repro.sim.colocation import SimConfig
from repro.workloads.traces import UNIFORM_EVAL_LEVELS


@dataclass
class PolicyEvaluation:
    """Aggregated Fig 12/13 numbers for one policy."""

    policy: str
    be_throughput_by_server: Dict[str, float]
    power_utilization_by_server: Dict[str, float]
    cluster_be_throughput: float
    cluster_power_utilization: float
    violation_fraction: float
    runs: List[ClusterRunResult] = field(repr=False, default_factory=list)


def _mean(values: Iterable[float]) -> float:
    return float(np.mean(list(values)))


def _average_dicts(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: _mean(d[k] for d in dicts) for k in dicts[0]}


def evaluate_all_policies(
    catalog: FittedCatalog,
    policies: Sequence[str] = ("random", "pom", "pocolo"),
    placement_seeds: Iterable[int] = range(6),
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 30.0,
) -> Dict[str, PolicyEvaluation]:
    """Fig 12/13 in one call: every policy, same workload and sim seed.

    Every (policy, placement seed) run is planned first and all of them
    execute as one sweep (:func:`~repro.evaluation.pipeline.run_policies`).
    """
    runs_by_policy = run_policies(
        catalog, policies, placement_seeds, levels=levels, duration_s=duration_s,
    )
    return {
        policy: PolicyEvaluation(
            policy=policy,
            be_throughput_by_server=_average_dicts([r.be_throughput_by_server() for r in runs]),
            power_utilization_by_server=_average_dicts(
                [r.power_utilization_by_server() for r in runs]
            ),
            cluster_be_throughput=_mean(r.cluster_be_throughput() for r in runs),
            cluster_power_utilization=_mean(r.cluster_power_utilization() for r in runs),
            violation_fraction=_mean(r.cluster_violation_fraction() for r in runs),
            runs=runs,
        )
        for policy, runs in runs_by_policy.items()
    }


# ----------------------------------------------------------------------
# Fig 14: POColo vs exhaustive placement search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementCurve:
    """Measured total server load per LC load level for one placement.

    ``total_load[i]`` is the cluster-mean of (LC load fraction + BE
    normalized throughput) at ``levels[i]`` — the Fig 14 y-axis.
    """

    mapping: Tuple[Tuple[str, str], ...]  # sorted (be, lc) pairs
    levels: Tuple[float, ...]
    total_load: Tuple[float, ...]

    @property
    def mean_total(self) -> float:
        """Average of the curve — the scalar used to rank placements."""
        return float(np.mean(self.total_load))


def _measure_placements(
    catalog: FittedCatalog,
    mappings: Sequence[Dict[str, str]],
    levels: Sequence[float],
    duration_s: float,
) -> List[PlacementCurve]:
    """Measure full placements with POM management per server, as one sweep."""
    sweeps = [
        Sweep(
            cluster_plans(catalog, PlacementDecision(
                mapping=dict(mapping), predicted_total=float("nan"), method="fixed",
            ), policy="pom"),
            catalog.spec, levels, duration_s, SimConfig(seed=0),
        )
        for mapping in mappings
    ]
    curves = []
    for mapping, sweep, result in zip(mappings, sweeps, run_sweeps(sweeps)):
        totals = (
            result.column("avg_lc_load_fraction")
            + result.column("avg_be_throughput_norm")
        )
        # Fault-free outcomes are plan-major: level k's cells are k::n,
        # averaged as one contiguous array each.
        n = len(sweep.levels)
        curves.append(PlacementCurve(
            mapping=tuple(sorted(mapping.items())),
            levels=tuple(sweep.levels),
            total_load=tuple(
                float(np.mean(np.ascontiguousarray(totals[k::n]))) for k in range(n)
            ),
        ))
    return curves


def measure_placement(
    catalog: FittedCatalog,
    mapping: Dict[str, str],
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 20.0,
) -> PlacementCurve:
    """Measure one full placement with POM management per server."""
    return _measure_placements(catalog, [mapping], levels, duration_s)[0]


@dataclass
class Fig14Result:
    """POColo's placement curve against the exhaustive sweep."""

    pocolo: PlacementCurve
    all_curves: List[PlacementCurve]
    pocolo_mapping: Dict[str, str]

    def best(self) -> PlacementCurve:
        """The measured-best placement (the exhaustive oracle)."""
        return max(self.all_curves, key=lambda c: c.mean_total)

    def rank_of_pocolo(self) -> int:
        """1-based rank of POColo's choice among all placements."""
        ordered = sorted(self.all_curves, key=lambda c: c.mean_total, reverse=True)
        for i, curve in enumerate(ordered):
            if curve.mapping == self.pocolo.mapping:
                return i + 1
        raise ConfigError("POColo's placement missing from the sweep")

    def regret(self) -> float:
        """Relative gap to the oracle: ``1 - pocolo/best`` (0 = optimal)."""
        best = self.best().mean_total
        return 1.0 - self.pocolo.mean_total / best if best > 0 else 0.0


def fig14_placement_comparison(
    catalog: FittedCatalog,
    levels: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    duration_s: float = 15.0,
) -> Fig14Result:
    """Fig 14: measure all 4! placements and locate POColo's choice.

    The paper's claim to verify: POColo's assignment (Graph→sphinx,
    LSTM→img-dnn, RNN/Pbzip→Xapian/TPCC) sits at — or within noise of —
    the exhaustive optimum.  All placements run as one sweep.
    """
    decision = placement_for_policy(catalog, "pocolo", levels=UNIFORM_EVAL_LEVELS)
    be_names = tuple(catalog.be_apps)
    lc_names = tuple(catalog.lc_apps)
    mappings = enumerate_placements(be_names, lc_names)
    curves = _measure_placements(catalog, mappings, levels, duration_s)
    pocolo_curve = next(
        c for c in curves if c.mapping == tuple(sorted(decision.mapping.items()))
    )
    return Fig14Result(
        pocolo=pocolo_curve, all_curves=curves, pocolo_mapping=decision.mapping
    )
