"""Dynamic re-placement under drifting load (ablation A10).

The paper chooses *static* placement deliberately: "dynamically moving
applications across servers incurs high overheads" (Section I), so
POColo averages over the whole load range up front.  This driver
quantifies the choice: a day where the four LC clusters' diurnal loads
are phase-shifted (they peak at different hours), managed either by

* **static** — one placement from the uniform-average matrix (the
  paper's POColo), or
* **dynamic** — a fresh placement per phase from a matrix built at that
  phase's per-server loads, paying a migration penalty (lost BE work)
  for every co-runner that moves.

Expected shape: dynamic wins at zero migration cost, static wins once
moving costs more than the per-phase matching gain — the crossover
quantifies the paper's "high overheads" argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.placement import (
    PerformanceMatrix,
    pocolo_placement,
    predict_be_throughput,
    predict_spare_capacity,
)
from repro.evaluation.pipeline import FittedCatalog

#: Hours at which each phase is sampled (4 phases of a compressed day).
PHASES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)

#: Fraction of one phase's BE work a moved co-runner loses (drain +
#: warm-up), one dynamic total per penalty.
MIGRATION_PENALTIES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20)


def phase_loads(
    catalog: FittedCatalog,
    phase: float,
) -> Dict[str, float]:
    """Per-LC-server load fractions at one phase of the shifted day.

    Loads swing between 10 % and 90 %; server ``i`` of ``n`` peaks at
    phase ``i/n`` — the staggered-peak pattern of geo-mixed or
    audience-mixed services.
    """
    names = list(catalog.lc_apps)
    return {
        name: 0.5 + 0.4 * math.cos(2.0 * math.pi * (phase - i / len(names)))
        for i, name in enumerate(names)
    }


def matrix_at_loads(
    catalog: FittedCatalog, loads: Dict[str, float]
) -> PerformanceMatrix:
    """A performance matrix with each LC server at its own load level."""
    spec = catalog.spec
    be_models = {name: fit.model for name, fit in catalog.be_fits.items()}
    servers = catalog.lc_server_sides()
    values = np.zeros((len(be_models), len(servers)))
    for j, lc in enumerate(servers):
        level = min(1.0, max(0.01, loads[lc.name]))
        spare, budget = predict_spare_capacity(lc, spec, level)
        for i, be in enumerate(be_models):
            values[i, j] = predict_be_throughput(be_models[be], spec, spare, budget)
    return PerformanceMatrix(
        be_names=tuple(be_models), lc_names=tuple(s.name for s in servers),
        values=values,
    )


@dataclass(frozen=True)
class ReplacementComparison:
    """Predicted day totals for static vs per-phase dynamic placement."""

    static_total: float
    dynamic_total_by_penalty: Dict[float, float]
    moves_per_phase: float

    def crossover_penalty(self) -> float:
        """Smallest evaluated penalty at which static wins (inf if never)."""
        for penalty in sorted(self.dynamic_total_by_penalty):
            if self.dynamic_total_by_penalty[penalty] <= self.static_total:
                return penalty
        return float("inf")


def compare_replacement(catalog: FittedCatalog) -> ReplacementComparison:
    """Static vs dynamic placement over the ``PHASES`` of the day
    (predicted), dynamic once per ``MIGRATION_PENALTIES`` entry.

    Totals are predicted normalized BE throughput summed over phases;
    the comparison is model-level — the same fidelity placement itself
    operates at.
    """
    per_phase_matrices = [
        matrix_at_loads(catalog, phase_loads(catalog, phase)) for phase in PHASES
    ]

    # Static: the paper's POColo — one placement from the average matrix.
    avg_values = np.mean([m.values for m in per_phase_matrices], axis=0)
    avg_matrix = PerformanceMatrix(
        be_names=per_phase_matrices[0].be_names,
        lc_names=per_phase_matrices[0].lc_names,
        values=avg_values,
    )
    static_mapping = pocolo_placement(avg_matrix).mapping
    static_total = sum(
        m.cell(be, lc) for m in per_phase_matrices
        for be, lc in static_mapping.items()
    )

    # Dynamic: re-solve per phase; count moves against each penalty.
    phase_mappings = [pocolo_placement(m).mapping for m in per_phase_matrices]
    raw_totals = [
        sum(m.cell(be, lc) for be, lc in mapping.items())
        for m, mapping in zip(per_phase_matrices, phase_mappings)
    ]
    total_moves = 0
    previous = phase_mappings[0]
    for mapping in phase_mappings[1:]:
        total_moves += sum(
            1 for be in mapping if mapping[be] != previous[be]
        )
        previous = mapping
    dynamic_by_penalty = {}
    for penalty in MIGRATION_PENALTIES:
        lost = penalty * total_moves * float(np.mean(raw_totals)) / len(
            per_phase_matrices[0].be_names
        )
        dynamic_by_penalty[float(penalty)] = sum(raw_totals) - lost
    return ReplacementComparison(
        static_total=static_total,
        dynamic_total_by_penalty=dynamic_by_penalty,
        moves_per_phase=total_moves / max(1, len(PHASES) - 1),
    )
