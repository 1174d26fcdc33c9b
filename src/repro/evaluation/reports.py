"""Renderers for the snapshot-pinned ablation reports.

The benchmark harness regenerates every figure/table under
``benchmarks/out/``; six of those artifacts double as *golden
snapshots* — committed text files that ``tests/test_golden_reports.py``
regenerates and diffs byte-for-byte on every test run:

* ``abl2_solver_choice.txt`` — the assignment-solver comparison, which
  covers the performance matrix (now served by the vectorized engine)
  plus every assignment back end;
* ``abl9_fleet_totals.txt`` — the fleet-scale transportation LP over the
  same matrix;
* ``fig15_tco.txt``/``fig15_savings.txt`` — Fig 15 at the TCO constants;
* ``abl4_timeshare.txt``/``abl5_sharing_modes.txt`` — the time-shared
  simulator.

Keeping the rendering here (rather than inline in the benchmarks) means
the benchmark that emits a snapshot and the test that checks it share
one code path, so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.analysis import format_table
from repro.core.placement import FleetPlacement, fleet_placement
from repro.evaluation.ablations import SolverAblationRow, ablate_solver_choice
from repro.evaluation.pipeline import FittedCatalog
from repro.evaluation.sharing import (
    SchedulerComparisonRow,
    SharingModeResult,
    compare_schedulers,
    compare_sharing_modes,
)
from repro.evaluation.tco_eval import TcoEvaluation, fig15_tco

#: Per-stream server demands / per-cluster capacities for the A9
#: fleet-scale scenario (tens of servers per LC cluster).
FLEET_DEMANDS: Mapping[str, int] = {
    "lstm": 30, "rnn": 20, "graph": 25, "pbzip": 15,
}
FLEET_CAPACITIES: Mapping[str, int] = {
    "img-dnn": 40, "sphinx": 30, "xapian": 20, "tpcc": 20,
}


def render_solver_choice(
    rows: Sequence[SolverAblationRow], random_mean: float
) -> str:
    """The ``abl2_solver_choice`` table, exactly as emitted."""
    table_rows = [
        [r.method, r.predicted_total,
         ", ".join(f"{be}->{lc}" for be, lc in r.mapping)]
        for r in rows
    ]
    table_rows.append(["random (mean of 24)", random_mean, "--"])
    return format_table(
        ["method", "predicted total", "placement"],
        table_rows,
        title="Ablation A2 — assignment back ends on the same matrix",
    )


def solver_choice_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``abl2_solver_choice`` snapshot from a catalog."""
    rows, random_mean = ablate_solver_choice(catalog)
    return render_solver_choice(rows, random_mean)


@dataclass(frozen=True)
class FleetScaleResult:
    """The A9 scenario solved three ways over one fitted matrix."""

    lp: FleetPlacement
    greedy: FleetPlacement
    random_mean: float


def solve_fleet_scale(catalog: FittedCatalog) -> FleetScaleResult:
    """Solve the fleet-scale placement via LP, greedy, and random floor.

    The scenario is ``FLEET_DEMANDS`` over ``FLEET_CAPACITIES``.  The
    random floor spreads every stream uniformly over clusters with
    remaining room, averaged over seeds 0-19.
    """
    matrix = catalog.performance_matrix()
    lp = fleet_placement(matrix, FLEET_DEMANDS, FLEET_CAPACITIES, method="lp")
    greedy = fleet_placement(matrix, FLEET_DEMANDS, FLEET_CAPACITIES, method="greedy")
    rng_totals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        remaining: Dict[str, int] = dict(FLEET_CAPACITIES)
        total = 0.0
        for be, demand in FLEET_DEMANDS.items():
            for _ in range(demand):
                open_lcs = [lc for lc, cap in remaining.items() if cap > 0]
                lc = open_lcs[int(rng.integers(len(open_lcs)))]
                remaining[lc] -= 1
                total += matrix.cell(be, lc)
        rng_totals.append(total)
    return FleetScaleResult(
        lp=lp, greedy=greedy, random_mean=float(np.mean(rng_totals))
    )


def render_fleet_flows(lp: FleetPlacement) -> str:
    """The ``abl9_fleet_flows`` table (regenerated, not pinned)."""
    rows = [
        [be] + [lp.servers(be, lc) for lc in lp.lc_names]
        for be in lp.be_names
    ]
    return format_table(
        ["stream \\ cluster"] + list(lp.lc_names), rows,
        title=f"Ablation A9 — LP fleet flows "
              f"(demands {dict(FLEET_DEMANDS)}, capacities {dict(FLEET_CAPACITIES)})",
    )


def render_fleet_totals(result: FleetScaleResult) -> str:
    """The ``abl9_fleet_totals`` table, exactly as emitted."""
    return format_table(
        ["method", "predicted total"],
        [["lp", result.lp.predicted_total],
         ["greedy", result.greedy.predicted_total],
         ["random (mean of 20)", result.random_mean]],
        title="Fleet-scale placement quality",
    )


def fleet_totals_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``abl9_fleet_totals`` snapshot from a catalog."""
    return render_fleet_totals(solve_fleet_scale(catalog))


def fig15_evaluation(catalog: FittedCatalog) -> TcoEvaluation:
    """The Fig 15 evaluation as the benchmark runs it."""
    return fig15_tco(catalog, placement_seeds=range(4), duration_s=25.0)


def render_fig15_tco(ev: TcoEvaluation) -> str:
    """The ``fig15_tco`` table, exactly as emitted."""
    return format_table(
        ["policy", "servers", "server $M/mo", "infra $M/mo",
         "energy $M/mo", "total $M/mo"],
        [[name, b.num_servers, b.servers_usd / 1e6, b.power_infra_usd / 1e6,
          b.energy_usd / 1e6, b.total_usd / 1e6]
         for name, b in ev.breakdowns.items()],
        precision=2,
        title="Fig 15 — amortized monthly TCO "
              "(paper: Pocolo -12%/-16%/-8% vs NoCap/Random/POM)",
    )


def render_fig15_savings(ev: TcoEvaluation) -> str:
    """The ``fig15_savings`` table, exactly as emitted."""
    return format_table(
        ["vs policy", "pocolo saves"],
        [[k, f"{v:.1%}"] for k, v in ev.savings_of_pocolo.items()],
        title="POColo TCO savings",
    )


def render_timeshare(rows: Sequence[SchedulerComparisonRow]) -> str:
    """The ``abl4_timeshare`` table, exactly as emitted."""
    return format_table(
        ["scheduler", "mean response (s)", "makespan (s)",
         "SLO violations", "all done"],
        [[r.scheduler, r.mean_response_time_s, r.makespan_s,
          r.slo_violation_fraction, "yes" if r.all_done else "NO"]
         for r in rows],
        precision=1,
        title="Ablation A4 — time-sharing schedulers "
              "(1 long + 3 short jobs on xapian @ 40%)",
    )


def render_sharing_modes(result: SharingModeResult) -> str:
    """The ``abl5_sharing_modes`` table, exactly as emitted."""
    return format_table(
        ["mode", "aggregate BE throughput", "vs temporal"],
        [["temporal (round-robin)", result.temporal_total, "--"],
         ["spatial (partitioned)", result.spatial_total,
          f"{result.spatial_advantage:+.1%}"]],
        title=f"Ablation A5 — graph+lstm on {result.lc_name} @ 30% "
              f"(spatial split: {result.spatial_allocations})",
    )


def fig15_tco_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``fig15_tco`` snapshot from a catalog."""
    return render_fig15_tco(fig15_evaluation(catalog))


def fig15_savings_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``fig15_savings`` snapshot from a catalog."""
    return render_fig15_savings(fig15_evaluation(catalog))


def timeshare_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``abl4_timeshare`` snapshot from a catalog."""
    return render_timeshare(compare_schedulers(catalog))


def sharing_modes_report(catalog: FittedCatalog) -> str:
    """Regenerate the ``abl5_sharing_modes`` snapshot from a catalog."""
    return render_sharing_modes(compare_sharing_modes(catalog))


#: Snapshot-pinned artifacts: files under ``benchmarks/out/`` that stay
#: committed and are regenerated + diffed by the golden tests.  Every
#: other ``benchmarks/out`` file is generated-only (gitignored).
GOLDEN_REPORTS: Tuple[Tuple[str, str], ...] = (
    ("abl2_solver_choice.txt", "solver_choice_report"),
    ("abl9_fleet_totals.txt", "fleet_totals_report"),
    ("fig15_tco.txt", "fig15_tco_report"),
    ("fig15_savings.txt", "fig15_savings_report"),
    ("abl4_timeshare.txt", "timeshare_report"),
    ("abl5_sharing_modes.txt", "sharing_modes_report"),
)
