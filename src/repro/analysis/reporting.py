"""Plain-text reporting: the tables the benchmark harness prints.

The reproduction's "figures" are emitted as aligned text tables (one per
paper table/figure), so a terminal diff against EXPERIMENTS.md is the
review workflow.  No plotting dependencies.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from repro.errors import ConfigError

Cell = Union[str, float, int]


def format_cell(value: Cell, precision: int = 3) -> str:
    """Render one cell: floats to fixed precision, everything else as str."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render an aligned monospace table with optional title.

    Column widths adapt to content; numeric cells are right-aligned,
    text cells left-aligned.
    """
    if not headers:
        raise ConfigError("table needs at least one column")
    rendered: List[List[str]] = [[str(h) for h in headers]]
    numeric = [True] * len(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ConfigError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        cells = []
        for i, cell in enumerate(row):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                numeric[i] = False
            cells.append(format_cell(cell, precision))
        rendered.append(cells)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(rendered[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in rendered[1:])
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_labels: Sequence[str],
    x: Sequence[float],
    series: Sequence[Sequence[float]],
    title: str = "",
) -> str:
    """Render line-chart data (a figure's series) as a table.

    ``series[k][i]`` is the k-th line's value at ``x[i]``.
    """
    if len(series) != len(y_labels):
        raise ConfigError("one label per series required")
    for s in series:
        if len(s) != len(x):
            raise ConfigError("every series must match the x vector length")
    rows = [
        [x[i]] + [s[i] for s in series]
        for i in range(len(x))
    ]
    return format_table([x_label] + list(y_labels), rows, title=title)


def percent_change(new: float, old: float) -> float:
    """Relative change of ``new`` against ``old`` (0.18 == +18 %)."""
    if old == 0:
        raise ConfigError("cannot compute change against a zero base")
    return new / old - 1.0


def format_degradation(rows: Sequence[Sequence[Cell]]) -> str:
    """Render the graceful-degradation table of one or more runs.

    Each row is ``(label, cap_stats, manager_stats)`` where the stats are
    the :class:`~repro.hwmodel.capping.CapStats` and
    :class:`~repro.core.server_manager.ManagerStats` of a run — this is
    the evaluation-table view of the fault counters (safe-mode activity,
    model-distrust fallbacks, solver fallbacks; see ``docs/FAULTS.md``).
    """
    table_rows: List[List[Cell]] = []
    for row in rows:
        if len(row) != 3:
            raise ConfigError(
                "degradation rows are (label, cap_stats, manager_stats)"
            )
        label, cap, mgr = row
        table_rows.append([
            str(label),
            cap.safe_mode_steps,
            cap.safe_mode_fraction,
            cap.watchdog_trips,
            cap.over_cap_fraction,
            mgr.model_fallbacks,
            mgr.model_fallback_fraction,
            mgr.solver_fallbacks,
        ])
    return format_table(
        ["run", "safe steps", "safe frac", "wd trips", "over-cap frac",
         "model fb", "model fb frac", "solver fb"],
        table_rows, title="Degradation under faults",
    )


def format_budget_degradation(rows: Sequence[Sequence[Cell]]) -> str:
    """Render the budget-arbiter degradation table of one or more runs.

    Each row is ``(label, budget_report)`` where the report is the
    :class:`~repro.budget.arbiter.BudgetReport` of a budgeted cluster
    run — the evaluation-table view of the lease/brownout counters:
    arbiter ticks lost to crashes, grants expired back to the fail-safe
    floor, grant messages lost or delayed in flight, the deepest
    brownout stage reached and the cells it evicted or shed (see
    ``docs/BUDGETS.md``).
    """
    table_rows: List[List[Cell]] = []
    for row in rows:
        if len(row) != 2:
            raise ConfigError(
                "budget degradation rows are (label, budget_report)"
            )
        label, report = row
        stats = report.stats
        table_rows.append([
            str(label),
            stats.ticks,
            stats.skipped_ticks,
            stats.grants_issued,
            stats.grants_expired,
            stats.grants_lost,
            stats.grants_delayed,
            report.max_stage(),
            stats.evicted_cells,
            stats.shed_cells,
        ])
    return format_table(
        ["run", "ticks", "skipped", "granted", "expired", "lost",
         "delayed", "max stage", "evicted", "shed"],
        table_rows, title="Degradation under power budgets",
    )
