"""Analysis utilities: reporting tables and resampling statistics."""

from repro.analysis.reporting import (
    format_cell,
    format_budget_degradation,
    format_degradation,
    format_series,
    format_table,
    percent_change,
)
from repro.analysis.stats import Summary, relative_gain_ci

__all__ = [
    "Summary",
    "relative_gain_ci",
    "format_cell",
    "format_budget_degradation",
    "format_degradation",
    "format_series",
    "format_table",
    "percent_change",
]
