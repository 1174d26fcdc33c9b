"""Load generation: constant/diurnal/step/weekly/flash-crowd traces and
the uniform evaluation sweep."""

from repro.workloads.traces import (
    UNIFORM_EVAL_LEVELS,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    LoadTrace,
    StepTrace,
    WeeklyTrace,
    uniform_levels,
)

__all__ = [
    "ConstantTrace",
    "DiurnalTrace",
    "FlashCrowdTrace",
    "LoadTrace",
    "StepTrace",
    "UNIFORM_EVAL_LEVELS",
    "WeeklyTrace",
    "uniform_levels",
]
