"""Exception hierarchy shared across the Pocolo reproduction.

Every error raised by ``repro`` derives from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while still being
able to discriminate the common failure modes (bad allocations, infeasible
demands, solver failures).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AllocationError(ReproError):
    """An allocation request violates server capacity or validity rules.

    Raised when asking for more cores/LLC ways than the server has, when
    two tenants would overlap on an isolated resource, or when a frequency
    outside the supported DVFS ladder is requested.
    """


class CapacityError(ReproError):
    """A demand cannot be satisfied by the available spare capacity."""


class ModelFitError(ReproError):
    """Utility-model fitting failed (degenerate design matrix, no samples,
    or non-positive observations that cannot be log-transformed)."""


class SolverError(ReproError):
    """An optimization solver (simplex LP, Hungarian) failed to converge or
    was handed an ill-formed problem (non-square matrix, NaNs, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ConfigError(ReproError):
    """Invalid configuration values (negative power, empty load range, ...)."""


class LintError(ReproError):
    """The static-analysis driver itself failed (unreadable file,
    unknown rule name in a selection or a suppression) — distinct from
    *findings*, which are reported data, not exceptions."""


class ExecutionError(ReproError):
    """A task failed inside the execution engine's ordered map.

    Raised by :func:`repro.engine.parallel.map_ordered` (and the batched
    engine, which wraps its cell failures the same way) when a mapped
    function raises; the message names the failing task's index,
    arguments and root cause."""


class InvariantViolationError(ReproError):
    """A runtime safety invariant failed while guards ran in enforce mode.

    Raised by :class:`repro.guard.GuardMonitor` the moment an invariant
    of :class:`repro.guard.InvariantRegistry` (power-cap compliance,
    energy conservation, LC SLO floor, budget conservation, monotonic
    time, RNG isolation) is violated beyond its configured tolerance.
    In ``record`` mode the same violations are collected into the
    :class:`repro.guard.GuardReport` / violation ledger instead."""


class CheckpointError(ReproError):
    """A checkpoint file is unusable: missing, corrupt (checksum or
    framing mismatch), written by an unsupported format version, or
    belonging to a different sweep than the one being resumed."""
