"""Runtime safety guards: invariants, violation ledger, chaos campaigns.

The guard layer watches the simulated control stack uphold Pocolo's
safety contracts while everything else tries to break them:

``repro.guard.invariants`` / ``repro.guard.monitor``
    The contracts themselves — power-cap compliance, energy
    conservation, the LC SLO floor, budget conservation, monotonic time,
    RNG isolation — evaluated every control tick in ``record`` or
    ``enforce`` mode.
``repro.guard.ledger``
    Guarded sweep violations as durable JSONL, rebuilt deterministically
    from completed cells (so checkpoint resume is byte-identical).
``repro.guard.campaign`` / ``repro.guard.fixtures``
    Coverage-guided chaos search over fault schedules, with shrinking to
    minimal reproducers and JSON fixtures that pin them as regressions.

The campaign, fixture and ledger layers sit *above* the simulators
(they drive :class:`~repro.sim.colocation.ColocationSim` and consume
cluster results) while the invariant layer sits *below* them (the sim
loop calls the monitor), so this package exports the invariant side
only; import the campaign, fixture and ledger names from their
submodules.
"""

from repro.guard.invariants import (
    MODE_ENFORCE,
    MODE_RECORD,
    BudgetConservationInvariant,
    EnergyConservationInvariant,
    GuardConfig,
    GuardReport,
    GuardSample,
    Invariant,
    InvariantRegistry,
    LcSloFloorInvariant,
    MonotonicTimeInvariant,
    PowerCapInvariant,
    RngIsolationInvariant,
    Violation,
)
from repro.guard.monitor import GuardMonitor
from repro.guard.tolerance import exceeds_cap, tolerance_band, within_tolerance

__all__ = [
    "MODE_ENFORCE",
    "MODE_RECORD",
    "BudgetConservationInvariant",
    "EnergyConservationInvariant",
    "GuardConfig",
    "GuardMonitor",
    "GuardReport",
    "GuardSample",
    "Invariant",
    "InvariantRegistry",
    "LcSloFloorInvariant",
    "MonotonicTimeInvariant",
    "PowerCapInvariant",
    "RngIsolationInvariant",
    "Violation",
    "exceeds_cap",
    "tolerance_band",
    "within_tolerance",
]
