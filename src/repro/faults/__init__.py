"""Fault injection and graceful-degradation machinery.

This package supplies the *fault model* for the Pocolo control stack:

* :mod:`repro.faults.schedule` — seeded, time-triggered
  :class:`FaultSchedule` of composable faults (stuck/drifting/dropped-out
  meters, telemetry gaps, load spikes, stale models) plus the power
  infrastructure family (rack PDU derates and breaker trips, budget
  arbiter crashes, grant message loss/delay) consumed at plan time by
  :mod:`repro.budget`;
* :mod:`repro.faults.meter` — :class:`FaultyPowerMeter`, a drop-in meter
  that honors the schedule;
* :mod:`repro.faults.cluster` — server crash/recovery plans and the
  degradation report for cluster sweeps.

The matching *degradation policies* live with the components they
protect: the meter watchdog and safe mode in
:class:`repro.hwmodel.capping.PowerCapController`, the model-distrust
fallback in :class:`repro.core.server_manager.PowerOptimizedManager`,
the solver-to-greedy fallback in :func:`repro.core.placement.pocolo_placement`,
and crash re-placement in :func:`repro.sim.cluster.run_cluster`.
See ``docs/FAULTS.md`` for the full story.
"""

from repro.faults.cluster import (
    ClusterFaultPlan,
    ClusterFaultReport,
    Replacement,
    ServerCrash,
)
from repro.faults.meter import FaultyPowerMeter
from repro.faults.schedule import (
    ArbiterCrash,
    Fault,
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    RackBreakerTrip,
    RackPowerDerate,
    ServerRejoin,
    TelemetryGap,
)

__all__ = [
    "ArbiterCrash",
    "ClusterFaultPlan",
    "ClusterFaultReport",
    "Fault",
    "FaultSchedule",
    "FaultyPowerMeter",
    "GrantDelay",
    "GrantLoss",
    "LoadSpike",
    "MeterDrift",
    "MeterDropout",
    "MeterStuckAt",
    "ModelStaleness",
    "RackBreakerTrip",
    "RackPowerDerate",
    "Replacement",
    "ServerCrash",
    "ServerRejoin",
    "TelemetryGap",
]
