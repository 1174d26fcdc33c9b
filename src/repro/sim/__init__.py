"""Simulation harness: time-stepped colocation runs and cluster sweeps."""

from repro.sim.cluster import (
    ClusterRunResult,
    LevelOutcome,
    ManagerFactory,
    ServerPlan,
    run_cluster,
)
from repro.sim.colocation import (
    ColocationResult,
    ColocationSim,
    SimConfig,
    build_colocated_server,
)
from repro.sim.queueing import (
    QueueingConfig,
    QueueingResult,
    calibrate_knee,
    p99_curve,
    simulate_queue,
)
from repro.sim.telemetry import Telemetry, TimeSeries
from repro.sim.timeshare import (
    BestEffortJob,
    FcfsScheduler,
    RoundRobinScheduler,
    SjfScheduler,
    TimeSharedColocationSim,
    TimeShareResult,
    TimeShareScheduler,
)

__all__ = [
    "BestEffortJob",
    "ClusterRunResult",
    "FcfsScheduler",
    "RoundRobinScheduler",
    "SjfScheduler",
    "TimeShareResult",
    "TimeShareScheduler",
    "TimeSharedColocationSim",
    "ColocationResult",
    "ColocationSim",
    "LevelOutcome",
    "ManagerFactory",
    "ServerPlan",
    "QueueingConfig",
    "QueueingResult",
    "SimConfig",
    "Telemetry",
    "TimeSeries",
    "build_colocated_server",
    "calibrate_knee",
    "p99_curve",
    "simulate_queue",
    "run_cluster",
]
