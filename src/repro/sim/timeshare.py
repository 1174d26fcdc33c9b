"""Time-sharing multiple best-effort applications on one server.

Section V-G: "We analyze only one best-effort application that fully
utilizes spare server resources.  If there are more than one best-effort
application, they can be scheduled to time-share the server (e.g.
first-come first-served, shortest job first)."

This module implements that extension: a queue of finite best-effort
*jobs*, a pluggable time-share scheduler (FCFS, SJF, round-robin), and a
simulation loop that runs one job at a time in the secondary slot while
the primary is managed and power-capped exactly as in the single-tenant
case.  Job progress accrues in *normalized-throughput-seconds*: a job
with ``work_units = 30`` finishes after 30 s at full-box throughput, or
proportionally longer on a throttled slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.apps.base import measured
from repro.apps.best_effort import BestEffortApp
from repro.apps.latency_critical import LatencyCriticalApp
from repro.core.server_manager import ServerManagerBase
from repro.errors import ConfigError, SimulationError
from repro.hwmodel.capping import PowerCapController
from repro.hwmodel.meter import DEFAULT_SAMPLE_INTERVAL_S, PowerMeter
from repro.hwmodel.server import SECONDARY, Server
from repro.sim.colocation import CONTROL_INTERVAL_S, SUBTICKS, SimConfig
from repro.sim.telemetry import Telemetry
from repro.workloads.traces import LoadTrace


@dataclass
class BestEffortJob:
    """A finite chunk of best-effort work.

    ``work_units`` is measured in normalized-throughput-seconds of the
    job's application (its own full-box throughput for one second = 1
    unit), so jobs of different applications compare on the same scale
    the placement matrix uses.
    """

    name: str
    app: BestEffortApp
    work_units: float
    arrival_s: float = 0.0
    remaining: float = field(init=False)
    started_s: Optional[float] = field(default=None, init=False)
    completed_s: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.work_units <= 0:
            raise ConfigError("a job needs positive work")
        if self.arrival_s < 0:
            raise ConfigError("arrival time cannot be negative")
        self.remaining = self.work_units

    @property
    def done(self) -> bool:
        """True once every work unit has been executed."""
        return self.remaining <= 1e-12

    @property
    def response_time_s(self) -> Optional[float]:
        """Completion minus arrival; None while unfinished."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s


class TimeShareScheduler:
    """Strategy for picking the next job from the ready queue.

    Non-preemptive by default (the paper's FCFS/SJF examples are):
    ``quantum_s`` of None runs the chosen job to completion;
    a finite quantum forces a re-decision every quantum (round-robin
    behaviour when combined with arrival-order tie breaking).
    """

    name = "base"
    quantum_s: Optional[float] = None

    def pick(self, ready: Sequence[BestEffortJob], time_s: float) -> BestEffortJob:
        raise NotImplementedError


class FcfsScheduler(TimeShareScheduler):
    """First-come, first-served (paper's first example)."""

    name = "fcfs"

    def pick(self, ready: Sequence[BestEffortJob], time_s: float) -> BestEffortJob:
        return min(ready, key=lambda j: (j.arrival_s, j.name))


class SjfScheduler(TimeShareScheduler):
    """Shortest job first — by *remaining* work (paper's second example)."""

    name = "sjf"

    def pick(self, ready: Sequence[BestEffortJob], time_s: float) -> BestEffortJob:
        return min(ready, key=lambda j: (j.remaining, j.arrival_s, j.name))


class RoundRobinScheduler(TimeShareScheduler):
    """Preemptive round-robin with a fixed quantum (our addition)."""

    name = "round-robin"

    def __init__(self, quantum_s: float = 5.0) -> None:
        if quantum_s <= 0:
            raise ConfigError("quantum must be positive")
        self.quantum_s = quantum_s
        self._cursor = 0

    def pick(self, ready: Sequence[BestEffortJob], time_s: float) -> BestEffortJob:
        ordered = sorted(ready, key=lambda j: (j.arrival_s, j.name))
        job = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return job


@dataclass
class TimeShareResult:
    """Outcome of a time-shared run."""

    jobs: List[BestEffortJob]
    makespan_s: float
    telemetry: Telemetry = field(repr=False)
    slo_violation_fraction: float = 0.0

    @property
    def all_done(self) -> bool:
        """True when every job completed within the simulated horizon."""
        return all(j.done for j in self.jobs)

    @property
    def mean_response_time_s(self) -> float:
        """Mean response time over *completed* jobs."""
        times = [j.response_time_s for j in self.jobs if j.response_time_s is not None]
        return float(np.mean(times)) if times else float("inf")

    @property
    def total_work_done(self) -> float:
        """Executed work units across all jobs."""
        return sum(j.work_units - j.remaining for j in self.jobs)


class TimeSharedColocationSim:
    """One server, one managed LC tenant, a queue of time-shared BE jobs.

    The scheduler decides which job occupies the secondary slot; the
    server manager and the power-cap loop treat whichever job is active
    exactly like the single-tenant case.  Swapping jobs detaches the old
    tenant and attaches the new one with a cold throttle state (max
    frequency, full duty) — the cap loop re-converges within a few
    hundred milliseconds, which is the realistic cost of a context
    switch between best-effort workloads.
    """

    def __init__(
        self,
        server: Server,
        lc_app: LatencyCriticalApp,
        trace: LoadTrace,
        manager: ServerManagerBase,
        jobs: Sequence[BestEffortJob],
        scheduler: TimeShareScheduler,
        config: SimConfig = SimConfig(),
    ) -> None:
        if not jobs:
            raise ConfigError("time-sharing needs at least one job")
        if manager.server is not server:
            raise SimulationError("manager is bound to a different server")
        if server.secondary_tenant() is not None:
            raise SimulationError(
                "attach no secondary tenant up front; the scheduler swaps jobs in"
            )
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ConfigError("job names must be unique")
        self.server = server
        self.lc_app = lc_app
        self.trace = trace
        self.manager = manager
        self.jobs = list(jobs)
        self.scheduler = scheduler
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.meter = PowerMeter(source=server.power_w, rng=self._rng)
        self.capper = PowerCapController(server=server, meter=self.meter)
        self._active: Optional[BestEffortJob] = None
        self._active_since: float = 0.0

    # ------------------------------------------------------------------
    def run(self, max_duration_s: float) -> TimeShareResult:
        """Run until every job finishes or the horizon expires."""
        if max_duration_s <= 0:
            raise ConfigError("duration must be positive")
        cfg = self.config
        telemetry = Telemetry()
        primary = self.server.primary_tenant()
        if primary is None:
            raise SimulationError(
                f"server {self.server.name!r} lost its primary tenant before "
                "the time-share run started"
            )
        n_ticks = int(round(max_duration_s / CONTROL_INTERVAL_S))
        violations = 0
        makespan = max_duration_s

        for tick in range(n_ticks):
            t = tick * CONTROL_INTERVAL_S
            self._dispatch(t)

            load = self.trace.load_fraction(t) * self.lc_app.peak_load
            alloc_before = self.server.allocation_of(primary)
            measured_load = measured(load, self._rng, cfg.load_noise)
            p99 = self.lc_app.measured_p99_s(
                load, alloc_before, self._rng, cfg.latency_noise
            )
            self.manager.control_step(
                measured_load, 1.0 - p99 / self.lc_app.latency.slo.p99_s
            )
            for k in range(SUBTICKS):
                self.capper.step(t + k * DEFAULT_SAMPLE_INTERVAL_S)

            lc_alloc = self.server.allocation_of(primary)
            if self.lc_app.slack(load, lc_alloc) < 0:
                violations += 1
            telemetry.record("power_w", t, self.server.power_w())

            if self._active is not None:
                be_alloc = self.server.allocation_of(self._active.name)
                rate = self._active.app.normalized_throughput(be_alloc)
                self._active.remaining -= rate * CONTROL_INTERVAL_S
                telemetry.record("active_job_rate", t, rate)
                if self._active.done:
                    self._active.remaining = 0.0
                    self._active.completed_s = t + CONTROL_INTERVAL_S
                    self._retire_active()

            if all(j.done for j in self.jobs):
                makespan = (tick + 1) * CONTROL_INTERVAL_S
                break

        return TimeShareResult(
            jobs=self.jobs,
            makespan_s=makespan,
            telemetry=telemetry,
            slo_violation_fraction=violations / max(1, n_ticks),
        )

    # ------------------------------------------------------------------
    def _dispatch(self, time_s: float) -> None:
        """Let the scheduler (re)choose the active job if appropriate."""
        ready = [
            j for j in self.jobs
            if not j.done and j.arrival_s <= time_s
        ]
        if not ready:
            return
        quantum = self.scheduler.quantum_s
        must_decide = (
            self._active is None
            or (quantum is not None and time_s - self._active_since >= quantum)
        )
        if not must_decide:
            return
        chosen = self.scheduler.pick(ready, time_s)
        if self._active is not None and chosen.name == self._active.name:
            self._active_since = time_s
            return
        self._retire_active()
        self._activate(chosen, time_s)

    def _activate(self, job: BestEffortJob, time_s: float) -> None:
        self.server.attach(job.name, job.app, role=SECONDARY)
        spare = self.server.spare_allocation()
        if not spare.is_empty:
            self.server.apply_allocation(job.name, spare)
        if job.started_s is None:
            job.started_s = time_s
        self._active = job
        self._active_since = time_s

    def _retire_active(self) -> None:
        if self._active is None:
            return
        self.server.detach(self._active.name)
        self._active = None
