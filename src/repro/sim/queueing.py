"""Event-driven queueing simulation of a latency-critical server.

The analytic tail-latency model (:mod:`repro.apps.latency`) asserts that
p99 latency behaves like ``t0 / (1 - knee * rho)`` in the utilization
``rho``.  This module provides the discrete-event ground truth to
validate that shape: a multi-worker queue (the allocation's cores are the
workers) fed by Poisson arrivals with lognormal service times, measured
the way production telemetry measures — completed-request latency
percentiles over a window.

It exists for *validation and calibration*, not for the control loops:
the simulated experiments use the (much cheaper) analytic model, and the
tests in ``tests/test_sim_queueing.py`` pin the two against each other
(same knee location, same blow-up direction, SLO hit near capacity).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError

#: Coefficient of variation of the lognormal service times (1.0 is
#: exponential-like variability).
SERVICE_CV = 1.0

#: Share of the first completions :func:`simulate_queue` discards as
#: queue ramp-up.
WARMUP_FRACTION = 0.1

#: Parallel workers of :func:`p99_curve`'s validation queue.
CURVE_WORKERS = 4


@dataclass(frozen=True)
class QueueingConfig:
    """One queueing experiment: a server's capacity vs an offered load.

    ``service_rate_total`` is the aggregate requests/s the worker pool
    completes at full utilization (the allocation's *capacity*);
    ``workers`` spreads it over parallel servers, whose service times
    are lognormal with coefficient of variation :data:`SERVICE_CV`.
    """

    arrival_rate: float
    service_rate_total: float
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ConfigError("arrival rate cannot be negative")
        if self.service_rate_total <= 0:
            raise ConfigError("service rate must be positive")
        if self.workers < 1:
            raise ConfigError("need at least one worker")

    @property
    def rho(self) -> float:
        """Offered utilization ``lambda / mu_total``."""
        return self.arrival_rate / self.service_rate_total


@dataclass(frozen=True)
class QueueingResult:
    """Measured latency distribution of one run."""

    completed: int
    mean_latency_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_queue_len: int

    def percentile(self, q: float) -> float:
        """Convenience lookup for the three stored percentiles."""
        table = {50.0: self.p50_s, 95.0: self.p95_s, 99.0: self.p99_s}
        if q not in table:
            raise ConfigError("only p50/p95/p99 are stored; rerun for others")
        return table[q]


def _lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and CV."""
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - 0.5 * sigma2
    return mu, math.sqrt(sigma2)


def simulate_queue(
    config: QueueingConfig,
    num_requests: int = 20_000,
) -> QueueingResult:
    """Run the queue for ``num_requests`` arrivals and measure latency.

    FCFS dispatch to the first free worker; each worker completes at
    ``service_rate_total / workers`` requests/s on average.  The first
    :data:`WARMUP_FRACTION` of completions is discarded (queue ramp-up).
    Overload (``rho >= 1``) is allowed — latencies then grow with the
    horizon, which is exactly the signal the tests look for.
    """
    if num_requests < 100:
        raise ConfigError("need at least 100 requests for stable percentiles")
    rng = np.random.default_rng(config.seed)
    mean_service = config.workers / config.service_rate_total
    mu, sigma = _lognormal_params(mean_service, SERVICE_CV)

    inter = (
        rng.exponential(1.0 / config.arrival_rate, size=num_requests)
        if config.arrival_rate > 0
        else np.full(num_requests, math.inf)
    )
    arrivals = np.cumsum(inter)
    services = rng.lognormal(mu, sigma, size=num_requests)

    # worker_free[i] = time worker i becomes idle; FCFS via a min-heap.
    worker_free = [0.0] * config.workers
    heapq.heapify(worker_free)
    latencies: List[float] = []
    max_queue = 0
    # Track queue length by comparing arrival times against busy workers.
    pending_completions: List[float] = []
    for arrival, service in zip(arrivals, services):
        free_at = heapq.heappop(worker_free)
        start = max(arrival, free_at)
        done = start + service
        heapq.heappush(worker_free, done)
        latencies.append(done - arrival)
        # Queue length proxy: completions scheduled after this arrival.
        while pending_completions and pending_completions[0] <= arrival:
            heapq.heappop(pending_completions)
        heapq.heappush(pending_completions, done)
        max_queue = max(max_queue, len(pending_completions))

    cut = int(len(latencies) * WARMUP_FRACTION)
    window = np.asarray(latencies[cut:])
    return QueueingResult(
        completed=len(window),
        mean_latency_s=float(np.mean(window)),
        p50_s=float(np.percentile(window, 50)),
        p95_s=float(np.percentile(window, 95)),
        p99_s=float(np.percentile(window, 99)),
        max_queue_len=max_queue,
    )


def p99_curve(
    service_rate_total: float,
    rhos: List[float],
    num_requests: int = 20_000,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Measured p99 latency across a utilization sweep, on a queue of
    :data:`CURVE_WORKERS` workers.

    The validation tool for :class:`~repro.apps.latency.TailLatencyModel`:
    both curves must be monotone in rho and blow up near rho = 1.
    """
    points = []
    for rho in rhos:
        if rho < 0:
            raise ConfigError("utilization cannot be negative")
        config = QueueingConfig(
            arrival_rate=rho * service_rate_total,
            service_rate_total=service_rate_total,
            workers=CURVE_WORKERS,
            seed=seed,
        )
        result = simulate_queue(config, num_requests=num_requests)
        points.append((rho, result.p99_s))
    return points


def calibrate_knee(
    curve: List[Tuple[float, float]],
) -> Tuple[float, float]:
    """Least-squares fit of ``p99 = t0 / (1 - knee * rho)`` to a curve.

    Returns ``(t0, knee)``.  Linearised as ``1/p99 = 1/t0 - (knee/t0) rho``
    — ordinary least squares on the reciprocal.
    """
    if len(curve) < 3:
        raise ConfigError("need at least 3 points to calibrate")
    rho = np.array([r for r, _ in curve])
    inv = np.array([1.0 / p for _, p in curve if p > 0])
    if len(inv) != len(rho):
        raise ConfigError("curve contains non-positive latencies")
    design = np.vstack([np.ones_like(rho), rho]).T
    (a, b), _, _, _ = np.linalg.lstsq(design, inv, rcond=None)
    t0 = 1.0 / a
    knee = -b * t0
    return float(t0), float(knee)
