"""Sampled power metering — the socket/DRAM power-meter layer.

The paper's server manager "periodically measures the power draw of the
server ... every 100 ms" (Section IV-C) using the platform's socket power
meter, and the profiling pipeline consumes the same telemetry.  Real
meters are noisy and quantized, so :class:`PowerMeter` wraps a true-power
source with Gaussian measurement noise and an optional EWMA filter, and
:class:`EnergyCounter` integrates readings into a RAPL-style monotonic
energy counter (joules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigError, SimulationError

#: The paper's power-sampling interval (Section IV-C).
DEFAULT_SAMPLE_INTERVAL_S = 0.1

#: A meter's Gaussian noise (standard deviation) unless a caller sets one.
DEFAULT_NOISE_SIGMA_W = 1.0

#: Seed for the fallback noise generator when a meter is built without
#: an injected rng; simulations that care pass their own seeded
#: generator, and a bare ``PowerMeter(...)`` stays reproducible.
DEFAULT_METER_SEED = 0


@dataclass(frozen=True)
class PowerReading:
    """One meter sample: timestamp, raw watts, and the filtered value."""

    time_s: float
    watts: float
    filtered_watts: float


class PowerMeter:
    """Noisy, periodically sampled view of a true power signal.

    Parameters
    ----------
    source:
        Zero-argument callable returning the current true server power in
        watts (the server facade's ``power_w``).
    noise_sigma_w:
        Standard deviation of additive Gaussian measurement noise.
    ewma_alpha:
        Smoothing factor of the exponentially weighted moving average
        exposed as ``filtered_watts`` (1.0 disables smoothing).

    :meth:`sample` takes the timestamp explicitly so simulations control
    time; they sample every :data:`DEFAULT_SAMPLE_INTERVAL_S`.
    """

    def __init__(
        self,
        source: Callable[[], float],
        rng: Optional[np.random.Generator] = None,
        noise_sigma_w: float = DEFAULT_NOISE_SIGMA_W,
        ewma_alpha: float = 0.5,
    ) -> None:
        if noise_sigma_w < 0:
            raise ConfigError("noise sigma cannot be negative")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError("EWMA alpha must lie in (0, 1]")
        self._source = source
        self._rng = (
            rng if rng is not None else np.random.default_rng(DEFAULT_METER_SEED)
        )
        self._noise_sigma_w = noise_sigma_w
        self._ewma_alpha = ewma_alpha
        self._filtered: Optional[float] = None
        self._last: Optional[PowerReading] = None

    @property
    def last_reading(self) -> Optional[PowerReading]:
        """The most recent sample, or None before the first one."""
        return self._last

    @property
    def noise_sigma_w(self) -> float:
        """Configured measurement-noise level (0 = exact meter).

        Watchdogs use this to decide whether repeated identical readings
        are suspicious: a noisy meter essentially never repeats a float
        exactly, an exact meter repeats at every steady state.
        """
        return self._noise_sigma_w

    def _observe(self, time_s: float) -> float:
        """One raw (pre-filter) measurement; the fault-injection hook.

        Subclasses (e.g. :class:`repro.faults.meter.FaultyPowerMeter`)
        override this to corrupt the raw value while reusing the EWMA
        and bookkeeping of :meth:`sample`.
        """
        true_w = float(self._source())
        noise = self._rng.normal(0.0, self._noise_sigma_w) if self._noise_sigma_w else 0.0
        return max(0.0, true_w + noise)

    def sample(self, time_s: float) -> PowerReading:
        """Take one measurement at simulation time ``time_s``.

        Readings are clipped at zero — a real meter never reports
        negative watts even when noise would push it there.
        """
        raw = self._observe(time_s)
        if self._filtered is None:
            self._filtered = raw
        else:
            a = self._ewma_alpha
            self._filtered = a * raw + (1.0 - a) * self._filtered
        self._last = PowerReading(time_s=time_s, watts=raw, filtered_watts=self._filtered)
        return self._last

    def reset(self) -> None:
        """Forget filter state (e.g. across simulation episodes)."""
        self._filtered = None
        self._last = None


class EnergyCounter:
    """RAPL-style monotonic energy accumulator over meter readings.

    Integrates power with the trapezoid rule over the reading timestamps;
    exposes joules and kWh.  Feed it every reading in time order.
    """

    def __init__(self) -> None:
        self._joules = 0.0
        self._prev: Optional[PowerReading] = None

    @property
    def joules(self) -> float:
        """Accumulated energy in joules."""
        return self._joules

    @property
    def kwh(self) -> float:
        """Accumulated energy in kilowatt-hours."""
        return self._joules / 3.6e6

    def record(self, reading: PowerReading) -> float:
        """Integrate one reading; returns the new joule total."""
        if self._prev is not None:
            dt = reading.time_s - self._prev.time_s
            if dt < 0:
                # Out-of-order feeding is a runtime simulation-state
                # fault, not a configuration mistake.
                raise SimulationError("energy counter fed readings out of order")
            self._joules += 0.5 * (self._prev.watts + reading.watts) * dt
        self._prev = reading
        return self._joules

    def reset(self) -> None:
        """Zero the counter and forget the previous reading."""
        self._joules = 0.0
        self._prev = None
