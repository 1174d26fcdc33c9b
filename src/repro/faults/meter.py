"""A power meter that honors a fault schedule.

:class:`FaultyPowerMeter` is a drop-in :class:`~repro.hwmodel.meter.PowerMeter`
whose raw observations are corrupted by the meter faults of an attached
:class:`~repro.faults.schedule.FaultSchedule`:

* :class:`~repro.faults.schedule.MeterStuckAt` — the raw value freezes
  (at the last pre-fault reading, or a pinned value) and the EWMA filter
  converges onto the frozen value;
* :class:`~repro.faults.schedule.MeterDrift` — an additive bias ramp on
  top of the true signal and noise;
* :class:`~repro.faults.schedule.MeterDropout` — no new conversions: the
  last reading is re-served verbatim with an advancing timestamp (what a
  cached sysfs/RAPL read looks like when the underlying driver hangs).

The controllers keep consuming the same :class:`PowerReading` interface —
detection is *their* job (see the watchdog in
:class:`~repro.hwmodel.capping.PowerCapController`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.faults.schedule import (
    FaultSchedule,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
)
from repro.hwmodel.meter import (
    DEFAULT_NOISE_SIGMA_W,
    PowerMeter,
    PowerReading,
)


class FaultyPowerMeter(PowerMeter):
    """A :class:`PowerMeter` whose readings pass through a fault schedule."""

    def __init__(
        self,
        source: Callable[[], float],
        schedule: FaultSchedule,
        rng: Optional[np.random.Generator] = None,
        noise_sigma_w: float = DEFAULT_NOISE_SIGMA_W,
        ewma_alpha: float = 0.5,
    ) -> None:
        super().__init__(
            source,
            rng=rng,
            noise_sigma_w=noise_sigma_w,
            ewma_alpha=ewma_alpha,
        )
        self.schedule = schedule
        self._held: Dict[MeterStuckAt, float] = {}

    def sample(self, time_s: float) -> PowerReading:
        dropout = self.schedule.first_active(time_s, MeterDropout)
        if dropout is not None and self._last is not None:
            # Stale re-serve: same watts and filtered value, new time.
            stale = PowerReading(
                time_s=time_s,
                watts=self._last.watts,
                filtered_watts=self._last.filtered_watts,
            )
            self._last = stale
            return stale
        return super().sample(time_s)

    def _observe(self, time_s: float) -> float:
        stuck = self.schedule.first_active(time_s, MeterStuckAt)
        if stuck is not None:
            if stuck not in self._held:
                if stuck.value_w is not None:
                    held = stuck.value_w
                elif self._last is not None:
                    held = self._last.watts
                else:
                    held = super()._observe(time_s)
                self._held[stuck] = held
            return self._held[stuck]
        raw = super()._observe(time_s)
        for drift in self.schedule.active(time_s, MeterDrift):
            raw += drift.bias_at(time_s)
        return max(0.0, raw)

    def reset(self) -> None:
        super().reset()
        self._held.clear()
