"""Power capping actuation for the best-effort tenant.

Section IV-C: "The server manager periodically measures the power draw of
the server every 100 ms, and throttles the power draw of the secondary
application to stay within the provisioned power capacity.  Towards that,
it first uses the fine-grained knob of per-core frequency to reduce power
draw, and then limits the CPU execution time to further reduce power draw
if needed."

:class:`PowerCapController` is that loop.  It never touches the primary
tenant — the latency-critical application has absolute priority and its
power needs define the provisioned capacity in the first place.  Actions
are ordered exactly as in the paper:

* over cap  → step the BE frequency down the DVFS ladder; once the ladder
  is exhausted, reduce the BE duty cycle (CPU-time limiting);
* safely under cap (by :data:`RESTORE_MARGIN_W`) → undo in reverse order:
  restore duty cycle first, then climb the ladder.

Two mechanisms prevent limit cycling: the restore margin (hysteresis on
the meter's EWMA-filtered value against measurement noise), and an
exponential *restore backoff* — when a restore is punished by a throttle
within a couple of samples (the step's power delta exceeds the margin),
the controller doubles the wait before probing upward again, so the
long-run operating point converges to the throttled side of the cap with
only occasional upward probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.hwmodel.meter import DEFAULT_SAMPLE_INTERVAL_S, PowerMeter
from repro.hwmodel.server import Server

#: Granularity of CPU-time limiting once the frequency ladder is exhausted.
DUTY_STEP = 0.05

#: Floor below which the BE tenant is not squeezed further (a fully
#: starved tenant would never release held resources in a real system;
#: the paper keeps the BE app running, just slowly).
MIN_DUTY_CYCLE = 0.05

#: How far below the cap (W) the filtered draw must be before the loop
#: starts giving resources back — the hysteresis band.
RESTORE_MARGIN_W = 4.0

#: Identical consecutive raw readings tolerated before the watchdog's
#: stale trip (only armed when the meter reports a non-zero noise level).
STALE_AFTER = 3

#: A sane reading's upper bound, as a multiple of the provisioned
#: capacity the controller is built under.  Negative readings are
#: impossible by construction (meters clip at zero), so the bound is
#: one-sided.
MAX_PLAUSIBLE_FACTOR = 3.0

#: Consecutive healthy (changing, in-bounds) readings required to leave
#: safe mode.
RECOVERY_SAMPLES = 3


@dataclass
class CapStats:
    """Counters describing how hard the cap loop had to work.

    ``throttle_events`` counts loop iterations that took a *downward*
    action — the paper's "frequent power capping" signal (Section V-D).
    The ``safe_mode_*``/``watchdog_trips`` counters describe graceful
    degradation under meter faults (see ``docs/FAULTS.md``).
    """

    samples: int = 0
    over_cap_samples: int = 0
    throttle_events: int = 0
    restore_events: int = 0
    duty_limited_samples: int = 0
    safe_mode_steps: int = 0
    safe_mode_entries: int = 0
    watchdog_trips: int = 0

    @property
    def over_cap_fraction(self) -> float:
        """Fraction of samples observed above the provisioned capacity."""
        return self.over_cap_samples / self.samples if self.samples else 0.0

    @property
    def throttle_fraction(self) -> float:
        """Fraction of samples on which the loop had to throttle."""
        return self.throttle_events / self.samples if self.samples else 0.0

    @property
    def safe_mode_fraction(self) -> float:
        """Fraction of samples spent in watchdog safe mode."""
        return self.safe_mode_steps / self.samples if self.samples else 0.0


class PowerCapController:
    """The 100 ms power-cap loop of Section IV-C.

    Parameters
    ----------
    server:
        The server whose secondary tenant is throttled.
    meter:
        Power meter to read; the controller acts on ``filtered_watts``.
    watchdog:
        Enable the meter watchdog.  The loop's actuation is only as good
        as its sensor; the watchdog cross-checks every raw reading for
        physical plausibility (:data:`MAX_PLAUSIBLE_FACTOR` times the
        provisioned capacity at construction) and — on noisy meters —
        for staleness (a real meter essentially never repeats a float
        exactly; :data:`STALE_AFTER` identical raw readings in a row mean
        the sensor is stuck or the pipeline serves cached values).
        Either trip enters *safe mode*: the controller stops trusting
        the meter and conservatively pins every best-effort tenant to
        its floor (minimum frequency and :data:`MIN_DUTY_CYCLE`) until
        :data:`RECOVERY_SAMPLES` consecutive healthy readings arrive.
    """

    def __init__(self, server: Server, meter: PowerMeter, watchdog: bool = True) -> None:
        self.server = server
        self.meter = meter
        self.watchdog = watchdog
        self.max_plausible_w = MAX_PLAUSIBLE_FACTOR * server.provisioned_power_w
        self.stats = CapStats()
        self._samples_since_restore = 10**9
        self._restore_backoff = 0
        self._restore_cooldown = 0
        self.safe_mode = False
        self._prev_raw_w: Optional[float] = None
        self._repeat_streak = 0
        self._healthy_streak = 0

    # ------------------------------------------------------------------
    # Meter watchdog
    # ------------------------------------------------------------------
    def _reading_healthy(self, raw_w: float) -> bool:
        """Classify one raw reading and update the staleness streaks."""
        stale_armed = self.meter.noise_sigma_w > 0
        if stale_armed and self._prev_raw_w is not None and raw_w == self._prev_raw_w:
            self._repeat_streak += 1
        else:
            self._repeat_streak = 0
        self._prev_raw_w = raw_w
        if raw_w > self.max_plausible_w:
            return False
        if stale_armed and self._repeat_streak >= STALE_AFTER:
            return False
        return True

    def _watchdog_step(self, raw_w: float, secondaries: list) -> bool:
        """Run the watchdog; returns True when the loop must stand down.

        In safe mode the controller ignores the meter entirely for
        throttle/restore decisions and holds the BE tenants at their
        floor — the one state guaranteed to honor the cap whenever the
        primary alone fits under it (true by provisioning).
        """
        healthy = self._reading_healthy(raw_w)
        if not self.safe_mode:
            if not healthy:
                self.safe_mode = True
                self._healthy_streak = 0
                self.stats.watchdog_trips += 1
                self.stats.safe_mode_entries += 1
            else:
                return False
        else:
            self._healthy_streak = self._healthy_streak + 1 if healthy else 0
            if self._healthy_streak >= RECOVERY_SAMPLES:
                # Sensor recovered: resume closed-loop control.  The BE
                # tenants climb back through the normal restore path.
                self.safe_mode = False
                return False
        self.stats.safe_mode_steps += 1
        for name in secondaries:
            self._floor(name)
        return True

    def _floor(self, be: str) -> None:
        """Pin one BE tenant to its minimum-power operating point."""
        alloc = self.server.allocation_of(be)
        ladder = self.server.spec.ladder
        floored = alloc.with_freq(ladder.min_ghz).with_duty_cycle(MIN_DUTY_CYCLE)
        if floored != alloc:
            self.server.apply_allocation(be, floored)
            self.stats.throttle_events += 1

    def step(self, time_s: float) -> None:
        """One loop iteration: sample the meter, act on the BE tenant."""
        reading = self.meter.sample(time_s)
        self.stats.samples += 1
        self._samples_since_restore += 1
        if self._restore_cooldown > 0:
            self._restore_cooldown -= 1
        cap = self.server.provisioned_power_w
        if reading.watts > cap:
            self.stats.over_cap_samples += 1

        secondaries = [
            name for name in self.server.secondary_tenants()
            if not self.server.allocation_of(name).is_empty
        ]
        if self.watchdog and self._watchdog_step(reading.watts, secondaries):
            return
        if not secondaries:
            return
        if any(
            self.server.allocation_of(name).duty_cycle < 1.0
            for name in secondaries
        ):
            self.stats.duty_limited_samples += 1

        if reading.filtered_watts > cap:
            if self._samples_since_restore <= 2:
                # The last upward probe overshot the cap: back off
                # exponentially before probing again.
                self._restore_backoff = min(600, max(10, self._restore_backoff * 2))
                self._restore_cooldown = self._restore_backoff
            # Squeeze the hungriest best-effort tenant first: it sheds
            # the most watts per throttle step.
            self._throttle(max(secondaries, key=self.server.tenant_power_w))
        elif (
            reading.filtered_watts < cap - RESTORE_MARGIN_W
            and self._restore_cooldown == 0
        ):
            # Give headroom back to the most-throttled tenant first.
            self._restore(min(secondaries, key=self._throttle_depth))
            self._samples_since_restore = 0

    def _throttle_depth(self, tenant: str) -> Tuple[float, float]:
        """How squeezed a tenant is: (duty, frequency), lowest = deepest."""
        alloc = self.server.allocation_of(tenant)
        return (alloc.duty_cycle, alloc.freq_ghz)

    def _throttle(self, be: str) -> None:
        alloc = self.server.allocation_of(be)
        ladder = self.server.spec.ladder
        if alloc.freq_ghz > ladder.min_ghz + 1e-9:
            new_freq = ladder.step_down(alloc.freq_ghz)
            self.server.apply_allocation(be, alloc.with_freq(new_freq))
            self.stats.throttle_events += 1
        elif alloc.duty_cycle > MIN_DUTY_CYCLE + 1e-9:
            new_duty = max(MIN_DUTY_CYCLE, alloc.duty_cycle - DUTY_STEP)
            self.server.apply_allocation(be, alloc.with_duty_cycle(new_duty))
            self.stats.throttle_events += 1
        # else: BE is already maximally squeezed; the primary alone must
        # fit under the cap by construction of the provisioning.

    def _restore(self, be: str) -> None:
        alloc = self.server.allocation_of(be)
        ladder = self.server.spec.ladder
        if alloc.duty_cycle < 1.0 - 1e-9:
            new_duty = min(1.0, alloc.duty_cycle + DUTY_STEP)
            self.server.apply_allocation(be, alloc.with_duty_cycle(new_duty))
            self.stats.restore_events += 1
        elif alloc.freq_ghz < ladder.max_ghz - 1e-9:
            new_freq = ladder.step_up(alloc.freq_ghz)
            self.server.apply_allocation(be, alloc.with_freq(new_freq))
            self.stats.restore_events += 1

    def run_until_stable(self, max_steps: int = 200) -> float:
        """Iterate the loop from time 0 until no action fires, returning
        the end time.

        Used by steady-state experiments (e.g. Fig 3) that want the
        converged throttle level for a fixed operating point rather than
        a full time-domain trace.
        """
        time_s = 0.0
        for _ in range(max_steps):
            before = (self.stats.throttle_events, self.stats.restore_events)
            self.step(time_s)
            time_s += DEFAULT_SAMPLE_INTERVAL_S
            if (self.stats.throttle_events, self.stats.restore_events) == before:
                # No action at this sample; with EWMA warm, we call it stable.
                if self.stats.samples >= 3:
                    break
        return time_s
