"""The three-stage brownout ladder a rack descends when its budget collapses.

When a rack's deliverable capacity falls below the sum of its alive
members' fail-safe floors (PDU derate, breaker trip, or simply too many
rejoined servers for a derated feed), the arbiter walks a ladder of
increasingly drastic mitigations:

* **stage 1 — throttle BE**: member caps scale with the capacity ratio,
  so the per-server :class:`~repro.hwmodel.capping.PowerCapController`
  duty-cycles the best-effort co-runner down first (its normal
  priority order);
* **stage 2 — evict BE**: cells planned while the rack holds stage 2
  run without their BE co-runner entirely;
* **stage 3 — shed LC duty**: cells additionally shed a fraction of
  the latency-critical load (the offered level is scaled down).  The
  LC app itself is never duty-cycled — that would break the
  ``lc-slo-floor`` guard invariant — shedding is a load-balancer
  action, not a RAPL action.

Escalation is immediate (capacity loss cannot wait), but de-escalation
is *hysteretic*: the ratio must recover past the stage's entry
threshold by :data:`EXIT_MARGIN` and hold there for :data:`HOLD_TICKS`
consecutive arbiter periods, and the ladder then steps down one stage
at a time.  Without this, a capacity hovering at a threshold would
flap grants and evictions every period — exactly the grant/revoke
oscillation the hysteresis exists to prevent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: Ladder stage numbers (0 is nominal operation).
STAGE_NOMINAL = 0
STAGE_THROTTLE = 1
STAGE_EVICT = 2
STAGE_SHED = 3

STAGE_NAMES: Tuple[str, ...] = ("nominal", "throttle-be", "evict-be", "shed-lc")

#: De-escalation hysteresis (module docstring).
EXIT_MARGIN = 0.05
HOLD_TICKS = 2


@dataclass
class BrownoutState:
    """Per-rack ladder position plus the de-escalation streak."""

    stage: int = STAGE_NOMINAL
    recovery_streak: int = 0


class BrownoutLadder:
    """The stage machine, shared by every rack of one arbiter.

    ``enter_ratios[s-1]`` is the capacity ratio below which stage ``s``
    engages; they must be non-increasing.  The ladder itself is
    stateless — each rack's :class:`BrownoutState` is threaded through
    :meth:`step`, so one ladder serves every rack of an arbiter.
    """

    def __init__(self, enter_ratios: Tuple[float, float, float]) -> None:
        if len(enter_ratios) != 3:
            raise ConfigError(
                f"the brownout ladder has 3 stages; got {len(enter_ratios)} "
                "entry ratios"
            )
        if not all(math.isfinite(r) for r in enter_ratios):
            raise ConfigError(
                f"brownout entry ratios must be finite; got {enter_ratios!r}"
            )
        for shallow, deep in zip(enter_ratios, enter_ratios[1:]):
            if deep > shallow:
                raise ConfigError(
                    "brownout entry ratios must be non-increasing "
                    f"(deeper stages engage at lower ratios); got "
                    f"{enter_ratios!r}"
                )
        self.enter_ratios = tuple(float(r) for r in enter_ratios)

    def target_stage(self, ratio: float) -> int:
        """The stage ``ratio`` calls for, ignoring hysteresis."""
        stage = STAGE_NOMINAL
        for threshold in self.enter_ratios:
            if ratio < threshold:
                stage += 1
            else:
                break
        return stage

    def step(self, state: BrownoutState, ratio: float) -> bool:
        """Advance one rack's ladder by one arbiter tick.

        Mutates ``state`` in place and returns True when the rack
        *entered* brownout on this tick (a stage-0 -> nonzero edge,
        counted by the arbiter's degradation stats).
        """
        target = self.target_stage(ratio)
        if target > state.stage:
            entered = state.stage == STAGE_NOMINAL
            state.stage = target
            state.recovery_streak = 0
            return entered
        if target < state.stage:
            exit_ratio = self.enter_ratios[state.stage - 1] * (1.0 + EXIT_MARGIN)
            if ratio >= exit_ratio:
                state.recovery_streak += 1
                if state.recovery_streak >= HOLD_TICKS:
                    state.stage -= 1
                    state.recovery_streak = 0
            else:
                state.recovery_streak = 0
        else:
            state.recovery_streak = 0
        return False

