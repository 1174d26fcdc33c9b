"""The guard monitor: evaluate every invariant on every sample.

:class:`GuardMonitor` is the object a guarded run actually talks to —
one :meth:`observe` call per sample, one :meth:`report` call at the
end.  The simulation loop feeds it a
:class:`~repro.guard.invariants.GuardSample` per control tick; the
budget planner (:func:`repro.budget.arbiter.plan_budget`) feeds it a
:class:`~repro.guard.invariants.BudgetSample` per tree node and arbiter
period, counting with :meth:`GuardMonitor.count_passing` the repeats it
has proved pass.  In ``record`` mode violations accumulate (capped) into the
:class:`~repro.guard.invariants.GuardReport`; in ``enforce`` mode the
first violation raises :class:`~repro.errors.InvariantViolationError`
immediately, so a broken controller kills its cell instead of producing
a quietly wrong result.
"""

from __future__ import annotations

from typing import Generic, List

from repro.errors import InvariantViolationError
from repro.guard.invariants import (
    GuardConfig,
    GuardReport,
    InvariantRegistry,
    SampleT,
    Violation,
)


class GuardMonitor(Generic[SampleT]):
    """Evaluates an invariant registry against one guarded run.

    One monitor guards one run: invariants are stateful (grace streaks,
    previous tick times, RNG baselines, overcommit onsets), so monitors
    are never shared or reused across cells or plans.
    """

    def __init__(
        self, config: GuardConfig, registry: InvariantRegistry[SampleT]
    ) -> None:
        self.config = config
        self.registry = registry
        self._checks = 0
        self._total_violations = 0
        self._violations: List[Violation] = []

    def observe(self, sample: SampleT) -> None:
        """Run every invariant against one snapshot.

        Raises :class:`~repro.errors.InvariantViolationError` on the
        first violation when enforcing; otherwise records it (up to the
        config's ``max_violations``) and keeps going.
        """
        for invariant in self.registry.invariants:
            self._checks += 1
            violation = invariant.observe(sample)
            if violation is None:
                continue
            self._total_violations += 1
            if len(self._violations) < self.config.max_violations:
                self._violations.append(violation)
            if self.config.enforcing:
                raise InvariantViolationError(
                    f"guard invariant violated in enforce mode: "
                    f"{violation.render()}"
                )

    def count_passing(self, samples: int) -> None:
        """Count ``samples`` samples as checked without evaluating them.

        For a caller that has proved every invariant returns None on each
        of them and keeps no state for them (the budget planner's repeats
        of an in-limit sample), so the report's ``checks`` stays what one
        :meth:`observe` per sample would have counted.
        """
        self._checks += samples * len(self.registry.invariants)

    def report(self) -> GuardReport:
        """Snapshot what the guards saw so far, as plain frozen data."""
        return GuardReport(
            mode=self.config.mode,
            checks=self._checks,
            total_violations=self._total_violations,
            violations=tuple(self._violations),
        )
