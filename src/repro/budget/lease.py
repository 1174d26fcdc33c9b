"""The lease rule: which grant's cap is in force at each instant.

A server's cap at time *t* is the cap of the latest grant (by effective
time, then grant time) whose ``[effective_s, expires_s)`` window covers
*t*, else the server's fail-safe floor.  A delayed stale grant that
lands after a fresher one overrides it (the reordering the
rack-overcommit invariant watches); a grant delayed past its own
expiry has an empty window and is dead on arrival; every return to the
floor is a lease running out, counted as an expiry.
:class:`LeaseTimeline` is the rule's one statement: the budget planner
compiles every server's grants through it, and the tests read caps
through it.

Grants arrive in issue order, and every grant lives ``lease_s`` from
its issue, so a new grant's window ends no earlier than any earlier
grant's.  Applying one grant therefore only rewrites the timeline from
its effective time on, and keeps just the stretches an earlier grant
that took effect later still governs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.budget.schedule import CapSchedule

#: Relative margin by which a lease must outlast one arbiter period plus
#: the grant delay before consecutive windows of a run are taken to
#: overlap without checking each pair.  The tick times, effective times
#: and expiries are single float additions and products, so their
#: rounding is a few ulps of the horizon, far inside this margin.
_CHAIN_MARGIN = 1e-12


class LeaseTimeline:
    """One server's grant history over ``[0, total_s)``, as governed spans.

    Each span is ``[start_s, end_s, cap_w, effective_s]``: the stretch a
    grant governs and that grant's effective time.  Spans are disjoint
    and in time order; the gaps between them sit at the floor.
    """

    def __init__(self, floor_w: float, total_s: float) -> None:
        self.floor_w = floor_w
        self.total_s = total_s
        self._spans: List[List[float]] = []

    def grant(self, cap_w: float, effective_s: float, expires_s: float) -> bool:
        """Apply one grant, issued after every grant applied so far.

        Returns True when the grant now governs its whole window, i.e.
        it was live and no earlier grant that takes effect later than it
        kept a stretch of that window.
        """
        if not (effective_s < self.total_s and expires_s > effective_s):
            return False  # lands past the horizon, or dead on arrival
        spans = self._spans
        stale: List[List[float]] = []
        while spans and spans[-1][1] > effective_s:
            span = spans.pop()
            if span[3] > effective_s:
                stale.append(span)
            elif span[0] < effective_s:
                span[1] = effective_s
                spans.append(span)
                break
        cursor = effective_s
        for span in reversed(stale):
            if span[0] > cursor:
                spans.append([cursor, span[0], cap_w, effective_s])
            spans.append(span)
            cursor = span[1]
        if cursor < expires_s:
            spans.append([cursor, expires_s, cap_w, effective_s])
        return not stale

    def grant_run(
        self,
        cap_w: float,
        delay_s: float,
        first: int,
        stop: int,
        period_s: float,
        lease_s: float,
    ) -> None:
        """Apply the grants issued at ticks ``first .. stop - 1``.

        Tick ``k`` issues at ``k * period_s``, takes effect ``delay_s``
        later and expires ``lease_s`` after its issue; every grant of the
        run carries ``cap_w``.  The result is the one of applying them one
        by one with :meth:`grant`.  When the lease outlasts a period plus
        the delay by :data:`_CHAIN_MARGIN`, consecutive windows overlap,
        so once a grant governs its whole window the grants after it
        extend its span in one step.  The extension stops at the last
        grant taking effect by ``stop * period_s``: no grant issued after
        the run takes effect earlier, so none is outranked by a grant the
        span stands for.  The grants past it, and every grant of a run
        whose windows may not overlap, are applied one by one.
        """
        margin_s = _CHAIN_MARGIN * (self.total_s + lease_s + delay_s)
        last = first
        if lease_s - period_s - delay_s > margin_s:
            next_issue_s = stop * period_s
            last = stop - 1
            while last > first:
                effective_s = last * period_s + delay_s
                if effective_s <= next_issue_s and effective_s < self.total_s:
                    break
                last -= 1
        k = first
        while k < stop:
            issued_s = k * period_s
            whole = self.grant(cap_w, issued_s + delay_s, issued_s + lease_s)
            if whole and k < last:
                span = self._spans[-1]
                issued_s = last * period_s
                span[1] = issued_s + lease_s
                span[3] = issued_s + delay_s
                k = last
            k += 1

    def compile(self) -> Tuple[CapSchedule, int]:
        """The cap timeline over ``[0, total_s)`` and the leases that ran
        out inside it (each governed stretch followed by the floor)."""
        segments: List[Tuple[float, float]] = []
        expired = 0
        governed_until: Optional[float] = None
        for start_s, end_s, cap_w, _ in self._spans:
            if start_s >= self.total_s:
                break
            if governed_until is not None and governed_until < start_s:
                segments.append((governed_until, self.floor_w))
                expired += 1
            segments.append((start_s, cap_w))
            governed_until = end_s
        if governed_until is not None and governed_until < self.total_s:
            segments.append((governed_until, self.floor_w))
            expired += 1
        if not segments or segments[0][0] > 0.0:
            segments.insert(0, (0.0, self.floor_w))
        return CapSchedule.from_segments(segments), expired
