"""The server facade: one box, two tenants, four knobs.

:class:`Server` glues the isolation substrates together the way the
paper's server manager drives a real Linux box:

* core pinning via :class:`~repro.hwmodel.cpu.CoreAllocator` (``taskset``),
* LLC way masks via :class:`~repro.hwmodel.cache.CacheAllocator` (Intel CAT),
* per-core DVFS via :class:`~repro.hwmodel.cpu.DvfsController`
  (``cpupowerutils``),
* CPU-time duty cycling (the last-resort power throttle of Section IV-C).

A *tenant* is any object implementing :class:`PowerDrawModel` — in
practice the application models of :mod:`repro.apps`.  The server computes
its true power draw additively: idle power plus every tenant's active
power at its current effective allocation, which is exactly the additive
secondary-resource structure the paper builds on (Section I: "total server
power consumption is additive over the consumption of power by all primary
resources").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import AllocationError, ConfigError
from repro.hwmodel.cache import CacheAllocator
from repro.hwmodel.cpu import CoreAllocator, DvfsController
from repro.hwmodel.spec import Allocation, ServerSpec


@runtime_checkable
class PowerDrawModel(Protocol):
    """Anything that can report its active power at a given allocation."""

    def active_power_w(self, alloc: Allocation) -> float:
        """Dynamic (above-idle) power drawn at ``alloc``, in watts."""
        ...


#: Tenant roles — the primary is the latency-critical application with
#: absolute resource priority; the secondary is best-effort.
PRIMARY = "primary"
SECONDARY = "secondary"


@dataclass
class _TenantState:
    model: PowerDrawModel
    role: str
    #: Starts unthrottled; :meth:`Server.apply_allocation` sets it.
    duty_cycle: float = field(default=1.0, init=False)


class Server:
    """A power-capped server hosting one primary and one secondary tenant.

    Parameters
    ----------
    spec:
        The hardware description (defaults follow paper Table I).
    provisioned_power_w:
        The cluster's right-sized power capacity for this server — the
        budget the capping loop enforces.  It is a property of capacity
        planning for the *primary* application, not of the hardware
        (Section II-A), hence it is set per server, not in the spec.
    """

    def __init__(
        self, spec: ServerSpec, provisioned_power_w: float, name: str = "server-0"
    ) -> None:
        if provisioned_power_w <= 0:
            raise ConfigError("provisioned power must be positive")
        self.spec = spec
        self.provisioned_power_w = float(provisioned_power_w)
        self.name = name
        self.cores = CoreAllocator(spec)
        self.cache = CacheAllocator(spec)
        self.dvfs = DvfsController(spec)
        self._tenants: Dict[str, _TenantState] = {}

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def attach(self, tenant: str, model: PowerDrawModel, role: str = SECONDARY) -> None:
        """Register a tenant with no resources; allocate separately."""
        if role not in (PRIMARY, SECONDARY):
            raise ConfigError(f"unknown tenant role {role!r}")
        if tenant in self._tenants:
            raise AllocationError(f"tenant {tenant!r} already attached")
        if role == PRIMARY:
            existing = self.primary_tenant()
            if existing is not None:
                raise AllocationError(
                    f"server already has primary tenant {existing!r}"
                )
            self.cache.set_primary(tenant)
        self._tenants[tenant] = _TenantState(model=model, role=role)

    def detach(self, tenant: str) -> None:
        """Remove a tenant, releasing all of its resources."""
        self._require(tenant)
        self.cores.release(tenant)
        self.cache.release(tenant)
        del self._tenants[tenant]

    def tenants(self) -> Tuple[str, ...]:
        """Names of attached tenants."""
        return tuple(self._tenants)

    def primary_tenant(self) -> Optional[str]:
        """Name of the primary tenant, if one is attached."""
        for name, state in self._tenants.items():
            if state.role == PRIMARY:
                return name
        return None

    def secondary_tenant(self) -> Optional[str]:
        """Name of the first secondary tenant, if one is attached."""
        secondaries = self.secondary_tenants()
        return secondaries[0] if secondaries else None

    def secondary_tenants(self) -> Tuple[str, ...]:
        """Names of every secondary tenant, in attachment order.

        The paper's prototype runs one; the spatial-sharing extension of
        Section V-G runs several, partitioning the spare resources.
        """
        return tuple(
            name for name, state in self._tenants.items()
            if state.role == SECONDARY
        )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def apply_allocation(self, tenant: str, alloc: Allocation) -> Allocation:
        """Drive all four knobs so ``tenant`` runs at ``alloc``.

        Raises :class:`AllocationError` (leaving prior state untouched for
        the resources not yet changed) if the request does not fit next to
        the other tenant's holdings.
        """
        state = self._require(tenant)
        self.spec.validate(alloc)
        other_cores = sum(
            len(self.cores.cores_of(t)) for t in self._tenants if t != tenant
        )
        if alloc.cores + other_cores > self.spec.cores:
            raise AllocationError(
                f"{tenant!r} wants {alloc.cores} cores but other tenants "
                f"hold {other_cores} of {self.spec.cores}"
            )
        other_ways = sum(
            self.cache.ways_of(t) for t in self._tenants if t != tenant
        )
        if alloc.ways + other_ways > self.spec.llc_ways:
            raise AllocationError(
                f"{tenant!r} wants {alloc.ways} ways but other tenants "
                f"hold {other_ways} of {self.spec.llc_ways}"
            )
        core_ids = self.cores.assign(tenant, alloc.cores)
        self.cache.assign(tenant, alloc.ways)
        if core_ids:
            self.dvfs.set_frequency(core_ids, self.spec.ladder.clamp(alloc.freq_ghz))
        state.duty_cycle = alloc.duty_cycle
        return self.allocation_of(tenant)

    def allocation_of(self, tenant: str) -> Allocation:
        """The tenant's current effective allocation, read back from the knobs."""
        state = self._require(tenant)
        core_ids = self.cores.cores_of(tenant)
        ways = self.cache.ways_of(tenant)
        if not core_ids:
            return Allocation.empty()
        return Allocation(
            cores=len(core_ids),
            ways=ways,
            freq_ghz=self.dvfs.group_frequency(core_ids),
            duty_cycle=state.duty_cycle,
        )

    def release_allocation(self, tenant: str) -> None:
        """Park a tenant (keep it attached, free its resources)."""
        state = self._require(tenant)
        self.cores.release(tenant)
        self.cache.release(tenant)
        state.duty_cycle = 1.0

    def spare_allocation(self) -> Allocation:
        """Direct resources not held by any tenant, at max frequency.

        This is what the server manager hands to the best-effort tenant:
        "the spare resources that are not allocated/reserved for the
        latency-critical applications" (Section IV-C).
        """
        free_cores = len(self.cores.free_cores())
        free_ways = self.cache.free_ways()
        if free_cores <= 0 or free_ways <= 0:
            return Allocation.empty()
        return Allocation(
            cores=free_cores, ways=free_ways, freq_ghz=self.spec.max_freq_ghz
        )

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power_w(self) -> float:
        """True instantaneous server power: idle + every tenant's active power."""
        total = self.spec.idle_power_w
        for tenant in self._tenants:
            total += self.tenant_power_w(tenant)
        return total

    def tenant_power_w(self, tenant: str) -> float:
        """Active (above-idle) power attributable to one tenant.

        Duty cycling scales active power linearly — a tenant running 60 %
        of the time draws 60 % of its running active power on average.
        """
        state = self._require(tenant)
        alloc = self.allocation_of(tenant)
        if alloc.is_empty:
            return 0.0
        return state.model.active_power_w(alloc) * alloc.duty_cycle

    def power_headroom_w(self) -> float:
        """Provisioned capacity minus current true draw (may be negative)."""
        return self.provisioned_power_w - self.power_w()

    def is_over_cap(self, margin_w: float = 0.0) -> bool:
        """True when true draw exceeds provisioned capacity + margin."""
        return self.power_w() > self.provisioned_power_w + margin_w

    # ------------------------------------------------------------------
    def _require(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise AllocationError(f"no tenant {tenant!r} on {self.name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{t}={self.allocation_of(t)}" for t in self._tenants
        )
        return f"Server({self.name}, cap={self.provisioned_power_w}W, {parts})"
