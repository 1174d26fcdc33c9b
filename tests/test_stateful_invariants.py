"""Stateful property-based tests: isolation invariants under random ops.

Hypothesis drives random operation sequences against the allocators and
the server facade, checking after every step the invariants the paper's
isolation story depends on:

* core sets of different tenants never overlap, and never exceed the
  server's core count;
* CAT way masks are contiguous, disjoint, and within the LLC;
* the server's spare + tenants' holdings always partition the machine;
* total power is always idle + the sum of tenant draws (additivity).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import AllocationError
from repro.hwmodel.cache import CacheAllocator
from repro.hwmodel.cpu import CoreAllocator
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import Allocation, ServerSpec

TENANTS = ("lc", "be1", "be2")


class CoreAllocatorMachine(RuleBasedStateMachine):
    """Random assign/release sequences against the core allocator."""

    def __init__(self):
        super().__init__()
        self.spec = ServerSpec()
        self.allocator = CoreAllocator(self.spec)

    @rule(tenant=st.sampled_from(TENANTS), count=st.integers(0, 14))
    def assign(self, tenant, count):
        other_total = sum(
            len(self.allocator.cores_of(t)) for t in TENANTS if t != tenant
        )
        if count <= self.spec.cores - other_total:
            self.allocator.assign(tenant, count)
            assert len(self.allocator.cores_of(tenant)) == count
        else:
            try:
                self.allocator.assign(tenant, count)
            except AllocationError:
                pass
            else:  # pragma: no cover - the assertion is the test
                raise AssertionError("oversubscription silently accepted")

    @rule(tenant=st.sampled_from(TENANTS))
    def release(self, tenant):
        self.allocator.release(tenant)
        assert self.allocator.cores_of(tenant) == frozenset()

    @invariant()
    def tenants_disjoint(self):
        seen = set()
        for tenant in TENANTS:
            cores = self.allocator.cores_of(tenant)
            assert not cores & seen
            seen |= cores
        assert seen <= set(range(self.spec.cores))

    @invariant()
    def free_plus_owned_is_everything(self):
        owned = set()
        for tenant in TENANTS:
            owned |= self.allocator.cores_of(tenant)
        assert owned | self.allocator.free_cores() == set(range(self.spec.cores))


class CacheAllocatorMachine(RuleBasedStateMachine):
    """Random masking sequences against the CAT allocator."""

    def __init__(self):
        super().__init__()
        self.spec = ServerSpec()
        self.allocator = CacheAllocator(self.spec, primary_tenant="lc")

    @rule(tenant=st.sampled_from(TENANTS), count=st.integers(0, 22))
    def assign(self, tenant, count):
        try:
            self.allocator.assign(tenant, count)
        except AllocationError:
            pass

    @rule(tenant=st.sampled_from(TENANTS))
    def release(self, tenant):
        self.allocator.release(tenant)
        assert self.allocator.ways_of(tenant) == 0

    @invariant()
    def masks_disjoint_and_contiguous(self):
        combined = 0
        for tenant in TENANTS:
            mask = self.allocator.mask_of(tenant)
            assert mask & combined == 0, "overlapping CAT masks"
            combined |= mask
            if mask:
                bits = bin(mask)[2:]
                assert "0" not in bits.strip("0"), "non-contiguous mask"
        assert combined < (1 << self.spec.llc_ways)

    @invariant()
    def primary_anchored_low(self):
        mask = self.allocator.mask_of("lc")
        if mask:
            assert mask & 1, "primary mask must start at way 0"

    @invariant()
    def way_accounting_consistent(self):
        total = sum(self.allocator.ways_of(t) for t in TENANTS)
        assert total + self.allocator.free_ways() == self.spec.llc_ways


class _FlatModel:
    def __init__(self, per_core, per_way):
        self.per_core = per_core
        self.per_way = per_way

    def active_power_w(self, alloc):
        return alloc.cores * self.per_core + alloc.ways * self.per_way


class ServerMachine(RuleBasedStateMachine):
    """Random allocation traffic against the full server facade."""

    def __init__(self):
        super().__init__()
        self.spec = ServerSpec()
        self.server = Server(self.spec, provisioned_power_w=150.0)
        self.models = {
            "lc": _FlatModel(3.0, 1.0),
            "be1": _FlatModel(2.0, 2.0),
            "be2": _FlatModel(5.0, 0.5),
        }
        self.server.attach("lc", self.models["lc"], role=PRIMARY)
        self.server.attach("be1", self.models["be1"], role=SECONDARY)
        self.server.attach("be2", self.models["be2"], role=SECONDARY)

    @rule(
        tenant=st.sampled_from(TENANTS),
        cores=st.integers(0, 12),
        ways=st.integers(0, 20),
        freq=st.sampled_from([1.2, 1.5, 1.8, 2.2]),
        duty=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def apply(self, tenant, cores, ways, freq, duty):
        if cores > 0 and ways == 0:
            return  # invalid shape by construction
        alloc = (
            Allocation(cores=cores, ways=ways, freq_ghz=freq, duty_cycle=duty)
            if cores > 0 else Allocation.empty()
        )
        try:
            applied = self.server.apply_allocation(tenant, alloc)
        except AllocationError:
            return
        assert applied.cores == cores
        assert applied.ways == (ways if cores > 0 else 0)

    @rule(tenant=st.sampled_from(TENANTS))
    def park(self, tenant):
        self.server.release_allocation(tenant)
        assert self.server.allocation_of(tenant).is_empty

    @invariant()
    def resources_partition_the_machine(self):
        total_cores = sum(
            self.server.allocation_of(t).cores for t in TENANTS
        )
        total_ways = sum(self.server.allocation_of(t).ways for t in TENANTS)
        spare = self.server.spare_allocation()
        assert total_cores <= self.spec.cores
        assert total_ways <= self.spec.llc_ways
        if not spare.is_empty:
            assert total_cores + spare.cores == self.spec.cores
            assert total_ways + spare.ways == self.spec.llc_ways

    @invariant()
    def power_is_additive(self):
        expected = self.spec.idle_power_w
        for tenant in TENANTS:
            alloc = self.server.allocation_of(tenant)
            if not alloc.is_empty:
                expected += self.models[tenant].active_power_w(alloc) * alloc.duty_cycle
        assert abs(self.server.power_w() - expected) < 1e-9


TestCoreAllocatorMachine = CoreAllocatorMachine.TestCase
TestCacheAllocatorMachine = CacheAllocatorMachine.TestCase
TestServerMachine = ServerMachine.TestCase

for case in (TestCoreAllocatorMachine, TestCacheAllocatorMachine, TestServerMachine):
    case.settings = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
