"""Server hardware specification and resource-allocation value objects.

The paper's testbed is an Intel Xeon E5-2650 (Table I): 12 cores, 20 LLC
ways (30 MB), per-core DVFS from 1.2 GHz to 2.2 GHz, 50 W idle and 135 W
active power, with Intel CAT for way partitioning and ``taskset`` for core
pinning.  This module defines the immutable descriptions of that hardware
(:class:`ServerSpec`, :class:`FrequencyLadder`) and the value object that
every layer of the stack trades in: :class:`Allocation`, a (cores, ways,
frequency) triple.

Nothing in here has behaviour beyond validation and arithmetic — the
allocators that enforce isolation live in :mod:`repro.hwmodel.cpu` and
:mod:`repro.hwmodel.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Tuple

from repro.errors import AllocationError, ConfigError

#: DVFS step of the Xeon E5-2650 ladder (GHz).
FREQ_STEP_GHZ = 0.1


@dataclass(frozen=True)
class FrequencyLadder:
    """Discrete DVFS ladder, mirroring ``cpupowerutils`` available steps.

    Frequencies are represented in GHz.  The ladder is inclusive on both
    ends and uniform in :data:`FREQ_STEP_GHZ`; ``steps()`` enumerates it
    ascending.
    """

    min_ghz: float = 1.2
    max_ghz: float = 2.2

    def __post_init__(self) -> None:
        if self.min_ghz <= 0 or self.max_ghz <= 0:
            raise ConfigError("frequencies must be positive")
        if self.min_ghz > self.max_ghz:
            raise ConfigError(
                f"min frequency {self.min_ghz} exceeds max {self.max_ghz}"
            )

    @property
    def num_steps(self) -> int:
        """Number of discrete operating points on the ladder."""
        return int(round((self.max_ghz - self.min_ghz) / FREQ_STEP_GHZ)) + 1

    def steps(self) -> Tuple[float, ...]:
        """All operating points, ascending, rounded to avoid FP drift."""
        return tuple(
            round(self.min_ghz + i * FREQ_STEP_GHZ, 6) for i in range(self.num_steps)
        )

    def clamp(self, freq_ghz: float) -> float:
        """Snap ``freq_ghz`` to the nearest valid operating point."""
        if freq_ghz <= self.min_ghz:
            return self.min_ghz
        if freq_ghz >= self.max_ghz:
            return self.max_ghz
        idx = round((freq_ghz - self.min_ghz) / FREQ_STEP_GHZ)
        return round(self.min_ghz + idx * FREQ_STEP_GHZ, 6)

    def contains(self, freq_ghz: float) -> bool:
        """True if ``freq_ghz`` is (numerically) a ladder operating point."""
        if freq_ghz < self.min_ghz - 1e-9 or freq_ghz > self.max_ghz + 1e-9:
            return False
        offset = (freq_ghz - self.min_ghz) / FREQ_STEP_GHZ
        return abs(offset - round(offset)) < 1e-6

    def step_down(self, freq_ghz: float) -> float:
        """One ladder step below ``freq_ghz`` (clamped at the minimum)."""
        return self.clamp(self.clamp(freq_ghz) - FREQ_STEP_GHZ)

    def step_up(self, freq_ghz: float) -> float:
        """One ladder step above ``freq_ghz`` (clamped at the maximum)."""
        return self.clamp(self.clamp(freq_ghz) + FREQ_STEP_GHZ)


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one server (paper Table I).

    Attributes
    ----------
    cores:
        Number of physical cores available for pinning.
    llc_ways:
        Number of LLC ways partitionable with Intel CAT.
    llc_mb:
        Total LLC capacity in megabytes (informational).
    ladder:
        The DVFS operating-point ladder.
    idle_power_w:
        Power drawn with every core idle (the ``P_static`` of Eq. 2; the
        application-level power meter of the paper apportions this, we
        keep it as a server-level constant).
    nameplate_power_w:
        The vendor "active" power rating; individual applications may
        exceed it (sphinx peaks at 182 W on a 135 W-rated box in
        Table II) — it is informational, the binding limit is always the
        per-cluster ``provisioned_power_w`` chosen by capacity planning.
    memory_gb / storage_gb:
        Informational only; the paper's direct resources are cores + ways.
    """

    cores: int = 12
    llc_ways: int = 20
    llc_mb: float = 30.0
    ladder: FrequencyLadder = field(default_factory=FrequencyLadder)
    idle_power_w: float = 50.0
    nameplate_power_w: float = 135.0
    memory_gb: int = 256
    storage_gb: int = 480
    name: str = "xeon-e5-2650"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("a server needs at least one core")
        if self.llc_ways < 1:
            raise ConfigError("a server needs at least one LLC way")
        if self.idle_power_w < 0:
            raise ConfigError("idle power cannot be negative")

    @property
    def max_freq_ghz(self) -> float:
        """Highest DVFS operating point."""
        return self.ladder.max_ghz

    @property
    def min_freq_ghz(self) -> float:
        """Lowest DVFS operating point."""
        return self.ladder.min_ghz

    def full_allocation(self) -> "Allocation":
        """The allocation using every core and way at max frequency."""
        return Allocation(
            cores=self.cores, ways=self.llc_ways, freq_ghz=self.max_freq_ghz
        )

    def validate(self, alloc: "Allocation") -> None:
        """Raise :class:`AllocationError` if ``alloc`` does not fit this server."""
        if alloc.cores < 0 or alloc.cores > self.cores:
            raise AllocationError(
                f"{alloc.cores} cores requested, server has {self.cores}"
            )
        if alloc.ways < 0 or alloc.ways > self.llc_ways:
            raise AllocationError(
                f"{alloc.ways} LLC ways requested, server has {self.llc_ways}"
            )
        if alloc.cores > 0 and not self.ladder.contains(alloc.freq_ghz):
            raise AllocationError(
                f"frequency {alloc.freq_ghz} GHz is not on the DVFS ladder "
                f"[{self.ladder.min_ghz}, {self.ladder.max_ghz}] "
                f"step {FREQ_STEP_GHZ}"
            )

    def iter_allocations(
        self,
        freq_ghz: float | None = None,
        min_cores: int = 1,
        min_ways: int = 1,
    ) -> Iterator["Allocation"]:
        """Enumerate every (cores, ways) allocation at a fixed frequency.

        This is the profiling grid of Section IV-A: the direct resources
        are swept while frequency is a runtime control knob.
        """
        freq = self.max_freq_ghz if freq_ghz is None else freq_ghz
        for cores in range(min_cores, self.cores + 1):
            for ways in range(min_ways, self.llc_ways + 1):
                yield Allocation(cores=cores, ways=ways, freq_ghz=freq)


@dataclass(frozen=True)
class Allocation:
    """An assignment of direct resources to one application.

    ``cores`` and ``ways`` are the paper's two direct resources
    (Section IV-C); ``freq_ghz`` is the per-core DVFS setting applied to
    the application's core set.  ``duty_cycle`` models the CPU-time
    limiting used as the last-resort power throttle ("limits the CPU
    execution time", Section IV-C): a value of 0.8 means the tenant only
    runs 80 % of wall-clock time.

    The empty allocation (0 cores) is valid and denotes a parked tenant.
    """

    cores: int
    ways: int
    freq_ghz: float = 2.2
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 0:
            raise AllocationError("core count cannot be negative")
        if self.ways < 0:
            raise AllocationError("way count cannot be negative")
        if self.cores > 0 and self.ways == 0:
            raise AllocationError(
                "an application with cores needs at least one LLC way"
            )
        if self.freq_ghz <= 0:
            raise AllocationError("frequency must be positive")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise AllocationError("duty cycle must lie in [0, 1]")

    @property
    def is_empty(self) -> bool:
        """True when no core is assigned (parked tenant)."""
        return self.cores == 0

    def with_freq(self, freq_ghz: float) -> "Allocation":
        """Copy with a different frequency."""
        return replace(self, freq_ghz=freq_ghz)

    def with_duty_cycle(self, duty_cycle: float) -> "Allocation":
        """Copy with a different CPU-time duty cycle."""
        return replace(self, duty_cycle=duty_cycle)

    def with_resources(self, cores: int, ways: int) -> "Allocation":
        """Copy with different direct-resource counts."""
        return replace(self, cores=cores, ways=ways)

    def resource_vector(self) -> Tuple[float, float]:
        """(cores, ways) as floats — the ``(r_1, r_2)`` of Eq. 1."""
        return (float(self.cores), float(self.ways))

    @staticmethod
    def empty() -> "Allocation":
        """The canonical parked allocation."""
        return Allocation(cores=0, ways=0)


def spare_of(spec: ServerSpec, primary: Allocation) -> Allocation:
    """Spare direct resources once ``primary`` is carved out of ``spec``.

    This is the complement operation of the Edgeworth box (Fig. 6): the
    secondary's origin sits at the top-right corner, so its allocation is
    the server total minus the primary's.  Frequency defaults to the
    maximum — the power-cap loop lowers it at runtime if needed.
    """
    spec.validate(primary)
    cores = spec.cores - primary.cores
    ways = spec.llc_ways - primary.ways
    if cores <= 0 or ways <= 0:
        return Allocation.empty()
    return Allocation(cores=cores, ways=ways, freq_ghz=spec.max_freq_ghz)
