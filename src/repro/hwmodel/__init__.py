"""Hardware substrate: the simulated Xeon E5-2650 and its control knobs.

This package replaces the paper's physical testbed (Table I) with a
behavioural model exposing the *same control surface* the paper's managers
drive on Linux — core pinning, CAT way masks, per-core DVFS, duty-cycle
CPU limiting, and a sampled power meter — so the Pocolo controllers in
:mod:`repro.core` are written against realistic interfaces rather than
against the simulator's internals.
"""

from repro.hwmodel.attribution import AttributedPowerMeter, AttributedReading
from repro.hwmodel.cache import CacheAllocator
from repro.hwmodel.capping import CapStats, PowerCapController
from repro.hwmodel.cpu import CoreAllocator, DvfsController
from repro.hwmodel.meter import (
    DEFAULT_SAMPLE_INTERVAL_S,
    EnergyCounter,
    PowerMeter,
    PowerReading,
)
from repro.hwmodel.server import PRIMARY, SECONDARY, PowerDrawModel, Server
from repro.hwmodel.spec import (
    Allocation,
    FrequencyLadder,
    ServerSpec,
    spare_of,
)

__all__ = [
    "Allocation",
    "AttributedPowerMeter",
    "AttributedReading",
    "CacheAllocator",
    "CapStats",
    "CoreAllocator",
    "DEFAULT_SAMPLE_INTERVAL_S",
    "DvfsController",
    "EnergyCounter",
    "FrequencyLadder",
    "PRIMARY",
    "PowerCapController",
    "PowerDrawModel",
    "PowerMeter",
    "PowerReading",
    "SECONDARY",
    "Server",
    "ServerSpec",
    "spare_of",
]
