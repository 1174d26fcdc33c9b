"""Motivation experiments: Figs 1-4 (Sections I-II).

These reproduce the paper's measured motivation artifacts:

* **Fig 1** — a diurnal day on the xapian cluster: naively admitting a BE
  app during off-peak keeps CPU/memory within the peak envelope but
  pushes *power* past the provisioned capacity.
* **Fig 2** — server power with each BE app colocated next to xapian at
  10 % load, uncapped: 138-155 W against the 132 W capacity.
* **Fig 3** — each BE app's throughput with and without the power cap:
  LSTM/RNN lose a few percent, Graph ~20 %.
* **Fig 4** — LSTM vs RNN across the whole xapian load spectrum: RNN wins
  at *every* load even though both looked fine at the 10 % snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.catalog import (
    REFERENCE_SPEC,
    XAPIAN_MOTIVATION_CAPACITY_W,
    best_effort_apps,
    make_xapian,
)
from repro.apps.latency_critical import LatencyCriticalApp
from repro.errors import CapacityError, ConfigError
from repro.hwmodel.capping import PowerCapController
from repro.hwmodel.meter import PowerMeter
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import Allocation, spare_of
from repro.workloads.traces import DiurnalTrace, uniform_levels


def true_min_power_allocation(lc: LatencyCriticalApp, load_fraction: float) -> Allocation:
    """Ground-truth least-power allocation serving a load fraction within
    the SLO.

    Exhaustive over the (cores, ways) grid at max frequency — this is the
    *oracle* the motivation figures use (they predate the fitted model in
    the paper's narrative).  Raises :class:`CapacityError` when no
    allocation serves the load.
    """
    if not 0.0 <= load_fraction <= 1.0:
        raise ConfigError("load fraction must lie in [0, 1]")
    spec = lc.profile.spec
    load = load_fraction * lc.peak_load
    best: Optional[Tuple[float, Allocation]] = None
    for alloc in spec.iter_allocations():
        if lc.slack(load, alloc) < 0.0:
            continue
        power = lc.profile.server_power_w(alloc)
        if best is None or power < best[0]:
            best = (power, alloc)
    if best is None:
        raise CapacityError(
            f"no allocation serves {load_fraction:.0%} of {lc.name} peak load"
        )
    return best[1]


@dataclass(frozen=True)
class DiurnalPoint:
    """One sample of the Fig 1 day: load, resource use, and power."""

    hour: float
    load_fraction: float
    lc_cores: int
    lc_ways: int
    core_utilization: float
    power_lc_only_w: float
    power_colocated_w: float


def fig1_diurnal_overshoot(
    capacity_w: Optional[float] = None,
) -> Tuple[List[DiurnalPoint], float]:
    """The Fig 1 story on a diurnal xapian day with a naive graph admission.

    At each of the day's 24 hours: xapian takes its least-power allocation
    for the current load; during off-peak hours (load at most 75 %, as
    the paper only colocates "during such off-peak periods") graph
    naively takes the whole spare at max frequency with no cap.  Core
    utilization never exceeds 1.0 — the primary-resource view says the
    colocation is fine — while colocated power overshoots the provisioned
    capacity in off-peak hours and stays within it at peak.

    ``capacity_w`` defaults to the right-sizing premise of Section II-A:
    the maximum LC-only draw observed over the day (what capacity
    planning provisions for the primary's peak).  Returns the hourly
    points and the capacity actually used.
    """
    spec = REFERENCE_SPEC
    xapian = make_xapian(spec)
    be = best_effort_apps(spec)["graph"]
    trace = DiurnalTrace(min_fraction=0.1, max_fraction=0.95)
    points = []
    for h in range(24):
        t = h * 3600.0
        frac = trace.load_fraction(t)
        lc_alloc = true_min_power_allocation(xapian, frac)
        spare = spare_of(spec, lc_alloc)
        admitted = frac <= 0.75 and not spare.is_empty
        lc_power = spec.idle_power_w + xapian.active_power_w(lc_alloc)
        colo_power = lc_power + (be.active_power_w(spare) if admitted else 0.0)
        points.append(
            DiurnalPoint(
                hour=float(h),
                load_fraction=frac,
                lc_cores=lc_alloc.cores,
                lc_ways=lc_alloc.ways,
                core_utilization=(lc_alloc.cores + spare.cores) / spec.cores,
                power_lc_only_w=lc_power,
                power_colocated_w=colo_power,
            )
        )
    if capacity_w is None:
        capacity_w = max(p.power_lc_only_w for p in points)
    return points, capacity_w


def fig2_power_overshoot() -> Dict[str, float]:
    """Fig 2: uncapped colocated server draw per BE app (xapian at 10 %).

    Paper: "the power draw of the server now ranges between 138 watts to
    155 watts, a 5% to 17% increase compared to the provisioned server
    power capacity of 132 W".
    """
    spec = REFERENCE_SPEC
    xapian = make_xapian(spec)
    lc_alloc = true_min_power_allocation(xapian, 0.10)
    spare = spare_of(spec, lc_alloc)
    base = spec.idle_power_w + xapian.active_power_w(lc_alloc)
    draws = {}
    for name, be in best_effort_apps(spec).items():
        draws[name] = base + be.active_power_w(spare)
    return draws


@dataclass(frozen=True)
class CappedThroughput:
    """Fig 3 cell: one BE app with and without the power cap."""

    be_name: str
    uncapped_norm: float
    capped_norm: float
    final_freq_ghz: float
    final_duty: float

    @property
    def drop_fraction(self) -> float:
        """Relative throughput lost to the cap."""
        if self.uncapped_norm <= 0:
            return 0.0
        return 1.0 - self.capped_norm / self.uncapped_norm


def fig3_capped_throughput() -> List[CappedThroughput]:
    """Fig 3: run the real cap loop to convergence for every BE app.

    xapian serves 10 % load under the 132 W motivation capacity.
    Exercises :class:`PowerCapController` on an assembled server rather
    than re-deriving the throttle point analytically.
    """
    spec = REFERENCE_SPEC
    xapian = make_xapian(spec)
    lc_alloc = true_min_power_allocation(xapian, 0.10)
    results = []
    for name, be in best_effort_apps(spec).items():
        server = Server(spec, provisioned_power_w=XAPIAN_MOTIVATION_CAPACITY_W,
                        name=f"{name}-colo")
        server.attach(xapian.name, xapian, role=PRIMARY)
        server.apply_allocation(xapian.name, lc_alloc)
        server.attach(name, be, role=SECONDARY)
        spare = server.spare_allocation()
        server.apply_allocation(name, spare)
        uncapped = be.normalized_throughput(server.allocation_of(name))
        meter = PowerMeter(server.power_w, rng=np.random.default_rng(0),
                           noise_sigma_w=0.5)
        capper = PowerCapController(server, meter)
        capper.run_until_stable(max_steps=400)
        final = server.allocation_of(name)
        results.append(
            CappedThroughput(
                be_name=name,
                uncapped_norm=uncapped,
                capped_norm=be.normalized_throughput(final),
                final_freq_ghz=final.freq_ghz,
                final_duty=final.duty_cycle,
            )
        )
    return results


def fig4_load_spectrum(
    be_names: Tuple[str, ...] = ("lstm", "rnn"),
    levels: Optional[List[float]] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig 4: capped BE throughput across the xapian load spectrum.

    For each level, xapian takes its true least-power allocation and the
    cap loop converges around the BE app; the result is (level,
    normalized throughput) per BE app.  "RNN is able to derive better
    performance at all loads when compared to LSTM."
    """
    spec = REFERENCE_SPEC
    xapian = make_xapian(spec)
    if levels is None:
        levels = uniform_levels()
    bes = best_effort_apps(spec)
    curves: Dict[str, List[Tuple[float, float]]] = {name: [] for name in be_names}
    for level in levels:
        lc_alloc = true_min_power_allocation(xapian, level)
        for name in be_names:
            be = bes[name]
            server = Server(spec, provisioned_power_w=XAPIAN_MOTIVATION_CAPACITY_W)
            server.attach(xapian.name, xapian, role=PRIMARY)
            server.apply_allocation(xapian.name, lc_alloc)
            server.attach(name, be, role=SECONDARY)
            spare = server.spare_allocation()
            if spare.is_empty:
                curves[name].append((level, 0.0))
                continue
            server.apply_allocation(name, spare)
            meter = PowerMeter(server.power_w, rng=np.random.default_rng(0),
                               noise_sigma_w=0.5)
            PowerCapController(server, meter).run_until_stable(max_steps=400)
            tput = be.normalized_throughput(server.allocation_of(name))
            curves[name].append((level, tput))
    return curves
