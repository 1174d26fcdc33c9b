"""Indifference curves, the least-power expansion path, and the Edgeworth box.

These are the paper's analytical illustrations (Section III, Figs 5-6):

* An **indifference curve** (iso-load line) is the set of (cores, ways)
  allocations giving the same performance — the application "is
  indifferent to any of the allocations in the iso-load line".
* The **expansion path** is the dotted curve of Fig 5: for each
  performance level, the allocation on the indifference curve consuming
  the least power (``IndirectUtilityModel.least_power_allocation`` per
  level).  Under Cobb-Douglas with linear power it is the ray
  ``cores/ways = (a_c/p_c)/(a_w/p_w)`` — i.e. the preference vector made
  geometric; :func:`path_is_ray` checks that shape.
* The **Edgeworth box** (Fig 6) places the primary's origin at the
  bottom-left and the secondary's at the top-right of the
  (total cores) × (total ways) rectangle; the primary's least-power
  point at each load determines the spare resources the secondary sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.utility import IndirectUtilityModel
from repro.errors import ConfigError
from repro.hwmodel.spec import ServerSpec


def indifference_curve(
    model: IndirectUtilityModel,
    perf_level: float,
    ways: Sequence[float],
) -> List[Tuple[float, float]]:
    """The iso-performance contour sampled at the given ``ways`` values.

    For the two-resource Cobb-Douglas, solve
    ``a0 * c^{a_c} * w^{a_w} = U`` for cores:
    ``c = (U / (a0 * w^{a_w}))^{1/a_c}``.  Returns (cores, ways) pairs in
    the order of ``ways``; entries are continuous (the paper's Fig 5 is
    drawn continuous too).
    """
    if len(model.names) != 2:
        raise ConfigError("indifference curves are drawn for two resources")
    if perf_level <= 0:
        raise ConfigError("performance level must be positive")
    a0 = model.perf.alpha0
    a_c, a_w = model.perf.alphas
    points = []
    for w in ways:
        if w <= 0:
            raise ConfigError("way counts on the curve must be positive")
        cores = (perf_level / (a0 * (w ** a_w))) ** (1.0 / a_c)
        points.append((cores, float(w)))
    return points


def path_is_ray(points: Sequence[Tuple[float, float]], tolerance: float = 1e-9) -> bool:
    """True when all (cores, ways) points share one cores/ways ratio.

    A structural property of the Cobb-Douglas expansion path that the
    tests assert; exposed publicly because example scripts use it to
    annotate plots.
    """
    ratios = [c / w for c, w in points if w > 0]
    if len(ratios) < 2:
        return True
    first = ratios[0]
    return all(abs(r - first) <= tolerance * max(1.0, abs(first)) for r in ratios)


@dataclass(frozen=True)
class EdgeworthPoint:
    """One load level of the Edgeworth box: primary's take and the spare.

    Continuous quantities; the discrete allocation actually applied by a
    server manager is the integer projection of ``primary``.
    """

    perf_level: float
    primary: Tuple[float, float]
    spare: Tuple[float, float]
    primary_power_w: float


@dataclass(frozen=True)
class EdgeworthBox:
    """The Fig 6 construction for one primary application on one server."""

    model: IndirectUtilityModel
    spec: ServerSpec

    def point(self, perf_level: float) -> EdgeworthPoint:
        """Primary least-power allocation and its complement at one level.

        Spare coordinates are clipped at zero: past the load where the
        primary needs the whole box there is nothing left to harvest.
        """
        primary = self.model.least_power_allocation(perf_level)
        spare = (
            max(0.0, self.spec.cores - primary[0]),
            max(0.0, self.spec.llc_ways - primary[1]),
        )
        return EdgeworthPoint(
            perf_level=perf_level,
            primary=primary,
            spare=spare,
            primary_power_w=self.model.power_w(primary),
        )

    def trace(self, perf_levels: Sequence[float]) -> List[EdgeworthPoint]:
        """The box contract curve sampled over a load range."""
        return [self.point(u) for u in perf_levels]

    def secondary_feasible_corner(self, perf_level: float) -> Tuple[float, float]:
        """Top-right-origin coordinates of the spare region's far corner.

        This is the striped region's extreme point in Fig 6 — the largest
        (cores, ways) rectangle the secondary can occupy while the
        primary runs power-efficiently at ``perf_level``.
        """
        return self.point(perf_level).spare
