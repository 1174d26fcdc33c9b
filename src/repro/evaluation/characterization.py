"""Application characterization: Figs 5, 6, 8, 9, 10, 11 (Sections III, V-C).

Everything here runs on *fitted* models (Fig 7 step I output) — the same
information the paper's cluster manager has — not on ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.indifference import EdgeworthBox, EdgeworthPoint, indifference_curve
from repro.core.utility import IndirectUtilityModel
from repro.evaluation.pipeline import FittedCatalog

#: The LC app Figs 5 and 6 characterize.
FIG5_APP = "sphinx"

#: The iso-load levels Fig 5 draws for it.
FIG5_LEVELS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class IndifferenceFigure:
    """Fig 5 data: iso-load curves plus the least-power expansion path."""

    app_name: str
    levels: Tuple[float, ...]
    curves: Dict[float, List[Tuple[float, float]]]
    expansion: List[Tuple[float, float]]


def fig5_indifference(catalog: FittedCatalog) -> IndifferenceFigure:
    """Iso-load curves of ``FIG5_APP`` and the dotted least-power path.

    One curve per ``FIG5_LEVELS`` load, sampled at 16 way counts.  Curves
    are clipped to the server's way range; the expansion path's
    point at each level is the least-power allocation on that curve.
    """
    model = catalog.lc_fits[FIG5_APP].model
    app = catalog.lc_apps[FIG5_APP]
    spec = catalog.spec
    ways = np.linspace(1.0, float(spec.llc_ways), 16)
    curves = {}
    expansion = []
    for level in FIG5_LEVELS:
        perf = level * app.peak_load
        curve = [
            (c, w)
            for c, w in indifference_curve(model, perf, ways)
            if c <= spec.cores + 0.5
        ]
        curves[float(level)] = curve
        expansion.append(tuple(model.least_power_allocation(perf)))
    return IndifferenceFigure(
        app_name=FIG5_APP,
        levels=tuple(float(level) for level in FIG5_LEVELS),
        curves=curves,
        expansion=expansion,
    )


def fig6_edgeworth(catalog: FittedCatalog) -> List[EdgeworthPoint]:
    """Fig 6: ``FIG5_APP``'s Edgeworth box contract points over the
    ``FIG5_LEVELS`` load range."""
    model = catalog.lc_fits[FIG5_APP].model
    app = catalog.lc_apps[FIG5_APP]
    box = EdgeworthBox(model=model, spec=catalog.spec)
    return box.trace([level * app.peak_load for level in FIG5_LEVELS])


@dataclass(frozen=True)
class FitQualityRow:
    """One Fig 8 bar pair: an app's perf and power R²."""

    app_name: str
    kind: str  # "lc" or "be"
    r2_perf: float
    r2_power: float
    n_samples: int


def fig8_goodness_of_fit(catalog: FittedCatalog) -> List[FitQualityRow]:
    """Fig 8: R² of the fitted models for every LC and BE application."""
    rows = []
    for name, fit in catalog.lc_fits.items():
        rows.append(FitQualityRow(name, "lc", fit.r2_perf, fit.r2_power, fit.n_samples))
    for name, fit in catalog.be_fits.items():
        rows.append(FitQualityRow(name, "be", fit.r2_perf, fit.r2_power, fit.n_samples))
    return rows


@dataclass(frozen=True)
class PreferenceRow:
    """One app's Fig 9/10/11 triple: direct, power, and indirect shares.

    All three are (cores, ways) shares summing to 1:

    * direct — normalized performance elasticities ``a_j`` (Fig 9);
    * power — normalized marginal power ``p_j`` (Fig 10);
    * indirect — normalized ``a_j / p_j`` (Fig 11), the placement signal.
    """

    app_name: str
    kind: str
    direct_cores: float
    direct_ways: float
    power_cores: float
    power_ways: float
    indirect_cores: float
    indirect_ways: float


def _preference_row(name: str, kind: str, model: IndirectUtilityModel) -> PreferenceRow:
    direct = model.direct_preference_vector()
    indirect = model.preference_vector()
    p_total = sum(model.power.p)
    return PreferenceRow(
        app_name=name,
        kind=kind,
        direct_cores=direct["cores"],
        direct_ways=direct["ways"],
        power_cores=model.power.p[0] / p_total,
        power_ways=model.power.p[1] / p_total,
        indirect_cores=indirect["cores"],
        indirect_ways=indirect["ways"],
    )


def fig9_10_11_preferences(catalog: FittedCatalog) -> List[PreferenceRow]:
    """Figs 9-11: fitted preference decompositions for every application.

    The paper's reading: sphinx looks core-preferring on direct utility
    (Fig 9) but cache-preferring once power enters (Fig 11); Graph stays
    core-preferring, which is what makes it sphinx's complement.
    """
    rows = []
    for name, fit in catalog.lc_fits.items():
        rows.append(_preference_row(name, "lc", fit.model))
    for name, fit in catalog.be_fits.items():
        rows.append(_preference_row(name, "be", fit.model))
    return rows
