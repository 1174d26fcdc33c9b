"""Resampling statistics for the evaluation's reported numbers.

The cluster evaluation averages over random placements and noisy
simulations; :func:`relative_gain_ci` quantifies how much of a reported
gain is signal.  Percentile bootstrap — no distributional assumptions,
matching how systems papers should (and often don't) report such numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Summary:
    """Point estimate plus a bootstrap confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int


def relative_gain_ci(
    new: Sequence[float],
    base: Sequence[float],
    seed: int = 0,
) -> Summary:
    """95 % bootstrap CI (2000 resamples) of the relative gain
    ``mean(new)/mean(base) - 1``.

    Resamples both groups independently; use for unpaired policy
    comparisons (different placement seeds per policy).
    """
    new_v = np.asarray(new, dtype=float)
    base_v = np.asarray(base, dtype=float)
    if new_v.size < 2 or base_v.size < 2:
        raise ConfigError("bootstrap needs at least two observations per group")
    if np.mean(base_v) == 0:
        raise ConfigError("base group has zero mean")
    rng = np.random.default_rng(seed)
    stats = np.empty(2000)
    for b in range(2000):
        ns = new_v[rng.integers(0, new_v.size, size=new_v.size)]
        bs = base_v[rng.integers(0, base_v.size, size=base_v.size)]
        stats[b] = np.mean(ns) / np.mean(bs) - 1.0
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return Summary(
        mean=float(np.mean(new_v) / np.mean(base_v) - 1.0),
        ci_low=float(lo), ci_high=float(hi),
        n=int(min(new_v.size, base_v.size)),
    )
