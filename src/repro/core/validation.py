"""Fit diagnostics: when should you *not* trust the utility model?

Section V-G scopes the paper's method: "this solution expects the
resource preferences of the applications to be convex.  Otherwise, the
allocations will be inefficient."  And Section IV-A guards fitting with
the latency-slack filter "as an initial guard against model
inaccuracies".  This module turns those caveats into checks a deployment
can run before trusting a fitted model:

* **Goodness of fit** — R² thresholds on both halves.
* **Returns to scale** — ``sum(alpha_j)`` far above 1 means the fitted
  surface is super-linear (usually a symptom of fitting through a
  saturation knee or contaminated samples).
* **Substitutability** — a Cobb-Douglas fit is meaningful only if the
  application actually trades one resource for another.  For (near-)
  Leontief workloads (perf = min of per-resource ceilings) the iso-perf
  contours are L-shaped, the log-linear fit systematically misses, and
  the residuals say so: we flag it via residual structure.
* **Preference stability** — a residual-bootstrap confidence interval on
  the indirect cores-share; a CI spanning 0.5 means the model cannot
  even rank the resources, so placement by preference is noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fitting import FitResult, ProfileSample, fit_indirect_utility
from repro.errors import ConfigError, ModelFitError

#: Default acceptance thresholds.
MIN_R2_PERF = 0.70
MIN_R2_POWER = 0.80
MAX_RETURNS_TO_SCALE = 1.30
MAX_RESIDUAL_TREND = 0.35


@dataclass(frozen=True)
class FitDiagnostics:
    """The verdict on one fitted model."""

    r2_perf: float
    r2_power: float
    returns_to_scale: float
    residual_trend: float
    pref_cores_ci: Tuple[float, float]
    warnings: Tuple[str, ...]

    @property
    def trustworthy(self) -> bool:
        """True when no warning fired."""
        return not self.warnings

    @property
    def preference_rankable(self) -> bool:
        """True when the preference CI does not straddle 0.5."""
        lo, hi = self.pref_cores_ci
        return hi < 0.5 or lo > 0.5


def _residual_trend(samples: Sequence[ProfileSample], fit: FitResult) -> float:
    """Correlation between log-residuals and resource *imbalance*.

    A well-specified Cobb-Douglas fit leaves structureless residuals.  A
    Leontief-ish workload (hard per-resource ceilings, no substitution)
    leaves a signature: the fit over-credits the abundant resource, so
    the residual grows (negatively) with how lopsided the allocation is.
    We measure |Pearson r| between the log-residual and the imbalance
    ``|log(cores) - log(ways) - median offset|`` — a scale-free detector
    that reads ~0 for the whole paper catalog and large for Leontief.
    """
    logs = []
    imbalance = []
    raw_offsets = []
    usable = []
    for s in samples:
        if s.perf <= 0 or s.cores <= 0 or s.ways <= 0:
            continue
        pred = fit.model.performance(s.resources())
        if pred <= 0:
            continue
        usable.append((s, pred))
        raw_offsets.append(np.log(s.cores) - np.log(s.ways))
    if len(usable) < 3:
        return 0.0
    center = float(np.median(raw_offsets))
    for (s, pred), offset in zip(usable, raw_offsets):
        logs.append(np.log(s.perf) - np.log(pred))
        imbalance.append(abs(offset - center))
    logs_a = np.asarray(logs)
    imb_a = np.asarray(imbalance)
    if np.std(logs_a) == 0 or np.std(imb_a) == 0:
        return 0.0
    return float(abs(np.corrcoef(logs_a, imb_a)[0, 1]))


def _bootstrap_pref_ci(samples: Sequence[ProfileSample]) -> Tuple[float, float]:
    """Case-resampling 95 % bootstrap CI (200 resamples) on the indirect
    cores-share."""
    rng = np.random.default_rng(0)
    usable = list(samples)
    shares: List[float] = []
    for _ in range(200):
        idx = rng.integers(0, len(usable), size=len(usable))
        resampled = [usable[i] for i in idx]
        try:
            boot_fit = fit_indirect_utility(resampled)
        except ModelFitError:
            continue  # degenerate resample; skip
        shares.append(boot_fit.preference_vector()["cores"])
    if len(shares) < 50:
        return (0.0, 1.0)  # too unstable to bound — maximally uncertain
    lo, hi = np.percentile(shares, [2.5, 97.5])
    return (float(lo), float(hi))


def diagnose_fit(
    samples: Sequence[ProfileSample],
    fit: Optional[FitResult] = None,
    min_r2_perf: float = MIN_R2_PERF,
) -> FitDiagnostics:
    """Run every diagnostic on a (samples, fit) pair.

    ``fit`` defaults to fitting ``samples`` fresh.  The thresholds are the
    module constants (``min_r2_perf`` is keyword-tunable); they flag the
    synthetic Leontief stress app while passing the whole paper catalog
    (see the tests).
    """
    if len(samples) < 6:
        raise ConfigError("diagnostics need at least 6 samples")
    if fit is None:
        fit = fit_indirect_utility(samples)
    warnings: List[str] = []
    if fit.r2_perf < min_r2_perf:
        warnings.append(
            f"performance R2 {fit.r2_perf:.2f} below {min_r2_perf:.2f}"
        )
    if fit.r2_power < MIN_R2_POWER:
        warnings.append(
            f"power R2 {fit.r2_power:.2f} below {MIN_R2_POWER:.2f}"
        )
    rts = fit.model.perf.alpha_sum
    if rts > MAX_RETURNS_TO_SCALE:
        warnings.append(
            f"returns to scale {rts:.2f} above {MAX_RETURNS_TO_SCALE:.2f} — "
            "fit is super-linear; check for contaminated samples"
        )
    trend = _residual_trend(samples, fit)
    if trend > MAX_RESIDUAL_TREND:
        warnings.append(
            f"residuals trend with resource imbalance (|r|={trend:.2f}) — "
            "the workload may not substitute resources (Leontief-like); "
            "Cobb-Douglas placement will be inefficient (paper §V-G)"
        )
    # Rankability is reported separately (``preference_rankable``), not
    # as a trust warning: a genuinely balanced application (tpcc's
    # 0.45:0.55) is a *finding* — placement treats its pairings as
    # interchangeable, exactly the paper's RNN/pbzip ↔ xapian/TPCC — not
    # a defect of the fit.
    ci = _bootstrap_pref_ci(samples)
    return FitDiagnostics(
        r2_perf=fit.r2_perf,
        r2_power=fit.r2_power,
        returns_to_scale=rts,
        residual_trend=trend,
        pref_cores_ci=ci,
        warnings=tuple(warnings),
    )


def leontief_samples(noise: float = 0.05) -> List[ProfileSample]:
    """Profiling samples from a *Leontief* (perfect-complements) app.

    ``perf = 100 * min(cores/12, ways/20)`` and ``power = 5 + 4 cores +
    2 ways`` W, with log-normal ``noise`` — resources do NOT
    substitute, violating the paper's §V-G convex-preferences premise.
    Used by tests and the V2 benchmark to prove the diagnostics catch
    exactly the workloads the paper warns about.
    """
    rng = np.random.default_rng(0)
    samples = []
    for cores in (1, 2, 4, 6, 9, 12):
        for ways in (2, 5, 9, 14, 20):
            perf = 100.0 * min(cores / 12, ways / 20)
            power = 5.0 + cores * 4.0 + ways * 2.0
            if noise:
                perf *= rng.lognormal(0.0, noise)
                power *= rng.lognormal(0.0, noise / 2)
            samples.append(
                ProfileSample(cores=cores, ways=ways, perf=perf, power_w=power)
            )
    return samples
