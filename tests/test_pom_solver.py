"""POM's integer least-power solve against its scalar oracle.

``integer_min_power_allocation`` reads every candidate from the
``(model, spec)`` :class:`~repro.core.utility.ModelGrid`.  Both engines
call that one solver, so the cross-engine differential suites cannot
see a solver bug; this module keeps the scalar solve that evaluated
the model at each candidate as the oracle, and requires the same
:class:`Allocation`, or the same :class:`CapacityError` message, for
fitted and random models, targets on and off the grid and above the
full box, and both search radii.  Power coefficients drawn in tenths
make the linear power model produce exact and last-bit ties, so a scan
in another order or without the ``1e-12`` tie rule picks a different
point.
"""

import itertools
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.utility import (
    _MODEL_GRIDS,
    CobbDouglasParams,
    IndirectUtilityModel,
    LinearPowerParams,
    integer_min_power_allocation,
    model_grid,
)
from repro.errors import CapacityError
from repro.evaluation import fit_catalog
from repro.hwmodel.spec import Allocation, ServerSpec


def _neighborhood(cores: int, ways: int, radius: int) -> "itertools.product":
    return itertools.product(
        range(cores - radius, cores + radius + 1),
        range(ways - radius, ways + radius + 1),
    )


def scalar_integer_min_power_allocation(
    model: IndirectUtilityModel,
    perf_target: float,
    spec: ServerSpec,
    radius: int = 3,
) -> Allocation:
    """The solve as it was before it read the model grid: every
    candidate evaluated through the scalar model."""
    full = (float(spec.cores), float(spec.llc_ways))
    if model.performance(full) < perf_target:
        raise CapacityError(
            f"model says even the full server ({spec.cores}c/{spec.llc_ways}w) "
            f"reaches only {model.performance(full):.4g} < {perf_target:.4g}"
        )
    cont = model.least_power_allocation(perf_target)
    center_c = int(round(cont[0]))
    center_w = int(round(cont[1]))
    best: Optional[Tuple[float, int, int]] = None
    for c, w in _neighborhood(center_c, center_w, radius):
        if not (1 <= c <= spec.cores and 1 <= w <= spec.llc_ways):
            continue
        if model.performance((c, w)) < perf_target:
            continue
        cost = model.power_w((c, w))
        if best is None or cost < best[0] - 1e-12:
            best = (cost, c, w)
    if best is None:
        for c in range(1, spec.cores + 1):
            for w in range(1, spec.llc_ways + 1):
                if model.performance((c, w)) < perf_target:
                    continue
                cost = model.power_w((c, w))
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, c, w)
    if best is None:
        raise CapacityError(
            f"no integer allocation reaches performance {perf_target:.4g}"
        )
    _, c, w = best
    return Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)


def _outcome(solve, model, target, spec, radius):
    """The allocation, or the CapacityError's message."""
    try:
        return solve(model, target, spec, radius)
    except CapacityError as exc:
        return f"CapacityError: {exc}"


_FITTED = fit_catalog(seed=7)
FITTED_MODELS = [
    fit.model
    for fits in (_FITTED.lc_fits, _FITTED.be_fits)
    for fit in fits.values()
]

SPECS = [ServerSpec(), ServerSpec(cores=4, llc_ways=6), ServerSpec(cores=8, llc_ways=3)]

#: Coefficients in tenths: sums of them tie exactly or to the last bit.
tenths = st.integers(min_value=1, max_value=80).map(lambda k: k / 10)


@st.composite
def random_models(draw):
    alpha = st.floats(min_value=0.05, max_value=1.2)
    marginal = st.one_of(tenths, st.floats(min_value=0.2, max_value=12.0))
    return IndirectUtilityModel(
        perf=CobbDouglasParams(
            alpha0=draw(st.floats(min_value=0.2, max_value=5.0)),
            alphas=(draw(alpha), draw(alpha)),
        ),
        power=LinearPowerParams(
            p_static=draw(st.one_of(tenths, st.floats(min_value=0.0, max_value=60.0))),
            p=(draw(marginal), draw(marginal)),
        ),
    )


@st.composite
def targets(draw, model, spec):
    """Targets off the grid up to 30% above the full box, and exactly on
    a grid point's performance (the feasibility boundary)."""
    if draw(st.booleans()):
        c = draw(st.integers(min_value=1, max_value=spec.cores))
        w = draw(st.integers(min_value=1, max_value=spec.llc_ways))
        return model.performance((c, w))
    full = model.performance((float(spec.cores), float(spec.llc_ways)))
    return full * draw(st.floats(min_value=1e-3, max_value=1.3))


class TestGridSolveMatchesScalarOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_allocation_or_same_error(self, data):
        model = data.draw(st.one_of(st.sampled_from(FITTED_MODELS), random_models()))
        spec = data.draw(st.sampled_from(SPECS))
        target = data.draw(targets(model, spec))
        radius = data.draw(st.sampled_from([1, 3]))
        assert _outcome(
            integer_min_power_allocation, model, target, spec, radius
        ) == _outcome(
            scalar_integer_min_power_allocation, model, target, spec, radius
        )

    @pytest.mark.parametrize("radius", [1, 3])
    def test_every_fitted_model_on_every_grid_target(self, radius):
        spec = _FITTED.spec
        for model in FITTED_MODELS:
            for c in range(1, spec.cores + 1):
                for w in range(1, spec.llc_ways + 1):
                    target = model.performance((c, w))
                    assert integer_min_power_allocation(
                        model, target, spec, radius
                    ) == scalar_integer_min_power_allocation(
                        model, target, spec, radius
                    )

    def test_target_above_full_box_raises_same_message(self):
        model, spec = FITTED_MODELS[0], _FITTED.spec
        full = model.performance((float(spec.cores), float(spec.llc_ways)))
        outcome = _outcome(integer_min_power_allocation, model, full * 1.01, spec, 3)
        assert outcome.startswith("CapacityError: model says even the full server")
        assert outcome == _outcome(
            scalar_integer_min_power_allocation, model, full * 1.01, spec, 3
        )


class UnhashableModel(IndirectUtilityModel):
    __hash__ = None  # type: ignore[assignment]


class TestModelGrid:
    def test_entries_are_the_scalar_values(self):
        spec = _FITTED.spec
        for model in FITTED_MODELS:
            grid = model_grid(model, spec)
            for c in range(1, spec.cores + 1):
                for w in range(1, spec.llc_ways + 1):
                    r = (float(c), float(w))
                    assert grid.perf[c, w] == model.performance(r)
                    assert grid.power[c, w] == model.power_w(r)

    def test_equal_models_share_one_grid(self):
        spec = ServerSpec()
        model = FITTED_MODELS[0]
        twin = IndirectUtilityModel(model.perf, model.power, model.names)
        assert twin is not model
        assert model_grid(twin, spec) is model_grid(model, spec)

    def test_unhashable_model_gets_an_uncached_grid(self):
        spec = ServerSpec()
        model = FITTED_MODELS[0]
        odd = UnhashableModel(model.perf, model.power, model.names)
        before = len(_MODEL_GRIDS)
        grid = model_grid(odd, spec)
        assert len(_MODEL_GRIDS) == before
        assert np.array_equal(grid.perf, model_grid(model, spec).perf)
        target = model.performance((5.0, 9.0))
        assert integer_min_power_allocation(odd, target, spec) == (
            scalar_integer_min_power_allocation(model, target, spec)
        )
