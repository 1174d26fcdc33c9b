"""Package-surface tests: the public API is importable and consistent.

A downstream user's first contact is ``from repro.<pkg> import <name>``;
these tests pin that surface: every ``__all__`` entry resolves, every
package imports cleanly, and the exception hierarchy behaves.
"""

import importlib
import inspect

import pytest

import repro
from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    InvariantViolationError,
    ModelFitError,
    ReproError,
    SimulationError,
    SolverError,
)

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.budget",
    "repro.core",
    "repro.cost",
    "repro.engine",
    "repro.evaluation",
    "repro.guard",
    "repro.hwmodel",
    "repro.runtime",
    "repro.sim",
    "repro.solvers",
    "repro.workloads",
)


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_duplicate_all_entries(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_key_entry_points_present(self):
        from repro.core import IndirectUtilityModel, PowerOptimizedManager
        from repro.evaluation import fit_catalog, run_policy
        from repro.hwmodel import Server
        from repro.sim import ColocationSim

        for obj in (IndirectUtilityModel, PowerOptimizedManager, fit_catalog,
                    run_policy, Server, ColocationSim):
            assert callable(obj)



#: Public parameters of the control-plane constructors and the placement
#: wrapper.  Tuning values are module constants of the owning module; a
#: parameter belongs here only once code outside the tests sets it.
CONSTRUCTOR_SURFACE = {
    ("repro.hwmodel.capping", "PowerCapController"): (
        "server", "meter", "watchdog",
    ),
    ("repro.core.server_manager", "HeraclesLikeManager"): (
        "server", "slack_target", "slack_upper",
    ),
    ("repro.core.server_manager", "PowerOptimizedManager"): (
        "server", "model", "slack_target", "slack_upper",
    ),
    ("repro.core.placement", "assign_with_fallback"): ("values", "method"),
}


class TestConstructorSurface:
    @pytest.mark.parametrize(
        "where, params", CONSTRUCTOR_SURFACE.items(),
        ids=[name for _, name in CONSTRUCTOR_SURFACE],
    )
    def test_parameters_pinned(self, where, params):
        module, name = where
        obj = getattr(importlib.import_module(module), name)
        assert tuple(inspect.signature(obj).parameters) == params


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        AllocationError, CapacityError, ConfigError,
        InvariantViolationError, ModelFitError, SimulationError,
        SolverError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_family(self):
        with pytest.raises(ReproError):
            raise AllocationError("boom")

    def test_distinct_types(self):
        with pytest.raises(AllocationError):
            raise AllocationError("x")
        with pytest.raises(SolverError):
            raise SolverError("y")

    def test_docstrings_everywhere(self):
        for exc in (ReproError, AllocationError, CapacityError, ConfigError,
                    InvariantViolationError, ModelFitError, SimulationError,
                    SolverError):
            assert exc.__doc__


class TestDocstringCoverage:
    """Every public item of the core packages carries a docstring."""

    @pytest.mark.parametrize("package", [
        "repro.core", "repro.hwmodel", "repro.apps", "repro.sim",
        "repro.solvers", "repro.cost", "repro.workloads", "repro.analysis",
        "repro.runtime", "repro.guard", "repro.budget",
    ])
    def test_exported_items_documented(self, package):
        import inspect

        module = importlib.import_module(package)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            # Type aliases (e.g. Callable aliases) carry no docstring.
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"
