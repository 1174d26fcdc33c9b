"""Built-in pocolint rule families.

Importing this package registers every rule with the core registry;
:func:`repro.lint.all_rules` then returns them sorted by code:

* POCO401 ``exception-policy`` — :mod:`repro.lint.rules.exceptions`
* POCO501 ``atomic-artifacts`` — :mod:`repro.lint.rules.artifacts`
* POCO601 ``hand-rolled-tolerance`` — :mod:`repro.lint.rules.tolerances`
* POCO701 ``unit-flow`` — :mod:`repro.lint.rules.unit_flow`
* POCO801 ``lane-safety`` — :mod:`repro.lint.rules.lane_safety`
* POCO901 ``determinism-taint`` — :mod:`repro.lint.rules.taint`

The 7xx/9xx families are whole-program: they set ``requires_project``
so the drivers build a :class:`repro.lint.graph.Project` (symbol tables
+ call graph) covering every file in the run before they execute.
"""

from __future__ import annotations

from repro.lint.rules.artifacts import AtomicArtifactsRule
from repro.lint.rules.exceptions import ExceptionPolicyRule
from repro.lint.rules.lane_safety import LaneSafetyRule
from repro.lint.rules.taint import DeterminismTaintRule
from repro.lint.rules.tolerances import HandRolledToleranceRule
from repro.lint.rules.unit_flow import UnitFlowRule

__all__ = [
    "AtomicArtifactsRule",
    "DeterminismTaintRule",
    "ExceptionPolicyRule",
    "HandRolledToleranceRule",
    "LaneSafetyRule",
    "UnitFlowRule",
]
