"""pocolint — domain-aware static analysis for the Pocolo reproduction.

The paper's argument rests on two at-rest invariants nothing else
checks statically:

* **additive power accounting** — power is an indirect resource summed
  in watts (``P_static + sum_j r_j * p_j <= Power``), so any arithmetic
  that silently mixes watts with joules (or seconds, or GHz) corrupts
  every budget downstream;
* **bit-identical determinism** — the engine layer's batched and
  vectorized paths must reproduce their per-object oracles exactly,
  which is only possible when every source of entropy (wall clocks,
  ambient or unseeded RNG) is banned and no environment, listing or
  set order reaches durable state.

``pocolint`` parses every file it is given and applies the rule
families in :mod:`repro.lint.rules`, one rule per concern:

========== ======================= =======================================
code       rule id                 protects
========== ======================= =======================================
POCO401    ``exception-policy``    ReproError-only raises, no asserts/bare
                                   excepts in library code
POCO501    ``atomic-artifacts``    durable files go through
                                   ``repro.runtime.atomic``
POCO601    ``hand-rolled-tolerance`` power/energy tolerance checks go
                                   through ``repro.guard.tolerance``
POCO701    ``unit-flow``           additive watts/joules/seconds/GHz
                                   safety, with units followed across
                                   assignments, calls and returns
POCO801    ``lane-safety``         lane modules: no view-aliased writes,
                                   float32 narrowing or axis= reductions
POCO901    ``determinism-taint``   no clocks or ambient/unseeded RNG, and
                                   no nondeterminism reaching checkpoints/
                                   telemetry/ledger
========== ======================= =======================================

POCO401–POCO601 are per-file syntactic checks; the 7xx/8xx/9xx
families run the whole-program dataflow engine (:mod:`repro.lint.graph`
builds symbol tables and a call graph, :mod:`repro.lint.dataflow` is
the abstract interpreter, :mod:`repro.lint.summaries` computes
interprocedural fixpoints).

Run it as ``python -m repro.lint [paths ...]``; see ``docs/LINTING.md``
for the rule catalogue and the suppression syntax
(``# pocolint: disable=<rule>``, where ``<rule>`` is an id, a code or
``all``).
"""

from __future__ import annotations

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]

# Importing the package registers the built-in rule families.  This sits
# after ``__all__`` (a non-import statement) so the sorted import block
# above stays sorted — registration order must follow the core import.
from repro.lint import rules as _rules  # noqa: E402,F401
