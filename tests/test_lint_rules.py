"""Per-rule fixture tests for pocolint (repro.lint).

Each rule family has a bad fixture (every violation style it must
catch, asserted by exact line) and a good twin exercising the same
shapes legally (must produce zero findings).  The fixtures live in
``tests/lint_fixtures/`` and are linted *statically* — they are never
imported.
"""

import pathlib

import pytest

from repro.errors import LintError
from repro.lint import all_rules, get_rule, lint_file, lint_paths, lint_source
from repro.lint.cli import main

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def findings_for(name, rule_id):
    return lint_file(FIXTURES / name, rules=[get_rule(rule_id)])


def lines_of(findings):
    return [f.line for f in findings]


class TestRegistry:
    def test_six_rule_families_registered(self):
        rules = all_rules()
        assert [r.rule_id for r in rules] == [
            "exception-policy",
            "atomic-artifacts",
            "hand-rolled-tolerance",
            "unit-flow",
            "lane-safety",
            "determinism-taint",
        ]
        assert [r.code for r in rules] == [
            "POCO401",
            "POCO501",
            "POCO601",
            "POCO701",
            "POCO801",
            "POCO901",
        ]

    def test_whole_program_rules_require_project(self):
        by_id = {r.rule_id: r for r in all_rules()}
        assert by_id["unit-flow"].requires_project
        assert by_id["lane-safety"].requires_project is False
        assert by_id["determinism-taint"].requires_project
        assert by_id["exception-policy"].requires_project is False

    def test_codes_resolve_and_retired_names_do_not(self):
        for rule in all_rules():
            assert get_rule(rule.code).rule_id == rule.rule_id
        # Names of rules that were folded away or deleted name nothing.
        for name in ("unit-mixing", "POCO101", "nondeterminism", "POCO201",
                     "pool-closure", "POCO301"):
            with pytest.raises(LintError, match="unknown rule"):
                get_rule(name)

    def test_unknown_rule_raises_lint_error(self):
        with pytest.raises(LintError, match="unknown rule"):
            get_rule("no-such-rule")


class TestUnitMixing:
    def test_bad_fixture_all_violations_found(self):
        found = findings_for("units_bad.py", "unit-flow")
        assert lines_of(found) == [5, 6, 7, 8, 9, 10, 22, 23, 28, 31, 32]

    def test_finding_messages_name_both_units(self):
        found = findings_for("units_bad.py", "unit-flow")
        by_line = {f.line: f.message for f in found}
        assert "mixes watts (idle_power_w) with joules" in by_line[5]
        assert "comparison mixes joules" in by_line[6]
        assert "augmented assignment" in by_line[9]
        assert "keyword argument power_cap_w= expects watts" in by_line[10]

    def test_good_twin_is_clean(self):
        assert findings_for("units_good.py", "unit-flow") == []

    def test_watts_times_seconds_derives_joules(self):
        src = "energy_joules = power_w * duration_s\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []

    def test_joules_over_seconds_derives_watts(self):
        src = "avg_w = energy_joules / duration_s\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []

    def test_unknown_product_is_not_trusted(self):
        # rate_w_per_s is a compound rate, not seconds — its product
        # with anything must not inherit the other operand's unit.
        src = "drift_w = bias_w + rate_w_per_s * elapsed_s\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []

    def test_keyword_on_unresolved_call(self):
        src = "external.run(power_cap_w=energy_joules)\n"
        found = lint_source(src, rules=[get_rule("unit-flow")])
        assert [f.message for f in found] == [
            "keyword argument power_cap_w= expects watts but receives "
            "joules (energy_joules)"
        ]

    def test_paper_index_suffixes_are_not_units(self):
        src = "total = p_j + duration_s\nways = a_w + freq_ghz\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []


class TestNondeterminism:
    def test_bad_fixture_all_violations_found(self):
        found = findings_for("determinism_bad.py", "determinism-taint")
        assert lines_of(found) == [
            11, 12, 13, 14, 15, 16, 17, 21, 25, 31, 34, 35
        ]

    def test_good_twin_is_clean(self):
        assert findings_for("determinism_good.py", "determinism-taint") == []

    def test_import_aliasing_is_resolved(self):
        src = (
            "from time import time as clock\n"
            "import numpy.random as nprand\n"
            "a = clock()\n"
            "b = nprand.rand(3)\n"
        )
        found = lint_source(src, rules=[get_rule("determinism-taint")])
        assert lines_of(found) == [3, 4]

    def test_seeded_calls_are_allowed(self):
        src = (
            "import numpy as np\n"
            "import random\n"
            "rng = np.random.default_rng(42)\n"
            "local = random.Random(7)\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_generator_method_calls_are_not_confused_with_module(self):
        src = "draw = rng.random() + rng.normal()\n"
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []


#: ``(path, line)`` of every unit and every determinism finding over
#: ``tests/lint_fixtures``.  Default arguments, decorator arguments,
#: class bodies, lambda bodies and comprehension ``if`` clauses are all
#: covered (the tail of units_bad.py and determinism_bad.py).
UNIT_SITES = [
    ("unitflow_bad/controller.py", 13),
    ("unitflow_bad/controller.py", 18),
    ("unitflow_bad/controller.py", 23),
    ("unitflow_bad/controller.py", 27),
    ("units_bad.py", 5),
    ("units_bad.py", 6),
    ("units_bad.py", 7),
    ("units_bad.py", 8),
    ("units_bad.py", 9),
    ("units_bad.py", 10),
    ("units_bad.py", 22),
    ("units_bad.py", 23),
    ("units_bad.py", 28),
    ("units_bad.py", 31),
    ("units_bad.py", 32),
]
DETERMINISM_SITES = [
    ("determinism_bad.py", 11),
    ("determinism_bad.py", 12),
    ("determinism_bad.py", 13),
    ("determinism_bad.py", 14),
    ("determinism_bad.py", 15),
    ("determinism_bad.py", 16),
    ("determinism_bad.py", 17),
    ("determinism_bad.py", 21),
    ("determinism_bad.py", 25),
    ("determinism_bad.py", 31),
    ("determinism_bad.py", 34),
    ("determinism_bad.py", 35),
    ("suppressed.py", 17),
    ("taint_bad/sources.py", 7),
    ("taint_bad/writer.py", 10),
    ("taint_bad/writer.py", 15),
    ("taint_bad/writer.py", 20),
    ("taint_bad/writer.py", 24),
    ("taint_bad/writer.py", 28),
    ("taint_bad/writer.py", 32),
]


def fixture_sites(rule_id):
    """``(path, line)`` set of one rule over every fixture."""
    found = lint_paths([FIXTURES], rules=[get_rule(rule_id)], root=FIXTURES)
    return sorted({(f.path, f.line) for f in found})


class TestFixtureCoverage:
    """Pins the sites the unit and determinism rules reach."""

    def test_unit_sites(self):
        assert fixture_sites("unit-flow") == UNIT_SITES

    def test_determinism_sites(self):
        assert fixture_sites("determinism-taint") == DETERMINISM_SITES


class TestExceptionPolicy:
    def test_bad_fixture_all_violations_found(self):
        found = findings_for("exceptions_bad.py", "exception-policy")
        assert lines_of(found) == [5, 7, 14, 21]

    def test_good_twin_is_clean(self):
        assert findings_for("exceptions_good.py", "exception-policy") == []

    def test_new_repro_error_subclasses_are_allowed_automatically(self):
        # The allowlist is introspected from repro.errors, so every
        # member of the hierarchy is known without a linter change.
        src = "from repro.errors import LintError\nraise LintError('x')\n"
        assert lint_source(src, rules=[get_rule("exception-policy")]) == []

    def test_reraising_caught_variable_is_allowed(self):
        src = (
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    raise exc\n"
        )
        assert lint_source(src, rules=[get_rule("exception-policy")]) == []


class TestAtomicArtifacts:
    def test_bad_fixture_all_violations_found(self):
        found = findings_for("artifacts_bad.py", "atomic-artifacts")
        assert lines_of(found) == [5, 6, 7, 8, 9, 10]

    def test_messages_point_at_the_atomic_helper(self):
        found = findings_for("artifacts_bad.py", "atomic-artifacts")
        by_line = {f.line: f.message for f in found}
        assert "write_text()" in by_line[5]
        assert "write_bytes()" in by_line[6]
        assert "open(..., 'w')" in by_line[7]
        assert "open(..., 'a')" in by_line[8]
        assert "repro.runtime.atomic" in by_line[10]

    def test_good_twin_is_clean(self):
        assert findings_for("artifacts_good.py", "atomic-artifacts") == []

    def test_atomic_helper_module_is_allowlisted(self):
        src = "open('x.json', 'w')\n"
        assert lint_source(
            src,
            path="src/repro/runtime/atomic.py",
            rules=[get_rule("atomic-artifacts")],
        ) == []

    def test_dynamic_mode_is_not_guessed(self):
        src = "handle = open(path, mode)\n"
        assert lint_source(src, rules=[get_rule("atomic-artifacts")]) == []


class TestHandRolledTolerance:
    def test_bad_fixture_all_violations_found(self):
        found = findings_for("tolerances_bad.py", "hand-rolled-tolerance")
        assert lines_of(found) == [8, 9, 10, 11, 12, 13, 14]

    def test_messages_point_at_the_guard_vocabulary(self):
        found = findings_for("tolerances_bad.py", "hand-rolled-tolerance")
        by_line = {f.line: f.message for f in found}
        assert "repro.guard.tolerance" in by_line[8]
        assert "isclose() tolerance check" in by_line[12]
        assert "allclose() tolerance check" in by_line[14]

    def test_good_twin_is_clean(self):
        assert findings_for("tolerances_good.py", "hand-rolled-tolerance") == []

    def test_guard_package_is_exempt(self):
        src = "ok = abs(measured_w - cap_w) < tol\n"
        assert lint_source(
            src,
            path="src/repro/guard/tolerance.py",
            rules=[get_rule("hand-rolled-tolerance")],
        ) == []

    def test_unitless_abs_comparison_is_not_flagged(self):
        src = "close = abs(score_a - score_b) < 0.01\n"
        assert lint_source(src, rules=[get_rule("hand-rolled-tolerance")]) == []

    def test_hysteresis_threshold_is_not_flagged(self):
        # An actuation threshold is a controller decision, not a
        # hand-rolled equality tolerance (see docs/LINTING.md).
        src = "restore = filtered_w < cap_w - restore_margin_w\n"
        assert lint_source(src, rules=[get_rule("hand-rolled-tolerance")]) == []


class TestSuppression:
    def test_disable_comment_silences_one_rule(self):
        found = findings_for("suppressed.py", "determinism-taint")
        # Lines 7 and 11 are suppressed; line 17 must still fire, and
        # the string literal on line 16 must not act as a suppression.
        assert lines_of(found) == [17]

    def test_ids_and_codes_suppress(self):
        for name in ("POCO901", "determinism-taint"):
            src = f"import time\nt = time.time()  # pocolint: disable={name}\n"
            assert lint_source(src, rules=[get_rule("determinism-taint")]) == []
        src = "total_j = 1.0\ntotal_j = power_w  # pocolint: disable=POCO701\n"
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []

    def test_engine_suppression_holds(self):
        # engine/batched.py reads the legacy global RNG state on purpose
        # and silences that one line.
        path = FIXTURES.parents[1] / "src" / "repro" / "engine" / "batched.py"
        source = path.read_text(encoding="utf-8")
        rule = get_rule("determinism-taint")
        assert "# pocolint: disable=determinism-taint" in source
        assert lint_source(source, rules=[rule]) == []
        bare = source.replace("  # pocolint: disable=determinism-taint", "")
        found = lint_source(bare, rules=[rule])
        assert [f.message.split()[0] for f in found] == ["np.random.get_state()"]

    def test_disable_must_name_the_right_rule(self):
        src = "import time\nt = time.time()  # pocolint: disable=unit-flow\n"
        found = lint_source(src, rules=[get_rule("determinism-taint")])
        assert lines_of(found) == [2]

    def test_unknown_name_is_an_error(self):
        # A retired or misspelled name would otherwise stop suppressing
        # without a word.
        src = "import time\n\nt = time.time()  # pocolint: disable=nondeterminism\n"
        with pytest.raises(LintError) as excinfo:
            lint_source(src, path="pkg/mod.py")
        assert str(excinfo.value) == (
            "pkg/mod.py:3: pocolint: disable= names unknown rule "
            "'nondeterminism'"
        )

    def test_unknown_name_fails_the_cli(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # pocolint: disable=all, no-such-rule\n")
        assert main([str(target)]) == 2
        err = capsys.readouterr().err
        assert "mod.py:1:" in err and "'no-such-rule'" in err


class TestLinterSelfCheck:
    def test_pocolint_is_clean_on_its_own_source(self):
        import repro.lint as lint_pkg

        pkg_dir = pathlib.Path(lint_pkg.__file__).parent
        from repro.lint import lint_paths

        assert lint_paths([pkg_dir]) == []
