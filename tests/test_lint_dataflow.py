"""Whole-program pocolint: graph, dataflow, POCO701/801/901 fixtures.

The multi-module fixture *packages* under ``tests/lint_fixtures/`` are
linted statically (never imported); the bad packages assert exact
``file:line`` expectations for every planted violation, and each good
twin runs the same shapes legally and must stay silent.
"""

import ast
import pathlib

from repro.lint import get_rule, lint_file, lint_paths, lint_source
from repro.lint.core import LintContext
from repro.lint.graph import Project, module_name_for_path

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def package_findings(pkg, rule_id):
    return lint_paths([FIXTURES / pkg], rules=[get_rule(rule_id)], root=FIXTURES)


def located(findings):
    return [(f.path, f.line) for f in findings]


class TestProjectGraph:
    def test_module_name_for_path(self):
        assert module_name_for_path("src/repro/lint/core.py") == (
            "src.repro.lint.core"
        )
        assert module_name_for_path("pkg/__init__.py") == "pkg"

    def test_suffix_resolution_crosses_modules(self):
        ctx_a = LintContext.from_source(
            "def helper():\n    return 1\n", "proj/util.py"
        )
        ctx_b = LintContext.from_source(
            "from proj.util import helper\n\n"
            "def caller():\n    return helper()\n",
            "proj/main.py",
        )
        project = Project.from_contexts([ctx_a, ctx_b])
        table = project.modules["proj.main"]
        resolved = project.resolve_name(table, "helper")
        assert resolved is not None
        assert resolved.qualname == "proj.util.helper"
        assert project.call_graph["proj.main.caller"] == (
            "proj.util.helper",
        )

    def test_ambiguous_suffix_resolves_to_nothing(self):
        contexts = [
            LintContext.from_source("def f():\n    pass\n", "a/util.py"),
            LintContext.from_source("def f():\n    pass\n", "b/util.py"),
        ]
        project = Project.from_contexts(contexts)
        assert project.module_for_suffix("util") is None

    def test_self_method_resolution(self):
        ctx = LintContext.from_source(
            "class C:\n"
            "    def a(self):\n"
            "        return self.b()\n"
            "    def b(self):\n"
            "        return 1\n",
            "m.py",
        )
        project = Project.from_contexts([ctx])
        assert project.call_graph["m.C.a"] == ("m.C.b",)


class TestUnitFlow:
    def test_bad_package_exact_locations(self):
        found = package_findings("unitflow_bad", "unit-flow")
        assert located(found) == [
            ("unitflow_bad/controller.py", 13),
            ("unitflow_bad/controller.py", 18),
            ("unitflow_bad/controller.py", 23),
            ("unitflow_bad/controller.py", 27),
        ]

    def test_cross_module_evidence_names_the_callee(self):
        found = package_findings("unitflow_bad", "unit-flow")
        by_line = {f.line: f.message for f in found}
        assert "binds joules to budget_w (expects watts)" in by_line[13]
        assert (
            "value returned by stored_energy() defined at "
            "unitflow_bad/convert.py:17"
        ) in by_line[18]
        assert "suffix-typed as joules but this return produces watts" in (
            by_line[23]
        )
        assert (
            "parameter cap_w= of sink_power() expects watts but receives "
            "seconds (callee defined at unitflow_bad/convert.py:13)"
        ) in by_line[27]

    def test_good_twin_is_clean(self):
        assert package_findings("unitflow_good", "unit-flow") == []

    def test_syntactic_mismatch_reported_once(self):
        # Both sides suffixed: one finding, worded as a suffix mismatch.
        src = "def f(power_w):\n    total_j = power_w\n    return total_j\n"
        found = lint_source(src, rules=[get_rule("unit-flow")])
        assert [(f.line, f.message) for f in found] == [
            (2, "assignment mixes joules (total_j) with watts (power_w)")
        ]

    def test_unit_agreement_survives_branch_join(self):
        src = (
            "def f(cond, left_j, right_j):\n"
            "    if cond:\n"
            "        acc = left_j\n"
            "    else:\n"
            "        acc = right_j\n"
            "    cap_w = acc\n"
            "    return cap_w\n"
        )
        found = lint_source(src, rules=[get_rule("unit-flow")])
        assert [f.line for f in found] == [6]

    def test_conflicting_branches_stay_silent(self):
        # joules on one arm, watts on the other: the join is unknown, and
        # an unknown value must produce no finding (precision over recall).
        src = (
            "def f(cond, left_j, right_w):\n"
            "    if cond:\n"
            "        acc = left_j\n"
            "    else:\n"
            "        acc = right_w\n"
            "    cap_w = acc\n"
            "    return cap_w\n"
        )
        assert lint_source(src, rules=[get_rule("unit-flow")]) == []


class TestNestedBodies:
    def test_nested_def_sites_are_reported_once(self):
        # Nested defs run in their enclosing body's checker, with the
        # enclosing parameters in scope, so both rules see their sites.
        src = (
            "import time\n"
            "def outer(cap_w, spent_j):\n"
            "    def inner():\n"
            "        return cap_w + spent_j, time.time()\n"
            "    return inner\n"
        )
        for name in ("unit-flow", "determinism-taint"):
            found = lint_source(src, rules=[get_rule(name)])
            assert [f.line for f in found] == [4]


class TestLaneSafety:
    def test_bad_package_exact_locations(self):
        found = package_findings("lane_bad", "lane-safety")
        assert located(found) == [
            ("lane_bad/kernel.py", 11),
            ("lane_bad/kernel.py", 18),
            ("lane_bad/kernel.py", 25),
            ("lane_bad/kernel.py", 30),
            ("lane_bad/kernel.py", 35),
            ("lane_bad/kernel.py", 40),
            ("lane_bad/kernel.py", 46),
            ("lane_bad/state.py", 15),
            ("lane_bad/state.py", 20),
        ]

    def test_messages_name_the_base_array(self):
        found = package_findings("lane_bad", "lane-safety")
        by_loc = {(f.path, f.line): f.message for f in found}
        assert "view of lane array power" in by_loc[("lane_bad/kernel.py", 11)]
        assert "out= argument" in by_loc[("lane_bad/kernel.py", 25)]
        assert "dtype=float32" in by_loc[("lane_bad/kernel.py", 30)]
        assert "implicit int64" in by_loc[("lane_bad/kernel.py", 40)]
        assert "_np_mean_lanes" in by_loc[("lane_bad/kernel.py", 46)]
        assert "self.power" in by_loc[("lane_bad/state.py", 15)]

    def test_good_twin_is_clean(self):
        assert package_findings("lane_good", "lane-safety") == []

    def test_rule_is_gated_on_the_directive(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    a = np.zeros(n)\n"
            "    v = a[::2]\n"
            "    v += 1.0\n"
        )
        assert lint_source(src, rules=[get_rule("lane-safety")]) == []
        directive = "# pocolint: lane-module\n" + src
        assert len(lint_source(directive, rules=[get_rule("lane-safety")])) == 1

    def test_planted_bug_in_real_kernel_copy(self):
        found = lint_file(
            FIXTURES / "lane_regression.py",
            rules=[get_rule("lane-safety")],
            root=FIXTURES,
        )
        assert located(found) == [("lane_regression.py", 54)]
        assert "mutates a view of lane array ticks" in found[0].message

    def test_live_engine_modules_declare_and_pass(self):
        for name in ("batched.py", "vectorized.py"):
            path = REPO_SRC / "repro" / "engine" / name
            text = path.read_text(encoding="utf-8")
            assert "# pocolint: lane-module" in text
            assert (
                lint_file(path, rules=[get_rule("lane-safety")]) == []
            )


class TestDeterminismTaint:
    def test_bad_package_exact_locations(self):
        found = package_findings("taint_bad", "determinism-taint")
        assert located(found) == [
            ("taint_bad/sources.py", 7),  # banned call
            ("taint_bad/writer.py", 10),
            ("taint_bad/writer.py", 15),
            ("taint_bad/writer.py", 20),
            ("taint_bad/writer.py", 24),
            ("taint_bad/writer.py", 28),
            ("taint_bad/writer.py", 32),
        ]

    def test_chained_call_and_comprehension_reach_the_sink(self):
        found = package_findings("taint_bad", "determinism-taint")
        by_line = {f.line: f.message for f in found if f.path.endswith("writer.py")}
        # Checkpoint(...).save(path): the sink is the receiver of the call
        assert "Checkpoint payload" in by_line[24]
        assert "return of stamp()" in by_line[24]
        # taint enters through a comprehension's for clause
        assert "os.listdir()" in by_line[28]
        assert "Checkpoint payload" in by_line[28]
        # checkpoint.append(...): a journal record is a sink too
        assert "Checkpoint journal record" in by_line[32]
        assert "return of stamp()" in by_line[32]

    def test_evidence_chains_cross_the_module_boundary(self):
        found = package_findings("taint_bad", "determinism-taint")
        by_line = {f.line: f.message for f in found}
        # clock -> telemetry, with the source anchored in the other module
        assert "time.time() (taint_bad/sources.py:7)" in by_line[10]
        assert "return of stamp()" in by_line[10]
        # env -> checkpoint
        assert "os.environ[...]" in by_line[15]
        assert "Checkpoint payload" in by_line[15]
        # set order -> ledger
        assert "hash-randomized order" in by_line[20]
        assert "guard violation ledger" in by_line[20]

    def test_good_twin_is_clean(self):
        assert package_findings("taint_good", "determinism-taint") == []

    def test_every_sink_name_is_defined_in_src_repro(self):
        # A sink named after an API the package no longer defines guards
        # nothing; deleting the API must delete its sink too.
        from repro.lint.rules import taint

        defined = set()
        for path in (REPO_SRC / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined.update(
                node.name
                for node in ast.walk(tree)
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            )
        # Every upper-case dict/set constant of the rule is a table of
        # sink names (today _SINK_FUNCTIONS and _SINK_CONSTRUCTORS).
        tables = {
            name: value
            for name, value in vars(taint).items()
            if name.isupper()
            if isinstance(value, (dict, set, frozenset))
        }
        assert {"_SINK_FUNCTIONS", "_SINK_CONSTRUCTORS"} <= set(tables)
        dead = sorted(
            (table, sink)
            for table, names in tables.items()
            for sink in names
            if sink not in defined
        )
        assert dead == []

    def test_sorted_cleanses_order_taint(self):
        src = (
            "def f(ledger_path):\n"
            "    rows = sorted({'a', 'b'})\n"
            "    write_ledger(ledger_path, rows)\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_len_of_nondeterministic_value_is_clean(self):
        src = (
            "import os\n"
            "def f(telemetry, sim_time_s):\n"
            "    n = len(os.environ['X'])\n"
            "    telemetry.record('n', sim_time_s, n)\n"
        )
        assert lint_source(src, rules=[get_rule("determinism-taint")]) == []

    def test_only_banned_calls_fire_without_a_sink(self):
        # A loose clock read is a finding at its call, once; environment
        # and listing reads only matter where they reach a sink.
        src = (
            "import os\nimport time\n\ndef f(path):\n"
            "    return time.time(), os.environ['X'], os.listdir(path)\n"
        )
        found = lint_source(src, rules=[get_rule("determinism-taint")])
        assert [(f.line, f.message) for f in found] == [
            (
                5,
                "time.time() is a wall-clock read; derive time from the "
                "simulation clock, not the host",
            )
        ]

    def test_param_flow_reports_at_the_caller(self):
        # `route` sinks its parameter; the *caller* feeding it a clock is
        # the site that gets flagged, with the routed-sink evidence.
        src = (
            "import time\n"
            "def route(telemetry, value):\n"
            "    telemetry.record('v', 0.0, value)\n"
            "def caller(telemetry):\n"
            "    route(telemetry, time.time())\n"
        )
        found = lint_source(src, rules=[get_rule("determinism-taint")])
        lines = sorted(f.line for f in found)
        assert 5 in lines
        routed = [f for f in found if f.line == 5]
        assert "inside route()" in routed[0].message
