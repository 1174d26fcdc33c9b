"""Differential proof: the batched engine is bit-exact vs the oracle.

:mod:`repro.engine.batched` re-implements the per-object
:class:`~repro.sim.colocation.ColocationSim` as a structure-of-arrays
core that advances every server of a sweep in lock step.  Its whole
claim is *exact* equality — not tolerance-based closeness — so every
test here compares full :class:`~repro.sim.colocation.ColocationResult`
objects field by field with ``==`` on raw floats:

* every scalar summary (throughput, SLO fraction, energy, utilization);
* :class:`CapStats` / :class:`ManagerStats` counters;
* :class:`~repro.guard.invariants.GuardReport` including the recorded
  :class:`~repro.guard.invariants.Violation` tuples and check counts;
* every telemetry series, name order, tick times and values.

The batched engine hands each cell its telemetry as a lazy view of the
group's shared lane block; :class:`TestLaneViews` pins the view's
series layouts, mutation isolation and pickling against the oracle.

Coverage spans three manager types (POM, Heracles-balanced,
Heracles-random), a no-BE plan, three fault schedules exercising all
six fault types, record- and enforce-mode guards, the ``engine`` knob
on :func:`~repro.sim.cluster.run_cluster` (dedupe on and off), and a
real mid-sweep SIGKILL resumed under the *other* engine.
"""

import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.budget.schedule import CapSchedule
from repro.core.server_manager import HeraclesLikeManager
from repro.engine.batched import partition_cells, run_batched_cells
from repro.engine.parallel import map_ordered
from repro.engine.select import default_engine
from repro.errors import ConfigError
from repro.evaluation import (
    evaluate_all_policies,
    measure_operating_points,
    pipeline,
)
from repro.evaluation.pipeline import (
    ServerPlan,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    run_policy,
)
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    TelemetryGap,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import Checkpoint, run_cluster_checkpointed
from repro.sim.cluster import Cell, _run_cell, run_cluster
from repro.sim.colocation import SimConfig
from repro.sim.telemetry import Telemetry

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: Scalar result fields compared with ``==`` — every float the result
#: reports.  Kept explicit so a new summary field must be added here
#: (or the schema drift is caught by test_result_fields_covered).
RESULT_FIELDS = (
    "lc_name", "be_name", "duration_s",
    "avg_be_throughput_norm", "avg_be_throughput_abs",
    "avg_lc_load_fraction", "avg_power_w", "power_utilization",
    "energy_kwh", "slo_violation_fraction",
)


@dataclass(frozen=True)
class RandomHeraclesFactory:
    """Content-addressable factory for the randomized Heracles path."""

    seed: int = 3

    def __call__(self, server):
        return HeraclesLikeManager(server, path="random", seed=self.seed)


def assert_outcome_equal(a, b, where=""):
    """Exact equality of two LevelOutcomes, down to every telemetry tick."""
    assert (a.lc_name, a.be_name, a.level) == (b.lc_name, b.be_name, b.level)
    ra, rb = a.result, b.result
    for field in RESULT_FIELDS:
        va, vb = getattr(ra, field), getattr(rb, field)
        assert va == vb, f"{where}: {field}: {va!r} != {vb!r}"
    assert ra.cap_stats == rb.cap_stats, f"{where}: cap_stats"
    assert ra.manager_stats == rb.manager_stats, f"{where}: manager_stats"
    # GuardReport equality covers mode, check counts, violation totals,
    # and every Violation tuple (invariant, time, message, observed,
    # limit) — dataclass == is exact.
    assert ra.guard_report == rb.guard_report, f"{where}: guard_report"
    sa, sb = ra.telemetry._series, rb.telemetry._series
    assert list(sa) == list(sb), f"{where}: series names"
    for name in sa:
        assert sa[name].times == sb[name].times, f"{where}: {name} times"
        assert sa[name].values == sb[name].values, f"{where}: {name} values"


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


@pytest.fixture(scope="module")
def mixed_plans(catalog):
    """Three manager types plus a no-BE colocation in one sweep."""
    pom = cluster_plans(catalog, placement_for_policy(catalog, "pocolo"), "pocolo")
    her = cluster_plans(catalog, placement_for_policy(catalog, "random"), "random")
    plans = list(pom[:3]) + list(her[:2])
    base = plans[0]
    plans.append(ServerPlan(
        lc_app=base.lc_app, be_app=base.be_app,
        provisioned_power_w=base.provisioned_power_w,
        manager_factory=RandomHeraclesFactory(),
    ))
    plans.append(ServerPlan(
        lc_app=plans[1].lc_app, be_app=None,
        provisioned_power_w=plans[1].provisioned_power_w,
        manager_factory=plans[1].manager_factory,
    ))
    return plans


def _tasks(plans, spec, levels, duration_s, config, faults=None, guard=None):
    return [
        Cell(plan, spec, level, duration_s, config, plan.be_app, faults, guard)
        for plan in plans
        for level in levels
    ]


def _oracle(tasks):
    return [_run_cell(task) for task in tasks]


class TestUnfaultedDifferential:
    """All manager types, idle through saturated, guard off and on."""

    @pytest.mark.parametrize("guard", [
        None,
        GuardConfig(),
        GuardConfig(deep_check_every=3),
    ], ids=["noguard", "default", "deep3"])
    def test_bit_exact(self, catalog, mixed_plans, guard):
        config = SimConfig(warmup_s=3.0, seed=1)
        tasks = _tasks(
            mixed_plans, catalog.spec, (0.0, 0.3, 0.8), 7.0, config,
            guard=guard,
        )
        groups, fallback = partition_cells(tasks)
        assert not fallback, "every cell must take the batched path"
        assert groups, "partitioning produced no groups"
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"guard={guard!r}")

    def test_result_fields_covered(self, catalog, mixed_plans):
        """RESULT_FIELDS stays in sync with the result schema."""
        config = SimConfig(warmup_s=1.0, seed=0)
        task = _tasks(mixed_plans[:1], catalog.spec, (0.5,), 3.0, config)[0]
        result = _run_cell(task).result
        import dataclasses

        names = {f.name for f in dataclasses.fields(result)}
        uncovered = names - set(RESULT_FIELDS) - {
            "cap_stats", "manager_stats", "guard_report", "telemetry",
        }
        assert not uncovered, (
            f"new ColocationResult fields {sorted(uncovered)} are not "
            "compared by assert_outcome_equal; add them to RESULT_FIELDS"
        )


class TestFaultedDifferential:
    """Every fault type, alone and overlapping, guard off and on."""

    @pytest.fixture(scope="class")
    def schedules(self, catalog):
        stale = catalog.lc_fits[list(catalog.lc_fits)[1]].model
        return {
            "meter-mix": FaultSchedule([
                MeterDrift(start_s=1.0, duration_s=3.0,
                           bias_w=-2.0, rate_w_per_s=-1.5),
                MeterDropout(start_s=4.2, duration_s=1.0),
                MeterStuckAt(start_s=6.0, duration_s=2.0),
                MeterStuckAt(start_s=9.0, duration_s=1.5, value_w=400.0),
            ]),
            "control-mix": FaultSchedule([
                LoadSpike(start_s=2.0, duration_s=2.0, factor=1.8),
                TelemetryGap(start_s=5.0, duration_s=2.0),
                ModelStaleness(start_s=3.0, duration_s=4.0, model=stale),
            ]),
            "everything": FaultSchedule([
                LoadSpike(start_s=1.0, duration_s=1.0, factor=2.5),
                TelemetryGap(start_s=2.0, duration_s=1.0),
                MeterDrift(start_s=3.0, duration_s=6.0,
                           bias_w=1.0, rate_w_per_s=2.0),
                MeterStuckAt(start_s=7.0, duration_s=1.0),
                MeterDropout(start_s=8.5, duration_s=0.8),
                ModelStaleness(start_s=4.0, duration_s=2.0, model=stale),
            ]),
        }

    @pytest.mark.parametrize("name", ["meter-mix", "control-mix", "everything"])
    @pytest.mark.parametrize("guarded", [False, True], ids=["noguard", "guard"])
    def test_bit_exact(self, catalog, mixed_plans, schedules, name, guarded):
        config = SimConfig(warmup_s=2.0, seed=5)
        guard = GuardConfig(deep_check_every=4) if guarded else None
        tasks = _tasks(
            mixed_plans[:-1], catalog.spec, (0.0, 0.4, 0.9), 11.0, config,
            faults=schedules[name], guard=guard,
        )
        _, fallback = partition_cells(tasks)
        assert not fallback
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"{name} guarded={guarded}")


#: The series the oracle's aggregation epilogue reads, and so creates
#: empty, on a cell that ran no control tick.
ZERO_TICK_SERIES = ("be_throughput_norm", "power_w", "lc_load_fraction")


def _scheduled(tasks):
    """Every other task gains a two-segment CapSchedule (a budgeted lane)."""
    out = []
    for k, task in enumerate(tasks):
        if k % 2 == 0:
            cap_w = task.plan.provisioned_power_w
            task = replace(task, schedule=CapSchedule(
                times_s=(0.0, 2.5), caps_w=(0.9 * cap_w, 0.7 * cap_w),
            ))
        out.append(task)
    return out


class TestLaneViews:
    """Per-cell telemetry views of the group's shared lane block."""

    @pytest.mark.parametrize("case", ["zero-tick", "no-be", "budgeted"])
    def test_layout_bit_exact(self, catalog, mixed_plans, case):
        config = SimConfig(warmup_s=1.0, seed=4)
        duration_s = 0.4 if case == "zero-tick" else 6.0
        tasks = _tasks(
            mixed_plans, catalog.spec, (0.0, 0.5), duration_s, config
        )
        if case == "budgeted":
            tasks = _scheduled(tasks)
        _, fallback = partition_cells(tasks)
        assert not fallback
        got = run_batched_cells(tasks)
        for task, a, b in zip(tasks, _oracle(tasks), got):
            assert_outcome_equal(a, b, case)
            tele = b.result.telemetry
            assert isinstance(tele, Telemetry)
            names = tele.names()
            if case == "zero-tick":
                assert names == ZERO_TICK_SERIES
                assert all(tele.series(n).empty for n in names)
            elif task.be_app is None:
                assert names[-1] == "be_throughput_norm"
                assert tele.series("be_throughput_norm").empty
            if case == "budgeted":
                assert ("effective_cap_w" in tele) == (task.schedule is not None)
        if case == "no-be":
            assert any(task.be_app is None for task in tasks)

    def test_record_changes_one_series_of_one_cell(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        tasks = _tasks(mixed_plans[:3], catalog.spec, (0.3, 0.8), 5.0, config)
        oracle, got = _oracle(tasks), run_batched_cells(tasks)
        # Materialise a neighbour first: its lists must not be shared.
        assert "power_w" in got[0].result.telemetry
        got[1].result.telemetry.record("power_w", 99.0, -1.0)
        expected = oracle[1].result.telemetry.series("power_w")
        expected.record(99.0, -1.0)
        for k, (a, b) in enumerate(zip(oracle, got)):
            assert_outcome_equal(a, b, f"cell {k}")

    def test_pickle_gives_plain_telemetry(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        tasks = _scheduled(_tasks(
            mixed_plans, catalog.spec, (0.0, 0.6), 4.0, config,
            guard=GuardConfig(),
        ))
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            # A pickled view is the oracle's plain bundle, byte for byte.
            assert pickle.dumps(b) == pickle.dumps(a)
            clone = pickle.loads(pickle.dumps(b))
            assert type(clone.result.telemetry) is Telemetry
            assert_outcome_equal(a, clone, "pickled")
            assert_outcome_equal(a, b, "after pickling")

    def test_pickled_size_independent_of_group(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=1.0, seed=4)
        task = _tasks(mixed_plans[:1], catalog.spec, (0.6,), 5.0, config)[0]
        crowd = [task] * 300
        groups, _ = partition_cells(crowd)
        assert [len(p) for p in groups.values()] == [300]
        alone = run_batched_cells([task])[0]
        shared = run_batched_cells(crowd)[150]
        assert len(pickle.dumps(shared)) == len(pickle.dumps(alone))
        assert pickle.dumps(shared) == pickle.dumps(alone)


class TestGuardReportDifferential:
    """Violating runs: reports and enforce-mode raises must match."""

    def test_record_mode_violations_bit_exact(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        strict = GuardConfig(
            cap_margin_w=-40.0, cap_grace_steps=1,
            lc_min_cores=9, lc_min_ways=6,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=strict,
        )
        oracle = _oracle(tasks)
        total = sum(o.result.guard_report.total_violations for o in oracle)
        assert total > 0, "scenario must actually violate"
        for a, b in zip(oracle, run_batched_cells(tasks)):
            assert_outcome_equal(a, b, "strict")

    def test_enforce_mode_raise_equivalent(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        enforce = GuardConfig(
            mode="enforce", cap_margin_w=-40.0, cap_grace_steps=1,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=enforce,
        )

        def outcome(fn, *args, **kwargs):
            try:
                fn(*args, **kwargs)
                return None
            except Exception as exc:  # noqa: BLE001 - comparing raises
                return type(exc).__name__, str(exc)

        oracle = outcome(map_ordered, _run_cell, [(t,) for t in tasks], workers=1)
        batched = outcome(run_batched_cells, tasks)
        assert oracle is not None, "enforce scenario must raise"
        assert oracle == batched


class TestEngineKnob:
    """run_cluster / run_policy produce identical results per engine."""

    def test_run_cluster_engines_agree(self, catalog, mixed_plans):
        kwargs = dict(
            levels=(0.2, 0.6), duration_s=7.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        base = run_cluster(mixed_plans, catalog.spec, engine="object", **kwargs)
        for dedupe in (False, True):
            got = run_cluster(
                mixed_plans, catalog.spec, dedupe=dedupe,
                engine="batched", **kwargs,
            )
            assert len(got.outcomes) == len(base.outcomes)
            for a, b in zip(base.outcomes, got.outcomes):
                assert_outcome_equal(a, b, f"dedupe={dedupe}")

    def test_default_engine_context(self, catalog, mixed_plans):
        kwargs = dict(levels=(0.5,), duration_s=5.0, config=SimConfig(seed=3))
        with default_engine("object"):
            base = run_cluster(mixed_plans[:2], catalog.spec, **kwargs)
        got = run_cluster(mixed_plans[:2], catalog.spec, **kwargs)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "ctx")

    def test_batched_refuses_process_pool(self, catalog, mixed_plans, tmp_path):
        """Every sweep entry point refuses it alike, before running anything.

        ``engine=None`` is refused too: a pool runs the oracle, which the
        caller must name rather than have picked for them.
        """
        config = SimConfig(seed=0)
        messages = []
        for engine in ("batched", None):
            sweep = dict(levels=(0.5,), duration_s=3.0, workers=2, engine=engine)
            entry_points = [
                lambda: run_cluster(
                    mixed_plans[:1], catalog.spec, config=config, **sweep
                ),
                lambda: run_cluster_checkpointed(
                    mixed_plans[:1], catalog.spec, tmp_path / "sweep.ckpt",
                    config=config, **sweep,
                ),
                lambda: run_policy(
                    catalog, "pocolo", sim_config=config,
                    checkpoint_path=str(tmp_path / "policy.ckpt"), **sweep,
                ),
            ]
            for run in entry_points:
                with pytest.raises(ConfigError, match="workers must be 1") as info:
                    run()
                messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert "engine='object'" in messages[0]
        assert not list(tmp_path.iterdir()), "nothing may run or be saved"

    def test_run_policy_engines_agree(self, catalog):
        kwargs = dict(levels=(0.2, 0.6), duration_s=7.0,
                      sim_config=SimConfig(seed=3))
        base = run_policy(catalog, "pocolo", engine="object", **kwargs)
        got = run_policy(catalog, "pocolo", engine="batched", **kwargs)
        assert len(base.outcomes) == len(got.outcomes)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "policy")


class TestEvaluationDifferential:
    """The Fig 12/13 and Fig 15 evaluations agree across engines.

    Both evaluators plan every (policy, placement seed) run and execute
    them as one sweep on the default engine; here each runs once under
    the oracle and once under the default, and every outcome field must
    match.  Every evaluation cell must also take the batched path: a
    manager change that demoted cells to the per-object fallback would
    slow the evaluation ~55x without changing a number.
    """

    KWARGS = dict(placement_seeds=range(2), levels=(0.3, 0.7), duration_s=4.0)

    def _both_engines(self, monkeypatch, evaluate, *args):
        swept = []
        real = pipeline.run_sweeps

        def recording(sweeps, *rest, **kwargs):
            swept.append([cell for cells, _ in sweeps for cell in cells])
            return real(sweeps, *rest, **kwargs)

        monkeypatch.setattr(pipeline, "run_sweeps", recording)
        with default_engine("object"):
            oracle = evaluate(*args, **self.KWARGS)
        default = evaluate(*args, **self.KWARGS)
        assert len(swept) == 2, "each evaluation must execute as one sweep"
        assert len(swept[0]) == len(swept[1])
        _, fallback = partition_cells(swept[1])
        assert fallback == set(), "evaluation cells fell back to the oracle"
        return oracle, default

    def test_policy_evaluation_engines_agree(self, catalog, monkeypatch):
        oracle, default = self._both_engines(
            monkeypatch, evaluate_all_policies, catalog
        )
        assert list(oracle) == list(default) == ["random", "pom", "pocolo"]
        for policy, want in oracle.items():
            got = default[policy]
            assert len(got.runs) == len(want.runs)
            for k, (run_a, run_b) in enumerate(zip(want.runs, got.runs)):
                assert len(run_a.outcomes) == len(run_b.outcomes)
                for a, b in zip(run_a.outcomes, run_b.outcomes):
                    assert_outcome_equal(a, b, f"{policy} run {k}")
            for field in (
                "be_throughput_by_server", "power_utilization_by_server",
                "cluster_be_throughput", "cluster_power_utilization",
                "violation_fraction",
            ):
                assert getattr(got, field) == getattr(want, field), (
                    f"{policy}: {field}"
                )

    def test_operating_points_engines_agree(self, catalog, monkeypatch):
        oracle, default = self._both_engines(
            monkeypatch, measure_operating_points, catalog
        )
        assert list(oracle) == list(default)
        assert oracle == default


_SWEEP_SNIPPET = """\
from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.evaluation.pipeline import HeraclesFactory
from repro.sim.cluster import ServerPlan
from repro.sim.colocation import SimConfig


def build_sweep():
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    plans = [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in [("xapian", "rnn"), ("sphinx", "graph")]
    ]
    kwargs = dict(
        levels=[0.25, 0.5, 0.75], duration_s=150.0, config=SimConfig(seed=11)
    )
    return plans, REFERENCE_SPEC, kwargs
"""

_CHILD_MAIN = _SWEEP_SNIPPET + """

if __name__ == "__main__":
    import sys

    from repro.runtime import run_cluster_checkpointed

    plans, spec, kwargs = build_sweep()
    # The oracle lands cells one at a time, so the kill lands mid-sweep.
    run_cluster_checkpointed(
        plans, spec, sys.argv[1], resume=True, checkpoint_every=1,
        engine="object", **kwargs
    )
"""


class TestCrossEngineResume:
    """A checkpoint written under one engine resumes under the other."""

    def _flatten(self, result):
        return [
            (o.lc_name, o.be_name, o.level,
             tuple(getattr(o.result, f) for f in RESULT_FIELDS))
            for o in result.outcomes
        ]

    def test_partial_checkpoints_cross_resume(
        self, catalog, mixed_plans, tmp_path
    ):
        kwargs = dict(
            levels=(0.2, 0.6, 0.9), duration_s=10.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        clean = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "clean.ckpt",
            engine="object", **kwargs
        )
        # Full batched run equals the object run outright.
        batched = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "batched.ckpt",
            engine="batched", **kwargs,
        )
        for a, b in zip(clean.outcomes, batched.outcomes):
            assert_outcome_equal(a, b, "full-batched")
        # Roll each checkpoint back to a partial state and resume it
        # under the *other* engine: results must not change a bit.
        for source, resume_engine, keep in [
            ("clean.ckpt", "batched", 4),
            ("batched.ckpt", "object", 3),
        ]:
            path = tmp_path / source
            checkpoint = Checkpoint.load(path)
            completed = checkpoint.payload["completed"]
            survivors = {
                i: completed[i] for i in sorted(completed)[:keep]
            }
            Checkpoint(
                run_key=checkpoint.run_key,
                payload={**checkpoint.payload, "completed": survivors},
            ).save(path)
            resumed = run_cluster_checkpointed(
                mixed_plans, catalog.spec, path, resume=True,
                engine=resume_engine, **kwargs,
            )
            for a, b in zip(clean.outcomes, resumed.outcomes):
                assert_outcome_equal(a, b, f"{source}->{resume_engine}")

    def test_sigkill_then_batched_resume(self, tmp_path):
        """A real SIGKILL mid-sweep; the survivor resumes batched."""
        script = tmp_path / "child_sweep.py"
        script.write_text(_CHILD_MAIN)
        ckpt = tmp_path / "sweep.ckpt"
        child = subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60.0
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if ckpt.exists():
                    extra = Checkpoint.load(ckpt).extra
                    if extra.get("cells_done", 0) >= 1:
                        progressed = True
                        break
                time.sleep(0.02)
            assert progressed, (
                "child finished or stalled before the kill: "
                f"{child.stderr.read().decode(errors='replace')}"
            )
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        namespace = {}
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, engine="batched", **kwargs
        )
        clean = run_cluster(plans, spec, engine="object", **kwargs)
        assert len(resumed.outcomes) == len(clean.outcomes) == 6
        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "sigkill-resume")
