"""Tests for :class:`repro.sim.cluster.Sweep`, the one definition of a sweep.

A sweep's eight terms are checked once, when the value is built, so a
malformed sweep is refused before anything is planned — budget plan
included — or run.  :class:`~repro.sim.cluster.Durability` checks itself
the same way, and ``run_sweeps`` refuses durability it cannot honour
before anything is planned or written.  ``sweep_run_key`` digests are
pinned to hex strings so a checkpoint journal written by an earlier
version still resumes.
"""

import pickle

import numpy as np
import pytest

from repro.apps.catalog import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.budget import BudgetConfig
from repro.errors import ConfigError
from repro.evaluation.pipeline import HeraclesFactory
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.faults.schedule import (
    ArbiterCrash,
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    RackPowerDerate,
    ServerRejoin,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import sweep_run_key
from repro.sim import cluster as cluster_module
from repro.sim.cluster import Durability, ServerPlan, Sweep, run_cluster, run_sweeps
from repro.sim.colocation import SimConfig

PAIRS = (("xapian", "rnn"), ("sphinx", "graph"), ("img-dnn", "lstm"))
LEVELS = (0.2, 0.5, 0.8)
CONFIG = SimConfig(warmup_s=1.0, seed=3)
BUDGET = BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=2)


def _plans():
    """Catalog apps under the baseline manager: pure content, no fits."""
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    return [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in PAIRS
    ]


def _pickled(result):
    """Every outcome byte for byte (telemetry views pickle as plain data)."""
    return pickle.dumps(result.outcomes, protocol=pickle.HIGHEST_PROTOCOL)


def _full_fault_plan():
    return ClusterFaultPlan(
        crashes=(
            ServerCrash("xapian", at_level_index=1),
            ServerCrash("sphinx", at_level_index=0, recover_at_level_index=2),
        ),
        rejoins=(ServerRejoin("xapian", at_level_index=2),),
        cell_faults=FaultSchedule([
            LoadSpike(start_s=1.0, duration_s=2.0, factor=1.3),
            MeterDrift(start_s=0.5, duration_s=3.0, rate_w_per_s=0.5),
        ]),
        infra_faults=FaultSchedule([
            RackPowerDerate(start_s=2.0, duration_s=4.0, rack="rack0", factor=0.6),
            ArbiterCrash(start_s=8.0, duration_s=2.0),
        ]),
    )


@pytest.fixture
def nothing_plans(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("planning ran for a malformed sweep")

    monkeypatch.setattr(cluster_module, "plan_cluster_tasks", never)
    monkeypatch.setattr(cluster_module, "plan_budget", never)


@pytest.mark.usefixtures("nothing_plans")
class TestSweepValidation:
    """Every malformed sweep raises from ``Sweep(...)`` itself."""

    @pytest.mark.parametrize("budget", [None, BUDGET], ids=["plain", "budget"])
    @pytest.mark.parametrize("terms, match", [
        (dict(plans=()), "at least one server plan"),
        (dict(levels=()), "at least one load level"),
        (dict(levels=(0.3, 1.5)), r"level must lie in \[0, 1\], got 1.5"),
        (dict(duration_s=0.0), "duration_s must be positive, got 0.0"),
        (
            dict(fault_plan=ClusterFaultPlan(
                crashes=(ServerCrash("memcached", at_level_index=1),),
            )),
            "crash names unknown server 'memcached'",
        ),
    ], ids=["no-plans", "no-levels", "level-1.5", "duration-0", "unknown-crash"])
    def test_refused_when_built(self, terms, match, budget):
        sweep = dict(plans=_plans(), spec=REFERENCE_SPEC, levels=LEVELS,
                     duration_s=4.0, config=CONFIG, budget=budget)
        sweep.update(terms)
        with pytest.raises(ConfigError, match=match):
            Sweep(**sweep)


@pytest.mark.usefixtures("nothing_plans")
class TestDurabilityValidation:
    """Malformed durability raises from ``Durability(...)`` itself, and
    durability ``run_sweeps`` cannot honour is refused before anything
    is planned or written."""

    @pytest.mark.parametrize("terms, match", [
        (dict(journal_path="sweep.ckpt", checkpoint_every=0),
         "checkpoint_every must be at least 1"),
        (dict(resume=True, ledger_path="ledger.jsonl"),
         r"resume needs a journal_path \(nothing to resume from\)"),
    ], ids=["every-0", "resume-without-journal"])
    def test_refused_when_built(self, terms, match):
        with pytest.raises(ConfigError, match=match):
            Durability(**terms)

    @pytest.mark.parametrize("count, ledger, match", [
        (1, True, "a violation ledger needs a guard config"),
        (2, False, "durability covers exactly one sweep, not 2"),
    ], ids=["ledger-without-guard", "two-sweeps"])
    def test_refused_by_run_sweeps(self, tmp_path, count, ledger, match):
        journal = tmp_path / "sweep.ckpt"
        journal.write_bytes(b"an earlier journal")
        ledger_path = tmp_path / "ledger.jsonl" if ledger else None
        sweep = Sweep(_plans(), REFERENCE_SPEC, LEVELS, 4.0, CONFIG)
        with pytest.raises(ConfigError, match=match):
            run_sweeps(
                [sweep] * count,
                durability=Durability(journal, ledger_path=ledger_path),
            )
        assert journal.read_bytes() == b"an earlier journal"
        assert sorted(tmp_path.iterdir()) == [journal]


class TestSweepNormalisation:
    def test_terms_become_tuples_of_python_floats(self):
        sweep = Sweep(_plans(), REFERENCE_SPEC, np.array([0.25, 0.75]), 4.0)
        assert isinstance(sweep.plans, tuple)
        assert sweep.levels == (0.25, 0.75)
        assert all(type(level) is float for level in sweep.levels)

    def test_numpy_levels_run_like_a_tuple(self):
        plans = _plans()[:2]
        as_array, as_tuple = run_sweeps([
            Sweep(plans, REFERENCE_SPEC, np.array([0.3, 0.7]), 4.0, CONFIG),
            Sweep(plans, REFERENCE_SPEC, (0.3, 0.7), 4.0, CONFIG),
        ])
        run_by_keyword = run_cluster(
            plans, REFERENCE_SPEC, levels=np.array([0.3, 0.7]), duration_s=4.0,
            config=CONFIG,
        )
        expected = _pickled(as_tuple)
        assert _pickled(as_array) == expected
        assert _pickled(run_by_keyword) == expected


class TestRunKeyPinned:
    """The digests a journal records; changing them orphans old journals."""

    def test_plain_sweep(self):
        sweep = Sweep(_plans(), REFERENCE_SPEC, LEVELS, 6.0, CONFIG)
        assert sweep_run_key(sweep) == (
            "520a0fe087c3412dd9bf43b31b0a0e1bff862e43f2102a5a19dc966ac18b3d1f"
        )

    def test_sweep_with_every_optional_term(self):
        sweep = Sweep(
            _plans(), REFERENCE_SPEC, LEVELS, 6.0, CONFIG,
            fault_plan=_full_fault_plan(), guard=GuardConfig(mode="record"),
            budget=BUDGET,
        )
        assert sweep_run_key(sweep) == (
            "b43d8e3e3047c761e7aa0877d03db0f109062f8275ddbdffe1c6aa29efcb6428"
        )
