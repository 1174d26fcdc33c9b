"""Crash-safe runtime tests: atomic writes, checkpoint codec, resume.

The contract under test (docs/RECOVERY.md):

* :mod:`repro.runtime.atomic` — a reader can never observe a torn file;
* :class:`repro.runtime.checkpoint.Checkpoint` — every corruption mode
  (truncation, bit rot, alien/newer files, foreign runs) is refused
  *before* unpickling;
* :func:`repro.runtime.sweep.run_cluster_checkpointed` — checkpoint →
  kill → resume equals the uninterrupted run bit-for-bit, pinned with
  Hypothesis across seeds / worker counts / fault plans and with a real
  SIGKILL of a mid-flight subprocess.
"""

import collections
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CheckpointError, ConfigError
from repro.evaluation.pipeline import PomFactory
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.faults.schedule import FaultSchedule, MeterDrift, TelemetryGap
from repro.runtime import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    run_cluster_checkpointed,
    sweep_run_key,
)
from repro.sim import cluster as cluster_module
from repro.sim.cluster import LevelOutcome, ServerPlan, run_cluster
from repro.sim.colocation import SimConfig

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _flatten(result):
    """Every float an outcome reports, for exact comparison."""
    rows = []
    for o in result.outcomes:
        r = o.result
        rows.append((
            o.lc_name, o.be_name, o.level, r.duration_s,
            r.avg_be_throughput_norm, r.avg_be_throughput_abs,
            r.avg_lc_load_fraction, r.avg_power_w, r.power_utilization,
            r.energy_kwh, r.slo_violation_fraction,
        ))
    return rows


def _plans(catalog, pairs):
    """Content-addressable plans (frozen-dataclass factories, no lambdas)."""
    out = []
    for lc_name, be_name in pairs:
        lc = catalog.lc_apps[lc_name]
        out.append(ServerPlan(
            lc_app=lc,
            be_app=catalog.be_apps[be_name] if be_name else None,
            provisioned_power_w=lc.peak_server_power_w(),
            manager_factory=PomFactory(catalog.lc_fits[lc_name].model),
        ))
    return out


def _fault_plan(plans):
    return ClusterFaultPlan(
        crashes=(ServerCrash(plans[0].lc_app.name, at_level_index=1),),
        cell_faults=FaultSchedule(faults=(
            MeterDrift(start_s=1.0, duration_s=2.0, rate_w_per_s=0.5),
            TelemetryGap(start_s=2.0, duration_s=1.0),
        )),
    )


class TestAtomicWrites:
    def test_bytes_roundtrip_and_path(self, tmp_path):
        target = tmp_path / "artifact.bin"
        returned = atomic_write_bytes(target, b"\x00\x01payload")
        assert returned == target
        assert target.read_bytes() == b"\x00\x01payload"

    def test_replaces_existing_content_completely(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "old content, long enough to linger")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_debris_after_success(self, tmp_path):
        atomic_write_text(tmp_path / "clean.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["clean.txt"]

    def test_failed_replace_preserves_target_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "keep.json"
        atomic_write_json(target, {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_json(target, {"generation": 2})
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "artifact.json"
        atomic_write_json(target, [1, 2])
        assert json.loads(target.read_text()) == [1, 2]

    def test_json_trailing_newline_and_sort(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"b": 1, "a": 2}, sort_keys=True)
        text = target.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestCheckpointCodec:
    def _save(self, tmp_path, **overrides):
        fields = dict(
            run_key="k" * 64,
            payload={"completed": {0: (1.0, 2.0)}, "note": "hi"},
            extra={"cells_done": 1},
        )
        fields.update(overrides)
        path = tmp_path / "sweep.ckpt"
        Checkpoint(**fields).save(path)
        return path

    def test_roundtrip(self, tmp_path):
        path = self._save(tmp_path)
        loaded = Checkpoint.load(path, expect_run_key="k" * 64)
        assert loaded.run_key == "k" * 64
        assert loaded.payload == {"completed": {0: (1.0, 2.0)}, "note": "hi"}
        assert loaded.extra == {"cells_done": 1}
        assert loaded.version == 1

    def test_header_line_is_greppable_json(self, tmp_path):
        path = self._save(tmp_path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["magic"] == CHECKPOINT_MAGIC
        assert header["extra"] == {"cells_done": 1}
        assert header["payload_bytes"] > 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "absent.ckpt")

    def test_no_header_newline(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"just-bytes-no-newline")
        with pytest.raises(CheckpointError, match="no header line"):
            Checkpoint.load(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"{broken json\npayload")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.load(path)

    def test_alien_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"magic": "other-tool"}\n')
        with pytest.raises(CheckpointError, match="not a pocolo checkpoint"):
            Checkpoint.load(path)

    def test_newer_version_refused(self, tmp_path):
        path = self._save(tmp_path, version=2)
        with pytest.raises(CheckpointError, match="unsupported version 2"):
            Checkpoint.load(path)

    def test_non_integer_version_refused(self, tmp_path):
        header = json.dumps({"magic": CHECKPOINT_MAGIC, "version": "1"})
        path = tmp_path / "x.ckpt"
        path.write_bytes(header.encode() + b"\n")
        with pytest.raises(CheckpointError, match="unsupported version"):
            Checkpoint.load(path)

    def test_truncation_detected(self, tmp_path):
        path = self._save(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.load(path)

    def test_bit_rot_detected(self, tmp_path):
        path = self._save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte, length unchanged
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            Checkpoint.load(path)

    def test_foreign_run_key_refused(self, tmp_path):
        path = self._save(tmp_path)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            Checkpoint.load(path, expect_run_key="m" * 64)

    def test_missing_run_key_refused(self, tmp_path):
        payload = pickle.dumps(None)
        header = json.dumps({
            "magic": CHECKPOINT_MAGIC, "version": 1,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        })
        path = tmp_path / "x.ckpt"
        path.write_bytes(header.encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="lacks a run_key"):
            Checkpoint.load(path)

    def test_corruption_never_reaches_unpickle(self, tmp_path):
        """A tampered payload fails the checksum, not the unpickler."""
        path = self._save(tmp_path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        evil = b"cos\nsystem\n(S'true'\ntR."  # classic pickle bomb shape
        path.write_bytes(header + b"\n" + evil[:len(payload)].ljust(len(payload), b"."))
        with pytest.raises(CheckpointError, match="checksum"):
            Checkpoint.load(path)


class TestCheckpointedSweep:
    KWARGS = dict(levels=[0.3, 0.7], duration_s=4.0, config=SimConfig(seed=2))

    def test_fresh_run_equals_run_cluster(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        clean = run_cluster(plans, catalog.spec, **self.KWARGS)
        checkpointed = run_cluster_checkpointed(
            plans, catalog.spec, tmp_path / "sweep.ckpt", **self.KWARGS
        )
        assert _flatten(checkpointed) == _flatten(clean)

    def test_completed_checkpoint_records_progress(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn")])
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.extra == {
            "cells_total": 2, "cells_done": 2, "cursor": 2,
        }
        assert checkpoint.run_key == sweep_run_key(
            plans, catalog.spec, **self.KWARGS
        )

    def test_resume_skips_completed_cells(self, catalog, tmp_path, monkeypatch):
        plans = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        path = tmp_path / "sweep.ckpt"
        full = run_cluster_checkpointed(
            plans, catalog.spec, path, **self.KWARGS
        )
        # Simulate a crash after one cell: truncate the completed map.
        checkpoint = Checkpoint.load(path)
        survivor = {0: checkpoint.payload["completed"][0]}
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={**checkpoint.payload, "completed": survivor},
        ).save(path)
        executed = []
        run_cell = cluster_module._run_cell
        monkeypatch.setattr(
            cluster_module, "_run_cell",
            lambda cell: executed.append(cell) or run_cell(cell),
        )
        # Pinned to the oracle: it runs one cell at a time through
        # _run_cell, which is what this test counts.
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, engine="object",
            **self.KWARGS,
        )
        assert _flatten(resumed) == _flatten(full)
        assert len(executed) == 3  # 4 cells, 1 survived

    def test_resume_with_missing_file_starts_fresh(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn")])
        path = tmp_path / "never-written.ckpt"
        result = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, **self.KWARGS
        )
        assert len(result.outcomes) == 2
        assert path.exists()

    def test_resume_refuses_a_different_sweep(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn")])
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            run_cluster_checkpointed(
                plans, catalog.spec, path, resume=True,
                levels=[0.3, 0.7], duration_s=5.0, config=SimConfig(seed=2),
            )

    def test_dedupe_bit_identical(self, catalog, tmp_path):
        base = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        plans = [base[i % 2] for i in range(6)]  # replicated fleet
        clean = run_cluster(plans, catalog.spec, **self.KWARGS)
        deduped = run_cluster_checkpointed(
            plans, catalog.spec, tmp_path / "sweep.ckpt", dedupe=True,
            **self.KWARGS,
        )
        assert _flatten(deduped) == _flatten(clean)
        checkpoint = Checkpoint.load(tmp_path / "sweep.ckpt")
        # Entries sit at planned positions: 6 plans x 2 levels, of
        # which the 2 unique plans x 2 levels ran.
        assert checkpoint.extra["cells_total"] == 12
        assert checkpoint.extra["cells_done"] == 4

    def _replicated(self, catalog):
        base = _plans(catalog, [("img-dnn", "rnn"), ("sphinx", "graph")])
        return [base[0], base[0], base[1]]

    @pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
    @pytest.mark.parametrize(
        "written, resumed", [(True, False), (False, True)],
        ids=["dedupe-to-plain", "plain-to-dedupe"],
    )
    def test_resume_with_dedupe_flipped(
        self, catalog, tmp_path, written, resumed, partial
    ):
        plans = self._replicated(catalog)
        clean = run_cluster(plans, catalog.spec, **self.KWARGS)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(
            plans, catalog.spec, path, dedupe=written, **self.KWARGS
        )
        if partial:
            checkpoint = Checkpoint.load(path)
            completed = checkpoint.payload["completed"]
            Checkpoint(
                run_key=checkpoint.run_key,
                payload={
                    **checkpoint.payload,
                    "completed": {i: completed[i] for i in sorted(completed)[:2]},
                },
                extra=checkpoint.extra,
            ).save(path)
        got = run_cluster_checkpointed(
            plans, catalog.spec, path, dedupe=resumed, resume=True,
            **self.KWARGS,
        )
        assert _flatten(got) == _flatten(clean)

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_deduplicated_layout_checkpoint_refused(
        self, catalog, tmp_path, dedupe
    ):
        """Entries indexed by position in the deduplicated cell list
        (the older ``dedupe=True`` layout) are refused, never mis-slotted."""
        plans = self._replicated(catalog)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(
            plans, catalog.spec, path, dedupe=True, **self.KWARGS
        )
        checkpoint = Checkpoint.load(path)
        completed = checkpoint.payload["completed"]
        unique = sorted(completed)  # planned positions 0, 1, 4, 5
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={
                **checkpoint.payload,
                "completed": {k: completed[i] for k, i in enumerate(unique)},
            },
            extra={"cells_total": 4, "cells_done": 4, "cursor": 4},
        ).save(path)
        with pytest.raises(CheckpointError, match="deduplicated"):
            run_cluster_checkpointed(
                plans, catalog.spec, path, dedupe=dedupe, resume=True,
                **self.KWARGS,
            )

    def test_faulted_sweep_resumes_bit_identical(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        kwargs = dict(self.KWARGS, fault_plan=_fault_plan(plans))
        path = tmp_path / "sweep.ckpt"
        clean = run_cluster(plans, catalog.spec, **kwargs)
        run_cluster_checkpointed(plans, catalog.spec, path, **kwargs)
        checkpoint = Checkpoint.load(path)
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={
                **checkpoint.payload,
                "completed": {
                    i: o for i, o in checkpoint.payload["completed"].items()
                    if i < 2
                },
            },
        ).save(path)
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, **kwargs
        )
        assert _flatten(resumed) == _flatten(clean)
        assert (
            resumed.fault_report.crashes_handled,
            resumed.fault_report.degraded_cells,
        ) == (
            clean.fault_report.crashes_handled,
            clean.fault_report.degraded_cells,
        )

    def test_checkpoint_every_validated(self, catalog, tmp_path):
        plans = _plans(catalog, [("xapian", "rnn")])
        with pytest.raises(ConfigError):
            run_cluster_checkpointed(
                plans, catalog.spec, tmp_path / "x.ckpt",
                checkpoint_every=0, **self.KWARGS,
            )

    def test_run_key_is_content_based(self, catalog):
        plans_a = _plans(catalog, [("xapian", "rnn")])
        plans_b = _plans(catalog, [("xapian", "rnn")])  # fresh objects
        key = sweep_run_key(plans_a, catalog.spec, **self.KWARGS)
        assert sweep_run_key(plans_b, catalog.spec, **self.KWARGS) == key
        assert sweep_run_key(
            plans_a, catalog.spec,
            levels=[0.3, 0.7], duration_s=9.0, config=SimConfig(seed=2),
        ) != key
        assert sweep_run_key(
            plans_a, catalog.spec,
            fault_plan=_fault_plan(plans_a), **self.KWARGS,
        ) != key


def _keep_cells(path, keep, decode=False):
    """Roll a checkpoint back to the cells in ``keep``.

    ``decode`` rewrites them in the layout used before cells were
    pickled one by one: the ``LevelOutcome`` itself, not its bytes.
    """
    checkpoint = Checkpoint.load(path)
    completed = {
        i: pickle.loads(entry) if decode else entry
        for i, entry in checkpoint.payload["completed"].items() if i in keep
    }
    Checkpoint(
        run_key=checkpoint.run_key,
        payload={**checkpoint.payload, "completed": completed},
    ).save(path)


class TestPerCellLayout:
    """Each cell is pickled once, when it lands; saves reuse the bytes."""

    KWARGS = TestCheckpointedSweep.KWARGS
    PAIRS = [("xapian", "rnn"), ("sphinx", "graph")]

    @pytest.fixture()
    def pickles(self, monkeypatch):
        """How often each ``LevelOutcome`` object gets pickled."""
        counts = collections.Counter()

        def counting(outcome, protocol):
            counts[id(outcome)] += 1
            return object.__reduce_ex__(outcome, protocol)

        monkeypatch.setattr(LevelOutcome, "__reduce_ex__", counting)
        return counts

    @pytest.mark.parametrize("engine", ["object", "batched"])
    def test_each_cell_pickled_once(self, catalog, tmp_path, pickles, engine):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        result = run_cluster_checkpointed(
            plans, catalog.spec, path, engine=engine, **self.KWARGS
        )
        # Four cells, five saves (one per cell plus the final one).
        assert sorted(pickles) == sorted(id(o) for o in result.outcomes)
        assert set(pickles.values()) == {1}
        completed = Checkpoint.load(path).payload["completed"]
        assert sorted(completed) == [0, 1, 2, 3]
        assert all(isinstance(entry, bytes) for entry in completed.values())

    def test_resumed_cells_are_not_pickled_again(
        self, catalog, tmp_path, pickles
    ):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        full = run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        _keep_cells(path, keep={0, 2})
        survivors = Checkpoint.load(path).payload["completed"]
        pickles.clear()
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, **self.KWARGS
        )
        assert sum(pickles.values()) == 2  # only cells 1 and 3 ran
        assert set(pickles.values()) == {1}
        completed = Checkpoint.load(path).payload["completed"]
        assert {i: completed[i] for i in survivors} == survivors
        assert [pickle.dumps(o) for o in resumed.outcomes] == [
            pickle.dumps(o) for o in full.outcomes
        ]

    def test_old_layout_resumes_bit_identical(self, catalog, tmp_path, pickles):
        plans = _plans(catalog, self.PAIRS)
        kwargs = dict(self.KWARGS, fault_plan=_fault_plan(plans))
        path = tmp_path / "sweep.ckpt"
        full = run_cluster_checkpointed(plans, catalog.spec, path, **kwargs)
        _keep_cells(path, keep={0, 1}, decode=True)
        pickles.clear()
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, **kwargs
        )
        # The two loaded outcomes are encoded once, the two re-run ones
        # once each, and the file is rewritten in the per-cell layout.
        assert sum(pickles.values()) == 4
        assert set(pickles.values()) == {1}
        completed = Checkpoint.load(path).payload["completed"]
        assert all(isinstance(entry, bytes) for entry in completed.values())
        assert [pickle.dumps(o) for o in resumed.outcomes] == [
            pickle.dumps(o) for o in full.outcomes
        ]
        assert _flatten(resumed) == _flatten(
            run_cluster(plans, catalog.spec, **kwargs)
        )

    @pytest.mark.parametrize(
        "entry, message",
        [
            (pickle.dumps({"not": "an outcome"}), "cell 2 holds a dict"),
            (("old", "layout", "tuple"), "cell 2 holds a tuple"),
            (b"\x80\x05torn", "cell 2 failed to unpickle"),
        ],
        ids=["bytes", "object", "torn"],
    )
    def test_bad_cell_entry_names_the_cell(
        self, catalog, tmp_path, entry, message
    ):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        checkpoint = Checkpoint.load(path)
        completed = dict(checkpoint.payload["completed"])
        completed[2] = entry  # checksummed, so only the cell check sees it
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={**checkpoint.payload, "completed": completed},
        ).save(path)
        with pytest.raises(CheckpointError, match=message):
            run_cluster_checkpointed(
                plans, catalog.spec, path, resume=True, **self.KWARGS
            )

    def test_corrupt_payload_refused_before_any_cell_unpickle(
        self, catalog, tmp_path, monkeypatch
    ):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0xFF  # inside the last cell's bytes
        path.write_bytes(bytes(blob))

        def no_unpickle(data):
            raise AssertionError("something was unpickled before the checksum")

        monkeypatch.setattr(pickle, "loads", no_unpickle)
        with pytest.raises(CheckpointError, match="checksum"):
            run_cluster_checkpointed(
                plans, catalog.spec, path, resume=True, **self.KWARGS
            )


class TestCrashResumeProperty:
    """Checkpoint → kill → resume == uninterrupted, across the sweep space."""

    _clean_cache = {}

    def _sweep(self, catalog, seed, faulted):
        plans = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        kwargs = dict(
            levels=[0.3, 0.7], duration_s=3.0, config=SimConfig(seed=seed),
            fault_plan=_fault_plan(plans) if faulted else None,
        )
        return plans, kwargs

    def _clean_flat(self, catalog, seed, faulted):
        key = (seed, faulted)
        if key not in self._clean_cache:
            plans, kwargs = self._sweep(catalog, seed, faulted)
            self._clean_cache[key] = _flatten(
                run_cluster(plans, catalog.spec, **kwargs)
            )
        return self._clean_cache[key]

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=3),
        workers=st.sampled_from([1, 2]),
        faulted=st.booleans(),
        kill_after=st.integers(min_value=0, max_value=4),
    )
    def test_kill_and_resume_bit_identical(
        self, catalog, tmp_path_factory, seed, workers, faulted, kill_after
    ):
        plans, kwargs = self._sweep(catalog, seed, faulted)
        path = tmp_path_factory.mktemp("ckpt") / "sweep.ckpt"
        # A process pool runs the oracle, which must be named.
        run_cluster_checkpointed(
            plans, catalog.spec, path, workers=workers, engine="object",
            **kwargs
        )
        # Roll the checkpoint back to the moment of the simulated crash:
        # only the first ``kill_after`` completed cells survived.
        checkpoint = Checkpoint.load(path)
        completed = checkpoint.payload["completed"]
        survivors = {i: completed[i] for i in sorted(completed)[:kill_after]}
        Checkpoint(
            run_key=checkpoint.run_key,
            payload={**checkpoint.payload, "completed": survivors},
        ).save(path)
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, workers=workers,
            engine="object", **kwargs
        )
        assert _flatten(resumed) == self._clean_flat(catalog, seed, faulted)


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


class TestSigkillResume:
    """A real mid-flight SIGKILL, then an in-process resume."""

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
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
            # Wait for at least one checkpointed cell, then pull the plug.
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

        # The atomically-written checkpoint is loadable and partial.
        partial = Checkpoint.load(ckpt)
        assert 1 <= partial.extra["cells_done"] < partial.extra["cells_total"]

        namespace = {}
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, **kwargs
        )
        clean = run_cluster(plans, spec, **kwargs)
        assert _flatten(resumed) == _flatten(clean)
        assert Checkpoint.load(ckpt).extra["cells_done"] == 6
