"""Crash-safe runtime tests: atomic writes, checkpoint journal, resume.

The contract under test (docs/RECOVERY.md):

* :mod:`repro.runtime.atomic` — a reader can never observe a torn file;
* :mod:`repro.runtime.checkpoint` — the journal is append-only; a torn
  last record is dropped and re-run, every other defect (corruption,
  alien/older/newer files, foreign runs) is refused *before*
  unpickling;
* :func:`repro.runtime.sweep.run_cluster_checkpointed` — checkpoint →
  kill → resume equals the uninterrupted run bit-for-bit, pinned with
  Hypothesis across seeds / fault plans / kill points and with a real
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
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.server_manager import PowerOptimizedManager
from repro.errors import CheckpointError, ConfigError, ExecutionError
from repro.evaluation.pipeline import PomFactory
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.faults.schedule import FaultSchedule, MeterDrift, TelemetryGap
from repro.runtime import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_journal,
    run_cluster_checkpointed,
    sweep_run_key,
)
from repro.sim import cluster as cluster_module
from repro.sim.cluster import LevelOutcome, ServerPlan, Sweep, run_cluster
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


@dataclass(frozen=True)
class RaisingFactory:
    """A manager factory whose every cell fails before it runs."""

    def __call__(self, server):
        raise ConfigError("planted manager failure")


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


def write_journal(path, cells, run_key="k" * 64, cells_total=4, placement=None):
    """Write a journal holding ``cells`` (position -> bytes), in order."""
    with Checkpoint.create(
        path, run_key, cells_total, placement or {"xapian": "rnn"}
    ) as checkpoint:
        for position, data in cells.items():
            checkpoint.append(position, data)
        checkpoint.save()
    return path


def keep_cells(path, keep):
    """Roll a checkpoint back to its records for the positions in ``keep``."""
    journal = read_journal(path)
    write_journal(
        path, {i: data for i, data in journal.cells.items() if i in keep},
        journal.run_key, journal.cells_total, journal.placement,
    )


def record_spans(path):
    """``(position, line start, payload start, end)`` of every record."""
    blob = Path(path).read_bytes()
    offset = blob.index(b"\n") + 1
    spans = []
    while offset < len(blob):
        newline = blob.index(b"\n", offset)
        line = json.loads(blob[offset:newline])
        end = newline + 1 + line["bytes"]
        spans.append((line["cell"], offset, newline + 1, end))
        offset = end
    return spans


def _flip_byte(path, at):
    blob = bytearray(Path(path).read_bytes())
    blob[at] ^= 0xFF
    Path(path).write_bytes(bytes(blob))


def _v1_file(path):
    """A checkpoint in the version-1 layout: one pickled payload."""
    payload = pickle.dumps({"completed": {0: b"cell"}, "placement": {}})
    header = json.dumps({
        "magic": CHECKPOINT_MAGIC, "version": 1, "run_key": "k" * 64,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "extra": {"cells_total": 4, "cells_done": 1, "cursor": 1},
    })
    path.write_bytes(header.encode() + b"\n" + payload)
    return path


class TestCheckpointCodec:
    CELLS = {0: b"first cell", 3: b"second\ncell"}

    def _save(self, tmp_path, **overrides):
        return write_journal(tmp_path / "sweep.ckpt", self.CELLS, **overrides)

    def _header(self, path, **fields):
        header = {
            "magic": CHECKPOINT_MAGIC, "version": 2, "run_key": "k" * 64,
            "cells_total": 4, "placement": {},
        }
        header.update(fields)
        path.write_bytes(
            json.dumps({k: v for k, v in header.items() if v is not None})
            .encode() + b"\n"
        )
        return path

    def test_roundtrip(self, tmp_path):
        path = self._save(tmp_path)
        journal = read_journal(path, expect_run_key="k" * 64)
        assert journal.run_key == "k" * 64
        assert journal.cells == self.CELLS
        assert list(journal.cells) == [0, 3]  # record order
        assert (journal.cells_total, journal.cells_done) == (4, 2)
        assert journal.placement == {"xapian": "rnn"}
        assert journal.intact_bytes == journal.file_bytes == path.stat().st_size

    def test_header_line_is_greppable_json(self, tmp_path):
        path = self._save(tmp_path)
        header, record = path.read_bytes().split(b"\n")[:2]
        assert json.loads(header) == {
            "magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
            "run_key": "k" * 64, "cells_total": 4,
            "placement": {"xapian": "rnn"},
        }
        assert json.loads(record) == {
            "bytes": len(self.CELLS[0]), "cell": 0,
            "sha256": hashlib.sha256(self.CELLS[0]).hexdigest(),
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_journal(tmp_path / "absent.ckpt")

    def test_no_header_newline(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"just-bytes-no-newline")
        with pytest.raises(CheckpointError, match="no header line"):
            read_journal(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"{broken json\npayload")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_journal(path)

    def test_alien_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"magic": "other-tool"}\n')
        with pytest.raises(CheckpointError, match="not a pocolo checkpoint"):
            read_journal(path)

    def test_newer_version_refused(self, tmp_path):
        path = self._header(tmp_path / "x.ckpt", version=3)
        with pytest.raises(CheckpointError, match="unsupported version 3"):
            read_journal(path)

    def test_non_integer_version_refused(self, tmp_path):
        path = self._header(tmp_path / "x.ckpt", version="2")
        with pytest.raises(CheckpointError, match="unsupported version"):
            read_journal(path)

    def test_truncation_detected(self, tmp_path):
        """A cut last record is a torn tail: left out, never an error."""
        path = self._save(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        journal = read_journal(path)
        assert journal.cells == {0: self.CELLS[0]}
        assert journal.intact_bytes == record_spans(path)[0][3]
        assert journal.file_bytes == len(blob) - 3

    def test_bit_rot_detected(self, tmp_path):
        path = self._save(tmp_path)
        _flip_byte(path, record_spans(path)[0][2])  # first payload byte
        with pytest.raises(CheckpointError, match="corrupt: cell 0 at byte"):
            read_journal(path)

    def test_foreign_run_key_refused(self, tmp_path):
        path = self._save(tmp_path)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            read_journal(path, expect_run_key="m" * 64)

    def test_missing_run_key_refused(self, tmp_path):
        path = self._header(tmp_path / "x.ckpt", run_key=None)
        with pytest.raises(CheckpointError, match="lacks a run_key"):
            read_journal(path)

    def test_corruption_never_reaches_unpickle(self, tmp_path, monkeypatch):
        """A tampered record fails its checksum; the reader never unpickles."""
        path = self._save(tmp_path)
        _, _, start, end = record_spans(path)[0]
        blob = path.read_bytes()
        evil = b"cos\nsystem\n(S'true'\ntR."  # classic pickle bomb shape
        path.write_bytes(
            blob[:start] + evil[:end - start].ljust(end - start, b".")
            + blob[end:]
        )

        def no_unpickle(data):
            raise AssertionError("the journal reader unpickled something")

        monkeypatch.setattr(pickle, "loads", no_unpickle)
        with pytest.raises(CheckpointError, match="corrupt: cell 0"):
            read_journal(path)


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
        journal = read_journal(path)
        assert (journal.cells_total, journal.cells_done) == (2, 2)
        assert journal.intact_bytes == journal.file_bytes
        assert journal.run_key == sweep_run_key(
            Sweep(plans, catalog.spec, **self.KWARGS)
        )

    def test_resume_skips_completed_cells(self, catalog, tmp_path, monkeypatch):
        plans = _plans(catalog, [("xapian", "rnn"), ("sphinx", "graph")])
        path = tmp_path / "sweep.ckpt"
        full = run_cluster_checkpointed(
            plans, catalog.spec, path, **self.KWARGS
        )
        # Simulate a crash after one cell: only its record survives.
        keep_cells(path, {0})
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
        journal = read_journal(tmp_path / "sweep.ckpt")
        # Records sit at planned positions: 6 plans x 2 levels, of
        # which the 2 unique plans x 2 levels ran.
        assert journal.cells_total == 12
        assert journal.cells_done == 4

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
            keep_cells(path, sorted(read_journal(path).cells)[:2])
        got = run_cluster_checkpointed(
            plans, catalog.spec, path, dedupe=resumed, resume=True,
            **self.KWARGS,
        )
        assert _flatten(got) == _flatten(clean)

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_deduplicated_layout_checkpoint_refused(
        self, catalog, tmp_path, dedupe
    ):
        """Records indexed by position in the deduplicated cell list
        (the layout of older ``dedupe=True`` checkpoints) are refused by
        the ``cells_total`` check, never mis-slotted."""
        plans = self._replicated(catalog)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(
            plans, catalog.spec, path, dedupe=True, **self.KWARGS
        )
        journal = read_journal(path)
        unique = sorted(journal.cells)  # planned positions 0, 1, 4, 5
        write_journal(
            path, {k: journal.cells[i] for k, i in enumerate(unique)},
            journal.run_key, cells_total=4,
        )
        with pytest.raises(CheckpointError, match="records 4 cells but this sweep plans 6"):
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
        keep_cells(path, {0, 1})
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

    def test_failed_first_cell_leaves_old_journal_untouched(
        self, catalog, tmp_path
    ):
        """A fresh run whose first cell raises writes nothing: an old
        journal at ``checkpoint_path`` stays byte-identical."""
        plans = _plans(catalog, [("xapian", "rnn")])
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        before = path.read_bytes()
        failing = [replace(plans[0], manager_factory=RaisingFactory())]
        with pytest.raises(ExecutionError, match="planted manager failure"):
            run_cluster_checkpointed(
                failing, catalog.spec, path, engine="object", **self.KWARGS
            )
        assert path.read_bytes() == before

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
        key = sweep_run_key(Sweep(plans_a, catalog.spec, **self.KWARGS))
        assert sweep_run_key(Sweep(plans_b, catalog.spec, **self.KWARGS)) == key
        assert sweep_run_key(Sweep(
            plans_a, catalog.spec,
            levels=[0.3, 0.7], duration_s=9.0, config=SimConfig(seed=2),
        )) != key
        assert sweep_run_key(Sweep(
            plans_a, catalog.spec,
            fault_plan=_fault_plan(plans_a), **self.KWARGS,
        )) != key


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
        # Four cells, one record each (saved one by one on the object
        # engine, as one run on the batched engine).
        assert sorted(pickles) == sorted(id(o) for o in result.outcomes)
        assert set(pickles.values()) == {1}
        cells = read_journal(path).cells
        assert sorted(cells) == [0, 1, 2, 3]
        assert [cells[i] for i in range(4)] == [
            pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL)
            for o in result.outcomes
        ]

    def test_resumed_cells_are_not_pickled_again(
        self, catalog, tmp_path, pickles
    ):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        full = run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        keep_cells(path, {0, 2})
        survivors = read_journal(path).cells
        pickles.clear()
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, **self.KWARGS
        )
        assert sum(pickles.values()) == 2  # only cells 1 and 3 ran
        assert set(pickles.values()) == {1}
        completed = read_journal(path).cells
        assert {i: completed[i] for i in survivors} == survivors
        assert [pickle.dumps(o) for o in resumed.outcomes] == [
            pickle.dumps(o) for o in full.outcomes
        ]

    @pytest.mark.parametrize(
        "entry, message",
        [
            (pickle.dumps({"not": "an outcome"}), "cell 2 holds a dict"),
            (pickle.dumps(("old", "layout", "tuple")), "cell 2 holds a tuple"),
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
        journal = read_journal(path)
        cells = dict(journal.cells)
        cells[2] = entry  # checksummed, so only the cell check sees it
        write_journal(path, cells, journal.run_key, journal.cells_total)
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
        position, _, start, end = record_spans(path)[1]
        _flip_byte(path, (start + end) // 2)  # inside a middle cell's bytes

        def no_unpickle(data):
            raise AssertionError("something was unpickled before the checksum")

        monkeypatch.setattr(pickle, "loads", no_unpickle)
        with pytest.raises(CheckpointError, match=f"corrupt: cell {position} "):
            run_cluster_checkpointed(
                plans, catalog.spec, path, resume=True, **self.KWARGS
            )


class TestJournal:
    """The append-only journal: torn tails, corruption, size, old files."""

    KWARGS = TestCheckpointedSweep.KWARGS
    PAIRS = TestPerCellLayout.PAIRS

    def _full_run(self, catalog, tmp_path, **kwargs):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        result = run_cluster_checkpointed(
            plans, catalog.spec, path, engine="object", **self.KWARGS,
            **kwargs,
        )
        return plans, path, result

    @pytest.mark.parametrize("damage", ["cut", "flip"])
    def test_torn_tail_reruns_only_that_cell(
        self, catalog, tmp_path, monkeypatch, damage
    ):
        plans, path, full = self._full_run(catalog, tmp_path)
        clean_file = path.read_bytes()
        position, _, start, end = record_spans(path)[-1]
        if damage == "cut":
            path.write_bytes(clean_file[:(start + end) // 2])  # mid-payload
        else:
            _flip_byte(path, end - 1)
        assert sorted(read_journal(path).cells) == [0, 1, 2]
        executed = []
        run_cell = cluster_module._run_cell
        monkeypatch.setattr(
            cluster_module, "_run_cell",
            lambda cell: executed.append(cell) or run_cell(cell),
        )
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, engine="object",
            **self.KWARGS,
        )
        assert position == 3
        assert len(executed) == 1
        assert _flatten(resumed) == _flatten(
            run_cluster(plans, catalog.spec, **self.KWARGS)
        )
        assert [pickle.dumps(o) for o in resumed.outcomes] == [
            pickle.dumps(o) for o in full.outcomes
        ]
        # The torn bytes were truncated and the cell's record re-written.
        assert path.read_bytes() == clean_file
        journal = read_journal(path)
        assert journal.cells_done == 4
        assert journal.intact_bytes == journal.file_bytes

    def test_v1_file_refused(self, catalog, tmp_path):
        path = _v1_file(tmp_path / "old.ckpt")
        with pytest.raises(CheckpointError, match="written by an older release"):
            read_journal(path)
        plans = _plans(catalog, self.PAIRS)
        with pytest.raises(CheckpointError, match="delete it and rerun"):
            run_cluster_checkpointed(
                plans, catalog.spec, path, resume=True, **self.KWARGS
            )
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["version"] == 1

    def test_file_size_is_header_plus_records(self, catalog, tmp_path):
        """Bytes written grow linearly: each cell's bytes and one line."""
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        run_cluster_checkpointed(plans, catalog.spec, path, **self.KWARGS)
        journal = read_journal(path)
        header = json.dumps({
            "magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
            "run_key": journal.run_key, "cells_total": 4,
            "placement": journal.placement,
        }, sort_keys=True)
        records = sum(
            len(json.dumps({
                "bytes": len(data), "cell": position,
                "sha256": hashlib.sha256(data).hexdigest(),
            }, sort_keys=True)) + 1 + len(data)
            for position, data in journal.cells.items()
        )
        assert path.stat().st_size == len(header) + 1 + records

    @pytest.mark.parametrize("every, saves", [(1, 4), (2, 2), (3, 2)])
    def test_saves_only_append(
        self, catalog, tmp_path, monkeypatch, every, saves
    ):
        """Every save keeps each earlier byte; no save is empty."""
        snapshots = []
        inodes = set()
        real_save = Checkpoint.save

        def recording_save(checkpoint):
            assert checkpoint.pending > 0
            returned = real_save(checkpoint)
            snapshots.append(returned.read_bytes())
            inodes.add(returned.stat().st_ino)
            return returned

        monkeypatch.setattr(Checkpoint, "save", recording_save)
        _, path, _ = self._full_run(catalog, tmp_path, checkpoint_every=every)
        assert len(snapshots) == saves
        assert len(inodes) == 1  # one file, grown in place, never replaced
        header_end = path.read_bytes().index(b"\n") + 1
        previous = path.read_bytes()[:header_end]
        for snapshot in snapshots:
            assert len(snapshot) > len(previous)
            assert snapshot.startswith(previous)
            previous = snapshot
        assert previous == path.read_bytes()

    def test_reader_of_a_half_written_record(self, tmp_path):
        """Every prefix of a journal loads: only whole records count."""
        cells = {2: bytes(range(97)), 0: b"x" * 150, 3: b"\n{" * 40}
        path = write_journal(tmp_path / "full.ckpt", cells)
        blob = path.read_bytes()
        ends = [span[3] for span in record_spans(path)]
        live = tmp_path / "live.ckpt"
        for cut in range(blob.index(b"\n") + 1, len(blob) + 1):
            live.write_bytes(blob[:cut])
            journal = read_journal(live)
            complete = sum(end <= cut for end in ends)
            assert list(journal.cells) == list(cells)[:complete]
            assert journal.intact_bytes == max(
                [end for end in ends if end <= cut],
                default=blob.index(b"\n") + 1,
            )

    def test_records_out_of_range_or_twice_refused(self, tmp_path):
        path = write_journal(tmp_path / "x.ckpt", {4: b"a"})
        with pytest.raises(CheckpointError, match="cell 4 outside"):
            read_journal(path)
        path = write_journal(tmp_path / "y.ckpt", {1: b"a"})
        with Checkpoint.reopen(read_journal(path)) as checkpoint:
            checkpoint.append(1, b"b")
            checkpoint.save()
        with pytest.raises(CheckpointError, match="records cell 1 twice"):
            read_journal(path)


class _UnbatchedPom(PowerOptimizedManager):
    """A POM subclass the batched core does not model: its cells fall
    back to the per-object oracle."""


@dataclass(frozen=True)
class UnbatchedPomFactory:
    model: object

    def __call__(self, server):
        return _UnbatchedPom(server, model=self.model)


class TestGroupCommit:
    """Cells that land together are committed with one fsync."""

    KWARGS = TestCheckpointedSweep.KWARGS
    PAIRS = TestPerCellLayout.PAIRS

    @pytest.fixture()
    def saves(self, monkeypatch):
        """The number of cells each ``Checkpoint.save`` committed."""
        committed = []
        real_save = Checkpoint.save

        def counting_save(checkpoint):
            committed.append(checkpoint.pending)
            return real_save(checkpoint)

        monkeypatch.setattr(Checkpoint, "save", counting_save)
        return committed

    def test_batched_run_is_one_save(self, catalog, tmp_path, saves):
        plans = _plans(catalog, self.PAIRS)
        path = tmp_path / "sweep.ckpt"
        result = run_cluster_checkpointed(
            plans, catalog.spec, path, engine="batched", checkpoint_every=1,
            **self.KWARGS,
        )
        assert saves == [4]
        cells = read_journal(path).cells
        assert [cells[i] for i in range(4)] == [
            pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL)
            for o in result.outcomes
        ]

    def test_fallback_cell_finds_earlier_cells_committed(
        self, catalog, tmp_path, monkeypatch, saves
    ):
        plans = _plans(catalog, self.PAIRS)
        plans[1] = replace(plans[1], manager_factory=UnbatchedPomFactory(
            plans[1].manager_factory.model
        ))
        path = tmp_path / "sweep.ckpt"
        planned, _ = cluster_module.plan_cluster_tasks(
            Sweep(plans, catalog.spec, **self.KWARGS)
        )
        position_of = {
            (cell.plan.lc_app.name, cell.level): k
            for k, cell in enumerate(planned)
        }
        seen = []
        run_cell = cluster_module._run_cell

        def recording(cell):
            position = position_of[(cell.plan.lc_app.name, cell.level)]
            committed = set(read_journal(path).cells) if path.exists() else set()
            seen.append((position, committed))
            return run_cell(cell)

        monkeypatch.setattr(cluster_module, "_run_cell", recording)
        result = run_cluster_checkpointed(
            plans, catalog.spec, path, engine="batched", checkpoint_every=1,
            **self.KWARGS,
        )
        fallbacks = [position for position, _ in seen]
        assert fallbacks == [
            k for k, cell in enumerate(planned) if cell.plan is plans[1]
        ]
        for position, committed in seen:
            assert committed == set(range(position)), position
        # One save per run of cells delivered between oracle cells.
        assert len(saves) == sum(p > 0 for p in fallbacks) + 1
        assert sum(saves) == 4
        want = run_cluster(plans, catalog.spec, engine="object", **self.KWARGS)
        assert [pickle.dumps(o) for o in result.outcomes] == [
            pickle.dumps(o) for o in want.outcomes
        ]


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
        faulted=st.booleans(),
        kill_after=st.integers(min_value=0, max_value=4),
        torn_bytes=st.integers(min_value=0, max_value=400),
    )
    def test_kill_and_resume_bit_identical(
        self, catalog, tmp_path_factory, seed, faulted, kill_after,
        torn_bytes,
    ):
        plans, kwargs = self._sweep(catalog, seed, faulted)
        path = tmp_path_factory.mktemp("ckpt") / "sweep.ckpt"
        # The oracle lands one record per cell, so every kill point
        # between records is reachable.
        run_cluster_checkpointed(
            plans, catalog.spec, path, engine="object", **kwargs
        )
        # Cut the journal back to the moment of the simulated crash: the
        # first ``kill_after`` records survived, plus up to
        # ``torn_bytes`` of the next one (never all of it).
        spans = record_spans(path)
        if kill_after < len(spans):
            _, start, _, end = spans[kill_after]
            blob = path.read_bytes()
            path.write_bytes(blob[:start + min(torn_bytes, end - start - 1)])
        resumed = run_cluster_checkpointed(
            plans, catalog.spec, path, resume=True, engine="object", **kwargs
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


_FSYNC_KILL_MAIN = _SWEEP_SNIPPET + """

if __name__ == "__main__":
    import os
    import signal
    import sys

    from repro.runtime import run_cluster_checkpointed

    real_fsync = os.fsync
    calls = []

    def fsync_or_die(fd):
        # The Nth fsync never happens: the process dies after the
        # record was written and flushed, before it was synced.
        calls.append(fd)
        if len(calls) == int(sys.argv[2]):
            os.kill(os.getpid(), signal.SIGKILL)
        real_fsync(fd)

    os.fsync = fsync_or_die
    plans, spec, kwargs = build_sweep()
    run_cluster_checkpointed(
        plans, spec, sys.argv[1], checkpoint_every=1, engine="object",
        **kwargs
    )
"""


class TestSigkillResume:
    """A real mid-flight SIGKILL, then an in-process resume."""

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        script = tmp_path / "child_sweep.py"
        script.write_text(_CHILD_MAIN)
        ckpt = tmp_path / "sweep.ckpt"
        with subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        ) as child:
            try:
                # Wait for at least one checkpointed cell, then pull the plug.
                deadline = time.monotonic() + 60.0
                progressed = False
                while time.monotonic() < deadline:
                    if child.poll() is not None:
                        break
                    if ckpt.exists() and read_journal(ckpt).cells_done >= 1:
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

        # The journal is loadable and partial.
        partial = read_journal(ckpt)
        assert 1 <= partial.cells_done < partial.cells_total

        namespace = {}
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, **kwargs
        )
        clean = run_cluster(plans, spec, **kwargs)
        assert _flatten(resumed) == _flatten(clean)
        assert read_journal(ckpt).cells_done == 6

    # The header write syncs the file and its directory (fsync calls 1
    # and 2); save k is call k + 2.
    @pytest.mark.parametrize("fatal_fsync", [3, 6])
    def test_sigkill_between_record_write_and_fsync(self, tmp_path, fatal_fsync):
        script = tmp_path / "fsync_kill.py"
        script.write_text(_FSYNC_KILL_MAIN)
        ckpt = tmp_path / "sweep.ckpt"
        child = subprocess.run(
            [sys.executable, str(script), str(ckpt), str(fatal_fsync)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr.decode(
            errors="replace"
        )
        # The unsynced record reached the file; the process died, not
        # the machine, so the page cache still holds it.
        partial = read_journal(ckpt)
        assert partial.cells_done == fatal_fsync - 2
        assert partial.intact_bytes == partial.file_bytes

        namespace = {}
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, **kwargs
        )
        clean = run_cluster(plans, spec, **kwargs)
        assert [pickle.dumps(o) for o in resumed.outcomes] == [
            pickle.dumps(o) for o in clean.outcomes
        ]
        assert read_journal(ckpt).cells_done == 6
