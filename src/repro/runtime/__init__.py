"""Crash-safe execution runtime: atomic artifacts, checkpoints, resume.

A power-constrained cluster study is long-running and restartable by
nature; this package makes the *reproduction* share that property.
Three layers, each usable alone:

* :mod:`repro.runtime.atomic` — write-temp → fsync → rename helpers;
  every durable artifact the repo emits goes through them, so a crash
  can never leave a half-written JSON/Markdown behind (enforced by
  pocolint's POCO501 ``atomic-artifacts`` rule).  Its
  :class:`~repro.runtime.atomic.AppendOnlyFile` is the append-then-
  fsync file the checkpoint journal grows by.
* :mod:`repro.runtime.checkpoint` — an append-only checkpoint journal:
  an atomically written header (magic, version, run identity), then
  one record per cell carrying its own length and SHA-256.  Crash
  safety comes from those per-record hashes, not from a rename per
  save: a crash mid-append leaves a torn last record that the reader
  drops, and every record is checked before a single byte is
  unpickled.
* :mod:`repro.runtime.sweep` — the journaled execution behind
  :func:`~repro.sim.cluster.run_sweeps` when it is given a
  :class:`~repro.sim.cluster.Durability`: completed (plan, level)
  cells persist as they land and a resumed run re-executes only the
  missing ones, producing a **bit-identical**
  :class:`~repro.sim.cluster.ClusterRunResult`.
  :func:`run_cluster_checkpointed` is its keyword shim.

The recovery runbook is ``docs/RECOVERY.md``.
"""

from repro.runtime.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    Journal,
    read_journal,
)
from repro.runtime.sweep import run_cluster_checkpointed, sweep_run_key

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "Journal",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "read_journal",
    "run_cluster_checkpointed",
    "sweep_run_key",
]
