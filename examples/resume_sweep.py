#!/usr/bin/env python3
"""Checkpoint a cluster sweep, kill it mid-flight, resume bit-identically.

The crash-safe runtime (`repro.runtime`, docs/RECOVERY.md) in one
self-contained drill:

1. **Clean run** — the reference sweep, uninterrupted.
2. **Killed run** — the same sweep with a checkpoint file, executed in
   a child process that is SIGKILLed as soon as the checkpoint shows
   progress (a real ``kill -9``, not an exception).
3. **Resume** — ``run_cluster_checkpointed(..., resume=True)`` reads
   the checkpoint journal, checks every record's SHA-256, drops a torn
   last record, re-runs only the missing cells, and the result matches
   the clean run float for float.

Run:  python examples/resume_sweep.py
"""

import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.evaluation.pipeline import HeraclesFactory
from repro.runtime import read_journal, run_cluster_checkpointed, sweep_run_key
from repro.sim.cluster import ServerPlan, Sweep, run_cluster
from repro.sim.colocation import SimConfig

LEVELS = [0.25, 0.5, 0.75]
DURATION_S = 150.0
CONFIG = SimConfig(seed=11)

#: The child process re-creates the identical sweep from this module.
_CHILD = f"""\
import sys
sys.path[:0] = {sys.path!r}
from examples.resume_sweep import build_plans, LEVELS, DURATION_S, CONFIG
from repro.apps import REFERENCE_SPEC
from repro.runtime import run_cluster_checkpointed

run_cluster_checkpointed(
    build_plans(), REFERENCE_SPEC, sys.argv[1], levels=LEVELS,
    duration_s=DURATION_S, config=CONFIG, resume=True, checkpoint_every=1,
    engine="object",  # lands cells one at a time, so the kill is mid-sweep
)
"""


def build_plans():
    """Two servers; content-addressable factories so run keys match."""
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    return [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in [("xapian", "rnn"), ("sphinx", "graph")]
    ]


def flatten(result):
    return [
        (o.lc_name, o.level, o.result.avg_be_throughput_norm,
         o.result.avg_power_w, o.result.energy_kwh)
        for o in result.outcomes
    ]


def main() -> None:
    plans = build_plans()
    kwargs = dict(levels=LEVELS, duration_s=DURATION_S, config=CONFIG)

    print("1. Clean reference run (uninterrupted)...")
    clean = run_cluster(plans, REFERENCE_SPEC, **kwargs)
    print(f"   {len(clean.outcomes)} cells, cluster BE throughput "
          f"{clean.cluster_be_throughput():.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "sweep.ckpt"
        print("2. Checkpointed run in a child process, SIGKILL mid-flight...")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(ckpt)],
            cwd=Path(__file__).resolve().parents[1],
        )
        while child.poll() is None:
            if ckpt.exists() and read_journal(ckpt).cells_done >= 1:
                child.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        child.wait()
        survived = read_journal(ckpt)
        print(f"   killed (exit {child.returncode}); checkpoint survived "
              f"{survived.cells_done}/{survived.cells_total} cells")
        print(f"   run key {survived.run_key[:16]}… == "
              f"{sweep_run_key(Sweep(plans, REFERENCE_SPEC, **kwargs))[:16]}…")

        print("3. Resuming from the checkpoint...")
        resumed = run_cluster_checkpointed(
            plans, REFERENCE_SPEC, ckpt, resume=True, **kwargs
        )

    identical = flatten(resumed) == flatten(clean)
    print(f"   resumed run bit-identical to clean run: {identical}")
    if not identical:
        raise SystemExit("resume drifted from the clean run")
    print("Crash-safe resume: OK")


if __name__ == "__main__":
    main()
