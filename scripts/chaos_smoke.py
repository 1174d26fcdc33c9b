#!/usr/bin/env python3
"""Chaos smoke: SIGKILL a checkpointed sweep at a random point, resume, diff.

CI's ``chaos-smoke`` job runs this on every push (docs/RECOVERY.md).
The drill:

1. run the reference sweep uninterrupted (in-process);
2. launch the same sweep with a checkpoint file in a subprocess and
   SIGKILL it once the checkpoint shows ``--kill-after`` completed
   cells (chosen from ``--seed`` by default, so every CI run kills at a
   different-but-reproducible point);
3. resume from the surviving checkpoint journal and compare every
   reported float to the clean run;
4. cut a copy of that journal inside its last record (a torn write,
   at a point chosen from ``--seed``), resume it too and compare again:
   the torn record must be dropped and its cell re-run.

The child and the clean run use the per-object engine, which lands
cells one at a time, so the kill falls mid-sweep; the resume runs on
the default (batched) engine, so the drill also crosses engines.

Exit 0: both resumed runs bit-identical. Exit 1: drift, an unusable
checkpoint, or a child that failed for any reason other than our kill.

Usage:  PYTHONPATH=src python scripts/chaos_smoke.py [--seed N]
"""

import argparse
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import (  # noqa: E402  (path bootstrap above)
    REFERENCE_SPEC,
    best_effort_apps,
    latency_critical_apps,
)
from repro.evaluation.pipeline import HeraclesFactory  # noqa: E402
from repro.runtime import read_journal  # noqa: E402
from repro.sim.cluster import (  # noqa: E402
    Durability,
    ServerPlan,
    Sweep,
    run_sweeps,
)
from repro.sim.colocation import SimConfig  # noqa: E402

LEVELS = [0.25, 0.5, 0.75]
DURATION_S = 150.0
CONFIG = SimConfig(seed=11)

_CHILD = f"""\
import sys
sys.path.insert(0, {str(REPO_ROOT / "src")!r})
sys.path.insert(0, {str(REPO_ROOT / "scripts")!r})
from chaos_smoke import build_sweep
from repro.sim.cluster import Durability, run_sweeps

run_sweeps(
    [build_sweep()], engine="object",
    durability=Durability(sys.argv[1], resume=True, checkpoint_every=1),
)
"""


def build_plans():
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


def build_sweep():
    return Sweep(build_plans(), REFERENCE_SPEC, LEVELS, DURATION_S, CONFIG)


def flatten(result):
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


def kill_mid_flight(ckpt: Path, kill_after: int, timeout_s: float) -> int:
    """Run the sweep in a child; SIGKILL it after ``kill_after`` cells."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt)], cwd=REPO_ROOT
    )
    deadline = time.monotonic() + timeout_s
    try:
        while child.poll() is None and time.monotonic() < deadline:
            if ckpt.exists() and read_journal(ckpt).cells_done >= kill_after:
                child.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    return child.returncode


def tear_last_record(ckpt: Path, torn: Path, rng: random.Random) -> int:
    """Copy ``ckpt`` to ``torn``, cut inside its last record's payload.

    Returns the planned position of the cell whose record is torn.
    """
    journal = read_journal(ckpt)
    position, data = list(journal.cells.items())[-1]
    cut = journal.intact_bytes - rng.randint(1, len(data))
    torn.write_bytes(ckpt.read_bytes()[:cut])
    return position


def report(label: str, clean_rows, resumed_rows) -> bool:
    """Print the verdict for one resumed run; True when bit-identical."""
    if resumed_rows == clean_rows:
        print(f"chaos-smoke: OK — {label} bit-identical to clean run")
        return True
    for index, (a, b) in enumerate(zip(clean_rows, resumed_rows)):
        if a != b:
            print(f"chaos-smoke: FAIL — {label}, cell {index} drifted:\n"
                  f"  clean:   {a}\n  resumed: {b}")
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the kill point (default 0)")
    parser.add_argument("--kill-after", type=int, default=None,
                        help="kill once this many cells are checkpointed "
                             "(default: random in [1, cells-1] from --seed)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="give up after this many seconds (default 300)")
    args = parser.parse_args(argv)

    sweep = build_sweep()
    cells = len(sweep.plans) * len(sweep.levels)
    rng = random.Random(args.seed)
    kill_after = args.kill_after
    if kill_after is None:
        kill_after = rng.randint(1, cells - 1)
    print(f"chaos-smoke: {cells} cells, killing after {kill_after} "
          f"(seed {args.seed})")

    clean = run_sweeps([sweep], engine="object")[0]

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "sweep.ckpt"
        returncode = kill_mid_flight(ckpt, kill_after, args.timeout)
        if returncode == 0:
            # The child outran the kill; the checkpoint is complete —
            # still a valid (if less adversarial) resume exercise.
            print("chaos-smoke: child completed before the kill landed")
        elif returncode != -signal.SIGKILL:
            print(f"chaos-smoke: FAIL — child died on its own "
                  f"(exit {returncode})")
            return 1
        if not ckpt.exists():
            print("chaos-smoke: FAIL — no checkpoint survived the kill")
            return 1
        journal = read_journal(ckpt)
        print(f"chaos-smoke: checkpoint survived with "
              f"{journal.cells_done}/{journal.cells_total} cells; resuming")
        torn = Path(tmp) / "torn.ckpt"
        position = tear_last_record(ckpt, torn, rng)
        resumed = run_sweeps([sweep], durability=Durability(ckpt, resume=True))[0]
        left = read_journal(torn).cells_done
        print(f"chaos-smoke: tore cell {position}'s record in a copy "
              f"({left} whole records left); resuming it")
        if left != journal.cells_done - 1:
            print("chaos-smoke: FAIL — the torn record was not dropped")
            return 1
        resumed_torn = run_sweeps(
            [sweep], durability=Durability(torn, resume=True)
        )[0]
        healed = read_journal(torn)
        if healed.intact_bytes != healed.file_bytes:
            print("chaos-smoke: FAIL — the torn tail survived the resume")
            return 1

    clean_rows = flatten(clean)
    ok = report("resumed run", clean_rows, flatten(resumed))
    ok &= report("torn-tail resume", clean_rows, flatten(resumed_torn))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
