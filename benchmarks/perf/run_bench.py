#!/usr/bin/env python
"""Time serial-vs-engine scenario pairs and emit ``BENCH_engine.json``.

This is the repo's perf trajectory: each entry records, for one
scenario, the serial wall time, the engine wall time, the speedup, and
which engine mechanism produced it (vectorization, cell deduplication,
the batched core, or the cost of a feature such as guards, budgets or
checkpoints).  "Serial" always names the per-object engine explicitly,
since the default engine is the batched one.  Every engine run is
checked against its serial twin before the timing is trusted — a
speedup over wrong results is not a speedup.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/run_bench.py --quick    # CI
    PYTHONPATH=src python benchmarks/perf/run_bench.py -o out.json

The full run includes the 1000-server sweep (tens of seconds of serial
baseline); ``--quick`` stops at 100 servers.  See ``docs/ENGINE.md``
for how to read and when to refresh the committed file.
"""

from __future__ import annotations

import argparse
import datetime
import os
import pathlib
import platform
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import numpy as np

import perf_scenarios as sc
from repro.core.placement import _build_performance_matrix_reference
from repro.engine.vectorized import (
    build_performance_matrix_vectorized,
    clear_engine_caches,
)
from repro.runtime.atomic import atomic_write_json
from repro.solvers.assignment import assign_max
from repro.workloads.traces import UNIFORM_EVAL_LEVELS


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _flat(result):
    return [
        (
            o.lc_name,
            o.be_name,
            o.level,
            o.result.avg_be_throughput_norm,
            o.result.avg_power_w,
            o.result.energy_kwh,
        )
        for o in result.outcomes
    ]


def bench_matrix(cat, replicas: int) -> dict:
    servers, be_models = sc.matrix_inputs(cat, replicas=replicas)
    n = 4 * replicas
    reference, serial_s = _timed(
        _build_performance_matrix_reference, servers, be_models, cat.spec
    )
    clear_engine_caches()
    cold, cold_s = _timed(
        build_performance_matrix_vectorized,
        servers, be_models, cat.spec, levels=UNIFORM_EVAL_LEVELS,
    )
    warm, warm_s = _timed(
        build_performance_matrix_vectorized,
        servers, be_models, cat.spec, levels=UNIFORM_EVAL_LEVELS,
    )
    assert np.array_equal(reference.values, cold.values), "vectorized != reference"
    assert np.array_equal(reference.values, warm.values), "warm != reference"
    return {
        "name": f"matrix_population_{n}x{n}",
        "description": (
            f"Placement performance matrix, {n} BE x {n} LC x "
            f"{len(UNIFORM_EVAL_LEVELS)} levels: loop reference vs "
            "numpy-vectorized engine (cold = grids + memoized spares "
            "built fresh; warm = caches populated)"
        ),
        "mechanism": "vectorization",
        "serial_s": round(serial_s, 4),
        "engine_s": round(cold_s, 4),
        "engine_warm_s": round(warm_s, 4),
        "speedup": round(serial_s / cold_s, 2),
        "speedup_warm": round(serial_s / warm_s, 2),
        "identical_results": True,
    }


def bench_cluster(cat, n_servers: int, serial_baseline: bool = True) -> dict:
    plans = sc.fleet_plans(cat, n_servers)
    n_cells = n_servers * len(sc.SWEEP_LEVELS)
    engine, engine_s = _timed(sc.run_fleet, cat, plans, dedupe=True)
    entry = {
        "name": f"cluster_sweep_{n_servers}",
        "description": (
            f"run_cluster: {n_servers} servers (4 replicated plan "
            f"templates) x {len(sc.SWEEP_LEVELS)} load levels = "
            f"{n_cells} cells, {sc.SWEEP_DURATION_S:.0f}s cells; serial "
            "per-object loop vs the default engine with cell deduplication"
        ),
        "mechanism": "cell-dedupe",
        "engine_s": round(engine_s, 4),
        "cells": n_cells,
        "identical_results": None,
    }
    if serial_baseline:
        serial, serial_s = _timed(sc.run_fleet, cat, plans, engine="object")
        entry["serial_s"] = round(serial_s, 4)
        entry["speedup"] = round(serial_s / engine_s, 2)
        entry["identical_results"] = _flat(serial) == _flat(engine)
        assert entry["identical_results"], "dedupe != serial"
    return entry


def bench_batched(cat, n_servers: int, reps: int = 3) -> dict:
    """Serial object loop vs the batched SoA core, dedupe off on both arms.

    This is the honest per-cell comparison: every one of the
    ``n_servers * levels`` cells is simulated by both engines (no cell
    deduplication assisting either side), and the batched results must
    be identical before the timing is trusted.  The batched arm keeps
    its value-keyed surface tables warm (built once per catalog), which
    is its steady-state operating point; the min over ``reps`` runs
    screens out scheduler noise.
    """
    plans = sc.fleet_plans(cat, n_servers)
    n_cells = n_servers * len(sc.SWEEP_LEVELS)
    serial, serial_s = _timed(sc.run_fleet, cat, plans, engine="object")
    sc.run_fleet(cat, sc.fleet_plans(cat, 10), engine="batched")
    batched = None
    batched_s = float("inf")
    for _ in range(reps):
        batched, t = _timed(sc.run_fleet, cat, plans, engine="batched")
        batched_s = min(batched_s, t)
    assert _flat(serial) == _flat(batched), "batched != serial"
    return {
        "name": f"batched_sweep_{n_servers}",
        "description": (
            f"run_cluster: {n_servers} servers x {len(sc.SWEEP_LEVELS)} "
            f"load levels = {n_cells} cells, {sc.SWEEP_DURATION_S:.0f}s "
            "cells; serial per-object loop vs the batched "
            "structure-of-arrays core (engine='batched'), dedupe "
            f"disabled on both arms; batched min over {reps} reps"
        ),
        "mechanism": "batched-soa",
        "serial_s": round(serial_s, 4),
        "engine_s": round(batched_s, 4),
        "speedup": round(serial_s / batched_s, 2),
        "cells": n_cells,
        "identical_results": True,
    }


def bench_guard_overhead(cat, n_servers: int = 10, reps: int = 9) -> dict:
    """Guarded vs unguarded cluster sweep; the invariant-monitor tax.

    Arms are interleaved and the per-arm minimum is kept, so scheduler
    noise cannot masquerade as guard overhead.  The guarded run must
    stay clean and produce identical floats — guards observe, never
    steer.  Both arms run the per-object engine, the one the committed
    figure was recorded on.
    """
    from repro.guard import GuardConfig

    plans = sc.fleet_plans(cat, n_servers)
    guard = GuardConfig()
    kwargs = dict(dedupe=True, engine="object")
    sc.run_fleet(cat, plans, **kwargs)  # warm model/grid caches
    plain_s = guarded_s = float("inf")
    plain = guarded = None
    for _ in range(reps):
        plain, t = _timed(sc.run_fleet, cat, plans, **kwargs)
        plain_s = min(plain_s, t)
        guarded, t = _timed(sc.run_fleet, cat, plans, guard=guard, **kwargs)
        guarded_s = min(guarded_s, t)
    assert _flat(plain) == _flat(guarded), "guarded != unguarded results"
    assert all(
        o.result.guard_report.clean for o in guarded.outcomes
    ), "healthy sweep must be violation-free"
    overhead_pct = round(100.0 * (guarded_s / plain_s - 1.0), 1)
    return {
        "name": f"guard_overhead_{n_servers}",
        "description": (
            f"object-engine run_cluster: {n_servers} servers x "
            f"{len(sc.SWEEP_LEVELS)} levels, unguarded vs guarded (record "
            "mode, all six invariants, deep_check_every="
            f"{guard.deep_check_every}); min over {reps} interleaved reps"
        ),
        "mechanism": "guard-monitor",
        "serial_s": round(plain_s, 4),
        "engine_s": round(guarded_s, 4),
        "overhead_pct": overhead_pct,
        "identical_results": True,
    }


def bench_budget_overhead(cat, engine: str) -> dict:
    """Budgeted vs unbudgeted cluster sweep; the budget-arbiter tax.

    The arbiter plans entirely ahead of execution, so its runtime cost
    is the plan-time tree walk plus a cap-schedule lookup per capper
    subtick.  Budgets need unique leaf names, so the fleet is the four
    distinct paper plans (no replicas).  Arms are interleaved and the
    per-arm minimum is kept; a dense arbiter period (0.5 s against 3 s
    cells) makes this a worst-case schedule, not a best case.  Both
    arms run on ``engine``: ``budget_overhead_4`` is the per-object
    engine's tax, ``budget_overhead_4_batched`` the batched engine's.
    A batched sweep takes a few milliseconds, so its minima need more
    reps to settle.
    """
    from repro.budget import BudgetConfig

    plans = sc.fleet_plans(cat, 4)
    budget = BudgetConfig(arbiter_period_s=0.5, lease_s=1.0, rack_size=2)
    reps = BUDGET_OVERHEAD_REPS[engine]
    sc.run_fleet(cat, plans, engine=engine)  # warm model/grid caches
    plain_s = budgeted_s = float("inf")
    budgeted = budgeted_again = None
    for _ in range(reps):
        _plain, t = _timed(sc.run_fleet, cat, plans, engine=engine)
        plain_s = min(plain_s, t)
        budgeted, t = _timed(
            sc.run_fleet, cat, plans, budget=budget, engine=engine
        )
        budgeted_s = min(budgeted_s, t)
        budgeted_again = budgeted_again or budgeted
    assert _flat(budgeted) == _flat(budgeted_again), "budgeted run drifted"
    overhead_pct = round(100.0 * (budgeted_s / plain_s - 1.0), 1)
    return {
        "name": BUDGET_OVERHEAD_NAMES[engine],
        "description": (
            f"{engine}-engine run_cluster: 4 distinct servers x "
            f"{len(sc.SWEEP_LEVELS)} levels, unbudgeted vs budget tree "
            "(racks of 2, 0.5s arbiter period, 1s leases); min over "
            f"{reps} interleaved reps"
        ),
        "mechanism": "budget-arbiter",
        "serial_s": round(plain_s, 4),
        "engine_s": round(budgeted_s, 4),
        "overhead_pct": overhead_pct,
        "identical_results": True,
    }


#: The BENCH entry recording each engine's budget-arbiter tax.
BUDGET_OVERHEAD_NAMES = {
    "object": "budget_overhead_4",
    "batched": "budget_overhead_4_batched",
}
#: Interleaved reps per arm of each engine's budget-overhead measurement.
BUDGET_OVERHEAD_REPS = {"object": 9, "batched": 25}


def bench_lp_assignment(cat, copies: int = 12, reps: int = 5) -> dict:
    """The simplex LP against the Hungarian solver on a fleet-size matrix.

    The matrix is the one the fleet's placement solves (the catalog
    replicated ``copies`` times), so the LP pivots through its many
    ties.  The ratio of the two solvers' per-arm minima over ``reps``
    interleaved reps cancels host speed.  Replicated columns are
    interchangeable, so the two assignments may pick different
    replicas; every row must get the same value from both.
    """
    matrix = sc.placement_matrix(cat, copies)
    n = matrix.shape[0]
    lp_s = hungarian_s = float("inf")
    lp = hungarian = None
    for _ in range(reps):
        (lp, _total), t = _timed(assign_max, matrix, method="lp")
        lp_s = min(lp_s, t)
        (hungarian, _total), t = _timed(assign_max, matrix, method="hungarian")
        hungarian_s = min(hungarian_s, t)
    row_values = [[matrix[i, j] for i, j in enumerate(a)] for a in (lp, hungarian)]
    assert row_values[0] == row_values[1], "LP and Hungarian assignments differ"
    return {
        "name": f"lp_assignment_{n}",
        "description": (
            f"assign_max on the {n}x{n} POColo matrix of the catalog "
            f"replicated x{copies}: Hungarian (serial_s) vs the simplex LP "
            f"(engine_s); lp_over_hungarian is the ratio of per-arm minima "
            f"over {reps} interleaved reps"
        ),
        "mechanism": "sparse-pivot",
        "serial_s": round(hungarian_s, 4),
        "engine_s": round(lp_s, 4),
        "lp_over_hungarian": round(lp_s / hungarian_s, 2),
        "identical_results": True,
    }


def bench_checkpoint_overhead(
    cat, n_servers: int = 48, duration_s: float = 30.0, reps: int = 5
) -> dict:
    """Checkpointed vs plain batched sweep; the crash-safety tax.

    The checkpointed arm saves after every cell (``checkpoint_every=1``,
    the default), so a return to re-pickling every completed cell per
    save shows up as a quadratic term here.  Cells run ``duration_s``
    (the fleet benchmark's length) so their telemetry, and with it the
    pickling, is the size a real sweep checkpoints.  Arms are
    interleaved and the per-arm minimum is kept.
    """
    plans = sc.fleet_plans(cat, n_servers)
    n_cells = n_servers * len(sc.SWEEP_LEVELS)
    kwargs = dict(duration_s=duration_s, engine="batched")
    sc.run_fleet(cat, plans, **kwargs)  # warm surface tables
    plain_s = checkpointed_s = float("inf")
    plain = checkpointed = None
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sweep.ckpt"
        for _ in range(reps):
            plain, t = _timed(sc.run_fleet, cat, plans, **kwargs)
            plain_s = min(plain_s, t)
            checkpointed, t = _timed(
                sc.run_fleet_checkpointed, cat, plans, path,
                checkpoint_every=1, **kwargs,
            )
            checkpointed_s = min(checkpointed_s, t)
    assert _flat(plain) == _flat(checkpointed), "checkpointed != plain"
    return {
        "name": f"checkpoint_overhead_{n_servers}",
        "description": (
            f"batched run_cluster: {n_servers} servers x "
            f"{len(sc.SWEEP_LEVELS)} levels = {n_cells} cells of "
            f"{duration_s:.0f}s, plain vs "
            "run_cluster_checkpointed saving after every cell; min over "
            f"{reps} interleaved reps"
        ),
        "mechanism": "checkpoint",
        "serial_s": round(plain_s, 4),
        "engine_s": round(checkpointed_s, 4),
        "overhead_pct": round(100.0 * (checkpointed_s / plain_s - 1.0), 1),
        "cells": n_cells,
        "identical_results": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the 1000-server sweep")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: <repo>/BENCH_engine.json)")
    args = parser.parse_args(argv)

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    out_path = pathlib.Path(args.output) if args.output else repo_root / "BENCH_engine.json"

    cat = sc.catalog()
    scenarios = [bench_matrix(cat, replicas=4)]
    for n_servers in (10, 100):
        scenarios.append(bench_cluster(cat, n_servers))
    if not args.quick:
        scenarios.append(bench_cluster(cat, 1000))
    scenarios.append(bench_batched(cat, 100))
    if not args.quick:
        scenarios.append(bench_batched(cat, 1000))
    scenarios.append(bench_guard_overhead(cat))
    for engine in BUDGET_OVERHEAD_NAMES:
        scenarios.append(bench_budget_overhead(cat, engine))
    scenarios.append(bench_lp_assignment(cat))
    scenarios.append(bench_checkpoint_overhead(cat))

    payload = {
        "schema": "pocolo-bench-engine/1",
        "generated": datetime.date.today().isoformat(),
        "generated_by": "benchmarks/perf/run_bench.py"
                        + (" --quick" if args.quick else ""),
        "context": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "cpus_usable": usable_cpus(),
        },
        "scenarios": scenarios,
    }
    atomic_write_json(out_path, payload)
    for s in scenarios:
        speedup = s.get("speedup")
        print(f"{s['name']:28s} engine {s['engine_s']:8.3f}s"
              + (f"  serial {s['serial_s']:8.3f}s  speedup {speedup:5.2f}x"
                 if speedup is not None else "")
              + (f"  overhead {s['overhead_pct']}%" if "overhead_pct" in s else "")
              + (f"  LP/Hungarian {s['lp_over_hungarian']}x"
                 if "lp_over_hungarian" in s else ""))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
