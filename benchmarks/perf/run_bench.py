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
import contextlib
import datetime
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import numpy as np

import perf_scenarios as sc
import repro.runtime.sweep as sweep_module
from repro.core.placement import _build_performance_matrix_reference
from repro.engine.vectorized import (
    build_performance_matrix_vectorized,
    clear_engine_caches,
)
from repro.guard.monitor import GuardMonitor
from repro.runtime.atomic import atomic_write_json
from repro.solvers.assignment import assign_max, birkhoff_lp
from repro.solvers.hungarian import tie_tolerance
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


def _cpu_timed(fn, *args, **kwargs):
    """Like :func:`_timed`, in this process's CPU seconds."""
    t0 = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.process_time() - t0


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


def bench_matrix(cat, replicas: int, reps: int = 5) -> dict:
    """Loop reference vs the vectorized matrix engine, cold and warm.

    Each arm keeps its minimum over ``reps`` interleaved reps; the cold
    arm clears the engine caches before every rep.
    """
    servers, be_models = sc.matrix_inputs(cat, replicas=replicas)
    n = 4 * replicas
    serial_s = cold_s = warm_s = float("inf")
    for _ in range(reps):
        reference, t = _timed(
            _build_performance_matrix_reference, servers, be_models, cat.spec
        )
        serial_s = min(serial_s, t)
        clear_engine_caches()
        cold, t = _timed(
            build_performance_matrix_vectorized,
            servers, be_models, cat.spec, levels=UNIFORM_EVAL_LEVELS,
        )
        cold_s = min(cold_s, t)
        warm, t = _timed(
            build_performance_matrix_vectorized,
            servers, be_models, cat.spec, levels=UNIFORM_EVAL_LEVELS,
        )
        warm_s = min(warm_s, t)
        assert np.array_equal(reference.values, cold.values), "vectorized != reference"
        assert np.array_equal(reference.values, warm.values), "warm != reference"
    return {
        "name": f"matrix_population_{n}x{n}",
        "description": (
            f"Placement performance matrix, {n} BE x {n} LC x "
            f"{len(UNIFORM_EVAL_LEVELS)} levels: loop reference vs "
            "numpy-vectorized engine (cold = grids + memoized spares "
            "built fresh; warm = caches populated); each arm the min over "
            f"{reps} interleaved reps"
        ),
        "mechanism": "vectorization",
        "serial_s": round(serial_s, 4),
        "engine_s": round(cold_s, 4),
        "engine_warm_s": round(warm_s, 4),
        "speedup": round(serial_s / cold_s, 2),
        "speedup_warm": round(serial_s / warm_s, 2),
        "identical_results": True,
    }


def bench_cluster(cat, n_servers: int, reps: int = 5) -> dict:
    """Serial per-object loop vs the default engine with cell dedupe.

    Both arms are timed in process CPU seconds (``time.process_time``),
    which other tenants of a shared host move far less than wall time.
    The engine arm keeps its minimum over ``reps`` runs of a few
    milliseconds each; the serial arm runs once, between the engine
    reps, so drift over the measurement reaches both arms.
    """
    plans = sc.fleet_plans(cat, n_servers)
    n_cells = n_servers * len(sc.SWEEP_LEVELS)
    engine = serial = None
    engine_s = serial_s = float("inf")
    for rep in range(reps):
        if rep == reps // 2:
            serial, serial_s = _cpu_timed(sc.run_fleet, cat, plans, engine="object")
        engine, t = _cpu_timed(sc.run_fleet, cat, plans, dedupe=True)
        engine_s = min(engine_s, t)
    assert _flat(serial) == _flat(engine), "dedupe != serial"
    return {
        "name": f"cluster_sweep_{n_servers}",
        "description": (
            f"run_cluster: {n_servers} servers (4 replicated plan "
            f"templates) x {len(sc.SWEEP_LEVELS)} load levels = "
            f"{n_cells} cells, {sc.SWEEP_DURATION_S:.0f}s cells; serial "
            "per-object loop vs the default engine with cell deduplication; "
            f"process CPU seconds, engine min over {reps} runs, serial once "
            "between them"
        ),
        "mechanism": "cell-dedupe",
        "serial_s": round(serial_s, 4),
        "engine_s": round(engine_s, 4),
        "speedup": round(serial_s / engine_s, 2),
        "cells": n_cells,
        "identical_results": True,
    }


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


#: Iterations of the pure-Python loop whose CPU time is the host-speed
#: unit of the guard and checkpoint gates (perfbench's reference loop).
REF_LOOP = 50_000


def _reference_cpu_s() -> float:
    """Median CPU seconds of three runs of a fixed pure-Python loop.

    The loop calls nothing in the program, so only the host's speed
    moves it; dividing a measured cost by it cancels most of the drift
    of a shared host.
    """
    samples = []
    for _ in range(3):
        start = time.process_time()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        samples.append(time.process_time() - start)
    return statistics.median(samples)


@contextlib.contextmanager
def _guard_monitor_cpu(spent: list):
    """Add the CPU seconds of every ``GuardMonitor.observe`` call to
    ``spent[0]``: the invariant evaluations a guarded cell adds per
    control tick."""
    real = GuardMonitor.observe

    def observe(self, sample):
        start = time.process_time()
        try:
            real(self, sample)
        finally:
            spent[0] += time.process_time() - start

    GuardMonitor.observe = observe
    try:
        yield
    finally:
        GuardMonitor.observe = real


def bench_guard_overhead(cat, n_servers: int = 10, reps: int = 9) -> dict:
    """Guarded vs unguarded cluster sweep; the invariant-monitor tax.

    The gated figure, ``hook_ref``, is the CPU time the guarded sweep
    spends in the monitor (``monitor_cpu_s``) in units of the reference
    loop's CPU time (``ref_cpu_s``), each the minimum over ``reps``
    interleaved reps: it moves with what the invariants cost, not with
    how fast the sweep around them runs, so a monitor that ignores its
    deep-check stride shows up here.  ``serial_s`` and ``engine_s`` are
    the unguarded and guarded arms' wall minima and ``overhead_pct``
    their ratio, recorded but not gated.  The guarded run must stay
    clean and produce identical floats — guards observe, never steer.
    Both arms run the per-object engine, the one the figure was first
    recorded on.
    """
    from repro.guard import GuardConfig

    plans = sc.fleet_plans(cat, n_servers)
    guard = GuardConfig()
    kwargs = dict(dedupe=True, engine="object")
    sc.run_fleet(cat, plans, **kwargs)  # warm model/grid caches
    plain_s = guarded_s = monitor_s = ref_s = float("inf")
    plain = guarded = None
    spent = [0.0]
    for _ in range(reps):
        ref_s = min(ref_s, _reference_cpu_s())
        plain, t = _timed(sc.run_fleet, cat, plans, **kwargs)
        plain_s = min(plain_s, t)
        spent[0] = 0.0
        with _guard_monitor_cpu(spent):
            guarded, t = _timed(sc.run_fleet, cat, plans, guard=guard, **kwargs)
        guarded_s = min(guarded_s, t)
        monitor_s = min(monitor_s, spent[0])
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
            f"{guard.deep_check_every}); hook_ref is the CPU seconds spent "
            "in GuardMonitor.observe over the CPU seconds of a "
            f"{REF_LOOP}-iteration reference loop, minima over {reps} "
            "interleaved reps; overhead_pct is the wall-clock ratio of the "
            "arms' minima"
        ),
        "mechanism": "guard-monitor",
        "serial_s": round(plain_s, 4),
        "engine_s": round(guarded_s, 4),
        "overhead_pct": overhead_pct,
        "monitor_cpu_s": round(monitor_s, 5),
        "ref_cpu_s": round(ref_s, 5),
        "hook_ref": round(monitor_s / ref_s, 3),
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
    ties.  The ratio of the two methods' per-arm minima over ``reps``
    interleaved reps cancels host speed.  Both methods return the
    canonical optimum, so the two assignments must be identical.
    """
    matrix = sc.placement_matrix(cat, copies)
    n = matrix.shape[0]
    lp_s = hungarian_s = float("inf")
    lp = hungarian = None
    for _ in range(reps):
        lp, t = _timed(assign_max, matrix, method="lp")
        lp_s = min(lp_s, t)
        hungarian, t = _timed(assign_max, matrix, method="hungarian")
        hungarian_s = min(hungarian_s, t)
    assert lp == hungarian, "LP and Hungarian assignments differ"
    return {
        "name": f"lp_assignment_{n}",
        "description": (
            f"assign_max on the {n}x{n} POColo matrix of the catalog "
            f"replicated x{copies}: Hungarian (serial_s) vs the simplex LP "
            f"(engine_s, which checks its optimum against the Hungarian "
            f"one); lp_over_hungarian is the ratio of per-arm minima "
            f"over {reps} interleaved reps"
        ),
        "mechanism": "sparse-pivot",
        "serial_s": round(hungarian_s, 4),
        "engine_s": round(lp_s, 4),
        "lp_over_hungarian": round(lp_s / hungarian_s, 2),
        "identical_results": True,
    }


def bench_canonical_assignment(cat, copies: int = 12, reps: int = 5) -> dict:
    """The default assignment against the simplex solve it replaced.

    ``serial_s`` is the Birkhoff-polytope simplex solve alone (the
    former default's work); ``engine_s`` is the default ``assign_max``:
    Hungarian plus tie canonicalisation, on the same replicated,
    tie-heavy fleet matrix.  The speedup is the ratio of per-arm minima
    over ``reps`` interleaved reps.  The LP's optimum must equal the
    canonical assignment's total.
    """
    matrix = sc.placement_matrix(cat, copies)
    n = matrix.shape[0]
    lp_s = canonical_s = float("inf")
    lp = canonical = None
    for _ in range(reps):
        lp, t = _timed(birkhoff_lp, matrix)
        lp_s = min(lp_s, t)
        canonical, t = _timed(assign_max, matrix)
        canonical_s = min(canonical_s, t)
    assert abs(lp.objective - canonical[1]) <= tie_tolerance(matrix), (
        "the canonical assignment is not optimal"
    )
    return {
        "name": f"canonical_assignment_{n}",
        "description": (
            f"assign_max on the {n}x{n} POColo matrix of the catalog "
            f"replicated x{copies}: the simplex LP solve alone (serial_s) "
            f"vs the default method, Hungarian plus tie canonicalisation "
            f"(engine_s); speedup is the ratio of per-arm minima over "
            f"{reps} interleaved reps"
        ),
        "mechanism": "hungarian-canonical",
        "serial_s": round(lp_s, 4),
        "engine_s": round(canonical_s, 4),
        "speedup": round(lp_s / canonical_s, 2),
        "identical_results": True,
    }


@contextlib.contextmanager
def _checkpoint_hook_cpu(spent: list):
    """Add the CPU seconds of every checkpoint result-hook call to ``spent[0]``.

    The hook is all a checkpointed sweep adds per delivered run of
    cells: pickling each cell, appending its record and the ``fsync``.
    """
    real = sweep_module._execute

    def execute(cells, engine, dedupe, completed, on_result=None):
        def hook(delivered):
            start = time.process_time()
            on_result(delivered)
            spent[0] += time.process_time() - start

        return real(cells, engine, dedupe, completed, hook)

    sweep_module._execute = execute
    try:
        yield
    finally:
        sweep_module._execute = real


def bench_checkpoint_overhead(
    cat, n_servers: int = 48, duration_s: float = 30.0, reps: int = 15
) -> dict:
    """Checkpointed vs plain batched sweep; the crash-safety tax.

    The checkpointed arm runs with ``checkpoint_every=1`` (the default):
    every cell is pickled once and appended as one record, and each run
    of cells the batched engine delivers together is committed with one
    ``fsync``.  The gated figure, ``hook_ref``, is the CPU time the
    sweep spends in its checkpoint hook (``hook_cpu_s``) in units of
    the reference loop's CPU time (``ref_cpu_s``), each the minimum over
    ``reps`` interleaved reps: it moves with what checkpointing costs,
    not with how fast the sweep around it runs, so a second pickling
    pass, an ``fsync`` per cell or a rewrite of every completed cell
    per save shows up here.  The journal is append-only and each arm
    starts it fresh, so its size after a sweep is every byte that sweep
    wrote to it (``bytes_written``).  Cells run ``duration_s`` (the
    fleet benchmark's length) so their telemetry, and with it the
    pickling, is the size a real sweep checkpoints.  ``serial_s`` and
    ``engine_s`` are the plain and checkpointed arms' wall minima.
    """
    plans = sc.fleet_plans(cat, n_servers)
    n_cells = n_servers * len(sc.SWEEP_LEVELS)
    kwargs = dict(duration_s=duration_s, engine="batched")
    sc.run_fleet(cat, plans, **kwargs)  # warm surface tables
    plain_s = checkpointed_s = hook_s = ref_s = float("inf")
    plain = checkpointed = None
    spent = [0.0]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sweep.ckpt"
        for _ in range(reps):
            ref_s = min(ref_s, _reference_cpu_s())
            plain, t = _timed(sc.run_fleet, cat, plans, **kwargs)
            plain_s = min(plain_s, t)
            spent[0] = 0.0
            with _checkpoint_hook_cpu(spent):
                checkpointed, t = _timed(
                    sc.run_fleet_checkpointed, cat, plans, path,
                    checkpoint_every=1, **kwargs,
                )
            checkpointed_s = min(checkpointed_s, t)
            hook_s = min(hook_s, spent[0])
        bytes_written = path.stat().st_size
    assert _flat(plain) == _flat(checkpointed), "checkpointed != plain"
    return {
        "name": f"checkpoint_overhead_{n_servers}",
        "description": (
            f"batched run_cluster: {n_servers} servers x "
            f"{len(sc.SWEEP_LEVELS)} levels = {n_cells} cells of "
            f"{duration_s:.0f}s, plain vs "
            "run_cluster_checkpointed with checkpoint_every=1 (one record "
            "per cell, one fsync per delivered run); hook_ref is the CPU "
            "seconds spent in the checkpoint result hook over the CPU "
            f"seconds of a {REF_LOOP}-iteration reference loop, minima over "
            f"{reps} interleaved reps; bytes_written is the journal's size "
            "after one sweep"
        ),
        "mechanism": "checkpoint",
        "serial_s": round(plain_s, 4),
        "engine_s": round(checkpointed_s, 4),
        "hook_cpu_s": round(hook_s, 4),
        "ref_cpu_s": round(ref_s, 5),
        "hook_ref": round(hook_s / ref_s, 2),
        "bytes_written": bytes_written,
        "cells": n_cells,
        "identical_results": True,
    }


#: Headroom of a call-count ceiling over the recorded count: a numpy or
#: Python release whose internals make a few more calls stays under it,
#: while a per-lane Python loop in ``step()`` breaks the equal-count
#: check, a lost solver memo (a solve per lane and tick) lands far above
#: the step ceiling, and a memo keyed by app name again (a table or
#: solve per renamed replica) far above the cold set-up one.
CALLS_HEADROOM = 1.1


def bench_step_calls() -> dict:
    """Profiled calls per ``BatchedClusterSim.step`` at two fleet sizes.

    Host-independent: counted in a fresh process with a fixed
    ``PYTHONHASHSEED`` (:func:`perf_scenarios.step_calls`), so the same
    tree gives the same count on any machine with the same Python and
    numpy.  The per-tick work of the batched core is flat in lanes, so
    both sizes must read the same count.
    """
    sizes = (100, 1000)
    counts = {n: sc.step_calls(n) for n in sizes}
    per_step = {n: c["calls"] / c["steps"] for n, c in counts.items()}
    return {
        "name": "batched_step_calls",
        "description": (
            "profiled calls inside BatchedClusterSim.step per control tick "
            f"of a batched run_cluster sweep ({len(sc.SWEEP_LEVELS)} "
            f"levels, {sc.SWEEP_DURATION_S:.0f}s cells, dedupe off, warm "
            "memos), counted under cProfile in a fresh process with "
            f"PYTHONHASHSEED=0 at {' and '.join(map(str, sizes))} servers; "
            "the gate requires equal counts at every size and at most "
            "ceiling calls per step"
        ),
        "mechanism": "work-count",
        **{f"calls_per_step_{n}": round(v, 1) for n, v in per_step.items()},
        "ceiling": round(max(per_step.values()) * CALLS_HEADROOM),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def bench_collect_calls() -> dict:
    """Profiled calls of ``BatchedClusterSim.__init__`` and ``collect``
    over a fleet sweep at two sizes.

    Host-independent like :func:`bench_step_calls`
    (:func:`perf_scenarios.collect_calls`).  ``collect`` fills numpy
    columns and builds no per-lane object, so both sizes must read the
    same count; the constructor reads each lane's plan, so its count
    grows with lanes and is held to a ceiling at the larger size.
    """
    sizes = (100, 1000)
    counts = {n: sc.collect_calls(n) for n in sizes}
    return {
        "name": "batched_collect_calls",
        "description": (
            "profiled calls inside BatchedClusterSim.collect and "
            "BatchedClusterSim.__init__ over one batched run_cluster sweep "
            f"({len(sc.SWEEP_LEVELS)} levels, {sc.SWEEP_DURATION_S:.0f}s "
            "cells, dedupe off, warm memos), counted under cProfile in a "
            "fresh process with PYTHONHASHSEED=0 at "
            f"{' and '.join(map(str, sizes))} servers; the gate requires "
            "equal collect counts at every size and at most ceiling "
            f"constructor calls at {sizes[-1]} servers"
        ),
        "mechanism": "work-count",
        **{f"collect_calls_{n}": c["collect"] for n, c in counts.items()},
        **{f"init_calls_{n}": c["init"] for n, c in counts.items()},
        "ceiling": round(counts[sizes[-1]]["init"] * CALLS_HEADROOM),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def bench_cold_setup_calls() -> dict:
    """Profiled calls of one cold placement and batched sweep of the
    catalog renamed ``perf_scenarios.RENAMED_COPIES`` times over.

    Host-independent like :func:`bench_step_calls`
    (:func:`perf_scenarios.cold_setup_calls`).  The memos are keyed by
    value, so the renamed replicas share every surface table, model
    grid and spare-capacity solve of the original catalog.
    """
    counted = sc.cold_setup_calls()
    return {
        "name": "cold_setup_calls",
        "description": (
            "profiled calls of one cold POColo placement plus batched "
            f"run_cluster sweep ({len(sc.SWEEP_LEVELS)} levels, "
            f"{sc.SWEEP_DURATION_S:.0f}s cells) of the catalog renamed "
            f"{sc.RENAMED_COPIES} times ({counted['servers']} servers), every engine "
            "memo cleared first, counted under cProfile in a fresh process "
            "with PYTHONHASHSEED=0; the gate requires at most ceiling calls"
        ),
        "mechanism": "work-count",
        "servers": counted["servers"],
        "calls": counted["calls"],
        "ceiling": round(counted["calls"] * CALLS_HEADROOM),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: Most the budget plan's profiled calls may grow from the fleet's
#: arbiter period to one four times denser.
BUDGET_PLAN_DENSITY_RATIO = 1.1


def bench_budget_plan_calls() -> dict:
    """Profiled calls of one ``plan_budget`` of the renamed 48-server
    fleet at two arbiter periods.

    Host-independent like :func:`bench_step_calls`
    (:func:`perf_scenarios.budget_plan_calls`).  The planner walks event
    to event, so the denser period reads the same count as the fleet's
    own; a per-tick walk makes about four times the calls there.
    """
    counted = sc.budget_plan_calls()
    calls = {float(period): n for period, n in counted["calls"].items()}
    return {
        "name": "budget_plan_calls",
        "description": (
            "profiled calls of one plan_budget of the POColo plans of the "
            f"catalog renamed {sc.RENAMED_COPIES} times ({counted['servers']} "
            f"servers, racks of 4, {len(sc.SWEEP_LEVELS)} levels x "
            f"{sc.BUDGET_PLAN_DURATION_S:.0f}s, {sc.BUDGET_PLAN_LEASE_S:.0f}s "
            "leases, one server crash, record-mode guard, no infra faults), "
            "counted under cProfile in a fresh process with PYTHONHASHSEED=0 "
            "at each arbiter period; the gate requires the denser period's "
            f"count within {BUDGET_PLAN_DENSITY_RATIO}x of the sparser one's "
            "and both at most ceiling"
        ),
        "mechanism": "work-count",
        "servers": counted["servers"],
        **{f"calls_period_{period:g}s": n for period, n in calls.items()},
        "ceiling": round(max(calls.values()) * CALLS_HEADROOM),
        "python": platform.python_version(),
        "numpy": np.__version__,
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
    scenarios.append(bench_canonical_assignment(cat))
    scenarios.append(bench_checkpoint_overhead(cat))
    scenarios.append(bench_step_calls())
    scenarios.append(bench_collect_calls())
    scenarios.append(bench_cold_setup_calls())
    scenarios.append(bench_budget_plan_calls())

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
        if "ceiling" in s:
            unit = "calls/step" if "calls_per_step_100" in s else "calls"
            print(f"{s['name']:28s} ceiling {s['ceiling']} {unit}")
            continue
        speedup = s.get("speedup")
        print(f"{s['name']:28s} engine {s['engine_s']:8.3f}s"
              + (f"  serial {s['serial_s']:8.3f}s  speedup {speedup:5.2f}x"
                 if speedup is not None else "")
              + (f"  overhead {s['overhead_pct']}%" if "overhead_pct" in s else "")
              + (f"  LP/Hungarian {s['lp_over_hungarian']}x"
                 if "lp_over_hungarian" in s else "")
              + (f"  checkpoint hook {s['hook_ref']} ref loops"
                 if "hook_ref" in s else ""))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
