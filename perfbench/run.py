"""Benchmark of the Pocolo cluster simulator, one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_wide --seed 1 --seconds 20 --trace 0

Workloads are defined in ``scenarios.py`` (``fleet_wide``,
``policy_eval``, ``fleet_run``); ``BASELINE.md`` maps each layer metric
to the end-to-end metric and workload it should move.

Each run sets up the workload several times (catalog fit, seeded
inputs, one untimed warm iteration, caches cleared in between), times
iterations for ``--seconds``, then re-runs a fixed sample of cells on
the other engine and requires bit-identical outcomes.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` alternates untraced
iterations with traced ones, which run with spans around every layer
boundary, and reports per-layer self times and counts plus the tracing
overhead.

End-to-end times are in *baseline-host seconds*.  A fixed pure-Python
reference loop is timed next to every set-up and iteration, and each
host time is multiplied by ``REF_BASELINE_S`` / (its reference time).
Host speed on a shared VM drifts by tens of percent over minutes; the
rescaling cancels most of that drift, while a change to the program
moves the rescaled time as much as the raw one.  The times as measured
are printed beside the metrics and kept in the run summary.  Per-layer
times are as measured.

Load comes from this one process: ``workers=1``, no pool, no threads.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 on a mismatch or a raising cell, and 2 when
the program under test cannot be found.  Generated files go to
``.perfbench_out/`` at the repository root: a JSON summary per run
(host context included) and, for traced runs, the spans as ``.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed iterations, however long one takes.
MIN_ITERATIONS = 3
#: The canonical catalog seed used across the repository.
CATALOG_SEED = 7
#: Iterations of the reference loop that measures host speed.
REF_LOOP = 50_000
#: Reference-loop host time on the baseline host (see ``BASELINE.md``);
#: end-to-end times are rescaled to it.
REF_BASELINE_S = 0.004
#: Reference-loop sampling after each iteration, as a share of its time.
REF_SHARE = 0.1

#: Per-layer self time: metric name -> span name.
LAYER_SECONDS = {
    "engine.batched.collect_s": "engine.batched.collect",
    "engine.batched.init_s": "engine.batched.init",
    "engine.batched.dispatch_s": "engine.batched.dispatch",
    "engine.batched.step_s": "engine.batched.step",
    "sim.colocation.run_s": "sim.colocation.run",
    "core.server_manager.control_s": "core.server_manager.control",
    "hwmodel.capping.step_s": "hwmodel.capping.step",
    "hwmodel.meter.sample_s": "hwmodel.meter.sample",
    "engine.parallel.map_ordered_s": "engine.parallel.map_ordered",
    "solvers.assign_s": "solvers.assign",
    "core.placement.matrix_s": "core.placement.matrix",
    "runtime.checkpoint_save_s": "runtime.checkpoint_save",
    "guard.ledger_write_s": "guard.ledger_write",
    "budget.plan_s": "budget.plan",
    "sim.cluster.plan_s": "sim.cluster.plan",
}

#: Per-layer call counts: metric name -> span name.
LAYER_CALLS = {
    "engine.batched.steps": "engine.batched.step",
    "sim.colocation.runs": "sim.colocation.run",
    "core.server_manager.control_steps": "core.server_manager.control",
    "hwmodel.capping.steps": "hwmodel.capping.step",
    "hwmodel.meter.samples": "hwmodel.meter.sample",
    "solvers.assign_calls": "solvers.assign",
    "runtime.checkpoint_saves": "runtime.checkpoint_save",
}

#: Counters recorded at layer boundaries or read from the result.
LAYER_COUNTERS = (
    "engine.batched.lanes", "runtime.checkpoint_bytes", "sim.cluster.cells",
    "guard.checks", "guard.violations", "faults.replacements",
    "faults.degraded_cells",
)


def host_context() -> Dict[str, Any]:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def reference_s(budget_s: float) -> float:
    """Median host time of a fixed pure-Python loop, sampled for ``budget_s``.

    Host speed on a shared VM drifts by tens of percent over minutes.
    The loop measures it next to every set-up and iteration; dividing
    their times by it cancels most of that drift (see
    :func:`baseline_seconds`).  The loop calls nothing in the program,
    so program changes do not move it.
    """
    samples: List[float] = []
    begin = perf_counter()
    while len(samples) < 3 or perf_counter() - begin < budget_s:
        start = perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def set_up(workload_cls: Any, seed: int, workdir: Path) -> Dict[str, Any]:
    """Set the workload up ``SETUPS`` times from cold caches; keep the last."""
    from repro.engine import clear_engine_caches
    from repro.evaluation.pipeline import fit_catalog

    setup_s: List[float] = []
    setup_refs: List[float] = []
    fit_s: List[float] = []
    ref_before = reference_s(0.0)
    for _ in range(SETUPS):
        workload = warm = None
        clear_engine_caches()
        start = perf_counter()
        catalog = fit_catalog(seed=CATALOG_SEED)
        fitted = perf_counter()
        workload = workload_cls(catalog, seed, workdir)
        warm = workload.run()
        setup_s.append(perf_counter() - start)
        fit_s.append(fitted - start)
        ref_after = reference_s(REF_SHARE * setup_s[-1])
        setup_refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
    return {
        "workload": workload,
        "setup_s": setup_s,
        "setup_refs": setup_refs,
        "fit_s": fit_s,
        "sim": workload.sim(warm),
        "cells": len(workload.outcomes(warm)),
        "sim_seconds": workload.sim_seconds(warm),
        "counts": workload.counts(warm),
    }


def baseline_seconds(host_s: float, ref_s: float) -> float:
    """``host_s`` rescaled to a host whose reference loop takes REF_BASELINE_S."""
    return host_s / ref_s * REF_BASELINE_S


def timed_phase(workload: Any, seconds: float, ref: Dict[str, Any],
                tracer: Optional[Any] = None) -> Dict[str, Any]:
    """Time iterations until the next one would overrun ``seconds``.

    The reference loop is sampled between iterations; each untraced
    iteration is paired with the mean of the samples on either side.
    With a ``tracer``, untraced and traced iterations alternate (layer
    spans are installed around the traced ones only), so both see the
    same host conditions and their difference is the tracing overhead.
    Each iteration's simulated results must repeat the warm iteration's
    exactly; an iteration that raises or drifts fails all of its cells.
    """
    from spans import ROOT_SPAN, install_layer_spans

    times: List[float] = []
    refs: List[float] = []
    traced_times: List[float] = []
    failed = 0
    ref_before = reference_s(0.0)
    while True:
        trace_this = tracer is not None and len(traced_times) < len(times)
        result = None
        try:
            if trace_this:
                install_layer_spans(tracer)
                frame = tracer.enter(ROOT_SPAN)
            start = perf_counter()
            try:
                result = workload.run()
            finally:
                elapsed = perf_counter() - start
                if trace_this:
                    tracer.exit(frame)
                    tracer.restore()
        except Exception as exc:  # a raising cell is a counted failure
            print(f"iteration raised: {exc!r}", file=sys.stderr)
            failed += ref["cells"]
            break
        ref_after = reference_s(REF_SHARE * elapsed)
        if trace_this:
            traced_times.append(elapsed)
        else:
            times.append(elapsed)
            refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if workload.sim(result) != ref["sim"]:
            print("simulated results changed between iterations", file=sys.stderr)
            failed += ref["cells"]
        done = times + traced_times
        enough = min(len(times), len(traced_times) if tracer else len(times))
        if enough >= MIN_ITERATIONS and sum(done) + statistics.median(done) > seconds:
            break
    return {"times": times, "refs": refs, "traced_times": traced_times,
            "failed": failed, "result": result}


def end_to_end(ref: Dict[str, Any], phase: Dict[str, Any], rss_mb: float,
               attempted: int, failed: int) -> Dict[str, float]:
    """The end-to-end metrics; times are in baseline-host seconds."""
    iter_s = statistics.median(
        baseline_seconds(t, r) for t, r in zip(phase["times"], phase["refs"]))
    be, power, slo = ref["sim"]
    return {
        "setup_s": statistics.median(
            baseline_seconds(t, r) for t, r in zip(ref["setup_s"], ref["setup_refs"])),
        "iter_s_p50": iter_s,
        "sim_s_per_host_s": ref["sim_seconds"] / iter_s,
        "peak_rss_mb": rss_mb,
        "cells_ok_frac": 1.0 - failed / attempted,
        "sim.be_throughput": be,
        "sim.power_utilization": power,
        "sim.slo_attainment": 1.0 - slo,
    }


def host_seconds(ref: Dict[str, Any], phase: Dict[str, Any]) -> Dict[str, float]:
    """The same times as measured on this host, not rescaled."""
    times = phase["times"]
    return {
        "setup_s": statistics.median(ref["setup_s"]),
        "iter_s_p50": statistics.median(times),
        "sim_s_per_host_s": ref["sim_seconds"] / statistics.median(times),
        "ref_s_p50": statistics.median(phase["refs"]),
    }


def per_layer(tracer: Any, ref: Dict[str, Any], phase: Dict[str, Any],
              pickle_bytes: int) -> Dict[str, float]:
    """Per-iteration self times and counts of the traced iterations."""
    from spans import ROOT_SPAN

    traced = phase["traced_times"]
    n = len(traced)
    metrics: Dict[str, float] = {}
    for metric, span in LAYER_SECONDS.items():
        metrics[metric] = tracer.per_call(span)[0] / n
    for metric, span in LAYER_CALLS.items():
        metrics[metric] = tracer.per_call(span)[1] / n
    counters = dict(tracer.counters)
    counters.update({k: v * n for k, v in ref["counts"].items()})
    for name in LAYER_COUNTERS:
        metrics[name] = counters.get(name, 0.0) / n
    cells = counters.get("engine.batched.cells", 0.0)
    metrics["engine.batched.lane_share"] = (
        counters.get("engine.batched.lanes", 0.0) / cells if cells else 0.0
    )
    metrics["result.pickle_bytes"] = float(pickle_bytes)
    metrics["evaluation.fit_catalog_s"] = statistics.median(ref["fit_s"])
    # sim_s_per_host_s untraced / traced - 1, from interleaved iterations.
    metrics["trace.overhead_frac"] = (
        sum(traced) / n / (sum(phase["times"]) / len(phase["times"])) - 1.0
    )
    metrics["trace.untraced_s"] = tracer.per_call(ROOT_SPAN)[0] / n
    metrics["trace.iteration_s"] = statistics.median(traced)
    return metrics


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def print_metrics(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are computed or "
            "declared in BENCHMARK.json, but not both")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_wide", "policy_eval", "fleet_run"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program not found: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from scenarios import WORKLOADS
    from spans import Tracer

    workload_cls = WORKLOADS[args.workload]
    host = host_context()
    print(f"workload {args.workload} (seed {args.seed}): {workload_cls.why}")
    print(f"host {json.dumps(host, sort_keys=True)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else None
    try:
        ref = set_up(workload_cls, args.seed, workdir)
        workload = ref["workload"]
        phase = timed_phase(workload, args.seconds, ref, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        iterations = len(phase["times"]) + len(phase["traced_times"])
        attempted = ref["cells"] * (iterations + (phase["failed"] > 0))
        failed = phase["failed"]
        last = phase["result"]
        if last is not None:
            try:
                checked, mismatches = workload.check(last)
            except Exception as exc:  # a raising check is a counted failure
                print(f"correctness check raised: {exc!r}", file=sys.stderr)
                checked, mismatches = 1, 1
            attempted += checked
            failed += mismatches
            if mismatches:
                print(f"correctness check: {mismatches} of {checked} cells "
                      "differ across engines", file=sys.stderr)
        correct = failed == 0
        metrics = end_to_end(ref, phase, rss_mb, attempted, failed)
        units = declared_units("end_to_end")
        print(f"end-to-end ({len(phase['times'])} timed iterations, "
              f"{ref['cells']} cells each; set-ups {ref['setup_s']!r}):")
        print_metrics(metrics, units)
        raw = host_seconds(ref, phase)
        print(f"  as measured here, not rescaled: {json.dumps(raw)}")
        print(f"  cells_failed_frac {failed / attempted!r} ({failed} of {attempted})")
        print(f"  sim.slo_violation_frac {ref['sim'][2]!r}")
        summary: Dict[str, Any] = {
            "workload": args.workload, "why": workload_cls.why,
            "seed": args.seed, "seconds": args.seconds, "host": host,
            "iterations_s": phase["times"], "refs_s": phase["refs"],
            "setups_s": ref["setup_s"],
            "end_to_end": metrics, "host_seconds": raw, "correct": correct,
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None and correct:
            pickle_bytes = len(pickle.dumps(last, protocol=pickle.HIGHEST_PROTOCOL))
            metrics = per_layer(tracer, ref, phase, pickle_bytes)
            units = declared_units("per_layer")
            print(f"per-layer ({len(phase['traced_times'])} traced iterations, "
                  f"per iteration; self times cover "
                  f"{sum(tracer.self_s.values()):.4f} of "
                  f"{sum(phase['traced_times']):.4f} traced seconds):")
            print_metrics(metrics, units)
            summary["traced_iterations_s"] = phase["traced_times"]
            summary["per_layer"] = metrics
            summary["spans"] = {
                name: {"self_s": tracer.self_s[name], "calls": tracer.calls[name]}
                for name in tracer.names
            }
            tracer.write(OUT_DIR / f"{stem}.npz")
        (OUT_DIR / f"{stem}.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
