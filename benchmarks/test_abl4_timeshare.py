"""Ablation A4 — time-sharing schedulers for multiple BE apps (our addition).

Section V-G: multiple best-effort applications "can be scheduled to
time-share the server (e.g. first-come first-served, shortest job
first)".  This benchmark runs a canonical mix — one long training job
plus several short jobs — under FCFS, SJF and round-robin on a managed,
power-capped xapian server.

Expected shape: identical makespan (work conservation), SJF with the
lowest mean response time, round-robin in between, and the LC SLO held
throughout the job swaps.

The emitted table is a committed golden snapshot — see
``tests/test_golden_reports.py`` and ``repro.evaluation.reports``.
"""

from repro.evaluation.reports import render_timeshare
from repro.evaluation.sharing import compare_schedulers


def test_abl4_timeshare(benchmark, emit, catalog):
    rows_data = benchmark.pedantic(
        compare_schedulers, args=(catalog,), rounds=1, iterations=1
    )

    emit("abl4_timeshare", render_timeshare(rows_data))

    by_name = {r.scheduler: r for r in rows_data}
    assert all(r.all_done for r in rows_data)
    assert by_name["sjf"].mean_response_time_s < by_name["fcfs"].mean_response_time_s
    makespans = {round(r.makespan_s, 1) for r in rows_data}
    assert max(makespans) - min(makespans) <= 5.0  # work conservation
    assert all(r.slo_violation_fraction < 0.05 for r in rows_data)
