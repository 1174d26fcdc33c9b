"""Fig 15 — amortized monthly datacenter TCO for the four policies.

Paper artifact: Hamilton-model TCO (100 000 servers, $1450/server, $9/W,
7 c/kWh, PUE 1.1) at constant delivered throughput: "Pocolo results in
12%, 16% and 8% lower TCO compared to Random(NoCap), Random and POM
respectively", with Random(NoCap) paying the most power-infrastructure
capex.

Shape to reproduce: POColo cheapest overall; POM second; NoCap pays the
highest infra bill.  (Our gaps are compressed — see EXPERIMENTS.md.)

Both emitted tables are committed golden snapshots — see
``tests/test_golden_reports.py`` and ``repro.evaluation.reports``.
"""

from repro.evaluation.reports import (
    fig15_evaluation,
    render_fig15_savings,
    render_fig15_tco,
)


def test_fig15_tco(benchmark, emit, catalog):
    ev = benchmark.pedantic(
        fig15_evaluation, args=(catalog,), rounds=1, iterations=1
    )

    emit("fig15_tco", render_fig15_tco(ev))
    emit("fig15_savings", render_fig15_savings(ev))

    totals = {name: b.total_usd for name, b in ev.breakdowns.items()}
    assert min(totals, key=totals.get) == "pocolo"
    assert totals["pom"] < totals["random"]
    assert (ev.breakdowns["random-nocap"].power_infra_usd
            > ev.breakdowns["random"].power_infra_usd)
    assert all(s > 0 for s in ev.savings_of_pocolo.values())
