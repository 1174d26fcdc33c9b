"""Ablation A5 — temporal vs spatial sharing of the spare slice (our addition).

Section V-G leaves spatial sharing ("further partitioning of direct
resources and power") as future work.  This benchmark implements it:
graph + LSTM on the sphinx server, once round-robin time-shared and once
spatially partitioned by the utility-model optimizer.

Expected shape: spatial sharing wins for this *complementary* pair —
graph gets the cores it loves while LSTM simultaneously gets the ways it
loves, instead of each alternating over the whole (mismatched) slice —
and the partition visibly reflects the preference vectors.

The emitted table is a committed golden snapshot — see
``tests/test_golden_reports.py`` and ``repro.evaluation.reports``.
"""

from repro.evaluation.reports import render_sharing_modes
from repro.evaluation.sharing import compare_sharing_modes


def test_abl5_sharing_modes(benchmark, emit, catalog):
    result = benchmark.pedantic(
        compare_sharing_modes, args=(catalog,), rounds=1, iterations=1
    )

    emit("abl5_sharing_modes", render_sharing_modes(result))

    assert result.spatial_total > result.temporal_total
    graph_c, graph_w = result.spatial_allocations["graph"]
    lstm_c, lstm_w = result.spatial_allocations["lstm"]
    # The partition mirrors the preference vectors.
    assert graph_c > lstm_c
    assert graph_c > graph_w or lstm_w > lstm_c
