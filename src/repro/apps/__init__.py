"""Application models: the paper's eight workloads as ground-truth surfaces.

Latency-critical (primary): img-dnn, sphinx, xapian, TPC-C (Table II).
Best-effort (secondary): LSTM, RNN, Graph/PageRank, pbzip2 (Section V-A).

The Pocolo pipeline never reads these surfaces directly — it profiles
them through noisy telemetry, exactly as the paper profiles real binaries.
"""

from repro.apps.base import (
    ApplicationProfile,
    PerformanceSurface,
    PowerSurface,
    measured,
    saturate,
)
from repro.apps.best_effort import BestEffortApp
from repro.apps.catalog import (
    BE_NAMES,
    LC_NAMES,
    NOCAP_PROVISIONED_W,
    REFERENCE_SPEC,
    XAPIAN_MOTIVATION_CAPACITY_W,
    best_effort_apps,
    derive_power_coefficients,
    latency_critical_apps,
    make_graph,
    make_img_dnn,
    make_lstm,
    make_pbzip,
    make_rnn,
    make_sphinx,
    make_tpcc,
    make_xapian,
)
from repro.apps.latency import LatencySlo, TailLatencyModel
from repro.apps.latency_critical import LatencyCriticalApp

__all__ = [
    "ApplicationProfile",
    "BE_NAMES",
    "BestEffortApp",
    "LC_NAMES",
    "LatencyCriticalApp",
    "LatencySlo",
    "NOCAP_PROVISIONED_W",
    "PerformanceSurface",
    "PowerSurface",
    "REFERENCE_SPEC",
    "TailLatencyModel",
    "XAPIAN_MOTIVATION_CAPACITY_W",
    "best_effort_apps",
    "derive_power_coefficients",
    "latency_critical_apps",
    "make_graph",
    "make_img_dnn",
    "make_lstm",
    "make_pbzip",
    "make_rnn",
    "make_sphinx",
    "make_tpcc",
    "make_xapian",
    "measured",
    "saturate",
]
