"""Execution engine: vectorized math, batched lanes and an ordered map.

The simulation and placement layers describe *what* to compute; this
package decides *how fast*.  Three mechanisms, all result-preserving:

* :mod:`repro.engine.vectorized` — the placement performance matrix
  (Fig 7 step II) computed with numpy broadcasting over the
  BE x LC x load-level cube instead of nested Python loops, bit-identical
  to the loop-based reference kept in :mod:`repro.core.placement`.
* :mod:`repro.engine.batched` — the structure-of-arrays core that
  advances every cell of a cluster sweep (``run_cluster``,
  ``run_sweeps``) together as numpy lanes, bit-identical to the
  per-object oracle that runs the same cells one at a time in-process.
* cell **deduplication** — replicated fleets (many servers sharing the
  same app/manager/provisioning template) run each distinct
  (plan, level) cell once and fan the outcome back out, which is exact
  because every cell is a pure function of its explicit inputs.

:mod:`repro.engine.parallel` holds :func:`map_ordered`, the in-process
ordered map the per-object engine runs its cells through and the guard
campaign its cases; a task that raises surfaces as
:class:`~repro.errors.ExecutionError` naming its index and arguments.

``tests/test_engine_differential.py`` and
``tests/test_batched_differential.py`` pin the equivalences;
``benchmarks/perf/`` tracks the speedups in ``BENCH_engine.json``.
"""

from repro.engine.parallel import CellKey, map_ordered
from repro.engine.select import ENGINES, default_engine, resolve_engine
from repro.engine.vectorized import (
    ModelGrid,
    build_performance_matrix_vectorized,
    cached_spare_capacity,
    clear_engine_caches,
    model_grid,
    predict_be_throughput_batch,
)

__all__ = [
    "CellKey",
    "ENGINES",
    "ModelGrid",
    "build_performance_matrix_vectorized",
    "cached_spare_capacity",
    "clear_engine_caches",
    "default_engine",
    "map_ordered",
    "model_grid",
    "predict_be_throughput_batch",
    "resolve_engine",
]
