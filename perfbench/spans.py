"""In-memory span tracer wrapped around the program's layer boundaries.

The benchmark never edits the program: :class:`Tracer` wraps public
functions and methods of ``repro`` modules at run time (and restores
them afterwards), recording one span per call: name, start, end and
parent span.  A layer's *self time* is its span's duration minus the
time covered by its child spans, so the self times of every layer plus
the root span's remainder add up to the traced wall time exactly.

Spans are kept in flat ``array`` columns (a policy sweep records a few
hundred thousand of them) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counter hook: (call args, call kwargs, return value) -> {counter: increment}.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]

ROOT_SPAN = "bench.iteration"


class Tracer:
    """Records nested spans and per-name counters, single-threaded."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        # Open spans: [span index, name, start, time covered by children].
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        return self._name_ids[name]

    def enter(self, name: str) -> List[Any]:
        """Open a span; returns the frame :meth:`exit` closes."""
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        frame = [index, name, now, 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: List[Any]) -> None:
        """Close the innermost span (which must be ``frame``)."""
        now = perf_counter()
        index, name, started, covered = self._stack.pop()
        if index != frame[0]:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = now - started
        self.end[index] = now
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        """``fn`` with a span around every call.

        A call made directly inside a span of the same name (a subclass
        method calling ``super()``, a sweep nested in a sweep) joins the
        outer span instead of opening its own, so call counts stay per
        logical call and self time is unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    for key, amount in counter(args, kwargs, result).items():
                        tracer.count(key, amount)
                return result
            finally:
                tracer.exit(frame)

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              counter: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def patch_function(self, fn: Callable, name: str,
                       counter: Optional[Counter] = None) -> None:
        """Trace module-level ``fn`` under every name ``repro`` binds it to.

        Modules that imported the function by name hold their own
        reference, so each loaded ``repro`` module attribute that *is*
        ``fn`` is replaced; call-time imports read the defining module,
        which is patched too.
        """
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name, counter)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def per_call(self, name: str) -> Tuple[float, int]:
        """Total self time and call count recorded under ``name``."""
        return self.self_s.get(name, 0.0), self.calls.get(name, 0)

    def write(self, path: Path) -> None:
        """Write every span as ``.npz`` columns (names indexed by name_id)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _lanes(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, float]:
    return {"engine.batched.lanes": len(args[1])}


def _batched_cells(args: tuple, kwargs: dict, _result: Any) -> Dict[str, float]:
    tasks = args[0] if args else kwargs["tasks"]
    return {"engine.batched.cells": len(tasks)}


def _planned_cells(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, float]:
    return {"sim.cluster.cells": len(result[0])}


def _checkpoint_bytes(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, float]:
    return {"runtime.checkpoint_bytes": os.path.getsize(result)}


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Checkpoint file sizes are read inside the save span (one ``stat``
    per save), so they are charged to the checkpoint layer.
    """
    import repro.engine.batched as batched
    import repro.guard.ledger as ledger
    from repro.budget.arbiter import plan_budget
    from repro.core.placement import build_performance_matrix
    from repro.core.server_manager import ServerManagerBase
    from repro.engine.parallel import map_ordered
    from repro.faults.meter import FaultyPowerMeter
    from repro.hwmodel.capping import PowerCapController
    from repro.hwmodel.meter import PowerMeter
    from repro.runtime.checkpoint import Checkpoint
    from repro.sim.cluster import plan_cluster_tasks
    from repro.sim.colocation import ColocationSim
    from repro.solvers.assignment import assign_max

    sim_cls = batched.BatchedClusterSim
    tracer.patch(sim_cls, "__init__", "engine.batched.init", _lanes)
    tracer.patch(sim_cls, "step", "engine.batched.step")
    tracer.patch(sim_cls, "collect", "engine.batched.collect")
    tracer.patch_function(batched.run_batched_cells, "engine.batched.dispatch",
                          _batched_cells)
    tracer.patch(ColocationSim, "run", "sim.colocation.run")
    tracer.patch(ServerManagerBase, "control_step", "core.server_manager.control")
    tracer.patch(PowerCapController, "step", "hwmodel.capping.step")
    tracer.patch(PowerMeter, "sample", "hwmodel.meter.sample")
    tracer.patch(FaultyPowerMeter, "sample", "hwmodel.meter.sample")
    tracer.patch_function(map_ordered, "engine.parallel.map_ordered")
    tracer.patch_function(assign_max, "solvers.assign")
    tracer.patch_function(build_performance_matrix, "core.placement.matrix")
    tracer.patch(Checkpoint, "save", "runtime.checkpoint_save", _checkpoint_bytes)
    tracer.patch_function(ledger.write_ledger, "guard.ledger_write")
    tracer.patch_function(plan_budget, "budget.plan")
    tracer.patch_function(plan_cluster_tasks, "sim.cluster.plan", _planned_cells)
