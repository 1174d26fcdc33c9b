"""Deterministic fan-out for independent simulation cells.

Every cell the cluster sweep runs — one (server plan, load level)
steady-state colocation — is a pure function of its explicit arguments:
the RNG is constructed inside the cell from the seed carried by its
:class:`~repro.sim.colocation.SimConfig`, never inherited from ambient
state.  That makes the sweep embarrassingly parallel *and* exactly
reproducible:

* **ordered collection** — results come back in submission order no
  matter which worker finishes first, so aggregates see the same
  sequence the serial loop produces;
* **explicit seed threading** — each task carries its own config (and
  therefore its seed) across the process boundary; workers share no
  RNG;
* **serial fallback** — ``workers=1`` runs the exact same
  ``[fn(*t) for t in tasks]`` loop the pre-engine code ran, not a pool
  of one.

Deduplicating identical cells is the cluster sweep's job
(:attr:`repro.sim.cluster.Cell.key`), not this module's: here every
task runs.

Failures carry context: a task that raises is re-raised as
:class:`~repro.errors.ExecutionError` naming the failing task's index
and arguments, so a mid-batch death points at the exact (plan, level)
cell instead of an anonymous traceback.

:class:`SupervisedPool` is the one pool primitive, and
:func:`map_ordered` is a call into it.  It adds *crash supervision*: worker
deaths (SIGKILL, OOM, a hung task) break a ``ProcessPoolExecutor``
permanently, so the supervisor rebuilds the pool with capped
exponential backoff and re-submits only the tasks whose results were
lost — and after repeated failures degrades to ``workers=1``, trading
speed for certain completion.  Deterministic task exceptions are never
retried (a pure function fails the same way twice); only infrastructure
failures are.  See ``docs/RECOVERY.md``.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigError, ExecutionError

T = TypeVar("T")

#: A hashable identity for one cell; cells with equal keys must be
#: guaranteed (by the caller) to produce equal results.
CellKey = Hashable

#: Called as results land: ``on_result(task_index, result)``.  Indices
#: arrive in submission order within a batch, so a checkpointing caller
#: always persists a consistent prefix plus stragglers.
ResultHook = Optional[Callable[[int, T], None]]

_ARG_REPR_LIMIT = 80


def _summarize_task(task: Tuple) -> str:
    """A bounded, human-oriented rendering of one task's arguments."""
    parts = []
    for arg in task:
        text = repr(arg)
        if len(text) > _ARG_REPR_LIMIT:
            text = text[: _ARG_REPR_LIMIT - 1] + "…"
        parts.append(text)
    return "(" + ", ".join(parts) + ")"


#: An unindented ``SomeError: message`` line in a formatted traceback.
_EXC_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*): (.+)$", re.MULTILINE)


def _remote_root_cause(remote: BaseException) -> Optional[Tuple[str, str]]:
    """Recover the worker's root cause from a ``_RemoteTraceback``.

    Pickling strips ``__cause__`` chains from pooled results, but the
    executor's synthetic ``_RemoteTraceback`` carries the worker's full
    formatted traceback, where a chained failure prints its root cause
    first and the surfaced exception last.  Returns ``(type_name,
    message)`` for the root, or ``None`` when the text shows no chain.
    """
    matches = _EXC_LINE.findall(str(remote))
    if len(matches) < 2 or matches[0] == matches[-1]:
        return None
    return matches[0]


def _root_cause(exc: BaseException) -> Optional[Tuple[str, str]]:
    """Walk ``__cause__``/``__context__`` to the originating exception.

    Returns ``(type_name, message)`` for the deepest chained exception,
    or ``None`` when ``exc`` is its own root.  A pooled exception's
    chain survives only as text inside the executor's synthetic
    ``_RemoteTraceback`` link, so reaching one hands off to
    :func:`_remote_root_cause`; cycles cannot loop the walk.
    """
    seen = {id(exc)}
    root: BaseException = exc
    while True:
        nxt = root.__cause__ if root.__cause__ is not None else root.__context__
        if nxt is None or id(nxt) in seen:
            break
        if type(nxt).__name__ == "_RemoteTraceback":
            return _remote_root_cause(nxt)
        seen.add(id(nxt))
        root = nxt
    if root is exc:
        return None
    return type(root).__name__, str(root)


def _task_failure(
    index: int, total: int, fn: Callable[..., T], task: Tuple, exc: Exception
) -> ExecutionError:
    """Wrap a deterministic task exception with its index and arguments.

    The message also names the *root cause* (the deepest chained
    exception) when it differs from ``exc`` — cause chains set with
    ``raise ... from`` deep inside a cell would otherwise be invisible
    in pooled runs, where pickling strips ``__cause__`` from results
    and only the ``_RemoteTraceback`` text remembers the chain.
    """
    message = (
        f"task {index} of {total} ({getattr(fn, '__name__', fn)!s}) raised "
        f"{type(exc).__name__}: {exc}; args={_summarize_task(task)}"
    )
    root = _root_cause(exc)
    if root is not None:
        name, text = root
        if len(text) > 2 * _ARG_REPR_LIMIT:
            text = text[: 2 * _ARG_REPR_LIMIT - 1] + "…"
        message += f" (root cause: {name}: {text})"
    return ExecutionError(message)


def _run_serial(
    fn: Callable[..., T],
    tasks: Sequence[Tuple],
    on_result: ResultHook[T] = None,
    indices: Optional[Sequence[int]] = None,
) -> List[T]:
    """The literal serial loop, with failure context and result hooks."""
    results: List[T] = []
    total = len(tasks)
    for position, task in enumerate(tasks):
        try:
            result = fn(*task)
        except Exception as exc:
            raise _task_failure(position, total, fn, task, exc) from exc
        results.append(result)
        if on_result is not None:
            index = indices[position] if indices is not None else position
            on_result(index, result)
    return results


def map_ordered(
    fn: Callable[..., T],
    tasks: Sequence[Tuple],
    workers: int = 1,
) -> List[T]:
    """Map ``fn`` over argument tuples, preserving order and determinism.

    ``workers=1`` is the plain serial loop.  ``workers>1`` fans the
    tasks out to a process pool; ``fn`` and every argument must be
    picklable (module-level functions, dataclasses — no closures).
    The pool is a default :class:`SupervisedPool`, so a worker death
    costs a pool rebuild, not the map.

    A task that raises is re-raised as
    :class:`~repro.errors.ExecutionError` whose message names the
    failing task's index and arguments (the original exception is
    chained as ``__cause__``).
    """
    return SupervisedPool(workers=workers).map_ordered(fn, tasks)


# ----------------------------------------------------------------------
# Crash supervision
# ----------------------------------------------------------------------

@dataclass
class SupervisorStats:
    """Counters describing how hard the supervisor had to work.

    Mirrors the degradation-counter convention of
    :class:`~repro.core.server_manager.ManagerStats` /
    :class:`~repro.hwmodel.capping.CapStats`: zero everywhere on a
    healthy run, and each nonzero field names the degradation that
    happened (see ``docs/RECOVERY.md``).
    """

    tasks_completed: int = 0
    pool_rebuilds: int = 0
    tasks_resubmitted: int = 0
    worker_timeouts: int = 0
    degraded_to_serial: int = 0
    backoff_s_total: float = 0.0


class SupervisedPool:
    """An ordered process-pool map that survives worker crashes.

    A ``ProcessPoolExecutor`` whose worker dies abruptly (SIGKILL, OOM
    kill, a segfaulting extension) is broken forever — every pending
    future raises :class:`BrokenProcessPool` and the whole sweep is
    lost.  The supervisor turns that into a bounded retry:

    * results already collected (or completed before the crash) are
      kept — only *lost* tasks are re-submitted;
    * the pool is rebuilt with capped exponential backoff
      (``backoff_base_s * 2**(attempt-1)``, capped at
      ``backoff_cap_s``);
    * a task exceeding ``task_timeout_s`` counts as a lost worker (the
      pool is rebuilt without it);
    * after ``max_rebuilds`` rebuilds the supervisor stops gambling and
      runs the remainder serially in-process (``workers=1`` semantics,
      no timeout) — completion over speed, recorded in
      ``stats.degraded_to_serial``.

    Deterministic task exceptions (the mapped function raising) are
    *not* supervised: a pure cell fails identically on every retry, so
    they propagate immediately as :class:`~repro.errors.ExecutionError`
    with the task's index and arguments.

    Determinism: results are assembled positionally, so the output list
    is bit-identical to the serial loop regardless of crashes, rebuild
    counts, or completion order.
    """

    def __init__(
        self,
        workers: int = 1,
        max_rebuilds: int = 3,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        task_timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        if max_rebuilds < 0:
            raise ConfigError("max_rebuilds cannot be negative")
        if backoff_base_s < 0 or backoff_cap_s < backoff_base_s:
            raise ConfigError("need 0 <= backoff_base_s <= backoff_cap_s")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigError("task timeout must be positive (or None)")
        self.workers = workers
        self.max_rebuilds = max_rebuilds
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.task_timeout_s = task_timeout_s
        self._sleep = sleep
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------
    def map_ordered(
        self,
        fn: Callable[..., T],
        tasks: Sequence[Tuple],
        on_result: ResultHook[T] = None,
    ) -> List[T]:
        """Run every task to completion, in submission order.

        ``on_result(index, result)`` fires once per task as its result
        becomes durable — the checkpoint hook.  Indices refer to
        positions in ``tasks``.
        """
        total = len(tasks)
        collected: Dict[int, T] = {}
        if self.workers == 1:
            results = _run_serial(fn, tasks, on_result=on_result)
            self.stats.tasks_completed += len(results)
            return results
        pending = list(range(total))
        rebuilds = 0
        while pending:
            lost = self._run_batch(fn, tasks, pending, collected, on_result)
            if not lost:
                break
            rebuilds += 1
            self.stats.pool_rebuilds += 1
            self.stats.tasks_resubmitted += len(lost)
            if rebuilds > self.max_rebuilds:
                # The pool keeps dying: stop gambling and finish the
                # remainder in-process, where nothing can be lost.
                self.stats.degraded_to_serial += 1
                serial_results = _run_serial(
                    fn,
                    [tasks[i] for i in lost],
                    on_result=on_result,
                    indices=lost,
                )
                for index, result in zip(lost, serial_results):
                    collected[index] = result
                    self.stats.tasks_completed += 1
                break
            backoff = min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** (rebuilds - 1)),
            )
            if backoff > 0:
                self.stats.backoff_s_total += backoff
                self._sleep(backoff)
            pending = lost
        return [collected[i] for i in range(total)]

    # ------------------------------------------------------------------
    def _run_batch(
        self,
        fn: Callable[..., T],
        tasks: Sequence[Tuple],
        pending: Sequence[int],
        collected: Dict[int, T],
        on_result: ResultHook[T],
    ) -> List[int]:
        """One pool generation; returns indices lost to a crash/timeout."""
        total = len(tasks)
        pool = ProcessPoolExecutor(max_workers=self.workers)
        futures: Dict[int, "Future[T]"] = {}
        broke = False
        try:
            for index in pending:
                try:
                    futures[index] = pool.submit(fn, *tasks[index])
                except BrokenProcessPool:
                    # A worker died before every task was submitted: the
                    # unsubmitted tasks are lost like the unfinished ones.
                    broke = True
                    break
            for index in [] if broke else pending:
                try:
                    result = futures[index].result(timeout=self.task_timeout_s)
                except BrokenProcessPool:
                    broke = True
                    break
                except FutureTimeoutError:
                    self.stats.worker_timeouts += 1
                    broke = True
                    break
                except Exception as exc:
                    raise _task_failure(
                        index, total, fn, tasks[index], exc
                    ) from exc
                self._collect(index, result, collected, on_result)
        finally:
            # A broken/hung pool must not be waited on; a healthy one
            # has nothing left running.
            pool.shutdown(wait=not broke, cancel_futures=True)
        if not broke:
            return []
        # Harvest results that finished before the crash — they are
        # real, deterministic values; only truly lost tasks re-run.
        lost: List[int] = []
        for index in pending:
            if index in collected:
                continue
            future = futures.get(index)
            if (
                future is not None
                and future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                self._collect(index, future.result(), collected, on_result)
            else:
                lost.append(index)
        return lost

    def _collect(
        self,
        index: int,
        result: T,
        collected: Dict[int, T],
        on_result: ResultHook[T],
    ) -> None:
        collected[index] = result
        self.stats.tasks_completed += 1
        if on_result is not None:
            on_result(index, result)
