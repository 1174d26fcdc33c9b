"""Tests for the engine's failure handling: error context + supervision.

Covers the two halves of crash-tolerant execution:

* ``map_ordered`` wraps a task exception in ``ExecutionError`` naming
  the failing task's index and arguments (serial and pooled paths);
* ``SupervisedPool`` survives SIGKILL'd workers and hung tasks by
  rebuilding the pool and re-submitting only the lost tasks, degrading
  to in-process serial execution when the pool keeps dying — with the
  result list always bit-identical to the unsupervised map.
"""

import os
import pathlib
import time
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import parallel
from repro.engine.parallel import SupervisedPool, SupervisorStats, map_ordered
from repro.errors import ConfigError, ExecutionError, ReproError


def double(x):
    return 2 * x


def boom(x):
    if x == 3:
        raise ValueError(f"cannot handle {x}")
    return x


def boom_chained(x):
    """Fail with a ``raise ... from`` chain, like a degraded cell does."""
    try:
        raise KeyError(f"stale-model-{x}")
    except KeyError as exc:
        raise ValueError("refit failed") from exc


def crash_once(x, flag_dir):
    """SIGKILL the hosting process the first time task 2 runs."""
    flag = pathlib.Path(flag_dir) / f"crashed-{x}"
    if x == 2 and not flag.exists():
        flag.write_text("dying\n")
        os.kill(os.getpid(), 9)
    return 10 * x


def crash_in_worker(x, parent_pid):
    """Die whenever executed outside the parent process."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), 9)
    return x + 100


def hang_once(x, flag_dir):
    """Sleep far past the timeout the first time task 1 runs."""
    flag = pathlib.Path(flag_dir) / f"hung-{x}"
    if x == 1 and not flag.exists():
        flag.write_text("hanging\n")
        time.sleep(30.0)
    return -x


class TestMapOrderedErrorContext:
    def test_serial_failure_names_index_and_args(self):
        with pytest.raises(ExecutionError, match=r"task 3 of 5.*boom.*ValueError.*args=\(3\)"):
            map_ordered(boom, [(i,) for i in range(5)])

    def test_pool_failure_names_index_and_args(self):
        with pytest.raises(ExecutionError, match=r"task 3 of 5.*args=\(3\)"):
            map_ordered(boom, [(i,) for i in range(5)], workers=2)

    def test_original_exception_is_chained(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,)])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_execution_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            map_ordered(boom, [(3,)])

    def test_long_arguments_are_truncated(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,), ("x" * 500,)])
        assert len(str(excinfo.value)) < 400

    def test_serial_failure_names_the_root_cause(self):
        with pytest.raises(
            ExecutionError,
            match=r"root cause: KeyError: 'stale-model-0'",
        ):
            map_ordered(boom_chained, [(0,)])

    def test_pool_failure_names_the_root_cause(self):
        # Pickling strips __cause__ from pooled results; the message is
        # the only place the originating exception survives.
        with pytest.raises(
            ExecutionError,
            match=r"root cause: KeyError: 'stale-model-1'",
        ):
            map_ordered(boom_chained, [(1,)], workers=2)

    def test_unchained_failure_omits_the_root_cause_suffix(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,)])
        assert "root cause" not in str(excinfo.value)


class TestSupervisedPoolSerial:
    def test_matches_map_ordered(self):
        tasks = [(i,) for i in range(6)]
        pool = SupervisedPool(workers=1)
        assert pool.map_ordered(double, tasks) == map_ordered(double, tasks)
        assert pool.stats.pool_rebuilds == 0
        assert pool.stats.degraded_to_serial == 0

    def test_on_result_fires_in_order(self):
        seen = []
        SupervisedPool(workers=1).map_ordered(
            double, [(i,) for i in range(4)],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_validation(self):
        with pytest.raises(ConfigError):
            SupervisedPool(workers=0)
        with pytest.raises(ConfigError):
            SupervisedPool(max_rebuilds=-1)
        with pytest.raises(ConfigError):
            SupervisedPool(backoff_base_s=2.0, backoff_cap_s=1.0)
        with pytest.raises(ConfigError):
            SupervisedPool(task_timeout_s=0.0)


class TestSupervisedPoolCrashes:
    def test_worker_sigkill_is_survived(self, tmp_path):
        pool = SupervisedPool(workers=2, backoff_base_s=0.01, backoff_cap_s=0.05)
        out = pool.map_ordered(crash_once, [(i, str(tmp_path)) for i in range(5)])
        assert out == [0, 10, 20, 30, 40]
        assert pool.stats.pool_rebuilds >= 1
        assert pool.stats.tasks_resubmitted >= 1
        assert pool.stats.tasks_completed == 5
        assert pool.stats.backoff_s_total > 0.0

    def test_map_ordered_survives_worker_sigkill(self, tmp_path):
        out = map_ordered(crash_once, [(i, str(tmp_path)) for i in range(5)], workers=2)
        assert out == [0, 10, 20, 30, 40]

    def test_only_lost_tasks_are_resubmitted(self, tmp_path):
        pool = SupervisedPool(workers=1 + 1, backoff_base_s=0.0, backoff_cap_s=0.0)
        pool.map_ordered(crash_once, [(i, str(tmp_path)) for i in range(5)])
        # Results collected before the crash are never re-run: strictly
        # fewer than all five tasks come back for the second generation.
        assert pool.stats.tasks_resubmitted < 5

    def test_degrades_to_serial_when_pool_keeps_dying(self):
        sleeps = []
        pool = SupervisedPool(
            workers=2, max_rebuilds=2,
            backoff_base_s=0.05, backoff_cap_s=0.2,
            sleep=sleeps.append,
        )
        tasks = [(i, os.getpid()) for i in range(3)]
        out = pool.map_ordered(crash_in_worker, tasks)
        assert out == [100, 101, 102]  # finished in-process
        assert pool.stats.degraded_to_serial == 1
        assert pool.stats.pool_rebuilds == 3  # 2 retries + the final strike
        # Capped exponential backoff: 0.05, 0.1 (cap 0.2 never reached).
        assert sleeps == [pytest.approx(0.05), pytest.approx(0.1)]

    def test_pool_breaking_during_submit_is_survived(self, monkeypatch):
        class BreaksOnSecondSubmit(parallel.ProcessPoolExecutor):
            submits = 0

            def submit(self, fn, /, *args, **kwargs):
                type(self).submits += 1
                if type(self).submits == 2:
                    # Let the first task finish so the harvest is
                    # deterministic, then fail as a dead pool does.
                    futures_wait(self._submitted)
                    raise BrokenProcessPool("worker died during submit")
                future = super().submit(fn, *args, **kwargs)
                self._submitted = [future]
                return future

        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        pool = SupervisedPool(workers=2, backoff_base_s=0.0, backoff_cap_s=0.0)
        seen = []
        out = pool.map_ordered(
            double, [(i,) for i in range(4)],
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert out == [0, 2, 4, 6]
        assert sorted(seen) == [(0, 0), (1, 2), (2, 4), (3, 6)]
        assert pool.stats.pool_rebuilds == 1
        assert pool.stats.tasks_resubmitted == 3  # tasks 1-3 never ran
        assert pool.stats.tasks_completed == 4
        assert pool.stats.degraded_to_serial == 0

    def test_backoff_is_capped(self):
        sleeps = []
        pool = SupervisedPool(
            workers=2, max_rebuilds=4,
            backoff_base_s=0.05, backoff_cap_s=0.12,
            sleep=sleeps.append,
        )
        pool.map_ordered(crash_in_worker, [(0, os.getpid())])
        assert sleeps == [
            pytest.approx(0.05), pytest.approx(0.1),
            pytest.approx(0.12), pytest.approx(0.12),
        ]

    def test_hung_task_times_out_and_completes(self, tmp_path):
        pool = SupervisedPool(
            workers=2, task_timeout_s=1.0,
            backoff_base_s=0.0, backoff_cap_s=0.0,
        )
        out = pool.map_ordered(hang_once, [(i, str(tmp_path)) for i in range(3)])
        assert out == [0, -1, -2]
        assert pool.stats.worker_timeouts >= 1
        assert pool.stats.pool_rebuilds >= 1

    def test_task_exception_is_not_retried(self):
        pool = SupervisedPool(workers=2)
        with pytest.raises(ExecutionError, match=r"task 3 of 5"):
            pool.map_ordered(boom, [(i,) for i in range(5)])
        assert pool.stats.pool_rebuilds == 0
        assert pool.stats.tasks_resubmitted == 0

    def test_stats_start_at_zero(self):
        stats = SupervisorStats()
        assert stats == SupervisorStats(0, 0, 0, 0, 0, 0.0)
