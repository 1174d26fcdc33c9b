"""Tests for the engine's ordered map: results and failure context.

``map_ordered`` is the serial ``[fn(*t) for t in tasks]`` loop: results
and ``on_result`` calls come back in task order, and a task exception
surfaces as ``ExecutionError`` naming the failing task's index,
arguments and root cause, with no later task run.
"""

import pytest

from repro.engine.parallel import map_ordered
from repro.errors import ExecutionError, ReproError


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


class TestMapOrderedErrorContext:
    def test_serial_failure_names_index_and_args(self):
        with pytest.raises(ExecutionError, match=r"task 3 of 5.*boom.*ValueError.*args=\(3\)"):
            map_ordered(boom, [(i,) for i in range(5)])

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

    def test_unchained_failure_omits_the_root_cause_suffix(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,)])
        assert "root cause" not in str(excinfo.value)


class TestMapOrdered:
    def test_matches_the_serial_loop(self):
        tasks = [(i,) for i in range(6)]
        assert map_ordered(double, tasks) == [double(*t) for t in tasks]

    def test_on_result_fires_in_order(self):
        seen = []
        map_ordered(
            double, [(i,) for i in range(4)],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_stops_at_the_first_failure(self):
        seen = []
        with pytest.raises(ExecutionError, match=r"task 3 of 5"):
            map_ordered(
                boom, [(i,) for i in range(5)],
                on_result=lambda index, value: seen.append(index),
            )
        assert seen == [0, 1, 2]
